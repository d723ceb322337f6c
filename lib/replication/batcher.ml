(* Request coalescing and pipelining at the current owner.

   The batcher sits between a replica's dispatcher and its batch-log
   fiber: concurrently-pending client requests are coalesced into one
   batch (bounded by [size], or by the [tick] epoch timer when traffic is
   too thin to fill a batch), and at most [depth] batches are in flight at
   once — the replica's bounded pipeline.  Each flush spawns one fiber
   which runs the whole batch through a single owner/outcome consensus
   sequence (see {!Replica}); the batcher itself only owns the queueing
   discipline, so it can be tested and reasoned about in isolation. *)

type config = {
  size : int;  (* max requests per batch *)
  tick : int;  (* epoch timer: flush a partial batch after this delay *)
  depth : int;  (* max batches in flight (pipeline depth) *)
}

let default_config = { size = 16; tick = 100; depth = 4 }

type 'req t = {
  eng : Xsim.Engine.t;
  cfg : config;
  spawn : string -> (unit -> unit) -> unit;
  run : bid:int -> 'req list -> unit;
  queue : 'req Queue.t;
  mutable in_flight : int;
  mutable bid : int;  (* batches flushed so far; next batch is bid + 1 *)
  mutable timer_armed : bool;
  mutable tick_due : bool;  (* an epoch expired with requests waiting *)
  (* Observability handles, fetched once if enabled. *)
  obs : (Xobs.Counter.t * Xobs.Counter.t * Xobs.Histogram.t) option;
}

let create ~eng ~config ~spawn ~run () =
  {
    eng;
    cfg =
      {
        size = max 1 config.size;
        tick = max 1 config.tick;
        depth = max 1 config.depth;
      };
    spawn;
    run;
    queue = Queue.create ();
    in_flight = 0;
    bid = 0;
    timer_armed = false;
    tick_due = false;
    obs =
      (if Xobs.enabled () then
         Some
           ( Xobs.counter "repl.batch_flushes",
             Xobs.counter "repl.batch_requests",
             Xobs.histogram "repl.batch_size" )
       else None);
  }

let pending t = Queue.length t.queue
let in_flight t = t.in_flight

let flush t =
  let n = min t.cfg.size (Queue.length t.queue) in
  let batch = List.init n (fun _ -> Queue.pop t.queue) in
  t.in_flight <- t.in_flight + 1;
  t.bid <- t.bid + 1;
  let bid = t.bid in
  (match t.obs with
  | Some (flushes, reqs, size) ->
      Xobs.Counter.incr flushes;
      Xobs.Counter.add reqs n;
      Xobs.Histogram.record size n
  | None -> ());
  bid, batch

(* Flush as long as a pipeline slot is free and either a full batch is
   waiting or an epoch expired with a partial one. *)
let rec maybe_flush t =
  if
    t.in_flight < t.cfg.depth
    && (Queue.length t.queue >= t.cfg.size
       || (t.tick_due && not (Queue.is_empty t.queue)))
  then begin
    if Queue.length t.queue < t.cfg.size then t.tick_due <- false;
    let bid, batch = flush t in
    t.spawn ("batch" ^ string_of_int bid) (fun () ->
        t.run ~bid batch;
        t.in_flight <- t.in_flight - 1;
        maybe_flush t);
    maybe_flush t
  end
  else if Queue.is_empty t.queue then t.tick_due <- false

and arm_tick t =
  if (not t.timer_armed) && not (Queue.is_empty t.queue) then begin
    t.timer_armed <- true;
    Xsim.Timer.after_into t.eng t.cfg.tick (fun () ->
        t.timer_armed <- false;
        t.tick_due <- true;
        maybe_flush t;
        (* Requests may still be queued (pipeline full): keep ticking. *)
        arm_tick t;
        true)
  end

let enqueue t req =
  Queue.add req t.queue;
  maybe_flush t;
  arm_tick t
