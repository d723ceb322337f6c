open Effect
open Effect.Deep

type 'a resumer = ('a, exn) result -> bool

(* A fiber suspends by performing [Suspend register]: the handler builds
   the fiber's one-shot resumer and hands it to [register]. *)
type _ Effect.t += Suspend : ((('a, exn) result -> bool) -> unit) -> 'a Effect.t

type fiber = {
  fname : string;
  resume_label : string;  (* ["resume:" ^ fname], built once at spawn *)
  proc : Proc.t option;
}

(* A scheduling decision point.  When a chooser is installed, every pop of
   the event queue offers the chooser a window of up-next events (their
   labels, in queue order) and lets it pick which one runs first.  Index 0
   is always the default FIFO order, so the identity chooser reproduces
   the unexplored simulation exactly. *)
type chooser = step:int -> ready:string array -> int

(* Handles are fetched once at [create] when observability is on;
   when off the per-event cost is a single [None] match. *)
type obs = {
  o_events : Xobs.Counter.t;  (* engine.events_dispatched *)
  o_depth : Xobs.Gauge.t;     (* engine.heap_depth *)
  o_window : Xobs.Histogram.t;(* engine.ready_window *)
  o_choices : Xobs.Counter.t; (* engine.choice_points *)
  o_run : Xobs.Span.t;        (* engine.run *)
}

type entry = (int * int) * (string * (unit -> unit))

type t = {
  mutable vnow : int;
  mutable seq : int;
  queue : (int * int, string * (unit -> unit)) Heap.t;
  root_rng : Rng.t;
  tr : Trace.t;
  mutable current : fiber option;
  mutable stop : bool;
  mutable errs : (int * string * exn) list;
  mutable chooser : chooser option;
  mutable window : int;
  mutable ready : entry array;
      (* the decision in progress: its window, off the queue *)
  mutable n_ready : int;
  mutable choice_points : int;
  obs : obs option;
}

let make_obs () =
  if Xobs.enabled () then
    Some
      {
        o_events = Xobs.counter "engine.events_dispatched";
        o_depth = Xobs.gauge "engine.heap_depth";
        o_window = Xobs.histogram "engine.ready_window";
        o_choices = Xobs.counter "engine.choice_points";
        o_run = Xobs.span "engine.run";
      }
  else None

let create ?(seed = 42) ?(trace_enabled = true) () =
  {
    vnow = 0;
    seq = 0;
    queue = Heap.create ();
    root_rng = Rng.create seed;
    tr = Trace.create ~enabled:trace_enabled ();
    current = None;
    stop = false;
    errs = [];
    chooser = None;
    window = 1;
    ready = [||];
    n_ready = 0;
    choice_points = 0;
    obs = make_obs ();
  }

let no_entry : entry = ((0, 0), ("", ignore))

let set_chooser t ?(window = 4) chooser =
  t.chooser <- chooser;
  t.window <- max 1 window;
  t.ready <- Array.make t.window no_entry

let choice_points t = t.choice_points

let now t = t.vnow
let rng t = t.root_rng
let trace t = t.tr

let current_proc t =
  match t.current with None -> None | Some f -> f.proc

let current_fiber_name t =
  match t.current with None -> "-" | Some f -> f.fname

(* The check is made at each call: the explorer may turn the trace on
   after the engine is built.  Off, the arguments are consumed unprinted,
   so a [%a] printer never runs and no text is built. *)
let tracef t ~source fmt =
  if Trace.is_enabled t.tr then
    Format.kasprintf (fun s -> Trace.record t.tr ~time:t.vnow ~source s) fmt
  else Format.ikfprintf ignore Format.str_formatter fmt

let schedule t ?(label = "cb") ~delay cb =
  if delay < 0 then
    invalid_arg (Printf.sprintf "Engine.schedule: negative delay %d" delay);
  t.seq <- t.seq + 1;
  Heap.add t.queue (t.vnow + delay, t.seq) (label, cb);
  match t.obs with
  | Some o -> Xobs.Gauge.set o.o_depth (Heap.size t.queue)
  | None -> ()

let request_stop t = t.stop <- true
let stop_requested t = t.stop
let errors t = List.rev t.errs
let pending_events t = Heap.size t.queue + t.n_ready

let handler t (f : fiber) : (unit, unit) Effect.Deep.handler =
  {
    retc = (fun () -> ());
    exnc = (fun e -> t.errs <- (t.vnow, f.fname, e) :: t.errs);
    effc =
      (fun (type b) (eff : b Effect.t) ->
        match eff with
        | Suspend register ->
            Some
              (fun (k : (b, unit) continuation) ->
                let resumed = ref false in
                let resume (r : (b, exn) result) =
                  if !resumed || not (Proc.alive_opt f.proc) then false
                  else begin
                    resumed := true;
                    schedule t ~label:f.resume_label ~delay:0 (fun () ->
                        if Proc.alive_opt f.proc then begin
                          let saved = t.current in
                          t.current <- Some f;
                          (match r with
                          | Ok v -> continue k v
                          | Error e -> discontinue k e);
                          t.current <- saved
                        end);
                    true
                  end
                in
                register resume)
        | _ -> None);
  }

let spawn t ?proc ~name fn =
  let f = { fname = name; resume_label = "resume:" ^ name; proc } in
  schedule t ~label:("spawn:" ^ name) ~delay:0 (fun () ->
      if Proc.alive_opt proc then begin
        let saved = t.current in
        t.current <- Some f;
        match_with fn () (handler t f);
        t.current <- saved
      end)

let await (type a) _t (register : a resumer -> unit) : a =
  perform (Suspend register)

let sleep t delay =
  await t (fun resume ->
      schedule t ~label:"timer" ~delay (fun () -> ignore (resume (Ok ()))))

let yield t = sleep t 0

(* Pop the next event.  Without a chooser this is the plain heap pop
   (FIFO among same-time events).  With one, the chooser sees a window of
   the [window] up-next events within [limit] and picks which runs first.
   Keys are unique and ordered by time first, so that window is exactly
   the first [window] pops within [limit]: they come off the queue, the
   chooser picks one, and the others go back under their own keys.  A
   decision costs O(window * log n) and allocates O(window) words, however
   deep the queue.
   Picking a later entry models extra asynchrony: the passed-over events
   execute later in virtual time than originally scheduled, which the
   asynchronous model always allows.  Virtual time stays monotone: an
   event chosen from the future advances the clock, and the deferred
   events then run at that later time. *)
let rec fill_ready t ~limit =
  if t.n_ready < t.window then
    match Heap.pop t.queue with
    | None -> ()
    | Some (((time, _), _) as e) when time > limit -> Heap.push t.queue e
    | Some e ->
        t.ready.(t.n_ready) <- e;
        t.n_ready <- t.n_ready + 1;
        fill_ready t ~limit

(* Put the window back on the queue, all but entry [keep]. *)
let restore_ready t ~keep =
  for i = 0 to t.n_ready - 1 do
    if i <> keep then Heap.push t.queue t.ready.(i)
  done;
  t.n_ready <- 0

let pop_next t ~limit =
  match t.chooser with
  | None -> Heap.pop t.queue
  | Some choose ->
      fill_ready t ~limit;
      let n = t.n_ready in
      if n <= 1 then begin
        t.n_ready <- 0;
        if n = 0 then None else Some t.ready.(0)
      end
      else begin
        let labels = Array.init n (fun i -> fst (snd t.ready.(i))) in
        let step = t.choice_points in
        t.choice_points <- t.choice_points + 1;
        (match t.obs with
        | Some o ->
            Xobs.Counter.incr o.o_choices;
            Xobs.Histogram.record o.o_window n
        | None -> ());
        match choose ~step ~ready:labels with
        | k ->
            let k = if k < 0 then 0 else min k (n - 1) in
            restore_ready t ~keep:k;
            Some t.ready.(k)
        | exception e ->
            restore_ready t ~keep:(-1);
            raise e
      end

let run ?(limit = max_int) t =
  t.stop <- false;
  let t0 = t.vnow in
  let rec loop () =
    if t.stop then ()
    else
      match Heap.peek t.queue with
      | None -> ()
      | Some ((time, _), _) when time > limit -> t.vnow <- limit
      | Some _ ->
          (match pop_next t ~limit with
          | None -> ()
          | Some ((time, _), (_, cb)) ->
              (match t.obs with
              | Some o -> Xobs.Counter.incr o.o_events
              | None -> ());
              t.vnow <- max t.vnow time;
              cb ());
          loop ()
  in
  loop ();
  match t.obs with
  | Some o -> Xobs.Span.record o.o_run ~t0 ~t1:t.vnow
  | None -> ()
