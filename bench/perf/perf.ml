(* The host-cost benchmark: workloads, the measurement loop, the output
   check, and the metrics.  Every workload drives the stock replicated
   service through [Xworkload.Runner], or the explorer's random walk;
   the program is neither changed nor probed for the benchmark. *)

open Xability
module Runner = Xworkload.Runner
module Workloads = Xworkload.Workloads
module Service = Xreplication.Service
module Engine = Xsim.Engine
module Rng = Xsim.Rng
module Explorer = Xexplore.Explorer
module Strategy = Xexplore.Strategy
module Monitor = Xexplore.Monitor

type workload = Hot | Long | Faulty | Explore

let workloads = [ Hot; Long; Faulty; Explore ]

let name = function
  | Hot -> "hot"
  | Long -> "long"
  | Faulty -> "faulty"
  | Explore -> "explore"

let of_name s = List.find_opt (fun w -> String.equal (name w) s) workloads

type load =
  | Closed of { clients : int; lanes : int; per_lane : int }
      (** each of [clients × lanes] lanes sends its next request when the
          previous one is answered *)
  | Open of { lanes : int; per_lane : int; rate_per_kt : float }
      (** each lane sends on its own Poisson schedule whatever the replies
          do; [rate_per_kt] is the total over all lanes *)
  | Walk of { trials : int }
      (** random-walk schedules of the explorer's booking scenario; the
          trials of one unit share a reduction cache, as the explorer's
          chunks do *)

type config = {
  load : load;  (** one unit of measured work *)
  faulty : bool;
      (** 10% drop and 10% duplication under ARQ, replica 0 crashing at a
          seeded tick in [400, 1000), and false-suspicion noise *)
  warmup : load * int;  (** untimed units run before measuring *)
  min_units : int;  (** units measured even when the time is up *)
}

(* Every workload knob is set here.  Knobs the roadmap may delete
   ([codec], [consensus_service_time], the [Service.config.batching]
   override) keep their defaults, so deleting one does not silently
   change what is measured. *)
let config = function
  | Hot ->
      let load = Closed { clients = 4; lanes = 8; per_lane = 4 } in
      { load; faulty = false; warmup = (load, 100); min_units = 200 }
  | Long ->
      {
        load = Closed { clients = 4; lanes = 8; per_lane = 400 };
        faulty = false;
        warmup = (Closed { clients = 4; lanes = 8; per_lane = 40 }, 1);
        min_units = 2;
      }
  | Faulty ->
      (* Short runs, so that a measurement holds hundreds of failovers:
         with 100-request runs the tail came from a handful of runs and
         p99 moved by 15-18% between seeds. *)
      let load = Open { lanes = 4; per_lane = 25; rate_per_kt = 20.0 } in
      { load; faulty = true; warmup = (load, 20); min_units = 250 }
  | Explore ->
      let load = Walk { trials = 16 } in
      { load; faulty = false; warmup = (load, 8); min_units = 1 }

(* Three replicas on the sequenced-log substrate, leased owner, batches
   of 16 with 4 in flight (the E13/E16 hot point). *)
let service_config ~faulty =
  {
    Service.default_config with
    substrate = `Seqlog (Xnet.Latency.Uniform (10, 40));
    lease = Some Xreplication.Lease.default_config;
    replica =
      {
        Xreplication.Replica.default_config with
        batching =
          Some { Xreplication.Batcher.default_config with size = 16; depth = 4 };
      };
    faults =
      (if faulty then
         Xnet.Fault.make ~default:(Xnet.Fault.link ~drop:0.1 ~dup:0.1 ()) ()
       else Xnet.Fault.none);
    channel =
      (if faulty then Service.Arq Xnet.Reliable.default_arq
       else Service.Assumed_reliable);
  }

(* ------------------------------------------------------------------ *)
(* Inputs *)

type op = Put of int | Send | Transfer

type input = {
  engine_seed : int;  (** a walk unit's first trial seed *)
  lanes : op array array;  (** request stream of each lane *)
  dues : int array array;  (** open loop: each request's due tick *)
  crash_at : int option;  (** tick at which replica 0 crashes *)
}

(* 50% kv_put on 64 keys, 25% send, 25% transfer of 1 from alice (who
   starts with 10_000) to bob, so a transfer never runs dry. *)
let gen_op rng =
  match Rng.int rng 4 with
  | 0 | 1 -> Put (Rng.int rng 64)
  | 2 -> Send
  | _ -> Transfer

let explore_base seed = 1_000_000 * seed

(* The inputs of unit [index] (negative for warm-up units) are a pure
   function of the seed, the index and the load. *)
let gen_input ~seed ~index ~faulty load =
  let rng = Rng.create ((seed * 1_000_003) + index) in
  let stream n = Array.init n (fun _ -> gen_op rng) in
  match load with
  | Walk { trials } ->
      {
        engine_seed = explore_base seed + (index * trials);
        lanes = [||];
        dues = [||];
        crash_at = None;
      }
  | Closed { clients; lanes; per_lane } ->
      let engine_seed = Rng.int rng 1_000_000_000 in
      let crash_at = if faulty then Some (400 + Rng.int rng 600) else None in
      let lanes = Array.init (clients * lanes) (fun _ -> stream per_lane) in
      { engine_seed; lanes; dues = [||]; crash_at }
  | Open { lanes; per_lane; rate_per_kt } ->
      let engine_seed = Rng.int rng 1_000_000_000 in
      let crash_at = if faulty then Some (400 + Rng.int rng 600) else None in
      let lanes_ops = Array.init lanes (fun _ -> stream per_lane) in
      let mean = float_of_int lanes *. 1000.0 /. rate_per_kt in
      let dues =
        Array.init lanes (fun _ ->
            let t = ref 0.0 in
            Array.init per_lane (fun _ ->
                t := !t +. Rng.exponential rng ~mean;
                Float.to_int (Float.round !t)))
      in
      { engine_seed; lanes = lanes_ops; dues; crash_at }

(* ------------------------------------------------------------------ *)
(* One simulated run *)

type outcome = {
  failures : string list;  (** empty iff the run passed every check *)
  planned : int;  (** requests the run was to send *)
  latencies : int list;
      (** virtual ticks per answered request, counted from the due tick
          in an open loop *)
  work_end : int;
  end_time : int;
  events : int;  (** environment history length *)
  steps : int;  (** choice points of a walk trial; 0 otherwise *)
  aborted : bool;  (** the online monitor stopped a walk trial *)
  totals : Service.totals;
  false_suspicions : int;
}

let ok o = o.failures = []

(* What traced and untraced runs of the same input must agree on. *)
let fingerprint o =
  Digest.string
    (Marshal.to_string
       (o.failures, o.latencies, o.work_end, o.end_time, o.events, o.steps)
       [])

let keys = Array.init 64 (Printf.sprintf "k%d")

let request client = function
  | Put k -> Workloads.kv_put client ~key:keys.(k) ~value:(Value.int k)
  | Send -> Workloads.send client ~body:"m"
  | Transfer ->
      Workloads.transfer client ~from_acct:"alice" ~to_acct:"bob" ~amount:1

(* A traced run also times [Checker.check] on the captured history, with
   Xobs off so the program's own counters see only the run's check.  It
   must agree with the run's verdict. *)
let timed_check tr env (r : Runner.result) ~check_order =
  let history = Xsm.Environment.history env in
  let expected =
    List.map
      (fun s -> Xsm.Environment.checker_expected env s.Runner.req)
      r.Runner.submissions
  in
  let obs = Xobs.enabled () in
  Xobs.set_enabled false;
  let w0 = Gc.minor_words () in
  let t0 = Layer.now_ns () in
  let report =
    Checker.check ~kinds:(Xsm.Environment.kind_of env)
      ~logical_of:Xsm.Request.logical_of_env_iv
      ~round_of:Xsm.Request.round_of_env_iv ~engine:`Hybrid ~check_order
      ~expected history
  in
  tr.Layer.check_ns <- tr.Layer.check_ns + (Layer.now_ns () - t0);
  tr.Layer.check_words <- tr.Layer.check_words +. (Gc.minor_words () -. w0);
  tr.Layer.check_events <- tr.Layer.check_events + History.length history;
  Xobs.set_enabled obs;
  if Bool.equal report.Checker.ok r.Runner.report.Checker.ok then []
  else [ "separate Checker.check disagrees with the run's verdict" ]

let outcome_of ~extra ~planned ~steps ~aborted (r : Runner.result) =
  {
    failures = extra @ Runner.failures r;
    planned;
    latencies = List.map (fun s -> s.Runner.latency) r.Runner.submissions;
    work_end = r.Runner.work_end_time;
    end_time = r.Runner.end_time;
    events = r.Runner.history_length;
    steps;
    aborted;
    totals = r.Runner.totals;
    false_suspicions = r.Runner.false_suspicions;
  }

let run_requests ?tracer ~faulty ~clients ~inflight inp =
  let spec =
    {
      Runner.default_spec with
      seed = inp.engine_seed;
      time_limit = 5_000_000;
      quiesce_grace = 20_000;
      clients;
      inflight;
      crashes = (match inp.crash_at with Some t -> [ (t, 0) ] | None -> []);
      noise = (if faulty then Some (0.06, 150, 8_000) else None);
      service_config = service_config ~faulty;
    }
  in
  let eng = ref None and env = ref None in
  let prepare e v =
    eng := Some e;
    env := Some v;
    Option.iter
      (fun tr -> Engine.set_chooser e ~window:2 (Some (Layer.chooser tr e)))
      tracer
  in
  (* Lanes start in spawn order, which is deterministic, so each takes
     the next stream. *)
  let next = ref 0 in
  let lateness = ref 0 in
  let workload _ client submit =
    let l = !next in
    incr next;
    let ops = inp.lanes.(l) in
    if inp.dues = [||] then
      Array.iter (fun op -> ignore (submit (request client op))) ops
    else begin
      (* Open loop: every request gets its own fiber at its due tick, so
         a stalled reply never delays later sends. *)
      let eng = Option.get !eng in
      let pending = ref (Array.length ops) in
      let finished = Xsim.Ivar.create () in
      Array.iteri
        (fun j due ->
          let now = Engine.now eng in
          if due > now then Engine.sleep eng (due - now);
          Engine.spawn eng ~proc:(Xreplication.Client.proc client)
            ~name:"workload.req" (fun () ->
              lateness := max !lateness (Engine.now eng - due);
              ignore (submit (request client ops.(j)));
              decr pending;
              if !pending = 0 then Xsim.Ivar.fill finished ()))
        inp.dues.(l);
      Xsim.Ivar.read eng finished
    end
  in
  Option.iter Layer.start tracer;
  let r, _ = Runner.run ~spec ~prepare ~setup:Workloads.setup_all ~workload () in
  Option.iter Layer.stop tracer;
  let late =
    if !lateness = 0 then []
    else [ Printf.sprintf "generator ran %d ticks late" !lateness ]
  in
  let check =
    match tracer with
    | Some tr -> timed_check tr (Option.get !env) r ~check_order:false
    | None -> []
  in
  outcome_of ~extra:(late @ check)
    ~planned:(Array.fold_left (fun n a -> n + Array.length a) 0 inp.lanes)
    ~steps:0 ~aborted:false r

(* E10's sweep: the booking scenario under false-suspicion noise. *)
let scenario ~seed =
  let s = Explorer.booking () in
  {
    s with
    Explorer.spec =
      { s.Explorer.spec with Runner.seed; noise = Some (0.25, 150, 10_000) };
  }

let p_defer, walk_window =
  match Strategy.random_walk () with
  | Strategy.Random_walk { p_defer; window; _ } -> (p_defer, window)
  | _ -> invalid_arg "Strategy.random_walk is not a random walk"

(* One random-walk trial exactly as [Explorer.explore] runs it (same
   seeds, chooser, monitor and verdict), through the explorer's public
   parts: the explorer itself returns only totals and offers no hook for
   the tracer.  [check_explorer] proves the two agree. *)
let run_trial ?tracer ~cache seed =
  let sc = scenario ~seed in
  let rng = Rng.create (seed lxor 0x2545F4914F6CDD) in
  let choose e ~step:_ ~ready =
    let n = Array.length ready in
    let k =
      if n <= 1 then 0
      else if Rng.chance rng p_defer then 1 + Rng.int rng (n - 1)
      else 0
    in
    Option.iter
      (fun tr -> Layer.note tr ~pending:(Engine.pending_events e) ready.(k))
      tracer;
    k
  in
  let eng = ref None and env = ref None and mon = ref None in
  let prepare e v =
    eng := Some e;
    env := Some v;
    Engine.set_chooser e ~window:walk_window (Some (choose e));
    mon := Some (Monitor.install ~eng:e ~env:v ())
  in
  let aborted () = match !mon with Some m -> Monitor.aborted m | None -> false in
  Option.iter Layer.start tracer;
  let r, _ =
    Runner.run ~spec:sc.Explorer.spec ~prepare ~aborted ~cache
      ~setup:Workloads.setup_all ~workload:sc.Explorer.workload ()
  in
  Option.iter Layer.stop tracer;
  let m = Option.get !mon in
  let check =
    match tracer with
    | Some tr -> timed_check tr (Option.get !env) r ~check_order:true
    | None -> []
  in
  outcome_of
    ~extra:(Option.to_list (Monitor.reason m) @ check)
    ~planned:sc.Explorer.requests
    ~steps:(Engine.choice_points (Option.get !eng))
    ~aborted:(Monitor.aborted m) r

let run_unit ?tracer cfg load inp =
  match load with
  | Walk { trials } ->
      let cache = Checker.create_cache () in
      List.init trials (fun i -> run_trial ?tracer ~cache (inp.engine_seed + i))
  | Closed { clients; lanes; _ } ->
      [ run_requests ?tracer ~faulty:cfg.faulty ~clients ~inflight:lanes inp ]
  | Open { lanes; _ } ->
      [ run_requests ?tracer ~faulty:cfg.faulty ~clients:lanes ~inflight:1 inp ]

(* ------------------------------------------------------------------ *)
(* Measuring *)

let zero_totals =
  {
    Service.rounds_owned = 0;
    executions = 0;
    cleanups = 0;
    takeovers = 0;
    replies_sent = 0;
    consensus_proposals = 0;
    consensus_messages = 0;
    coord_msgs = 0;
    service_messages = 0;
  }

let add_totals (a : Service.totals) (b : Service.totals) =
  {
    Service.rounds_owned = a.rounds_owned + b.rounds_owned;
    executions = a.executions + b.executions;
    cleanups = a.cleanups + b.cleanups;
    takeovers = a.takeovers + b.takeovers;
    replies_sent = a.replies_sent + b.replies_sent;
    consensus_proposals = a.consensus_proposals + b.consensus_proposals;
    consensus_messages = a.consensus_messages + b.consensus_messages;
    coord_msgs = a.coord_msgs + b.coord_msgs;
    service_messages = a.service_messages + b.service_messages;
  }

type tally = {
  mutable units : int;
  mutable runs : int;
  mutable planned : int;
  mutable failed : int;  (** planned requests of failed runs *)
  mutable failed_runs : int;
  mutable failures : string list;  (** the first few, for the log *)
  mutable requests : int;  (** answered requests *)
  lat : int array;  (** [lat.(t)]: answered requests with latency t *)
  lat_over : (int, int) Hashtbl.t;  (** the same, for t beyond [lat] *)
  mutable work_ticks : int;
  mutable events : int;
  mutable steps : int;
  mutable aborted : int;
  mutable totals : Service.totals;
  mutable false_suspicions : int;
  mutable digests : string list;  (** per-run fingerprints, newest first *)
  mutable host_ns : int;  (** time spent inside measured runs *)
  mutable words : float;  (** minor words allocated by them *)
  mutable blocks : (float * float) list;
      (** (requests/s, runs/s) over consecutive blocks of units *)
}

(* A fixed-size histogram, so that the harness's own footprint (which
   [peak_heap_mb] sees) does not depend on the latencies of the seed. *)
let lat_slots = 16_384

let new_tally () =
  {
    units = 0;
    runs = 0;
    planned = 0;
    failed = 0;
    failed_runs = 0;
    failures = [];
    requests = 0;
    lat = Array.make lat_slots 0;
    lat_over = Hashtbl.create 16;
    work_ticks = 0;
    events = 0;
    steps = 0;
    aborted = 0;
    totals = zero_totals;
    false_suspicions = 0;
    digests = [];
    host_ns = 0;
    words = 0.0;
    blocks = [];
  }

let record_latency t l =
  if l < lat_slots then t.lat.(l) <- t.lat.(l) + 1
  else
    Hashtbl.replace t.lat_over l
      (1 + Option.value (Hashtbl.find_opt t.lat_over l) ~default:0)

let absorb t ~digests (o : outcome) =
  t.runs <- t.runs + 1;
  t.planned <- t.planned + o.planned;
  if not (ok o) then begin
    t.failed <- t.failed + o.planned;
    t.failed_runs <- t.failed_runs + 1;
    if List.length t.failures < 5 then t.failures <- t.failures @ o.failures
  end;
  List.iter
    (fun l ->
      t.requests <- t.requests + 1;
      record_latency t l)
    o.latencies;
  t.work_ticks <- t.work_ticks + o.work_end;
  t.events <- t.events + o.events;
  t.steps <- t.steps + o.steps;
  if o.aborted then t.aborted <- t.aborted + 1;
  t.totals <- add_totals t.totals o.totals;
  t.false_suspicions <- t.false_suspicions + o.false_suspicions;
  if digests then t.digests <- fingerprint o :: t.digests

let blocks_per_run = 20

(* Run units 0, 1, 2, ... until [stop ~units ~elapsed_ns] holds.  Only
   the runs themselves are timed; generating a unit's inputs and
   tallying its outcomes are not.  Units are grouped into blocks of
   about [seconds / blocks_per_run] each, whose throughputs [host_*]
   report. *)
let measure ?tracer ?(digests = false) cfg ~seed ~seconds ~stop =
  let t = new_tally () in
  let block_target = Float.to_int (seconds *. 1e9) / blocks_per_run in
  let b_ns = ref 0 and b_req = ref 0 and b_runs = ref 0 in
  let close_block () =
    if !b_runs > 0 then begin
      let s = float_of_int !b_ns /. 1e9 in
      t.blocks <-
        (float_of_int !b_req /. s, float_of_int !b_runs /. s) :: t.blocks;
      b_ns := 0;
      b_req := 0;
      b_runs := 0
    end
  in
  let t_start = Layer.now_ns () in
  while not (stop ~units:t.units ~elapsed_ns:(Layer.now_ns () - t_start)) do
    let inp = gen_input ~seed ~index:t.units ~faulty:cfg.faulty cfg.load in
    let check_ns, check_words =
      match tracer with
      | Some tr -> (tr.Layer.check_ns, tr.Layer.check_words)
      | None -> (0, 0.0)
    in
    let w0 = Gc.minor_words () in
    let t0 = Layer.now_ns () in
    let outs = run_unit ?tracer cfg cfg.load inp in
    let dt = Layer.now_ns () - t0 in
    let dw = Gc.minor_words () -. w0 in
    (* The separately timed checks are not part of the runs. *)
    let dt, dw =
      match tracer with
      | Some tr ->
          ( dt - (tr.Layer.check_ns - check_ns),
            dw -. (tr.Layer.check_words -. check_words) )
      | None -> (dt, dw)
    in
    let req0 = t.requests and runs0 = t.runs in
    List.iter (absorb t ~digests) outs;
    t.units <- t.units + 1;
    t.host_ns <- t.host_ns + dt;
    t.words <- t.words +. dw;
    b_ns := !b_ns + dt;
    b_req := !b_req + (t.requests - req0);
    b_runs := !b_runs + (t.runs - runs0);
    if !b_ns >= block_target then close_block ()
  done;
  close_block ();
  t

(* Untimed runs before measuring, so that caches fill and the heap has
   grown; returns the wall time they took and their failures. *)
let warm_up cfg ~seed =
  let load, n = cfg.warmup in
  let t0 = Layer.now_ns () in
  let failures = ref [] in
  for k = 1 to n do
    let inp = gen_input ~seed ~index:(-k) ~faulty:cfg.faulty load in
    List.iter
      (fun (o : outcome) -> failures := !failures @ o.failures)
      (run_unit cfg load inp)
  done;
  (float_of_int (Layer.now_ns () - t0) /. 1e9, !failures)

(* ------------------------------------------------------------------ *)
(* Output checks that are not timed *)

(* The benchmark's own walk must be the explorer's: the explorer's
   verdict on unit 0's seeds equals the benchmark's outcomes for them. *)
let check_explorer ~seed outs =
  let trials = List.length outs in
  let v =
    Explorer.explore ~jobs:1
      (scenario ~seed:(explore_base seed))
      (Strategy.random_walk ~trials ())
  in
  let sum f = List.fold_left (fun n o -> n + f o) 0 outs in
  if
    v.Explorer.explored = trials
    && List.length v.Explorer.violating
       = List.length (List.filter (fun o -> not (ok o)) outs)
    && v.Explorer.choice_points = sum (fun o -> o.steps)
    && v.Explorer.events_total = sum (fun o -> o.events)
  then []
  else [ "benchmark walk differs from Explorer.explore on the same seeds" ]

(* Each seeded protocol bug must be caught within a 64-trial walk (E10's
   sweep, at the booking scenario's own seed), or a clean faithful
   sweep means nothing. *)
let check_mutants () =
  let sc = scenario ~seed:(Explorer.booking ()).Explorer.spec.Runner.seed in
  List.filter_map
    (fun m ->
      let v =
        Explorer.explore ~jobs:1 ~mutation:m sc
          (Strategy.random_walk ~trials:64 ())
      in
      if v.Explorer.violating <> [] then None
      else
        Some
          (Printf.sprintf "mutant %s not caught in 64 trials"
             (Xreplication.Mutation.to_string m)))
    Xreplication.Mutation.all

(* ------------------------------------------------------------------ *)
(* Metrics *)

type metric = { m_name : string; m_unit : string; value : float }

let ratio a b = if b = 0.0 then 0.0 else a /. b
let iratio a b = ratio (float_of_int a) (float_of_int b)

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Other tenants of the machine only ever slow a block down, so the
   fastest quarter of the blocks tracks the program's own cost; the
   median moved by 13-18% between runs when neighbours were busy. *)
let upper_quartile xs =
  match List.sort (fun a b -> compare b a) xs with
  | [] -> 0.0
  | s -> List.nth s (List.length s / 4)

(* Nearest-rank percentile of the recorded latencies. *)
let percentile t p =
  if t.requests = 0 then 0.0
  else
    let rank =
      max 1 (min t.requests (Float.to_int (ceil (p *. float_of_int t.requests))))
    in
    let over =
      List.sort compare (Hashtbl.fold (fun l n acc -> (l, n) :: acc) t.lat_over [])
    in
    let rec go i seen =
      if i = lat_slots then go_over over seen
      else
        let seen = seen + t.lat.(i) in
        if seen >= rank then float_of_int i else go (i + 1) seen
    and go_over over seen =
      match over with
      | (l, n) :: rest ->
          if seen + n >= rank then float_of_int l else go_over rest (seen + n)
      | [] -> 0.0
    in
    go 0 0

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* Host requests per second, as [host_req_per_s] reports it. *)
let req_rate t = upper_quartile (List.map fst t.blocks)

let end_to_end t ~setup_s =
  let f = float_of_int in
  [
    ("setup_s", "s", setup_s);
    ("host_req_per_s", "1/s", req_rate t);
    ("host_sched_per_s", "1/s", upper_quartile (List.map snd t.blocks));
    ("minor_words_per_req", "words", ratio t.words (f t.requests));
    ("minor_words_per_sched", "words", ratio t.words (f t.runs));
    ("peak_heap_mb", "MB", peak_heap_mb ());
    ("sim_p50_ticks", "ticks", percentile t 0.5);
    ("sim_p99_ticks", "ticks", percentile t 0.99);
    ("sim_req_per_kt", "req/kt", iratio (1000 * t.requests) t.work_ticks);
  ]
  |> List.map (fun (m_name, m_unit, value) -> { m_name; m_unit; value })

let counter snap name =
  match Xobs.Snapshot.find snap name with
  | Some (Xobs.Snapshot.Counter n) -> n
  | _ -> 0

(* [t] is the traced pass, [a] its attribution to layers, [base] the
   same units run untraced, and [snap] the program's own counters over
   them. *)
let per_layer (tr : Layer.tracer) (a : Layer.attribution) t snap ~base =
  let req = float_of_int t.requests and runs = float_of_int t.runs in
  let per_req n = ratio (float_of_int n) req in
  let per_run n = ratio (float_of_int n) runs in
  let layer l = Layer.index l in
  let ns l = ratio a.Layer.slot_ns.(layer l) req in
  let words l = ratio a.Layer.slot_words.(layer l) req in
  let c = counter snap in
  let tot = t.totals in
  let dispatched = c "engine.events_dispatched" in
  [
    ("replication.ns_per_req", "ns", ns Layer.Replication);
    ("replication.words_per_req", "words", words Layer.Replication);
    ( "replication.events_per_req",
      "count",
      per_req tr.Layer.events.(layer Layer.Replication) );
    ("replication.rounds_per_req", "count", per_req tot.Service.rounds_owned);
    ("replication.execs_per_req", "count", per_req tot.Service.executions);
    ("replication.takeovers_per_req", "count", per_req tot.Service.takeovers);
    ("replication.cleanups_per_req", "count", per_req tot.Service.cleanups);
    ( "replication.lease_hit_share",
      "share",
      iratio (c "coord.lease_hits") (c "coord.lease_hits" + c "coord.lease_misses")
    );
    ( "replication.batch_fill",
      "share",
      iratio (c "repl.batch_requests") (16 * c "repl.batch_flushes") );
    ("net.ns_per_req", "ns", ns Layer.Net);
    ("net.words_per_req", "words", words Layer.Net);
    ("net.deliveries_per_req", "count", per_req tr.Layer.events.(layer Layer.Net));
    ("net.msgs_per_req", "count", per_req tot.Service.service_messages);
    ("net.retransmits_per_req", "count", per_req (c "net.retransmits"));
    ("net.dedup_drops_per_req", "count", per_req (c "net.dedup_drops"));
    ("sim.timer_ns_per_req", "ns", ns Layer.Timer);
    ("sim.timer_words_per_req", "words", words Layer.Timer);
    ("consensus.ns_per_req", "ns", ns Layer.Consensus);
    ("consensus.words_per_req", "words", words Layer.Consensus);
    ( "consensus.proposals_per_req",
      "count",
      per_req tot.Service.consensus_proposals );
    ("consensus.msgs_per_req", "count", per_req tot.Service.consensus_messages);
    ( "consensus.view_changes_per_run",
      "count",
      per_run (c "consensus.view_changes") );
    ("sm.ns_per_req", "ns", ns Layer.Sm);
    ("sm.words_per_req", "words", words Layer.Sm);
    ("sm.history_events_per_req", "count", per_req t.events);
    ("client.ns_per_req", "ns", ns Layer.Client);
    ("client.words_per_req", "words", words Layer.Client);
    ("detect.ns_per_req", "ns", ns Layer.Detect);
    ("detect.false_suspicions_per_run", "count", per_run t.false_suspicions);
    ("workload.build_ms_per_run", "ms", ratio a.Layer.build runs /. 1e6);
    ("workload.verify_ms_per_run", "ms", ratio a.Layer.verify runs /. 1e6);
    ( "core.check_ns_per_event",
      "ns",
      iratio tr.Layer.check_ns tr.Layer.check_events );
    ("core.searches_per_run", "count", per_run (c "reduction.searches"));
    ("explore.steps_per_sched", "count", per_run t.steps);
    ("explore.events_per_sched", "count", per_run t.events);
    ("explore.online_abort_share", "share", per_run t.aborted);
    ("core.visited_per_sched", "count", per_run (c "reduction.visited"));
    ("sim.events_per_req", "count", per_req dispatched);
    ("sim.attributed_share", "share", iratio tr.Layer.decisions dispatched);
    ("trace.overhead", "ratio", ratio (req_rate base) (req_rate t));
  ]
  |> List.map (fun (m_name, m_unit, value) -> { m_name; m_unit; value })

(* ------------------------------------------------------------------ *)
(* One benchmark run *)

type report = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  problems : string list;  (** why [correct] is false *)
  summary : string;  (** one human-readable line for the log *)
}

(* [setup_s] is the median of this many warm-ups. *)
let setup_repeats = 5

(* p99.9 is logged, not reported: over ten seeds it moved by 8-40%
   between runs on [long] and [faulty], more than any bound allows. *)
let summary w t =
  Printf.sprintf
    "workload=%s units=%d runs=%d requests=%d latency-samples=%d \
     p99.9=%.0f ticks measured=%.2fs"
    (name w) t.units t.runs t.planned t.requests (percentile t 0.999)
    (float_of_int t.host_ns /. 1e9)

let run ?cfg w ~seed ~seconds ~traced =
  let cfg = Option.value cfg ~default:(config w) in
  let timed_stop ~min_units secs ~units ~elapsed_ns =
    units >= min_units && float_of_int elapsed_ns >= secs *. 1e9
  in
  let setups = List.init setup_repeats (fun _ -> warm_up cfg ~seed) in
  let setup_problems = List.concat_map snd setups in
  let finish t metrics extra =
    let explore_problems =
      match cfg.load with
      | Walk _ ->
          (* Unit 0 again, untimed, held against the explorer. *)
          let inp = gen_input ~seed ~index:0 ~faulty:false cfg.load in
          check_explorer ~seed (run_unit cfg cfg.load inp) @ check_mutants ()
      | _ -> []
    in
    let problems =
      setup_problems @ t.failures @ explore_problems @ extra
      @ List.filter_map
          (fun m ->
            if Float.is_finite m.value then None
            else Some (m.m_name ^ " is not a number"))
          metrics
    in
    (* A walk attempts schedules; the other workloads attempt requests. *)
    let attempted, failed =
      match cfg.load with
      | Walk _ -> (t.runs, t.failed_runs)
      | _ -> (t.planned, t.failed)
    in
    {
      correct = problems = [];
      attempted;
      failed;
      metrics;
      problems;
      summary = summary w t;
    }
  in
  if not traced then begin
    let t =
      measure cfg ~seed ~seconds
        ~stop:(timed_stop ~min_units:cfg.min_units seconds)
    in
    let setup_s = median (List.map fst setups) in
    finish t (end_to_end t ~setup_s) []
  end
  else begin
    (* Three passes over the same units: traced, counted by Xobs, and
       plain.  Xobs gets a pass of its own so that its cost does not
       land in the layers.  No latency is reported, so one unit will do. *)
    let overhead = Layer.calibrate ~picks:(match cfg.load with Walk _ -> true | _ -> false) in
    let tr = Layer.create () in
    let t =
      measure ~tracer:tr ~digests:true cfg ~seed ~seconds:(seconds /. 3.0)
        ~stop:(timed_stop ~min_units:1 (seconds /. 3.0))
    in
    let again () =
      measure ~digests:true cfg ~seed ~seconds:(seconds /. 3.0)
        ~stop:(fun ~units ~elapsed_ns:_ -> units >= t.units)
    in
    Xobs.set_enabled true;
    Xobs.reset ();
    let counted = again () in
    let snap = Xobs.snapshot () in
    Xobs.set_enabled false;
    let base = again () in
    let extra =
      (if t.digests = base.digests && counted.digests = base.digests then []
       else [ "traced, counted and plain runs differ" ])
      @
      match Layer.unknown_labels tr with
      | [] -> []
      | ls -> [ "events with no layer: " ^ String.concat ", " ls ]
    in
    let a =
      Layer.attribute tr overhead
        ~host_ns:(float_of_int t.requests *. 1e9 /. req_rate base)
        ~words:base.words
    in
    let r = finish t (per_layer tr a t snap ~base) extra in
    {
      r with
      summary =
        Printf.sprintf
          "%s; layers less the calibrated tracing cost came to %.0f%% of the \
           untraced time and %.0f%% of its allocation"
          r.summary (100.0 *. a.Layer.time_fit) (100.0 *. a.Layer.words_fit);
    }
  end

let json_number v = Printf.sprintf "%.17g" (if Float.is_finite v then v else 0.0)

(* Metric names and units are plain identifiers: nothing to escape. *)
let to_json r =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.m_name
              (json_number m.value) m.m_unit)
          r.metrics))
