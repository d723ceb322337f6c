(* The schedule-space explorer: drive the deterministic simulator as a
   model-checker-style harness.  A scenario fixes the workload; a
   strategy proposes schedules; each schedule runs with a scheduling
   chooser and an online x-ability monitor installed, so violating runs
   abort early; violations are shrunk to minimal counterexamples.

   Parallelism: schedules are independent deterministic runs, so they
   fan out over [Xpar.Pool] domains.  Work is cut into fixed-size chunks
   whose layout does NOT depend on the pool size — each chunk shares one
   reduction-search cache, and results merge in order — so a sweep's
   output is byte-identical for any [JOBS] value. *)

open Xability
module Runner = Xworkload.Runner
module Workloads = Xworkload.Workloads

(* ------------------------------------------------------------------ *)
(* Scenarios *)

type scenario = {
  name : string;
  spec : Runner.spec;
  requests : int;
  faults : Schedule.fault_plan;
      (** base network fault plan stamped on every schedule (strategies
          may refine it further) *)
  workload :
    Workloads.services ->
    Xreplication.Client.t ->
    (Xsm.Request.t -> Value.t) ->
    unit;
  sharded_workload :
    Workloads.services ->
    Xshard.Deployment.t ->
    Xshard.Deployment.session ->
    unit;
      (** the per-session lane body of a schedule with more than one
          shard; a one-shard run drives [workload] instead *)
}

(* The built-in scenarios share a generous time limit and quiesce grace,
   and run the cross-shard mix when a schedule shards them.
   [cross_every = 3] (not 2) so the undoable [reserve] arm actually fires
   on even non-cross iterations — the round-varying output is what makes
   scheduling bugs observable. *)
let scenario name ~requests ~faults workload =
  {
    name;
    spec =
      { Runner.default_spec with time_limit = 400_000; quiesce_grace = 6_000 };
    requests;
    faults;
    workload;
    sharded_workload =
      (fun _svcs d sess ->
        Workloads.sharded_mix ~n:requests ~cross_every:3 d sess);
  }

(* Booking is the canonical explorer workload: [reserve] is undoable and
   its output (the seat) is drawn fresh on each retry round, so a
   protocol that lets two rounds survive — or replies with an aborted
   round's seat — produces an observable value conflict, not a silent
   duplicate. *)
let booking ?(requests = 3) ?(faults = Schedule.no_faults) () =
  scenario "booking" ~requests ~faults (fun _svcs client submit ->
      for i = 1 to requests do
        ignore
          (submit (Workloads.reserve client ~passenger:(Printf.sprintf "p%d" i)))
      done)

let mixed ?(requests = 4) ?(faults = Schedule.no_faults) () =
  scenario "mixed" ~requests ~faults (fun _svcs client submit ->
      Workloads.sequence Workloads.Mixed ~n:requests client submit)

(* ------------------------------------------------------------------ *)
(* Running one schedule *)

type outcome = {
  schedule : Schedule.t;
  violations : string list;  (** empty = the run is clean *)
  online_abort : bool;  (** the monitor stopped the run early *)
  steps : int;  (** choice points offered to the chooser *)
  events : int;  (** environment history length *)
  end_time : int;  (** virtual end time *)
  obs : Xobs.Snapshot.t;
      (** this run's observability snapshot; {!Xobs.Snapshot.empty}
          when instrumentation is off *)
}

let violating o = o.violations <> []

(* Translate a schedule's fault plan (replica indices, probabilities)
   into the transport's terms (addresses, Fault.t). *)
let net_faults_of_plan (fp : Schedule.fault_plan) =
  if Schedule.faults_are_none fp then Xnet.Fault.none
  else
    Xnet.Fault.make
      ~default:
        (Xnet.Fault.link ~drop:fp.Schedule.loss ~dup:fp.Schedule.dup_prob
           ~jitter:fp.Schedule.jitter ())
      ~partitions:
        (List.map
           (fun (s, h, idxs) ->
             {
               Xnet.Fault.from_t = s;
               until_t = h;
               group =
                 List.map
                   (fun i -> Xnet.Address.make ~role:"replica" ~index:i)
                   idxs;
             })
           fp.Schedule.partitions)
      ~forced:
        (List.map
           (fun (i, a) ->
             (i, if a = 1 then Xnet.Fault.Duplicate else Xnet.Fault.Drop))
           fp.Schedule.forced)
      ()

let apply scenario (sch : Schedule.t) : Runner.spec =
  let sc = scenario.spec.Runner.service_config in
  (* A schedule with a fault plan means "lossy wire under the reliable
     channel layer": the ARQ channel is switched in unless the scenario
     explicitly configured one.  Raw-lossy runs (channel assumption
     knowingly broken) are configured on the scenario spec directly, not
     through schedules. *)
  let faults, channel =
    if Schedule.faults_are_none sch.Schedule.faults then
      (sc.Xreplication.Service.faults, sc.Xreplication.Service.channel)
    else
      ( net_faults_of_plan sch.Schedule.faults,
        match sc.Xreplication.Service.channel with
        | Xreplication.Service.Assumed_reliable ->
            Xreplication.Service.Arq Xnet.Reliable.default_arq
        | c -> c )
  in
  (* Batching/load dimensions: a schedule that carries them overrides
     the scenario; one that does not leaves the scenario's own setting
     (usually off/sequential) untouched. *)
  let replica = sc.Xreplication.Service.replica in
  let replica =
    {
      replica with
      mutation = sch.Schedule.mutation;
      batching =
        (match sch.Schedule.batching with
        | Some (size, depth, tick) ->
            Some { Xreplication.Batcher.size; tick; depth }
        | None -> replica.Xreplication.Replica.batching);
    }
  in
  let clients, inflight =
    match sch.Schedule.load with
    | Some (c, k) -> (c, k)
    | None -> (scenario.spec.Runner.clients, scenario.spec.Runner.inflight)
  in
  (* A [shards] override moves the run onto an N-way sharded deployment;
     router blocks become the router config's partition windows.  Crash
     indices are then flat ([shard * n_replicas + r]), which Runner
     forwards to {!Xshard.Deployment.kill_replica} unchanged. *)
  let shards =
    match sch.Schedule.shards with
    | Some n -> n
    | None -> scenario.spec.Runner.shards
  in
  let router =
    if sch.Schedule.router_blocks = [] then scenario.spec.Runner.router
    else
      {
        scenario.spec.Runner.router with
        Xshard.Deployment.blocked = sch.Schedule.router_blocks;
      }
  in
  (* Lease/substrate overrides: a [lease=1] schedule arms the leased-owner
     fast path with the default grant parameters; a [sub=<name>] schedule
     swaps the consensus substrate (latencies match xrepl's --substrate
     flag).  Both default to the scenario's own settings, so pre-existing
     schedules replay byte-identically. *)
  let lease =
    if sch.Schedule.lease then Some Xreplication.Lease.default_config
    else sc.Xreplication.Service.lease
  in
  let substrate =
    Option.bind sch.Schedule.substrate (fun name ->
        List.assoc_opt name Xreplication.Coord.substrates)
    |> Option.value ~default:sc.Xreplication.Service.substrate
  in
  {
    scenario.spec with
    Runner.seed = sch.Schedule.seed;
    crashes = sch.Schedule.crashes;
    client_crash_at = sch.Schedule.client_crash_at;
    noise = sch.Schedule.noise;
    clients;
    inflight;
    shards;
    router;
    service_config =
      {
        sc with
        Xreplication.Service.replica;
        faults;
        channel;
        lease;
        substrate;
      };
  }

(* The schedule checks that need the deployment: crash indices are flat
   over every group's replicas, so their range is only known once the
   schedule's overrides are applied to the scenario. *)
let check scenario sch =
  let spec = apply scenario sch in
  let n =
    spec.Runner.service_config.Xreplication.Service.n_replicas
    * spec.Runner.shards
  in
  match List.find_opt (fun (_, i) -> i >= n) sch.Schedule.crashes with
  | None -> Ok ()
  | Some (_, i) ->
      let token =
        String.concat ","
          (List.map (fun (at, i) -> Printf.sprintf "%d:%d" at i)
             sch.Schedule.crashes)
      in
      Error
        (Printf.sprintf
           "bad token 'crashes=%s': replica index %d out of range (%d replicas)"
           token i n)

(* Run a schedule with chooser [choose] installed; [sch] is the identity
   recorded in the outcome (for the random walk, its shifts are filled in
   by the recording chooser only after the run). *)
let run_with ?cache ?(with_trace = false) scenario sch
    ~(choose : Xsim.Engine.chooser) =
  (* Each schedule gets a fresh domain-local registry so its snapshot is
     a pure function of the schedule, independent of pool placement. *)
  let obs_on = Xobs.enabled () in
  if obs_on then Xobs.reset ();
  let spec = apply scenario sch in
  let eng_ref = ref None in
  let mon_ref = ref None in
  let prepare eng env =
    eng_ref := Some eng;
    if with_trace then Xsim.Trace.set_enabled (Xsim.Engine.trace eng) true;
    Xsim.Engine.set_chooser eng ~window:sch.Schedule.window (Some choose);
    mon_ref := Some (Monitor.install ~eng ~env ())
  in
  let aborted () =
    match !mon_ref with Some m -> Monitor.aborted m | None -> false
  in
  let result, _srv, _dep =
    Runner.run_deployment ~spec ~prepare ~aborted ?cache
      ~setup:(fun env -> Workloads.setup_all env)
      ~workload:
        (if spec.Runner.shards > 1 then scenario.sharded_workload
         else Runner.client_lane scenario.workload)
      ()
  in
  let monitor = Option.get !mon_ref in
  let eng = Option.get !eng_ref in
  let violations =
    match Monitor.reason monitor with
    | Some r -> [ r ]
    | None -> if Runner.ok result then [] else Runner.failures result
  in
  let obs_snap =
    if not obs_on then Xobs.Snapshot.empty
    else begin
      Xobs.Counter.incr (Xobs.counter "explore.schedules");
      if violations <> [] then Xobs.Counter.incr (Xobs.counter "explore.violations");
      if Monitor.aborted monitor then begin
        Xobs.Counter.incr (Xobs.counter "explore.online_aborts");
        (* Abort depth: how far into the run (history events) the online
           monitor caught the irrevocable pattern. *)
        Xobs.Histogram.record
          (Xobs.histogram "explore.abort_depth")
          result.Runner.history_length
      end;
      Xobs.Span.record (Xobs.span "explore.run") ~t0:0
        ~t1:result.Runner.end_time;
      Xobs.snapshot ()
    end
  in
  let outcome =
    {
      schedule = sch;
      violations;
      online_abort = Monitor.aborted monitor;
      steps = Xsim.Engine.choice_points eng;
      events = result.Runner.history_length;
      end_time = result.Runner.end_time;
      obs = obs_snap;
    }
  in
  (outcome, result, eng)

let run_schedule ?cache scenario sch =
  let outcome, _, _ =
    run_with ?cache scenario sch ~choose:(Schedule.chooser sch)
  in
  outcome

let replay ?cache ?(with_trace = false) scenario sch =
  let outcome, result, eng =
    run_with ?cache ~with_trace scenario sch ~choose:(Schedule.chooser sch)
  in
  (outcome, result, Xsim.Engine.trace eng)

(* A random-walk trial: run with a recording chooser, then return the
   outcome under the replayable schedule it recorded. *)
let run_recorded ?cache scenario (base : Schedule.t) ~p_defer ~walk_seed =
  let rng = Xsim.Rng.create walk_seed in
  let recorded = ref [] in
  let choose ~step ~ready =
    let n = Array.length ready in
    if n <= 1 then 0
    else if Xsim.Rng.chance rng p_defer then begin
      let k = 1 + Xsim.Rng.int rng (n - 1) in
      recorded := (step, k) :: !recorded;
      k
    end
    else 0
  in
  let outcome, _, _ = run_with ?cache scenario base ~choose in
  let sch = { base with Schedule.shifts = List.rev !recorded } in
  { outcome with schedule = sch }

(* ------------------------------------------------------------------ *)
(* Parallel sweeps *)

let rec split n = function
  | x :: xs when n > 0 ->
      let taken, rest = split (n - 1) xs in
      (x :: taken, rest)
  | xs -> ([], xs)

let rec chunk_list size xs =
  match split size xs with
  | [], _ -> []
  | chunk, rest -> chunk :: chunk_list size rest

(* Map over the pool in chunks of fixed size, one reduction cache per
   chunk.  Chunk layout is independent of the pool size, so the result
   list is identical whatever [JOBS] is. *)
let pool_map pool ~chunk f xs =
  List.concat
    (Xpar.Pool.map pool
       (fun c ->
         let cache = Checker.create_cache () in
         List.map (f ~cache) c)
       (chunk_list chunk xs))

type verdict = {
  v_scenario : string;
  v_strategy : string;
  v_mutation : Xreplication.Mutation.t;
  explored : int;
  violating : outcome list;  (** discovery order *)
  choice_points : int;  (** summed over explored runs *)
  events_total : int;
  v_obs : Xobs.Snapshot.t;
      (** per-run snapshots merged in schedule order (which is fixed by
          the chunk layout, so this is byte-identical across [JOBS]) *)
}

let empty_verdict scenario strategy mutation =
  {
    v_scenario = scenario.name;
    v_strategy = Strategy.name strategy;
    v_mutation = mutation;
    explored = 0;
    violating = [];
    choice_points = 0;
    events_total = 0;
    v_obs = Xobs.Snapshot.empty;
  }

let fold_outcomes v outcomes =
  List.fold_left
    (fun v o ->
      {
        v with
        explored = v.explored + 1;
        violating = (if violating o then v.violating @ [ o ] else v.violating);
        choice_points = v.choice_points + o.steps;
        events_total = v.events_total + o.events;
        v_obs = Xobs.Snapshot.merge v.v_obs o.obs;
      })
    v outcomes

let base_schedule scenario ~mutation ~seed ~window =
  Schedule.make ~window ~mutation ~crashes:scenario.spec.Runner.crashes
    ?client_crash_at:scenario.spec.Runner.client_crash_at
    ?noise:scenario.spec.Runner.noise ~faults:scenario.faults ~seed ()

(* The one explore loop: run the strategy's frontier in waves, fold the
   outcomes, and append each run's children.  Waves have a fixed size
   (independent of the pool size), so [stop_on_first] stops at a
   deterministic point. *)
let explore ?jobs ?(chunk = 16) ?(stop_on_first = false)
    ?(mutation = Xreplication.Mutation.Faithful) scenario
    (strategy : Strategy.t) =
  let plan =
    Strategy.plan strategy ~base:(base_schedule scenario ~mutation)
      ~seed:scenario.spec.Runner.seed
  in
  let run ~cache = function
    | Strategy.Run sch -> run_schedule ~cache scenario sch
    | Strategy.Walk { base; p_defer; walk_seed } ->
        run_recorded ~cache scenario base ~p_defer ~walk_seed
  in
  let pool = Xpar.Pool.create ?domains:jobs () in
  let rec loop v frontier budget =
    if frontier = [] || budget <= 0 || (stop_on_first && v.violating <> [])
    then v
    else
      let wave, rest = split (min budget (4 * chunk)) frontier in
      let outs = pool_map pool ~chunk run wave in
      let children =
        List.concat_map
          (fun o -> plan.Strategy.children o.schedule ~steps:o.steps)
          outs
      in
      loop (fold_outcomes v outs) (rest @ children)
        (budget - List.length wave)
  in
  let v =
    loop (empty_verdict scenario strategy mutation) plan.Strategy.frontier
      plan.Strategy.budget
  in
  Xpar.Pool.shutdown pool;
  v

(* ------------------------------------------------------------------ *)
(* Finding, shrinking and dumping counterexamples *)

type counterexample = {
  cx_scenario : string;
  cx_strategy : string;
  cx_explored : int;
  cx_original : Schedule.t;
  cx_original_violations : string list;
  cx_shrunk : Schedule.t;
  cx_violations : string list;  (** violations of the shrunk replay *)
  cx_shrink_runs : int;
  cx_steps : int;
  cx_events : int;
}

let hunt ?jobs ?chunk ?mutation scenario strategies =
  let rec go verdicts = function
    | [] -> (List.rev verdicts, None)
    | strategy :: rest -> (
        let v =
          explore ?jobs ?chunk ~stop_on_first:true ?mutation scenario strategy
        in
        let verdicts = v :: verdicts in
        match v.violating with
        | [] -> go verdicts rest
        | o :: _ ->
            let cache = Checker.create_cache () in
            let reproduces sch = violating (run_schedule ~cache scenario sch) in
            let shrunk, runs = Shrink.shrink ~reproduces o.schedule in
            let final = run_schedule ~cache scenario shrunk in
            ( List.rev verdicts,
              Some
                {
                  cx_scenario = scenario.name;
                  cx_strategy = v.v_strategy;
                  cx_explored =
                    List.fold_left (fun n v -> n + v.explored) 0 verdicts;
                  cx_original = o.schedule;
                  cx_original_violations = o.violations;
                  cx_shrunk = final.schedule;
                  cx_violations = final.violations;
                  cx_shrink_runs = runs;
                  cx_steps = final.steps;
                  cx_events = final.events;
                } ))
  in
  go [] strategies

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let string_list_json xs =
  "[" ^ String.concat "," (List.map (fun s -> "\"" ^ json_escape s ^ "\"") xs) ^ "]"

let counterexample_to_json cx =
  Printf.sprintf
    "{\"scenario\":\"%s\",\"strategy\":\"%s\",\"mutation\":\"%s\",\"explored\":%d,\"original\":%s,\"original_violations\":%s,\"shrunk\":%s,\"shrunk_line\":\"%s\",\"violations\":%s,\"shrink_runs\":%d,\"steps\":%d,\"events\":%d}"
    (json_escape cx.cx_scenario) (json_escape cx.cx_strategy)
    (Xreplication.Mutation.to_string cx.cx_shrunk.Schedule.mutation)
    cx.cx_explored
    (Schedule.to_json cx.cx_original)
    (string_list_json cx.cx_original_violations)
    (Schedule.to_json cx.cx_shrunk)
    (json_escape (Schedule.to_string cx.cx_shrunk))
    (string_list_json cx.cx_violations)
    cx.cx_shrink_runs cx.cx_steps cx.cx_events

let verdict_to_json v =
  Printf.sprintf
    "{\"scenario\":\"%s\",\"strategy\":\"%s\",\"mutation\":\"%s\",\"explored\":%d,\"violating\":%d,\"choice_points\":%d,\"events\":%d,\"schedules\":%s}"
    (json_escape v.v_scenario) (json_escape v.v_strategy)
    (Xreplication.Mutation.to_string v.v_mutation)
    v.explored
    (List.length v.violating)
    v.choice_points v.events_total
    (string_list_json
       (List.map (fun o -> Schedule.to_string o.schedule) v.violating))

let pp_verdict ppf v =
  Format.fprintf ppf
    "scenario=%s strategy=%s mutation=%s explored=%d violating=%d \
     choice-points=%d events=%d"
    v.v_scenario v.v_strategy
    (Xreplication.Mutation.to_string v.v_mutation)
    v.explored
    (List.length v.violating)
    v.choice_points v.events_total
