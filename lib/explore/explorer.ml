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

(* Default sharded lane: the cross-shard mix.  [cross_every = 3] (not 2)
   so the undoable [reserve] arm actually fires on even non-cross
   iterations — the round-varying output is what makes scheduling bugs
   observable. *)
let default_sharded_workload ~requests =
  fun _svcs d sess ->
    Workloads.sharded_mix ~n:requests ~cross_every:3 d sess

(* Booking is the canonical explorer workload: [reserve] is undoable and
   its output (the seat) is drawn fresh on each retry round, so a
   protocol that lets two rounds survive — or replies with an aborted
   round's seat — produces an observable value conflict, not a silent
   duplicate. *)
let booking ?(requests = 3) ?(faults = Schedule.no_faults) () =
  {
    name = "booking";
    spec =
      { Runner.default_spec with time_limit = 400_000; quiesce_grace = 6_000 };
    requests;
    faults;
    workload =
      (fun _svcs client submit ->
        for i = 1 to requests do
          ignore
            (submit
               (Workloads.reserve client ~passenger:(Printf.sprintf "p%d" i)))
        done);
    sharded_workload = default_sharded_workload ~requests;
  }

let mixed ?(requests = 4) ?(faults = Schedule.no_faults) () =
  {
    name = "mixed";
    spec =
      { Runner.default_spec with time_limit = 400_000; quiesce_grace = 6_000 };
    requests;
    faults;
    workload =
      (fun _svcs client submit ->
        Workloads.sequence Workloads.Mixed ~n:requests client submit);
    sharded_workload = default_sharded_workload ~requests;
  }

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
    match sch.Schedule.substrate with
    | Some "register" -> `Register 25
    | Some "paxos" -> `Paxos (Xnet.Latency.Uniform (10, 40))
    | Some "seqlog" -> `Seqlog (Xnet.Latency.Uniform (10, 40))
    | Some _ | None -> sc.Xreplication.Service.substrate
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

let chunk_list size xs =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: xs ->
        if n = size then go (List.rev cur :: acc) [ x ] 1 xs
        else go acc (x :: cur) (n + 1) xs
  in
  go [] [] 0 xs

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

let base_schedule scenario ~mutation ~window ~seed =
  Schedule.make ~window ~mutation ~crashes:scenario.spec.Runner.crashes
    ?client_crash_at:scenario.spec.Runner.client_crash_at
    ?noise:scenario.spec.Runner.noise ~faults:scenario.faults ~seed ()

let take n xs = List.filteri (fun i _ -> i < n) xs
let drop n xs = List.filteri (fun i _ -> i >= n) xs

let explore ?jobs ?(chunk = 16) ?(stop_on_first = false)
    ?(mutation = Xreplication.Mutation.Faithful) scenario
    (strategy : Strategy.t) =
  let pool = Xpar.Pool.create ?domains:jobs () in
  let verdict = ref (empty_verdict scenario strategy mutation) in
  let stop () = stop_on_first && !verdict.violating <> [] in
  (* Fixed-size waves (independent of pool size) so [stop_on_first] stops
     at a deterministic point. *)
  let wave = 4 * chunk in
  let run_list f xs =
    List.iter
      (fun w ->
        if not (stop ()) then
          verdict := fold_outcomes !verdict (pool_map pool ~chunk f w))
      (chunk_list wave xs)
  in
  (match strategy with
  | Strategy.Random_walk { trials; p_defer; window } ->
      run_list
        (fun ~cache (base, walk_seed) ->
          run_recorded ~cache scenario base ~p_defer ~walk_seed)
        (List.init trials (fun i ->
             let seed = scenario.spec.Runner.seed + i in
             ( base_schedule scenario ~mutation ~window ~seed,
               seed lxor 0x2545F4914F6CDD )))
  | Strategy.Fault_enum { times; replicas; noise; pair_crashes } ->
      let seed = scenario.spec.Runner.seed in
      let singles =
        List.concat_map (fun t -> List.map (fun r -> (t, r)) replicas) times
      in
      let plans =
        List.map (fun c -> [ c ]) singles
        @
        if not pair_crashes then []
        else
          List.concat_map
            (fun c1 ->
              List.filter_map
                (fun c2 -> if c1 < c2 then Some [ c1; c2 ] else None)
                singles)
            singles
      in
      run_list
        (fun ~cache sch -> run_schedule ~cache scenario sch)
        (List.map
           (fun crashes ->
             let base = base_schedule scenario ~mutation ~window:1 ~seed in
             { base with Schedule.crashes; noise })
           plans)
  | Strategy.Net_fault { seeds; loss_levels; dup; jitter; partition_windows; groups }
    ->
      let seed0 = scenario.spec.Runner.seed in
      (* Every loss level, with no partition and with every window × group,
         [seeds] engine seeds each.  Scheduling is deterministic (window 1):
         the swept dimension is the channel, not the interleaving. *)
      let plans =
        List.concat_map
          (fun loss ->
            let base =
              {
                Schedule.loss;
                dup_prob = dup;
                jitter;
                partitions = [];
                forced = [];
              }
            in
            base
            :: List.concat_map
                 (fun (s, h) ->
                   List.map
                     (fun g -> { base with Schedule.partitions = [ (s, h, g) ] })
                     groups)
                 partition_windows)
          loss_levels
      in
      run_list
        (fun ~cache sch -> run_schedule ~cache scenario sch)
        (List.concat_map
           (fun plan ->
             List.init seeds (fun i ->
                 let base =
                   base_schedule scenario ~mutation ~window:1 ~seed:(seed0 + i)
                 in
                 { base with Schedule.faults = plan }))
           plans)
  | Strategy.Batch_boundary { seeds; batch; pipeline; tick } ->
      let seed0 = scenario.spec.Runner.seed in
      (* The instants the batcher acts at: around the first few epoch
         ticks (partial-batch flushes) and their immediate neighbours.
         50 schedules per seed: 9 owner crashes + 9 suspicion bursts +
         32 single-deferral reorders. *)
      let edges =
        [
          tick / 2;
          tick - 1;
          tick;
          tick + 1;
          tick + (tick / 4);
          2 * tick;
          (2 * tick) + 1;
          3 * tick;
          4 * tick;
        ]
      in
      let schedules_for seed =
        let base window =
          {
            (base_schedule scenario ~mutation ~window ~seed) with
            Schedule.batching = Some (batch, pipeline, tick);
            load = Some (2, 4);
          }
        in
        (* Kill the dispatching replica exactly at a flush boundary:
           batches die between slot claim and outcome. *)
        List.map (fun e -> { (base 1) with Schedule.crashes = [ (e, 0) ] }) edges
        (* False-suspicion bursts ending just after each boundary: a
           cleaner races the live owner for a partial batch's outcome. *)
        @ List.map
            (fun e ->
              { (base 1) with Schedule.noise = Some (0.5, 200, e + 400) })
            edges
        (* Single early deferrals: reorder overlapping pipelined batch
           fibers against each other. *)
        @ List.concat_map
            (fun step ->
              List.map
                (fun k -> { (base 4) with Schedule.shifts = [ (step, k) ] })
                [ 1; 2 ])
            (List.init 16 Fun.id)
      in
      run_list
        (fun ~cache sch -> run_schedule ~cache scenario sch)
        (List.concat_map schedules_for (List.init seeds (fun i -> seed0 + i)))
  | Strategy.Cross_shard { seeds; shards; group_size; crash_times; block_windows }
    ->
      let seed0 = scenario.spec.Runner.seed in
      (* Per seed: a fault-free sharded baseline, then one owner crash per
         shard × crash instant (the instants straddle the window in which
         cross-shard sub-requests are in flight), then one router-shard
         partition per shard × window.  Scheduling is deterministic
         (window 1): the swept dimensions are the crash/partition plans. *)
      let shard_ids = List.init shards Fun.id in
      let schedules_for seed =
        let base =
          {
            (base_schedule scenario ~mutation ~window:1 ~seed) with
            Schedule.shards = Some shards;
            load = Some (1, 2);
          }
        in
        base
        :: List.concat_map
             (fun s ->
               List.map
                 (fun t ->
                   { base with Schedule.crashes = [ (t, s * group_size) ] })
                 crash_times)
             shard_ids
        @ List.concat_map
            (fun s ->
              List.map
                (fun (f, u) ->
                  { base with Schedule.router_blocks = [ (f, u, s) ] })
                block_windows)
            shard_ids
      in
      run_list
        (fun ~cache sch -> run_schedule ~cache scenario sch)
        (List.concat_map schedules_for (List.init seeds (fun i -> seed0 + i)))
  | Strategy.Lease_edge { seeds; substrates; renew_interval; duration } ->
      let seed0 = scenario.spec.Runner.seed in
      (* The instants the lease changes hands or state: the grant (t≈0),
         the first two renewals, and expiry — each with its immediate
         neighbours (±ε), so a crash or suspicion lands just before, at,
         and just after the boundary. *)
      let eps = 10 in
      let edges =
        [
          1;
          renew_interval / 2;
          renew_interval - eps;
          renew_interval;
          renew_interval + eps;
          (2 * renew_interval) - eps;
          2 * renew_interval;
          (2 * renew_interval) + eps;
          duration - eps;
          duration;
          duration + eps;
        ]
      in
      (* Partitions severing the holder (replica 0) across a boundary:
         while cut off it cannot renew, so the lease lapses mid-window
         and a challenger acquires; heal must not outlive the run. *)
      let windows =
        [
          (0, renew_interval + 200);
          (renew_interval - 50, renew_interval + 400);
          ((2 * renew_interval) - 50, (2 * renew_interval) + 400);
          (duration - 50, duration + 400);
        ]
      in
      let schedules_for seed sub =
        let base =
          {
            (base_schedule scenario ~mutation ~window:1 ~seed) with
            Schedule.lease = true;
            substrate = Some sub;
            load = Some (2, 4);
          }
        in
        (* Fault-free leased baseline: the fast path itself, per substrate. *)
        base
        (* Kill the holder exactly at each boundary: its fast decisions
           race the takeover and the fence epoch must settle the race. *)
        :: List.map (fun e -> { base with Schedule.crashes = [ (e, 0) ] }) edges
        (* False-suspicion bursts ending just past each boundary: a
           challenger breaks a live holder's lease (clock-jitter stand-in). *)
        @ List.map
            (fun e ->
              { base with Schedule.noise = Some (0.5, 150, e + 400) })
            edges
        (* Sever the holder across a boundary: it keeps fast-deciding on a
           lease the rest of the group watches lapse. *)
        @ List.map
            (fun (f, u) ->
              {
                base with
                Schedule.faults =
                  {
                    Schedule.no_faults with
                    Schedule.partitions = [ (f, u, [ 0 ]) ];
                  };
              })
            windows
      in
      run_list
        (fun ~cache sch -> run_schedule ~cache scenario sch)
        (List.concat_map
           (fun sub ->
             List.concat_map
               (fun i -> schedules_for (seed0 + i) sub)
               (List.init seeds Fun.id))
           substrates)
  | Strategy.Delay_dfs { budget; max_delays; horizon; window } ->
      let seed = scenario.spec.Runner.seed in
      let root = base_schedule scenario ~mutation ~window ~seed in
      (* A schedule with d deferrals spawns children with d+1 (one more
         deferral strictly after its last), bounded by the choice points
         its own run actually offered (and [horizon]).  The frontier is a
         FIFO over generations, so all depth-1 schedules run before any
         depth-2 one. *)
      let children (o : outcome) =
        let sch = o.schedule in
        if List.length sch.Schedule.shifts >= max_delays then []
        else
          let first =
            match List.rev sch.Schedule.shifts with
            | (last, _) :: _ -> last + 1
            | [] -> 0
          in
          let upto = min o.steps horizon in
          List.concat_map
            (fun step ->
              List.map
                (fun k ->
                  { sch with Schedule.shifts = sch.Schedule.shifts @ [ (step, k) ] })
                (List.init (max 0 (window - 1)) (fun i -> i + 1)))
            (List.init (max 0 (upto - first)) (fun i -> first + i))
      in
      let remaining = ref budget in
      let frontier = ref [ root ] in
      while !frontier <> [] && !remaining > 0 && not (stop ()) do
        let batch = take (min !remaining wave) !frontier in
        frontier := drop (List.length batch) !frontier;
        remaining := !remaining - List.length batch;
        let outs =
          pool_map pool ~chunk
            (fun ~cache sch -> run_schedule ~cache scenario sch)
            batch
        in
        verdict := fold_outcomes !verdict outs;
        frontier := !frontier @ List.concat_map children outs
      done);
  Xpar.Pool.shutdown pool;
  !verdict

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

let shrink ?cache scenario (o : outcome) =
  let cache = match cache with Some c -> c | None -> Checker.create_cache () in
  let reproduces sch = violating (run_schedule ~cache scenario sch) in
  let shrunk, runs = Shrink.shrink ~reproduces o.schedule in
  let final = run_schedule ~cache scenario shrunk in
  (final, runs)

let hunt ?jobs ?chunk ?mutation scenario strategies =
  let rec go explored = function
    | [] -> (explored, None)
    | strategy :: rest -> (
        let v =
          explore ?jobs ?chunk ~stop_on_first:true ?mutation scenario strategy
        in
        let explored = explored + v.explored in
        match v.violating with
        | o :: _ ->
            let final, runs = shrink scenario o in
            ( explored,
              Some
                {
                  cx_scenario = scenario.name;
                  cx_strategy = v.v_strategy;
                  cx_explored = explored;
                  cx_original = o.schedule;
                  cx_original_violations = o.violations;
                  cx_shrunk = final.schedule;
                  cx_violations = final.violations;
                  cx_shrink_runs = runs;
                  cx_steps = final.steps;
                  cx_events = final.events;
                } )
        | [] -> go explored rest)
  in
  go 0 strategies

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
