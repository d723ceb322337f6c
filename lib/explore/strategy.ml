(* Exploration strategies as schedule generators.  Each strategy yields a
   plan: the jobs to run first, a run budget, and the children a finished
   run adds to the frontier.  The explorer runs every plan in one loop.

   - [Random_walk]: replayable random scheduling.  Each trial runs with a
     fresh engine seed and a chooser that defers the front of the ready
     window with probability [p_defer]; the picks it makes are recorded,
     so the trial's schedule replays byte-identically without the RNG.

   - [Delay_dfs]: delay-bounded systematic search.  Starting from the
     default schedule, extend schedules with one extra deferral at a
     time — at choice point [step], run ready entry [k] instead of the
     front — up to [max_delays] deferrals per schedule and [horizon]
     choice points deep.  Small delay bounds cover a disproportionate
     share of real concurrency bugs (the delay-bounding literature's
     observation, which x-ability's own failure modes match: one
     mistimed takeover or duplicate delivery suffices).

   - [Sweep]: a named, fixed schedule list built from the explorer's base
     schedule.  The five sweeps below each aim faults at one place the
     protocol must defend. *)

type base = seed:int -> window:int -> Schedule.t

type t =
  | Random_walk of { trials : int; p_defer : float; window : int }
  | Delay_dfs of { budget : int; max_delays : int; horizon : int; window : int }
  | Sweep of {
      name : string;
      schedules : base:base -> seed:int -> Schedule.t list;
    }

type job =
  | Run of Schedule.t
  | Walk of { base : Schedule.t; p_defer : float; walk_seed : int }

type plan = {
  frontier : job list;
  budget : int;
  children : Schedule.t -> steps:int -> job list;
}

(* A frontier that is run as it stands: no children, no budget. *)
let fixed frontier =
  { frontier; budget = max_int; children = (fun _ ~steps:_ -> []) }

(* A schedule with d deferrals spawns children with d+1 (one more
   deferral strictly after its last), bounded by the choice points its
   own run actually offered (and [horizon]).  Children join the back of
   the frontier, so all depth-1 schedules run before any depth-2 one. *)
let dfs_children ~max_delays ~horizon ~window (sch : Schedule.t) ~steps =
  if List.length sch.Schedule.shifts >= max_delays then []
  else
    let first =
      match List.rev sch.Schedule.shifts with
      | (last, _) :: _ -> last + 1
      | [] -> 0
    in
    let defer step k =
      Run { sch with Schedule.shifts = sch.Schedule.shifts @ [ (step, k) ] }
    in
    List.concat_map
      (fun step -> List.init (max 0 (window - 1)) (fun i -> defer step (i + 1)))
      (List.init (max 0 (min steps horizon - first)) (fun i -> first + i))

let plan t ~(base : base) ~seed =
  match t with
  | Random_walk { trials; p_defer; window } ->
      let trial i =
        let seed = seed + i in
        let walk_seed = seed lxor 0x2545F4914F6CDD in
        Walk { base = base ~seed ~window; p_defer; walk_seed }
      in
      fixed (List.init trials trial)
  | Delay_dfs { budget; max_delays; horizon; window } ->
      {
        frontier = [ Run (base ~seed ~window) ];
        budget;
        children = dfs_children ~max_delays ~horizon ~window;
      }
  | Sweep { schedules; _ } ->
      fixed (List.map (fun s -> Run s) (schedules ~base ~seed))

let name = function
  | Random_walk _ -> "random-walk"
  | Delay_dfs _ -> "delay-dfs"
  | Sweep { name; _ } -> name

let random_walk ?(trials = 100) ?(p_defer = 0.15) ?(window = 4) () =
  Random_walk { trials; p_defer; window }

let delay_dfs ?(budget = 200) ?(max_delays = 2) ?(horizon = 64) ?(window = 4) ()
    =
  Delay_dfs { budget; max_delays; horizon; window }

(* [n] consecutive engine seeds from [seed]. *)
let seeds_from seed n = List.init n (fun i -> seed + i)

(* No scheduling shifts: sweep crash instants across replicas under one
   engine seed, with optional false-suspicion noise — which instant the
   owner dies is what the protocol is defensive about. *)
let fault_enum ?noise ?(pair_crashes = false) ~times ~replicas () =
  let singles =
    List.concat_map (fun t -> List.map (fun r -> (t, r)) replicas) times
  in
  let pairs =
    if not pair_crashes then []
    else
      List.concat_map
        (fun c1 ->
          List.filter_map
            (fun c2 -> if c1 < c2 then Some [ c1; c2 ] else None)
            singles)
        singles
  in
  let plans = List.map (fun c -> [ c ]) singles @ pairs in
  Sweep
    {
      name = "fault-enum";
      schedules =
        (fun ~base ~seed ->
          List.map
            (fun crashes ->
              { (base ~seed ~window:1) with Schedule.crashes; noise })
            plans);
    }

(* Every loss level, with no partition and with every window × group,
   [seeds] engine seeds each.  Scheduling is deterministic (window 1):
   the swept dimension is the channel, not the interleaving. *)
let net_fault ?(dup = 0.0) ?(jitter = 0) ?(partition_windows = [])
    ?(groups = [ [ 0 ] ]) ?(seeds = 10) ~loss_levels () =
  let plans =
    List.concat_map
      (fun loss ->
        let plain =
          {
            Schedule.loss;
            dup_prob = dup;
            jitter;
            partitions = [];
            forced = [];
          }
        in
        plain
        :: List.concat_map
             (fun (s, h) ->
               List.map
                 (fun g -> { plain with Schedule.partitions = [ (s, h, g) ] })
                 groups)
             partition_windows)
      loss_levels
  in
  Sweep
    {
      name = "net-fault";
      schedules =
        (fun ~base ~seed ->
          List.concat_map
            (fun faults ->
              List.map
                (fun seed -> { (base ~seed ~window:1) with Schedule.faults })
                (seeds_from seed seeds))
            plans);
    }

(* With batching/pipelining on and a concurrent workload: owner crashes
   at the instants the batcher acts (around the first few epoch ticks,
   where partial batches flush, and their neighbours), false-suspicion
   bursts ending near them (a cleaner races the live owner for a partial
   batch's outcome), and single early deferrals (reordering overlapping
   pipelined batch fibers).  50 schedules per seed. *)
let batch_boundary ?(batch = 16) ?(pipeline = 4) ?(tick = 100) ?(seeds = 10) ()
    =
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
  let for_seed (base : base) seed =
    let base window =
      {
        (base ~seed ~window) with
        Schedule.batching = Some (batch, pipeline, tick);
        load = Some (2, 4);
      }
    in
    List.map (fun e -> { (base 1) with Schedule.crashes = [ (e, 0) ] }) edges
    @ List.map
        (fun e -> { (base 1) with Schedule.noise = Some (0.5, 200, e + 400) })
        edges
    @ List.concat_map
        (fun step ->
          List.map
            (fun k -> { (base 4) with Schedule.shifts = [ (step, k) ] })
            [ 1; 2 ])
        (List.init 16 Fun.id)
  in
  Sweep
    {
      name = "batch-boundary";
      schedules =
        (fun ~base ~seed ->
          List.concat_map (for_seed base) (seeds_from seed seeds));
    }

(* Per seed, on an N-way sharded deployment: a fault-free baseline, one
   owner crash per shard × instant, then one router-shard partition per
   shard × window.  Crash instants default to the window cross-shard
   sub-requests are in flight during (router lookup latency + consensus
   rounds put the first cross fan-outs in the low hundreds of
   virtual-time units); block windows open at t=0 so the very first
   routed request stalls, and heal early enough that the run still
   completes. *)
let cross_shard ?(shards = 4) ?(group_size = 3)
    ?(crash_times = [ 60; 80; 120; 150; 220; 300; 400; 550; 700 ])
    ?(block_windows =
      [ (0, 2_000); (100, 3_000); (500, 4_000); (1_000, 5_000) ])
    ?(seeds = 10) () =
  let shard_ids = List.init shards Fun.id in
  let for_seed (base : base) seed =
    let base =
      {
        (base ~seed ~window:1) with
        Schedule.shards = Some shards;
        load = Some (1, 2);
      }
    in
    base
    :: List.concat_map
         (fun s ->
           List.map
             (fun t -> { base with Schedule.crashes = [ (t, s * group_size) ] })
             crash_times)
         shard_ids
    @ List.concat_map
        (fun s ->
          List.map
            (fun (f, u) -> { base with Schedule.router_blocks = [ (f, u, s) ] })
            block_windows)
        shard_ids
  in
  Sweep
    {
      name = "cross-shard";
      schedules =
        (fun ~base ~seed ->
          List.concat_map (for_seed base) (seeds_from seed seeds));
    }

(* With the lease on, per (substrate, seed): a fault-free leased
   baseline; the holder killed at each instant the lease changes hands
   or state — the grant (t≈0), the first two renewals and expiry, each
   with its neighbours ±ε — so its fast decisions race the takeover and
   the fence epoch must settle the race; false-suspicion bursts ending
   just past each instant (a challenger breaks a live holder's lease);
   and the holder severed across a boundary, so it keeps fast-deciding
   on a lease the rest of the group watches lapse.  27 schedules. *)
let lease_edge ?(substrates = [ "register"; "paxos"; "seqlog" ])
    ?(renew_interval = 200) ?(duration = 600) ?(seeds = 7) () =
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
  (* Heal must not outlive the run. *)
  let windows =
    [
      (0, renew_interval + 200);
      (renew_interval - 50, renew_interval + 400);
      ((2 * renew_interval) - 50, (2 * renew_interval) + 400);
      (duration - 50, duration + 400);
    ]
  in
  let for_seed (base : base) sub seed =
    let base =
      {
        (base ~seed ~window:1) with
        Schedule.lease = true;
        substrate = Some sub;
        load = Some (2, 4);
      }
    in
    base
    :: List.map (fun e -> { base with Schedule.crashes = [ (e, 0) ] }) edges
    @ List.map
        (fun e -> { base with Schedule.noise = Some (0.5, 150, e + 400) })
        edges
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
  Sweep
    {
      name = "lease-edge";
      schedules =
        (fun ~base ~seed ->
          List.concat_map
            (fun sub ->
              List.concat_map (for_seed base sub) (seeds_from seed seeds))
            substrates);
    }
