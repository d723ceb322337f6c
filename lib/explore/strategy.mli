(** Exploration strategies: each one is a schedule generator.

    A strategy says which schedules to run; {!Explorer.explore} runs them
    in one loop (see DESIGN.md "Schedule-space exploration").  The loop
    asks the strategy for its {!plan}: an initial frontier of {!job}s, a
    run budget, and a [children] function that may extend the frontier
    from each finished run.  Three kinds of strategy:

    - {b Random walk}: replayable random scheduling.  Each trial runs with
      a fresh engine seed and a chooser that defers the front of the
      ready window with probability [p_defer]; the picks it makes are
      recorded as shifts, so the trial replays byte-identically without
      the RNG.
    - {b Delay-bounded DFS}: systematic search that extends the default
      schedule with at most [max_delays] deferrals within the first
      [horizon] choice points.  Small delay bounds cover a
      disproportionate share of real concurrency bugs — including
      x-ability's own failure modes, where one mistimed takeover or
      duplicate delivery suffices.  It is the only strategy whose
      [children] are not empty.
    - {b Sweeps}: a named, fixed list of schedules derived from the
      explorer's base schedule.  {!fault_enum}, {!net_fault},
      {!batch_boundary}, {!cross_shard} and {!lease_edge} are sweeps;
      adding one means writing its generator, with no explorer change. *)

type base = seed:int -> window:int -> Schedule.t
(** The explorer's base schedule for an engine seed and ready-window
    width: the scenario's own crashes, noise and fault plan, stamped
    with the run's protocol variant. *)

type t =
  | Random_walk of { trials : int; p_defer : float; window : int }
      (** [trials] independent seeded runs; see {!random_walk}. *)
  | Delay_dfs of { budget : int; max_delays : int; horizon : int; window : int }
      (** Delay-bounded schedule enumeration capped at [budget] runs. *)
  | Sweep of {
      name : string;
      schedules : base:base -> seed:int -> Schedule.t list;
          (** the sweep's schedules, in run order, for a scenario whose
              engine seed is [seed] *)
    }

type job =
  | Run of Schedule.t  (** replay this schedule *)
  | Walk of { base : Schedule.t; p_defer : float; walk_seed : int }
      (** a random-walk trial: run [base] under a chooser seeded by
          [walk_seed] that defers the front of the ready window with
          probability [p_defer]; the outcome records its picks as
          shifts *)

type plan = {
  frontier : job list;  (** the jobs to run first, in order *)
  budget : int;  (** most runs in total; [max_int] unless delay-DFS *)
  children : Schedule.t -> steps:int -> job list;
      (** jobs to append after a finished run of the schedule that
          offered [steps] choice points *)
}

val plan : t -> base:base -> seed:int -> plan
(** The strategy's jobs for a scenario whose engine seed is [seed].  A
    random-walk trial [i] runs engine seed [seed + i] under walk seed
    [(seed + i) lxor 0x2545F4914F6CDD]. *)

val random_walk : ?trials:int -> ?p_defer:float -> ?window:int -> unit -> t
(** Defaults: [trials] 100, [p_defer] 0.15, [window] 4. *)

val delay_dfs :
  ?budget:int -> ?max_delays:int -> ?horizon:int -> ?window:int -> unit -> t
(** Defaults: [budget] 200, [max_delays] 2, [horizon] 64, [window] 4. *)

val fault_enum :
  ?noise:float * int * int ->
  ?pair_crashes:bool ->
  times:int list ->
  replicas:int list ->
  unit ->
  t
(** Sweep ["fault-enum"]: the instant the owner dies, the dimension the
    paper's protocol (section 5) is defensive about.  Single crashes at
    every [times] × [replicas] point, then with [pair_crashes] every
    ordered pair, all under [noise] (replacing the scenario's) and the
    scenario's seed.  [pair_crashes] defaults to [false]. *)

val net_fault :
  ?dup:float ->
  ?jitter:int ->
  ?partition_windows:(int * int) list ->
  ?groups:int list list ->
  ?seeds:int ->
  loss_levels:float list ->
  unit ->
  t
(** Sweep ["net-fault"]: the channel dimension the paper assumes away
    (section 5.2); the {!Xnet.Reliable} ARQ layer must keep the protocol
    x-able anyway.  Every loss level × (no partition + every window ×
    group), [seeds] engine seeds each.  Defaults: [dup] 0, [jitter] 0,
    no partition windows, [groups] [[[0]]], [seeds] 10. *)

val batch_boundary :
  ?batch:int -> ?pipeline:int -> ?tick:int -> ?seeds:int -> unit -> t
(** Sweep ["batch-boundary"]: the windows the batch log opens between
    slot claim and outcome.  With batching on and a concurrent load, 50
    schedules per seed: owner crashes at 9 tick-relative boundary
    instants, false-suspicion bursts ending near those 9 instants, and
    32 single-deferral reorder schedules.  Defaults: [batch] 16,
    [pipeline] 4, [tick] 100, [seeds] 10 (= 500 schedules). *)

val cross_shard :
  ?shards:int ->
  ?group_size:int ->
  ?crash_times:int list ->
  ?block_windows:(int * int) list ->
  ?seeds:int ->
  unit ->
  t
(** Sweep ["cross-shard"]: the seams the section-4 composition theorem
    stitches, on an N-way {!Xshard.Deployment}.  Per seed: a fault-free
    baseline, one owner crash per shard × crash time (flat index
    [shard * group_size]), and one router block per shard × window.
    Defaults: [shards] 4, [group_size] 3, 9 crash times, 4 block
    windows, [seeds] 10 — (1 + 4×9 + 4×4) × 10 = 530 schedules. *)

val lease_edge :
  ?substrates:string list ->
  ?renew_interval:int ->
  ?duration:int ->
  ?seeds:int ->
  unit ->
  t
(** Sweep ["lease-edge"]: the instants at which a stale lease could let
    two owners decide.  Per (substrate, seed), all with the lease on: a
    fault-free leased baseline, an owner crash at each of 11 boundary
    instants (grant, first/second renewal, expiry, each ±ε of
    [renew_interval] / [duration]), a false-suspicion burst ending just
    past each instant, and 4 partitions severing the holder across a
    boundary.  Defaults: [substrates] all three, [renew_interval] 200,
    [duration] 600, [seeds] 7 — 27 × 3 × 7 = 567 schedules. *)

val name : t -> string
(** Short family tag: ["random-walk"], ["delay-dfs"], or the sweep's
    name. *)
