(** The schedule-space explorer.

    Turns the deterministic simulator into a model-checker-style harness:
    a {!scenario} fixes the workload; a {!Strategy.t} proposes schedules;
    every schedule runs with a scheduling chooser
    ({!Xsim.Engine.set_chooser}) and an online x-ability {!Monitor}
    installed, so violating runs abort at the first irrevocable pattern;
    violations shrink ({!Shrink}) to minimal counterexamples.

    Runs are independent and deterministic, so sweeps fan out over
    {!Xpar.Pool} domains; chunk layout is fixed (not pool-size-derived),
    which makes every verdict byte-identical across [JOBS] settings. *)

open Xability

type scenario = {
  name : string;
  spec : Xworkload.Runner.spec;  (** base spec; the schedule overrides
                                     seed, faults, and protocol variant *)
  requests : int;
  faults : Schedule.fault_plan;
      (** base network fault plan stamped on every schedule; a sweep
          (notably {!Strategy.net_fault}) may replace it per schedule *)
  workload :
    Xworkload.Workloads.services ->
    Xreplication.Client.t ->
    (Xsm.Request.t -> Value.t) ->
    unit;
  sharded_workload :
    Xworkload.Workloads.services ->
    Xshard.Deployment.t ->
    Xshard.Deployment.session ->
    unit;
      (** per-session lane body of a schedule with more than one shard
          (a [shards] override); a one-shard run drives [workload]
          through {!Xworkload.Runner.client_lane} instead, so both go
          through {!Xworkload.Runner.run_deployment}.  The built-in
          scenarios default it to {!Xworkload.Workloads.sharded_mix} with
          [cross_every = 3] *)
}

val booking :
  ?requests:int -> ?faults:Schedule.fault_plan -> unit -> scenario
(** Sequential seat reservations (undoable, round-varying outputs) — the
    canonical explorer workload: surviving-duplicate and stale-reply bugs
    become value conflicts.  [faults] (default {!Schedule.no_faults})
    stamps a network fault plan on every schedule; a non-none plan makes
    {!run_schedule} install the {!Xnet.Reliable} ARQ channel under the
    service. *)

val mixed : ?requests:int -> ?faults:Schedule.fault_plan -> unit -> scenario
(** Alternating mail sends (idempotent) and transfers (undoable). *)

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

val violating : outcome -> bool
(** [violating o] is [true] iff the run produced at least one
    violation. *)

val net_faults_of_plan : Schedule.fault_plan -> Xnet.Fault.t
(** Translate a fault plan (replica indices, probabilities) into the
    transport's terms ({!Xnet.Fault.t}); partition indices become
    replica addresses. *)

val check : scenario -> Schedule.t -> (unit, string) result
(** The checks {!Schedule.parse} cannot make alone: every crash index
    must name a replica of the deployment the schedule runs on
    ([shards * n_replicas] of them when sharded).  An [Error] names the
    offending token.  Run it before replaying an untrusted line. *)

val run_schedule : ?cache:Checker.cache -> scenario -> Schedule.t -> outcome
(** Replay one schedule (chooser + monitor installed) and judge it. *)

val replay :
  ?cache:Checker.cache ->
  ?with_trace:bool ->
  scenario ->
  Schedule.t ->
  outcome * Xworkload.Runner.result * Xsim.Trace.t
(** Like {!run_schedule} but also returns the full runner result and the
    engine trace ([with_trace] enables trace recording, off by default in
    exploration runs). *)

type verdict = {
  v_scenario : string;
  v_strategy : string;
  v_mutation : Xreplication.Mutation.t;
  explored : int;
  violating : outcome list;  (** discovery order *)
  choice_points : int;  (** summed over explored runs *)
  events_total : int;
  v_obs : Xobs.Snapshot.t;
      (** per-run snapshots merged in schedule order (fixed by the chunk
          layout, hence byte-identical across [JOBS]) *)
}

val explore :
  ?jobs:int ->
  ?chunk:int ->
  ?stop_on_first:bool ->
  ?mutation:Xreplication.Mutation.t ->
  scenario ->
  Strategy.t ->
  verdict
(** Run the strategy's {!Strategy.plan} over the scenario in one loop:
    take waves of [4 * chunk] jobs from the frontier (up to the plan's
    budget), run each wave over the pool, fold the outcomes, and append
    each run's children.  [jobs] sizes the domain pool (default: the
    [JOBS] environment variable); [chunk] (default 16) is the unit of
    work sharing one reduction cache; [stop_on_first] stops after the
    first wave containing a violation; [mutation] stamps every schedule
    with a protocol variant. *)

type counterexample = {
  cx_scenario : string;
  cx_strategy : string;
  cx_explored : int;
      (** schedules explored by every strategy the hunt ran, this one
          included *)
  cx_original : Schedule.t;
  cx_original_violations : string list;
  cx_shrunk : Schedule.t;
  cx_violations : string list;  (** violations of the shrunk replay *)
  cx_shrink_runs : int;
  cx_steps : int;
  cx_events : int;
}

val hunt :
  ?jobs:int ->
  ?chunk:int ->
  ?mutation:Xreplication.Mutation.t ->
  scenario ->
  Strategy.t list ->
  verdict list * counterexample option
(** Run strategies in order, each with [stop_on_first], until one finds
    a violation; ddmin that violation's schedule ({!Shrink}) and re-judge
    it.  Returns the verdict of every strategy run, in order, and the
    counterexample if any. *)

val counterexample_to_json : counterexample -> string
(** One-line JSON object (machine-readable dump). *)

val verdict_to_json : verdict -> string
(** One-line JSON object: counts plus the violating schedules. *)

val pp_verdict : Format.formatter -> verdict -> unit
(** Human-readable summary, one violating schedule per line. *)
