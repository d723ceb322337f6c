(** Scenario runner: build a simulated deployment of the paper's protocol,
    drive a client workload through it under a fault schedule, let the
    system quiesce, and verify the paper's requirements R1–R4 on the
    resulting run.

    Verification performed on every run:
    - {b R2/liveness}: every workload request received a reply (the run
      [completed]) unless the client was crashed on purpose;
    - {b R3/x-ability}: the environment history reduces to a failure-free
      history of the submitted request sequence ({!Xability.Checker});
    - {b R4/possible replies}: every reply the client accepted is in the
      environment's PossibleReply set for that request;
    - environment-level exactly-once accounting: net effects per request,
      duplicate effects, environment violations;
    - simulator hygiene: no fiber died with an uncaught exception.

    (R1, idempotence of [submit], is exercised separately by tests that
    force client retries and is implied by R3 holding under retries.) *)

type spec = {
  seed : int;
  env_config : Xsm.Environment.config;
  service_config : Xreplication.Service.config;
  crashes : (int * int) list;  (** (virtual time, replica index) *)
  client_crash_at : int option;
  noise : (float * int * int) option;
      (** oracle-detector false-suspicion noise: (probability per poll,
          suspicion duration, active until) *)
  time_limit : int;  (** hard stop for the whole run *)
  quiesce_grace : int;  (** extra time after the workload completes *)
  clients : int;
      (** closed-loop client processes (default 1); when > 1 the workload
          is run once per client × lane, and the R3 check drops the
          per-client sequential-order requirement ([check_order:false],
          there being no single issue order to check) *)
  inflight : int;  (** concurrent lanes per client (default 1) *)
  shards : int;
      (** replica groups in the deployment (default 1, the classic single
          group); see {!run_deployment} *)
  router : Xshard.Deployment.router_config;
      (** router/directory tier of a multi-shard deployment (default
          {!Xshard.Deployment.default_router}) *)
}

val default_spec : spec

(** What the client workload did: each submitted request with its reply
    and observed latency. *)
type submission = Xshard.Deployment.submission = {
  req : Xsm.Request.t;
  reply : Xability.Value.t;
  latency : int;
}

type result = {
  completed : bool;  (** the workload fiber ran to completion *)
  end_time : int;
  work_end_time : int;
      (** virtual time the last workload lane finished (excludes the
          quiesce grace) — the makespan throughput is measured against *)
  submissions : submission list;
  report : Xability.Checker.report;  (** R3 verdict over the env history *)
  r4_ok : bool;
  r4_violations : string list;
  reply_mismatches : string list;
      (** replies the client accepted that differ from the output the
          request's effect settled on in the reduced history — catches
          protocols that reply before the outcome is agreed *)
  env_violations : string list;
  duplicate_effects : int;
  engine_errors : (int * string * string) list;
  totals : Xreplication.Service.totals;
  history_length : int;
  false_suspicions : int;
  rounds_per_request : float;  (** mean rounds of owner-agreement used *)
  shard_reports : (int * Xability.Checker.report) list;
      (** a multi-shard run's per-shard projection verdicts (ascending
          shard id); [report] is then their conjunction per the section-4
          composition theorem ({!Xability.Checker.compose}).  [[]] for
          one shard *)
}

val ok : result -> bool
(** All checks green: completed, R3, R4, no violations, no fiber errors. *)

val failures : result -> string list
(** Human-readable list of everything that went wrong (empty iff [ok]). *)

val run_deployment :
  spec:spec ->
  ?prepare:(Xsim.Engine.t -> Xsm.Environment.t -> unit) ->
  ?aborted:(unit -> bool) ->
  ?cache:Xability.Checker.cache ->
  setup:(Xsm.Environment.t -> 'srv) ->
  workload:('srv -> Xshard.Deployment.t -> Xshard.Deployment.session -> unit) ->
  unit ->
  result * 'srv * Xshard.Deployment.t
(** The run body.  Builds an {!Xshard.Deployment} of [spec.shards]
    replica groups — one is the classic single group, the N = 1 case of
    the paper's section-4 construction — and drives a closed loop of
    [spec.clients] sessions × [spec.inflight] lanes on every shard, each
    lane running [workload srv deployment session] on its session's
    process (issue requests via {!Xshard.Deployment.submit} /
    {!Xshard.Deployment.submit_cross}).

    [setup] registers services and returns the workload's handle.
    [prepare eng env] runs before any service is registered (a schedule
    explorer installs its chooser and online monitor there).  [aborted]
    is polled between simulation slices; once [true], the remaining
    quiesce work is skipped.  [cache] is handed to the R3 checker, so an
    explorer's runs share reduction memo tables.

    Crash indices in [spec.crashes] are flat ([shard * n_replicas + r]);
    [noise] drives every shard's oracle.  [client_crash_at] crashes
    shard 0's session 0, whose lanes then die silently: per the paper's
    at-most-once discussion (section 4) the checker also accepts the
    history without that session's last issued request, if it left no
    events.

    R3 on one shard is {!Xability.Checker.check}, with the order check
    on when the run has a single lane.  On more shards it is
    {!Xability.Checker.compose}: the history is projected per shard by
    the key function the router used online, each projection checked
    alone, the verdicts conjoined.  [result.shard_reports] keeps the
    per-shard verdicts. *)

val client_lane :
  ('srv -> Xreplication.Client.t -> (Xsm.Request.t -> Xability.Value.t) -> unit) ->
  'srv ->
  Xshard.Deployment.t ->
  Xshard.Deployment.session ->
  unit
(** [client_lane workload] is the lane body that runs
    [workload srv client submit] with the session's client stub and
    {!Xshard.Deployment.submit} on its session. *)

val run :
  spec:spec ->
  ?prepare:(Xsim.Engine.t -> Xsm.Environment.t -> unit) ->
  ?aborted:(unit -> bool) ->
  ?cache:Xability.Checker.cache ->
  setup:(Xsm.Environment.t -> 'srv) ->
  workload:
    ('srv ->
    Xreplication.Client.t ->
    (Xsm.Request.t -> Xability.Value.t) ->
    unit) ->
  unit ->
  result * 'srv
(** {!run_deployment} with [workload] as every lane's {!client_lane}.
    [workload srv client submit] runs inside the client's fiber; it must
    issue requests through the provided [submit], which records each
    request (defining the R3 expectation, in issue order) and its reply
    latency. *)

val settled_outputs :
  Xability.Checker.group_result list ->
  Xability.Checker.expected ->
  Xability.Value.t option
(** [settled_outputs groups exp] is the output of the first group in
    [groups] for [exp]'s (action, logical) pair whose output is known —
    the value the request's effect settled on, against which
    [reply_mismatches] compares each accepted reply.  Apply it to
    [groups] once: the groups are indexed by {!Xability.Checker.group_key}
    then, and each lookup costs only its own pair's groups. *)

val timed_pp : Format.formatter -> result -> unit
(** One-line summary, for experiment tables. *)
