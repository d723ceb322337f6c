(** Compact, serializable identity of one explored run.

    A schedule pins down every source of nondeterminism the explorer
    controls: the engine seed, the protocol variant under test, the fault
    plan (replica/client crashes, false-suspicion noise) and the sparse
    scheduling decisions taken at engine choice points.  Replaying a
    schedule against the same workload reproduces the run byte-for-byte,
    so a schedule {e is} the counterexample. *)

type fault_plan = {
  loss : float;  (** per-message drop probability on every link *)
  dup_prob : float;  (** per-message duplication probability *)
  jitter : int;  (** extra reorder delay, uniform in [0, jitter] *)
  partitions : (int * int * int list) list;
      (** [(start, heal, replica indices)]: the indexed replicas are
          severed from everyone else during [start, heal) *)
  forced : (int * int) list;
      (** [(send index, 0 = drop | 1 = duplicate)]: deterministic fault
          events on the service transport's n-th send, the hook that lets
          strategies {e enumerate} faults instead of sampling them *)
}
(** The network fault plan in explorer coordinates (replica indices, not
    addresses); {!Explorer.apply} converts it to an {!Xnet.Fault.t}. *)

val no_faults : fault_plan

val faults_are_none : fault_plan -> bool

type t = {
  seed : int;  (** engine RNG seed *)
  window : int;  (** ready-window width offered to the chooser *)
  mutation : Xreplication.Mutation.t;
  crashes : (int * int) list;  (** (virtual time, replica index) *)
  client_crash_at : int option;
  noise : (float * int * int) option;
      (** oracle false-suspicion noise: (probability, duration, until) *)
  faults : fault_plan;
  batching : (int * int * int) option;
      (** replica-side request batching: (batch size, pipeline depth,
          epoch tick); [None] = per-request protocol *)
  load : (int * int) option;
      (** workload concurrency: (clients, inflight lanes per client);
          [None] = the scenario's own (sequential) load *)
  shards : int option;
      (** shard-count override: [Some n] runs the scenario on an [n]-way
          sharded deployment ({!Xshard.Deployment}); [None] (default)
          keeps the scenario's own single-group setting.  Crash indices
          in [crashes] are then flat: [shard * n_replicas + r] *)
  router_blocks : (int * int * int) list;
      (** [(from, until, shard)]: the router's directory entry for
          [shard] is unavailable during the window (a router-shard
          partition); routed requests stall and retry until it heals *)
  lease : bool;
      (** arm the leased-owner fast path ({!Xreplication.Lease}) with the
          default grant parameters; [false] (default) keeps the
          scenario's own (unleased) setting *)
  substrate : string option;
      (** consensus substrate override (["register"] / ["paxos"] /
          ["seqlog"]); [None] (default) keeps the scenario's own *)
  shifts : (int * int) list;
      (** sparse scheduling decisions: at choice point [step] pick ready
          entry [k] instead of the queue front; sorted, [0 < k < window] *)
}

val make :
  ?window:int ->
  ?mutation:Xreplication.Mutation.t ->
  ?crashes:(int * int) list ->
  ?client_crash_at:int ->
  ?noise:float * int * int ->
  ?faults:fault_plan ->
  ?batching:int * int * int ->
  ?load:int * int ->
  ?shards:int ->
  ?router_blocks:(int * int * int) list ->
  ?lease:bool ->
  ?substrate:string ->
  ?shifts:(int * int) list ->
  seed:int ->
  unit ->
  t
(** Defaults: window 4, faithful protocol, no faults, no batching,
    sequential load, single group (no shards override), no router
    blocks, no shifts.  [shifts] is sorted by step. *)

val equal : t -> t -> bool
(** Structural equality (schedules are plain data). *)

val chooser : t -> Xsim.Engine.chooser
(** The replay chooser: shift-table lookup, default front-of-queue.
    Choice points not in the table take the default, so removing shifts
    (shrinking) always yields a runnable schedule. *)

val to_string : t -> string
(** One line, greppable. *)

val parse : string -> (t, string) result
(** Inverse of {!to_string}: [parse (to_string t) = Ok t].  Lines
    written before the fault plan existed (no [net=]/[parts=]/[netf=]
    tokens) parse with {!no_faults}; lines without [bat=]/[load=] tokens
    parse with batching and load off, lines without [shards=]/[rblk=]
    tokens parse as single-group with no router blocks, and lines
    without [lease=]/[sub=] tokens parse as unleased on the scenario's
    own substrate.  Unknown tokens are ignored, so lines carrying a
    token that has since been retired still parse.

    The line is untrusted input: values are range-checked, and an
    [Error] names the offending token and why it is bad —
    probabilities outside [[0,1]] (and [nan]), negative ticks, jitter
    or indices, and a window, shard count, batch size or depth, or load
    below 1.  Crash indices are checked against the deployment by
    {!Explorer.check}, not here.  Never raises. *)

val of_string : string -> t option
(** {!parse} without the reason. *)

val to_json : t -> string
(** JSON object, for machine-readable counterexample dumps. *)

val pp : Format.formatter -> t -> unit
(** Formatter version of {!to_string}. *)
