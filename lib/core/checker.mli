(** Service-level x-ability checker for multi-request histories.

    Requirement R3 (paper section 4) demands that the server-side history
    produced for a request sequence [R1 ... Rn] be reducible to a
    failure-free execution of the sequence.  Reduction rules never relate
    events of different action instances, so the check decomposes: group
    the history's events by {e logical action} (one group per request),
    reduce each group with the faithful engine, and verify that each group
    reaches its failure-free form and that the groups' effects settle in
    request order.

    Grouping uses a caller-supplied [logical_of] projection because
    retry rounds are encoded inside input values (a cancellation issued
    for round [n] must not cancel round [n+1]'s execution — paper
    section 5.4); for undoable actions the per-round instances of one
    request belong to one logical group.

    The per-group goal for an undoable action accepts a failure-free
    history of {e some} round's instance — exactly one round must survive
    reduction, executed and committed exactly once. *)

type expected = {
  action : Action.name;  (** base action name *)
  kind : Action.kind;
  logical : Value.t;  (** logical identity of the request *)
}

type group_result = {
  expected : expected;
  events : int;  (** number of history events in this group *)
  ok : bool;
  reduced : History.t option;  (** witness failure-free history *)
  output : Value.t option;  (** output of the surviving execution *)
  first_completion : int option;  (** history index where the effect settled *)
  detail : string;
}

type report = {
  ok : bool;
  groups : group_result list;
  unexpected : (Action.name * Value.t) list;
      (** logical groups in the history that match no expected request *)
  order_ok : bool;
  violations : string list;
}

val group_key : Action.name -> Value.t -> string
(** The key a history event or an expected request is grouped under:
    [group_key action logical].  Equal (action, logical) pairs always
    share a key; distinct pairs may in principle collide, so a lookup by
    key still compares the pair itself. *)

type engine =
  [ `Search  (** the faithful reduction search only (exponential) *)
  | `Fast  (** the linear {!Analyzer} only (protocol-shaped histories) *)
  | `Hybrid  (** fast path first, search on rejection (default) *) ]

type cache
(** Persistent per-group reduction searchers (see {!Reduction.searcher}).
    Pass the same cache to successive {!check} calls — over a growing
    history, or over the many runs of a schedule exploration — and the
    search-path work of already-judged group states is not repeated.
    Sound as long as the [kinds] and [logical_of] arguments do not change
    between calls sharing a cache. *)

val create_cache : unit -> cache
(** A fresh, empty searcher cache. *)

val check :
  kinds:Reduction.kinds ->
  logical_of:(Action.name -> Value.t -> Value.t) ->
  ?round_of:(Value.t -> int option) ->
  ?engine:engine ->
  ?check_order:bool ->
  ?cache:cache ->
  expected:expected list ->
  History.t ->
  report
(** [check_order] (default true) additionally verifies that request [i]'s
    first successful completion precedes request [i+1]'s first start —
    the order a sequential client must induce.

    [round_of] extracts the retry round from an undoable event's input
    value (e.g. {!Xsm.Request.round_of_env_iv}); without it the fast
    engine cannot handle undoable groups and the hybrid falls back to the
    search.  When a group is accepted by the fast engine, the witness in
    [reduced] is the synthesized failure-free history (same shape, the
    logical input standing in for the round-tagged one). *)

type compose_report = {
  per_shard : (int * report) list;
      (** one {!report} per shard, ascending shard id; a shard appears if
          it owns at least one expected request or history event *)
  combined : report;
      (** the conjunction: [ok] iff every shard's projection is x-able,
          groups/violations concatenated in shard order (violations
          prefixed ["shard N: "]) — drop-in for existing report plumbing *)
}
(** Verdict of the locality/composition theorem (paper section 4). *)

val compose :
  kinds:Reduction.kinds ->
  logical_of:(Action.name -> Value.t -> Value.t) ->
  ?round_of:(Value.t -> int option) ->
  ?engine:engine ->
  ?check_order:bool ->
  ?cache:cache ->
  shard_of:(Action.name -> Value.t -> int) ->
  expected:expected list ->
  History.t ->
  compose_report
(** [compose ~shard_of ...] checks a multi-shard history by the paper's
    section-4 locality argument: reduction rules never relate events of
    different action instances, and [shard_of] maps whole logical groups
    (it sees the base action and the logical identity, exactly the group
    key), so the global history is x-able iff each shard's projection is.
    Each projection preserves the global event order restricted to that
    shard and is judged by {!check} with the same engine and cache.

    [check_order] defaults to [false] here (unlike {!check}): concurrent
    per-shard sessions induce no global request order.  Pass [true] only
    when the expected list is a single sequential client's. *)

(** Online (event-at-a-time) checking.

    A prefix of a run cannot be rejected just because it is not yet
    x-able — a pending round may still be cancelled.  What can be decided
    early are the {e irrevocable} violations: patterns that no future
    events and no reduction rule can repair.  Feeding every environment
    event to an [Incremental.t] lets a monitor abort a doomed schedule at
    the first such pattern instead of running it to completion:

    - an idempotent action completing with two {e different} outputs
      (rule 18 only absorbs equal-output duplicates);
    - two different retry rounds of one undoable request both committing
      (commits are permanent; rule 20 only deduplicates one round's). *)
module Incremental : sig
  type t
  (** Mutable per-run state: one group per logical action seen so far. *)

  val create :
    kinds:Reduction.kinds ->
    logical_of:(Action.name -> Value.t -> Value.t) ->
    ?round_of:(Value.t -> int option) ->
    unit ->
    t
  (** Same projections as {!check}; [round_of] attributes undoable
      executions and commits to their retry round. *)

  val feed : t -> Event.t -> unit
  (** Observe the next history event, in history order. *)

  val events_fed : t -> int
  (** How many events have been fed. *)

  val violation : t -> string option
  (** The first irrevocable violation observed, if any.  Once set it
      never clears. *)

  val settled_output : t -> action:Action.name -> logical:Value.t -> Value.t option
  (** The output the group's effect has settled on — the completed output
      of an idempotent execution, or of the unique committed round of an
      undoable request.  [None] while unsettled.  A monitor compares this
      against the reply the client accepted (requirement R4's teeth). *)
end

val pp_report : Format.formatter -> report -> unit
(** Multi-line rendering: verdict, per-group lines, violations. *)

val pp_compose : Format.formatter -> compose_report -> unit
(** Composed verdict, one summary line per shard, then violations. *)
