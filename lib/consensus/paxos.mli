(** Message-passing consensus among the replicas: single-decree Paxos
    (synod), one instance per consensus object.

    The paper assumes consensus objects exist (section 5.2); this module
    discharges the assumption with a real asynchronous implementation so
    that the whole stack runs on nothing but reliable channels:

    - every group member runs a daemon fiber holding acceptor state for
      each instance (lazily created, keyed by instance id);
    - [propose] runs the two Paxos phases with majority quorums, retrying
      with higher ballots (ballot = attempt × n + member index keeps them
      disjoint) under randomized exponential backoff;
    - decisions are broadcast and cached, making [read] a local operation
      and later proposals return immediately.

    Safety (agreement, validity) holds unconditionally; termination of
    [propose] needs a majority of live members — the standard consensus
    liveness condition, and the condition under which the replication
    protocol of section 5 is live.

    A daemon dies with its member's process, so crashed members stop
    participating, exactly as crash-stop prescribes. *)

type 'v group

val create_group :
  Xsim.Engine.t ->
  latency:Xnet.Latency.t ->
  members:(Xnet.Address.t * Xsim.Proc.t) list ->
  ?phase_timeout:int ->
  ?backoff_base:int ->
  unit ->
  'v group
(** [phase_timeout] (default 400 ticks) bounds each quorum wait before a
    ballot is abandoned; [backoff_base] (default 50) scales the randomized
    retry backoff. *)

val members : 'v group -> Xnet.Address.t list

type 'v handle
(** A consensus object as seen by one member: (group, member, instance). *)

val handle : 'v group -> member:Xnet.Address.t -> inst:string -> 'v handle

val propose : 'v handle -> ?weight:int -> 'v -> 'v
(** Blocks (fiber) until the instance decides; returns the decided value.
    [weight] (default 1) is the cardinality of an aggregate value (e.g. a
    batch of requests): the two phases run once for the whole list
    payload, and weights > 1 are recorded to the
    [consensus.value_weight] histogram. *)

val read : 'v handle -> 'v option
(** This member's current knowledge of the decision (local, instant). *)

val set_fast_path : 'v group -> bool -> unit
(** Enable the leased fast path: the group's canonical decision table
    becomes the authority consulted atomically at every decide point
    (campaign entry, quorum commit, {!fast_decide}).  Off (the default)
    keeps the historical quorum-only behaviour byte-identical. *)

val fast_decide : 'v group -> member:Xnet.Address.t -> inst:string -> 'v -> 'v
(** Decide [inst] unilaterally at the canonical table (first value wins;
    returns the existing decision otherwise) and broadcast [Decided] so
    the members learn — n messages instead of two quorum phases.  Sound
    only while the caller holds a valid lease, which
    {!Xreplication.Coord} checks in the same atomic step. *)

val decided_at :
  'v group -> member:Xnet.Address.t -> inst:string -> 'v option

val instances_known :
  'v group -> member:Xnet.Address.t -> string list
(** Instance ids with a locally-known decision at this member. *)

type stats = {
  proposals : int;  (** propose() calls *)
  ballots : int;  (** ballots started across all proposals *)
  decisions : int;  (** distinct instances decided (group-wide) *)
  messages_sent : int;
}

val stats : 'v group -> stats
