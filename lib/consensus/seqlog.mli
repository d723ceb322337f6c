(** VR/Zab-style sequenced-log consensus: one sequencer (the leader of
    the current view) orders every instance through a single log stream.

    This is the middle point of the substrate spectrum ("Vive la
    Différence": Paxos, VR, and Zab differ mainly in message complexity
    and leader handling):

    - {!Register} models consensus as a remote atomic cell — zero
      messages, pure latency;
    - [Seqlog] pays 1 forward + n commits per decision, with a real
      leader whose crash forces a (round-robin) view change;
    - {!Paxos} pays two full quorum phases per instance.

    The sequencing point is modelled atomically at the group's log (the
    same modelling choice {!Register} makes for its decision point);
    the commit fan-out and each member's local learning are real counted
    messages on the group's own transport.  [read] is member-local
    knowledge, like {!Paxos}; {!decided_at} and {!decisions} also
    consult the log itself, modelling VR state transfer (recovery reads).

    A member daemon dies with its process, so a crashed leader stops
    sequencing and proposers rotate the view after {!create_group}'s
    [forward_timeout]. *)

type 'v group

val create_group :
  Xsim.Engine.t ->
  latency:Xnet.Latency.t ->
  members:(Xnet.Address.t * Xsim.Proc.t) list ->
  ?forward_timeout:int ->
  unit ->
  'v group
(** [forward_timeout] (default 600 ticks) bounds the wait for a commit
    before the proposer rotates the view and re-forwards. *)

val members : 'v group -> Xnet.Address.t list

type 'v handle
(** A consensus object as seen by one member: (group, member, instance). *)

val handle : 'v group -> member:Xnet.Address.t -> inst:string -> 'v handle

val propose : 'v handle -> ?weight:int -> 'v -> 'v
(** Blocks (fiber) until this member learns the decision.  [weight] is
    the cardinality of an aggregate value, as in {!Paxos.propose}. *)

val read : 'v handle -> 'v option
(** This member's local knowledge (commit-fed), instant. *)

val decided_at : 'v group -> member:Xnet.Address.t -> inst:string -> 'v option
(** Local knowledge, falling back to the log (recovery read). *)

val decisions : 'v group -> member:Xnet.Address.t -> Decisions.t
(** All committed instances, in sequence order (the log is the group's
    shared authority, so every member reads the same one). *)

val fast_decide : 'v group -> member:Xnet.Address.t -> inst:string -> 'v -> 'v
(** Leased fast path: decide [inst] unilaterally at the log (first value
    wins; returns the existing decision otherwise).  Zero messages and
    zero latency — sound only while the caller holds a valid lease,
    which {!Xreplication.Coord} checks atomically in the same step. *)

type stats = {
  proposals : int;  (** propose() calls *)
  view_changes : int;  (** leader rotations forced by timeouts *)
  decisions : int;  (** log length (group-wide) *)
  fast_decisions : int;  (** decisions taken via {!fast_decide} *)
  messages_sent : int;
}

val stats : 'v group -> stats
