(** Consensus objects modelled as a remote atomic write-once register.

    This is the paper's assumption taken literally: a highly available
    service that decides the first proposal to reach it.  [propose] costs a
    round trip of configurable latency; the decision point is atomic.
    Useful as the fast, obviously-correct implementation against which the
    message-passing {!Paxos} implementation is differentially tested, and
    for experiments that want to isolate protocol behaviour from consensus
    cost. *)

type 'v t

val create :
  Xsim.Engine.t -> ?latency:int -> name:string -> unit -> 'v t
(** [latency] is the one-way trip time to the register (default 20). *)

val name : 'v t -> string

val propose : 'v t -> ?weight:int -> 'v -> 'v
(** [weight] (default 1) is the cardinality of an aggregate value (e.g. a
    batch of requests): the register decides the whole list payload in one
    round-trip, and weights > 1 are recorded to the
    [consensus.value_weight] histogram. *)

val decide_if_unset : 'v t -> 'v -> 'v
(** Leased fast path: decide instantly without the round trip (first
    value wins; returns the existing decision otherwise).  Zero latency
    and zero modelled messages — sound only while the caller holds a
    valid lease, which {!Xreplication.Coord} checks atomically. *)

val read : 'v t -> 'v option

val peek : 'v t -> 'v option
(** Instant, zero-latency view for harness assertions. *)

val propose_count : 'v t -> int
