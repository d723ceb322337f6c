(** Simulated message transport with an optional fault plane.

    By default the transport implements the channel assumptions of the
    paper (section 5.2): channels are reliable — a message sent between
    correct processes is eventually delivered, exactly once.  Messages to
    a crashed process are delivered into its mailbox but never consumed.
    Delivery delay is drawn from a {!Latency.t} model, optionally
    overridden per directed link; per-link FIFO ordering is optional (off
    by default, matching an asynchronous network).

    Configuring a {!Fault.t} (at creation or via {!set_faults}) makes the
    wire lossy: messages may be dropped, duplicated, jittered or severed
    by timed partitions.  A faulty transport no longer honours the
    paper's channel contract — {!Reliable} rebuilds exactly-once FIFO
    delivery on top of it with an ARQ protocol.  All fault decisions are
    sampled from a dedicated split RNG (created lazily, so fault-free
    transports draw the same stream as before the fault plane existed),
    or forced per send index by {!Fault.t.forced} for systematic
    exploration.

    The transport is polymorphic in the message type; one transport
    instance carries one protocol's messages.  The mailbox carries the
    sender's value by pointer: nothing is serialised. *)

type 'm t

type 'm envelope = { src : Address.t; dst : Address.t; payload : 'm }

type stats = {
  sent : int;
  delivered : int;  (** wire-level deliveries, duplicate copies included *)
  total_delay : int;  (** sum of delivery delays, for mean computation *)
  dropped : int;  (** messages lost by sampled or forced drops *)
  duplicated : int;  (** extra copies injected *)
  partition_dropped : int;  (** messages severed by an active partition *)
  forced_faults : int;  (** forced (enumerated) fault actions applied *)
}

val create :
  Xsim.Engine.t -> ?fifo:bool -> ?faults:Fault.t -> latency:Latency.t ->
  unit -> 'm t

val link_hash : Address.t -> Address.t -> int
(** Allocation-free hash of a directed link (exposed for the
    collision-sanity test). *)

val engine : 'm t -> Xsim.Engine.t

val register : 'm t -> Address.t -> proc:Xsim.Proc.t -> 'm envelope Xsim.Mailbox.t
(** Attach a node.  Raises [Invalid_argument] if the address is taken.
    The returned mailbox receives this node's inbound messages. *)

val mailbox : 'm t -> Address.t -> 'm envelope Xsim.Mailbox.t
(** Raises [Not_found] for unregistered addresses. *)

val proc_of : 'm t -> Address.t -> Xsim.Proc.t
(** The process registered at an address.  Raises [Not_found]. *)

val members : 'm t -> Address.t list
(** All registered addresses, in registration order. *)

val send : 'm t -> src:Address.t -> dst:Address.t -> 'm -> unit
(** Fire-and-forget.  Sending to an unregistered address raises
    [Not_found] (a configuration error, not a simulated fault). *)

val broadcast : 'm t -> src:Address.t -> ?include_self:bool -> 'm -> unit
(** Send to every registered member (excluding [src] unless
    [include_self], default [false]). *)

val set_link_latency : 'm t -> src:Address.t -> dst:Address.t -> Latency.t -> unit
(** Override the delay model for one directed link (e.g. to simulate a
    slow path; delivery remains reliable unless faults are configured). *)

val clear_link_latency : 'm t -> src:Address.t -> dst:Address.t -> unit

val set_faults : 'm t -> Fault.t -> unit
(** Install (or replace) the fault plane.  {!Fault.none} restores
    reliable behaviour. *)

val faults : 'm t -> Fault.t

val set_link_faults : 'm t -> src:Address.t -> dst:Address.t -> Fault.link -> unit
(** Override the fault profile for one directed link. *)

val clear_link_faults : 'm t -> src:Address.t -> dst:Address.t -> unit

val set_delivery_hook : 'm t -> ('m envelope -> bool) option -> unit
(** Intercept deliveries, in scheduler context, before mailbox insertion.
    A hook returning [true] consumes the envelope (nothing reaches the
    destination mailbox); [false] lets normal delivery proceed.  This is
    the attachment point for protocol layers such as {!Reliable} that
    terminate wire messages below the process level. *)

val stats : 'm t -> stats
