(** Reliable channels rebuilt on a faulty wire (ARQ).

    The paper {e assumes} its channels (section 5.2): every message
    between correct processes is delivered exactly once.  This module
    {e implements} that contract on top of a {!Transport} configured
    with a {!Fault.t}, using automatic repeat request: per-link sequence
    numbers, cumulative acknowledgements piggybacked on reverse-link
    data frames (with a delayed pure-[Ack] flush when there is no ride),
    one coalesced retransmission timer per directed link with
    exponential backoff, and receiver-side deduplication plus in-order
    release.

    Guarantees between correct processes, for any fault plane with
    per-link drop probability < 1 and any healing partition schedule:
    every [send] is delivered to the destination mailbox {e exactly
    once}, and messages on the same directed link are delivered in send
    order (FIFO per link) — the contract [lib/replication] and
    [lib/detect] were written against.

    ARQ control traffic (acks, retransmissions) rides the same faulty
    wire and is itself subject to loss.  The machinery runs below the
    process level, like a NIC: a crashed {e receiver} still acks (which
    is unobservable — its mailbox is never consumed — and prevents
    endless retransmission to the dead), while a crashed {e sender}
    stops retransmitting (crash-stop: crashed processes send nothing).

    Retransmission never gives up; [retransmit_cap] only marks a metric
    ([net.retransmit_cap_hits]) when a single packet needs that many
    retries.  With an unhealed full partition the sender therefore keeps
    probing at the [max_rto] cadence — run such scenarios with an engine
    time limit. *)

type 'm packet =
  | Data of { seq : int; ack : int; payload : 'm }
      (** [ack] is the piggybacked cumulative acknowledgement for the
          reverse link: "I have released everything below [ack]". *)
  | Ack of { ack : int }
      (** Pure cumulative ack, sent only when no data frame came along
          to carry it within [ack_delay]. *)

type arq = {
  rto : int;  (** initial retransmission timeout (virtual ticks) *)
  backoff : int;  (** timeout multiplier per retry *)
  max_rto : int;  (** backoff ceiling *)
  retransmit_cap : int;
      (** retries (without ack progress) per link after which
          [net.retransmit_cap_hits] is counted — a health metric, not a
          delivery cutoff *)
  ack_delay : int;
      (** how long a receiver waits for a reverse-link data frame to
          piggyback its ack before flushing a pure [Ack] *)
}

val default_arq : arq
(** [{ rto = 150; backoff = 2; max_rto = 2400; retransmit_cap = 8;
      ack_delay = 25 }] *)

type stats = {
  app_sent : int;  (** application-level sends *)
  app_delivered : int;  (** exactly-once deliveries to app mailboxes *)
  retransmits : int;
  acks_sent : int;  (** pure [Ack] frames put on the wire *)
  piggyback_acks : int;  (** acks that rode a reverse-link data frame *)
  ack_flushes : int;  (** delayed-ack timers that had to fire *)
  dedup_dropped : int;  (** duplicate data packets discarded at receivers *)
  cap_hits : int;  (** links whose retries reached [retransmit_cap] *)
}

type 'm t

val create :
  Xsim.Engine.t -> ?fifo:bool -> ?faults:Fault.t -> ?arq:arq ->
  latency:Latency.t -> unit -> 'm t
(** Creates the underlying raw transport internally ([?fifo] and
    [?faults] configure it) and installs the ARQ delivery hook on it. *)

val engine : 'm t -> Xsim.Engine.t

val raw : 'm t -> 'm packet Transport.t
(** The underlying faulty transport (for wire-level stats and per-link
    fault overrides).  Do not install another delivery hook on it. *)

val register : 'm t -> Address.t -> proc:Xsim.Proc.t -> 'm Transport.envelope Xsim.Mailbox.t
(** Attach a node; the returned mailbox receives in-order, exactly-once
    application messages.  Raises [Invalid_argument] on reuse. *)

val mailbox : 'm t -> Address.t -> 'm Transport.envelope Xsim.Mailbox.t
val members : 'm t -> Address.t list

val send : 'm t -> src:Address.t -> dst:Address.t -> 'm -> unit
(** Fire-and-forget with the reliable-channel contract.  Raises
    [Not_found] for an unregistered destination. *)

val broadcast : 'm t -> src:Address.t -> ?include_self:bool -> 'm -> unit

val stats : 'm t -> stats
