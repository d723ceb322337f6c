(** Consensus substrate used by the replicas, behind one interface.

    The protocol needs only the paper's [propose]/[read] object interface;
    this module hides three interchangeable substrates (each a point on
    the section 5.1 spectrum of replication cost) behind the internal
    {!SUBSTRATE} signature:
    - [`Register]: consensus objects as remote atomic write-once registers
      (the abstraction the paper assumes, with a configurable round-trip
      latency) — reads are globally accurate;
    - [`Paxos]: per-instance synod among the replicas
      ({!Xconsensus.Paxos}) — reads reflect local knowledge only, which
      is all an asynchronous system can offer;
    - [`Seqlog]: a VR/Zab-style sequenced log ({!Xconsensus.Seqlog}) — a
      leader orders all instances, 1 forward + n commits per decision,
      view change on leader crash.

    A {!Lease.t} (optional) adds the leased-owner fast path:
    {!fast_propose} lets the current lease holder decide owner-agreement
    instances unilaterally, skipping both the agreement and the serial
    substrate turn; the validity check and the decide happen in one
    atomic step, and the decision carries its fence epoch as
    {!Pval.Leased}.

    Instance ids follow {!Pval} naming. *)

type substrate =
  [ `Register of int  (** one-way latency to the register service *)
  | `Paxos of Xnet.Latency.t  (** message latency among replicas *)
  | `Seqlog of Xnet.Latency.t  (** message latency among replicas *) ]

type backend = substrate
(** Historical name for {!substrate}. *)

type t

val create :
  Xsim.Engine.t ->
  ?service_time:int ->
  ?lease:Lease.t ->
  substrate:substrate ->
  members:(Xnet.Address.t * Xsim.Proc.t) list ->
  unit ->
  t
(** [service_time] models the serial consensus substrate: a
    Multi-Paxos-style log sequences proposals instead of running them all
    concurrently, so each proposal occupies the substrate for that many
    ticks before its round starts — one log slot per proposal, whether
    the value is a single request or a batched aggregate (which is
    exactly the cost batching amortizes).  The default [0] keeps the
    substrate unserialised and pre-existing runs byte-identical.
    [lease] enables the leased-owner fast path (and, for [`Paxos], the
    canonical decision table it requires). *)

val substrate_name : t -> string
(** ["register"], ["paxos"] or ["seqlog"]. *)

val lease : t -> Lease.t option

val propose : t -> member:Xnet.Address.t -> inst:string -> Pval.t -> Pval.t
(** Blocking (fiber); full agreement.  Decisions are returned with any
    {!Pval.Leased} fence stripped. *)

val fast_propose :
  t -> member:Xnet.Address.t -> inst:string -> Pval.t -> Pval.t option
(** Leased fast path: if [member] currently holds the group's unexpired
    lease, decide [inst] unilaterally (first value wins) and return the
    decision ([Some], stripped); [None] when no lease is configured, the
    member is not the holder, or the lease lapsed — the caller must then
    run the full {!propose}.  The lease check and the decide are one
    atomic step, so a stale holder can never commit.  Counted as
    [coord.lease_hits]/[coord.lease_misses]. *)

val read : t -> member:Xnet.Address.t -> inst:string -> Pval.t option
(** The paper's [read()]: decided value or ⊥.  For [`Paxos]/[`Seqlog]
    this is the member's local knowledge. *)

val peek : t -> member:Xnet.Address.t -> inst:string -> Pval.t option
(** Instant local view of a decision: no latency, no messages.  Globally
    accurate for [`Register]; this member's knowledge for [`Paxos]; local
    knowledge backed by the log (recovery read) for [`Seqlog]. *)

val peek_raw : t -> member:Xnet.Address.t -> inst:string -> Pval.t option
(** Like {!peek} but without stripping {!Pval.Leased} — exposes the
    fence epoch a fast-path decision was taken under. *)

val read_takes_time : t -> bool
(** [true] when {!read} costs a round trip in virtual time ([`Register]);
    the other substrates read local knowledge instantly. *)

type feed
(** One member's cursor over the decisions it knows, in the order it
    learned them. *)

val feed : t -> member:Xnet.Address.t -> feed
(** A cursor at the start of [member]'s decisions. *)

val next : feed -> string option
(** The next decided instance id this cursor has not yet returned, or
    [None] when it has returned every decision known so far.  A decision
    learned later is returned by a later call.  Cleaners use this to
    discover requests, rounds and batch slots once each. *)

val total_proposals : t -> int

val messages_sent : t -> int
(** 0 for the [`Register] substrate (its cost is modelled as latency). *)

val messages_model : t -> int
(** Modelled substrate message count: real transport sends for
    [`Paxos]/[`Seqlog], two per full agreement round trip for
    [`Register] (reads excluded — they are local and free on the other
    substrates; fast decides cost zero) — the numerator of the
    [coord.msgs_per_request] gauge. *)
