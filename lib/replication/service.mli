(** Assembly of a replicated service: replicas, clients, transport,
    detector and consensus backend, wired over one simulation engine and
    one environment.

    This is the deployment harness for the paper's protocol: experiments
    and applications describe a {!config}, call {!create}, obtain clients,
    and drive the run. *)

type detector_config =
  | Oracle of { detection_delay : int; poll_interval : int }
      (** test oracle (inject noise via {!oracle}) *)
  | Heartbeat of {
      latency : Xnet.Latency.t;
      period : int;
      initial_timeout : int;
      timeout_increment : int;
    }  (** heartbeat-based ◇P over its own transport *)

type channel_config =
  | Assumed_reliable
      (** the paper's section 5.2 model: the transport itself guarantees
          exactly-once delivery (unless [faults] says otherwise, in which
          case losses go unrepaired — useful to show what breaks) *)
  | Arq of Xnet.Reliable.arq
      (** reliable channels implemented over the faulty wire by the
          {!Xnet.Reliable} ARQ layer *)

type config = {
  n_replicas : int;
  n_clients : int;  (** per replica group *)
  net_latency : Xnet.Latency.t;  (** client-replica message latency *)
  faults : Xnet.Fault.t;
      (** fault plane for the service wire {e and} the heartbeat
          transport (heartbeats always ride the raw lossy wire) *)
  channel : channel_config;
  substrate : Coord.substrate;
      (** which consensus substrate backs the group's agreement instances
          (register / paxos / seqlog); see {!Coord} *)
  lease : Lease.config option;
      (** [Some] arms the leased-owner fast path: one epoch-numbered
          {!Lease} per replica group, renewed off the failure detector,
          letting the holder skip owner agreement ({!Coord.fast_propose}).
          [None] (default) keeps runs byte-identical to the unleased
          model *)
  detector : detector_config;
  replica : Replica.config;
  consensus_service_time : int;
      (** serial consensus substrate: ticks each proposal occupies the
          (Multi-Paxos-style, sequenced) log before its round starts —
          one slot per proposal, aggregate or not, so batching amortizes
          it.  [0] (default) keeps the substrate unserialised and
          pre-existing runs byte-identical; see {!Coord.create} *)
}

val default_config : config
(** 3 replicas, 1 client, uniform(20,60) latency, no faults, channels
    assumed reliable, register substrate with latency 25, no lease,
    oracle detector with 50-tick detection delay. *)

type wire
(** A service wire: the transport (or ARQ reliable layer) that carries
    {!Wire.t} messages.  Created per-group by default; a sharded
    deployment creates one and passes it to every group's {!create} so
    all shards share a single network. *)

val make_wire : Xsim.Engine.t -> config -> wire
(** Build the wire a [config] describes ([channel], [faults],
    [net_latency]) without building the service. *)

val wire_conduit : wire -> Wire.t Xnet.Conduit.t
(** Channel-agnostic surface of the wire, e.g. for extra (router-tier)
    client stubs sharing it. *)

val wire_stats : wire -> Xnet.Transport.stats
val wire_reliable_stats : wire -> Xnet.Reliable.stats option

type t

val create :
  ?wire:wire ->
  ?prefix:string ->
  ?rid_offset:int ->
  ?extra_observers:(Xnet.Address.t * Xsim.Proc.t) list ->
  Xsim.Engine.t ->
  Xsm.Environment.t ->
  config ->
  t
(** [?wire] registers this group's nodes on an existing shared wire
    instead of creating a private one.  [?prefix] namespaces the group's
    address roles (["s3."] gives replicas ["s3.replica.i"]) so several
    groups coexist on one transport.  [?rid_offset] shifts client rid
    bases to [(rid_offset + i) * 1_000_000].  [?extra_observers] adds
    addresses (e.g. a sharded deployment's router proxies) as observers
    of this group's failure detector.  All default to the historical
    single-group behaviour, byte-for-byte. *)

val engine : t -> Xsim.Engine.t
val environment : t -> Xsm.Environment.t

val replicas : t -> Replica.t array
val replica_addrs : t -> Xnet.Address.t list

val client : t -> int -> Client.t
(** Clients are pre-allocated ([n_clients]); index from 0. *)

val kill_replica : t -> int -> unit
(** Crash replica [i] now (crash-stop). *)

val kill_client : t -> int -> unit

val detector : t -> Xdetect.Detector.t

val oracle : t -> Xdetect.Oracle.t option
(** The oracle instance when the oracle detector is configured. *)

val heartbeat : t -> Xdetect.Heartbeat.t option

val coord : t -> Coord.t

val lease : t -> Lease.t option
(** The group's lease cell when [config.lease] is [Some]. *)

val net_stats : t -> Xnet.Transport.stats
(** Wire-level stats of the service transport.  Under [Arq] these count
    raw packets (data, acks, retransmissions), not application sends. *)

val reliable_stats : t -> Xnet.Reliable.stats option
(** ARQ-layer stats when the [Arq] channel is configured. *)

type totals = {
  rounds_owned : int;
  executions : int;
  cleanups : int;
  takeovers : int;
  replies_sent : int;
  consensus_proposals : int;
  consensus_messages : int;
  coord_msgs : int;
      (** modelled substrate messages ({!Coord.messages_model}): covers
          the register substrate too — the numerator of the
          [coord.msgs_per_request] gauge *)
  service_messages : int;
}

val totals : t -> totals
(** Aggregated metrics across all replicas. *)
