type detector_config =
  | Oracle of { detection_delay : int; poll_interval : int }
  | Heartbeat of {
      latency : Xnet.Latency.t;
      period : int;
      initial_timeout : int;
      timeout_increment : int;
    }

type channel_config =
  | Assumed_reliable
  | Arq of Xnet.Reliable.arq

(* Directory/router tier knobs, consumed by the Xshard deployment layer
   (this library never reads them — keeping the dependency order
   xshard -> xreplication acyclic while letting one [config] describe a
   whole sharded deployment). *)
type router_config = {
  lookup_latency : int;
  retry_delay : int;
  blocked : (int * int * int) list;
      (* (from, until, shard): directory entry unavailable in a window *)
}

let default_router = { lookup_latency = 10; retry_delay = 50; blocked = [] }

type config = {
  n_replicas : int;
  n_clients : int;
  net_latency : Xnet.Latency.t;
  faults : Xnet.Fault.t;
  channel : channel_config;
  substrate : Coord.substrate;
  lease : Lease.config option;
      (* [Some] arms the leased-owner fast path: one epoch-numbered lease
         per replica group, renewed off the failure detector; None (the
         default) keeps every run byte-identical to the unleased model *)
  detector : detector_config;
  replica : Replica.config;
  consensus_service_time : int;
      (* serial-substrate occupancy per consensus proposal (ticks);
         0 = unserialised substrate (the historical model) *)
  shards : int;
      (* number of independent replica groups; 1 = this module's classic
         single-group deployment, >1 is built by Xshard.Deployment *)
  router : router_config;
}

let default_config =
  {
    n_replicas = 3;
    n_clients = 1;
    net_latency = Xnet.Latency.Uniform (20, 60);
    faults = Xnet.Fault.none;
    channel = Assumed_reliable;
    substrate = `Register 25;
    lease = None;
    detector = Oracle { detection_delay = 50; poll_interval = 25 };
    replica = Replica.default_config;
    consensus_service_time = 0;
    shards = 1;
    router = default_router;
  }

(* Which channel implementation carries the service's Wire messages.
   [Raw] is the paper's model: reliability assumed by the transport
   itself.  [Reliable] implements the same contract over a faulty wire
   with ARQ. *)
type net =
  | Raw of Wire.t Xnet.Transport.t
  | Reliable of Wire.t Xnet.Reliable.t

type wire = net

(* One wire can be shared by several groups: a sharded deployment
   multiplexes N replica groups (distinct address prefixes) over a single
   transport/ARQ stack, exactly as one datacenter network carries
   every shard's traffic. *)
let make_wire eng (cfg : config) : wire =
  match cfg.channel with
  | Assumed_reliable ->
      Raw
        (Xnet.Transport.create eng ~faults:cfg.faults ~latency:cfg.net_latency
           ())
  | Arq arq ->
      Reliable
        (Xnet.Reliable.create eng ~faults:cfg.faults ~arq
           ~latency:cfg.net_latency ())

let wire_conduit (w : wire) =
  match w with
  | Raw tr -> Xnet.Conduit.of_transport tr
  | Reliable r -> Xnet.Conduit.of_reliable r

let wire_stats (w : wire) =
  match w with
  | Raw tr -> Xnet.Transport.stats tr
  | Reliable r -> Xnet.Transport.stats (Xnet.Reliable.raw r)

let wire_reliable_stats (w : wire) =
  match w with Raw _ -> None | Reliable r -> Some (Xnet.Reliable.stats r)

type t = {
  eng : Xsim.Engine.t;
  env : Xsm.Environment.t;
  s_net : net;
  s_coord : Coord.t;
  s_detector : Xdetect.Detector.t;
  s_oracle : Xdetect.Oracle.t option;
  s_heartbeat : Xdetect.Heartbeat.t option;
  s_replicas : Replica.t array;
  replica_procs : Xsim.Proc.t array;
  clients : Client.t array;
  client_procs : Xsim.Proc.t array;
}

let create ?wire ?(prefix = "") ?(rid_offset = 0) ?(extra_observers = []) eng
    env (cfg : config) =
  (* [wire]: register this group's nodes on an existing (shared) wire
     instead of creating a private one.  [prefix] namespaces the group's
     address roles (e.g. "s3.replica") so shards never collide on one
     transport.  [rid_offset] shifts the client rid spaces so every
     client stub in a multi-group deployment mints globally unique,
     deterministic request ids.  Defaults reproduce the historical
     single-group deployment byte-for-byte. *)
  let s_net = match wire with Some w -> w | None -> make_wire eng cfg in
  let s_transport = wire_conduit s_net in
  let replica_members =
    List.init cfg.n_replicas (fun i ->
        let addr = Xnet.Address.make ~role:(prefix ^ "replica") ~index:i in
        let proc =
          Xsim.Proc.create ~name:(Xnet.Address.to_string addr)
        in
        (addr, proc))
  in
  let client_members =
    List.init cfg.n_clients (fun i ->
        let addr = Xnet.Address.make ~role:(prefix ^ "client") ~index:i in
        let proc = Xsim.Proc.create ~name:(Xnet.Address.to_string addr) in
        (addr, proc))
  in
  let s_lease =
    Option.map (fun config -> Lease.create eng ~config ()) cfg.lease
  in
  let s_coord =
    Coord.create eng ~service_time:cfg.consensus_service_time ?lease:s_lease
      ~substrate:cfg.substrate ~members:replica_members ()
  in
  let s_detector, s_oracle, s_heartbeat =
    match cfg.detector with
    | Oracle { detection_delay; poll_interval } ->
        (* [extra_observers] lets a sharded deployment's router-tier proxy
           stubs consult this group's detector like any local client. *)
        let o =
          Xdetect.Oracle.create eng
            ~observers:
              (List.map fst
                 (replica_members @ client_members @ extra_observers))
            ~targets:replica_members ~detection_delay ~poll_interval ()
        in
        (Xdetect.Oracle.detector o, Some o, None)
    | Heartbeat { latency; period; initial_timeout; timeout_increment } ->
        (* Heartbeats share the service's fault plane but ride the raw
           lossy wire (no ARQ): loss shows up as false suspicions. *)
        let hb =
          Xdetect.Heartbeat.create eng ~latency ~faults:cfg.faults
            ~members:replica_members
            ~extra_observers:(client_members @ extra_observers) ~period
            ~initial_timeout ~timeout_increment ()
        in
        (Xdetect.Heartbeat.detector hb, None, Some hb)
  in
  let s_replicas =
    Array.of_list
      (List.map
         (fun (addr, proc) ->
           Replica.create ~eng ~env ~transport:s_transport
             ~detector:s_detector ~coord:s_coord ~addr ~proc
             ~config:cfg.replica ())
         replica_members)
  in
  let replica_addrs = List.map fst replica_members in
  let clients =
    Array.of_list
      (List.mapi
         (fun i (addr, proc) ->
           (* Disjoint deterministic rid spaces per client, so re-running
              the same configuration reproduces the same request ids. *)
           Client.create ~eng ~transport:s_transport ~detector:s_detector
             ~replicas:replica_addrs ~addr ~proc
             ~rid_base:((rid_offset + i) * 1_000_000) ())
         client_members)
  in
  {
    eng;
    env;
    s_net;
    s_coord;
    s_detector;
    s_oracle;
    s_heartbeat;
    s_replicas;
    replica_procs = Array.of_list (List.map snd replica_members);
    clients;
    client_procs = Array.of_list (List.map snd client_members);
  }

let engine t = t.eng
let environment t = t.env
let replicas t = t.s_replicas

let replica_addrs t =
  Array.to_list (Array.map Replica.addr t.s_replicas)

let client t i = t.clients.(i)
let kill_replica t i = Xsim.Proc.kill t.replica_procs.(i)
let kill_client t i = Xsim.Proc.kill t.client_procs.(i)
let detector t = t.s_detector
let oracle t = t.s_oracle
let heartbeat t = t.s_heartbeat
let coord t = t.s_coord
let lease t = Coord.lease t.s_coord

(* Wire-level stats of the service transport: under ARQ these count raw
   packets (data + acks + retransmissions), not application sends.  With
   a shared wire these are deployment-wide, not per-group. *)
let net_stats t = wire_stats t.s_net
let reliable_stats t = wire_reliable_stats t.s_net

type totals = {
  rounds_owned : int;
  executions : int;
  cleanups : int;
  takeovers : int;
  replies_sent : int;
  consensus_proposals : int;
  consensus_messages : int;
  coord_msgs : int;
      (* modelled substrate messages (messages_model): covers `Register
         too, the numerator of coord.msgs_per_request *)
  service_messages : int;
}

let totals t =
  let sum f =
    Array.fold_left (fun acc r -> acc + f (Replica.metrics r)) 0 t.s_replicas
  in
  {
    rounds_owned = sum (fun m -> m.Replica.rounds_owned);
    executions = sum (fun m -> m.Replica.executions);
    cleanups = sum (fun m -> m.Replica.cleanups);
    takeovers = sum (fun m -> m.Replica.takeovers);
    replies_sent = sum (fun m -> m.Replica.replies_sent);
    consensus_proposals = Coord.total_proposals t.s_coord;
    consensus_messages = Coord.messages_sent t.s_coord;
    coord_msgs = Coord.messages_model t.s_coord;
    service_messages = (net_stats t).Xnet.Transport.sent;
  }
