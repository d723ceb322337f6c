module Service = Xreplication.Service
module Client = Xreplication.Client

type router_config = {
  lookup_latency : int;
  retry_delay : int;
  blocked : (int * int * int) list;
      (* (from, until, shard): directory entry unavailable in a window *)
}

let default_router = { lookup_latency = 10; retry_delay = 50; blocked = [] }

type session = {
  home : int;
  sc : Client.t;
  mutable last_issued : Xsm.Request.t option;
}

type submission = { req : Xsm.Request.t; reply : Xability.Value.t; latency : int }

(* The router tier: the directory, one proxy stub per shard, and the
   process the router's forwarding fibers run on.  A one-group
   deployment has nothing to route between and builds none of it. *)
type tier = { rt : Router.t; proxies : Client.t array; router_proc : Xsim.Proc.t }

type t = {
  eng : Xsim.Engine.t;
  cfg : Service.config;
  part : Partition.t;
  tier : tier option;
  wire : Service.wire;
  groups : Service.t array;
  sessions : (int * int, session) Hashtbl.t;
  mutable issued_rev : Xsm.Request.t list;
  mutable submissions_rev : submission list;
  mutable local_submits : int;
  mutable routed_submits : int;
  mutable cross_requests : int;
}

let create ?(shards = 1) ?(router = default_router) eng env
    (cfg : Service.config) =
  let shards = max 1 shards in
  let n_clients = cfg.Service.n_clients in
  let part = Partition.hash ~shards in
  let wire = Service.make_wire eng cfg in
  let groups, tier =
    if shards = 1 then
      (* The classic single group: no address prefix, no router tier. *)
      ([| Service.create ~wire eng env cfg |], None)
    else begin
      let router_proc = Xsim.Proc.create ~name:"router" in
      (* The router's per-shard proxy stubs are declared up front so each
         group's failure detector counts its proxy among its observers. *)
      let proxy_members =
        Array.init shards (fun s ->
            (Xnet.Address.make ~role:"router" ~index:s, router_proc))
      in
      let groups =
        Array.init shards (fun s ->
            Service.create ~wire
              ~prefix:(Printf.sprintf "s%d." s)
              ~rid_offset:(s * n_clients)
              ~extra_observers:[ proxy_members.(s) ]
              eng env cfg)
      in
      let views = Array.map Service.replica_addrs groups in
      let rt =
        Router.create eng ~partition:part ~views
          ~lookup_latency:router.lookup_latency
          ~retry_delay:router.retry_delay ()
      in
      List.iter
        (fun (from_t, until_t, shard) ->
          if shard >= 0 && shard < shards then
            Router.block rt ~shard ~from_t ~until_t)
        router.blocked;
      let proxies =
        Array.init shards (fun s ->
            let addr, proc = proxy_members.(s) in
            Client.create ~eng
              ~transport:(Service.wire_conduit wire)
              ~detector:(Service.detector groups.(s))
              ~replicas:(Service.replica_addrs groups.(s))
              ~addr ~proc
              ~rid_base:(((shards * n_clients) + s) * 1_000_000)
              ())
      in
      (groups, Some { rt; proxies; router_proc })
    end
  in
  {
    eng;
    cfg;
    part;
    tier;
    wire;
    groups;
    sessions = Hashtbl.create 16;
    issued_rev = [];
    submissions_rev = [];
    local_submits = 0;
    routed_submits = 0;
    cross_requests = 0;
  }

let partition t = t.part
let shards t = Array.length t.groups
let group t s = t.groups.(s)

let session t ~shard ~client =
  match Hashtbl.find_opt t.sessions (shard, client) with
  | Some s -> s
  | None ->
      let s =
        {
          home = shard;
          sc = Service.client t.groups.(shard) client;
          last_issued = None;
        }
      in
      Hashtbl.replace t.sessions (shard, client) s;
      s

let home s = s.home
let session_client s = s.sc
let session_proc s = Client.proc s.sc

let issue t sess req =
  sess.last_issued <- Some req;
  t.issued_rev <- req :: t.issued_rev

let record t sub = t.submissions_rev <- sub :: t.submissions_rev

let obs_incr name =
  if Xobs.enabled () then Xobs.Counter.incr (Xobs.counter name)

(* Consult the directory for [req]'s shard, then go through that shard's
   router-tier proxy stub. *)
let forward tier req =
  let key = Partition.key_of_input req.Xsm.Request.input in
  let shard, _view = Router.lookup tier.rt ~key in
  Client.submit_until_success tier.proxies.(shard) req

let submit t sess req =
  issue t sess req;
  let t0 = Xsim.Engine.now t.eng in
  let reply =
    match t.tier with
    | None -> Client.submit_until_success sess.sc req
    | Some tier ->
        let key = Partition.key_of_input req.Xsm.Request.input in
        if Partition.shard_of t.part key = sess.home then begin
          t.local_submits <- t.local_submits + 1;
          obs_incr "shard.local_submits";
          Client.submit_until_success sess.sc req
        end
        else begin
          t.routed_submits <- t.routed_submits + 1;
          obs_incr "shard.routed_submits";
          forward tier req
        end
  in
  record t { req; reply; latency = Xsim.Engine.now t.eng - t0 };
  reply

let submit_cross t sess parts =
  t.cross_requests <- t.cross_requests + 1;
  obs_incr "shard.cross_requests";
  if Xobs.enabled () then
    Xobs.Histogram.record
      (Xobs.histogram "shard.cross_fanout")
      (List.length parts);
  (* Issue every sub-request before any executes: the cross-shard request
     is one unit of client intent, its parts one logical group each. *)
  List.iter (issue t sess) parts;
  (* The router tier executes each part: even a part whose key is the
     session's home shard takes the routed path, so a cross-shard request
     has one failure surface.  One group has no router: its parts go
     through the session's own stub. *)
  let proc, send =
    match t.tier with
    | None -> (session_proc sess, fun req -> Client.submit_until_success sess.sc req)
    | Some tier -> (tier.router_proc, forward tier)
  in
  let fanout =
    List.map
      (fun req ->
        let iv = Xsim.Ivar.create () in
        let t0 = Xsim.Engine.now t.eng in
        Xsim.Engine.spawn t.eng ~proc
          ~name:(Printf.sprintf "xfwd.%s" (Xsm.Request.key req))
          (fun () ->
            let reply = send req in
            record t
              { req; reply; latency = Xsim.Engine.now t.eng - t0 };
            Xsim.Ivar.fill iv reply);
        iv)
      parts
  in
  List.map (fun iv -> Xsim.Ivar.read t.eng iv) fanout

let kill_replica t idx =
  let n = t.cfg.Service.n_replicas in
  let shard = idx / n and r = idx mod n in
  if shard < Array.length t.groups then Service.kill_replica t.groups.(shard) r

let kill_session t ~shard ~client = Service.kill_client t.groups.(shard) client

let shard_of_expected t _action logical =
  Partition.shard_of t.part (Partition.key_of_logical logical)

let last_issued s = s.last_issued
let issued t = List.rev t.issued_rev
let submissions t = List.rev t.submissions_rev

type totals = {
  service : Service.totals;
  local_submits : int;
  routed_submits : int;
  cross_requests : int;
  router : Router.stats;
}

let totals t =
  let sum f = Array.fold_left (fun acc g -> acc + f (Service.totals g)) 0 t.groups in
  let service =
    {
      Service.rounds_owned = sum (fun m -> m.Service.rounds_owned);
      executions = sum (fun m -> m.Service.executions);
      cleanups = sum (fun m -> m.Service.cleanups);
      takeovers = sum (fun m -> m.Service.takeovers);
      replies_sent = sum (fun m -> m.Service.replies_sent);
      consensus_proposals = sum (fun m -> m.Service.consensus_proposals);
      consensus_messages = sum (fun m -> m.Service.consensus_messages);
      coord_msgs = sum (fun m -> m.Service.coord_msgs);
      (* Every group reports the same shared wire: count it once. *)
      service_messages = (Service.wire_stats t.wire).Xnet.Transport.sent;
    }
  in
  {
    service;
    local_submits = t.local_submits;
    routed_submits = t.routed_submits;
    cross_requests = t.cross_requests;
    router =
      (match t.tier with
      | Some tier -> Router.stats tier.rt
      | None -> { Router.lookups = 0; blocked_waits = 0 });
  }
