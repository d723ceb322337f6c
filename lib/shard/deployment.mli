(** A deployment of the paper's protocol: N independent replica groups —
    each with its own owner, batch log, and etx records from
    {!Xreplication} — multiplexed over one shared {!Xnet} wire.  By the
    paper's section-4 theorem a single group is the N = 1 case, and it
    is built here too: one shard is exactly the classic group, with no
    address prefix and no router tier.

    With N > 1 a router/directory tier ({!Router}) fronts the groups.
    Requests route by a key extracted from their input
    ({!Partition.key_of_input}).  A {e session} is a closed-loop client
    pinned to a home shard: requests whose key lands on the home shard
    go directly to the shard's own client stub; requests for other
    shards traverse the router (a directory lookup plus a router-tier
    proxy stub).  A {e cross-shard request} is a list of sub-requests
    touching ≥ 2 shards, fanned out by the router tier in parallel and
    joined before the session continues — its history is validated by
    {!Xability.Checker.compose} per the paper's section-4 composition
    theorem, each sub-request being one logical group on its shard. *)

type router_config = {
  lookup_latency : int;  (** ticks per directory lookup on the routed path *)
  retry_delay : int;
      (** backoff before retrying a blocked directory entry *)
  blocked : (int * int * int) list;
      (** [(from, until, shard)] windows during which the router's
          directory entry for [shard] is unavailable (a router-shard
          partition); routed requests to that shard stall and retry *)
}
(** Knobs for the router/directory tier of a multi-shard deployment. *)

val default_router : router_config
(** 10-tick lookups, 50-tick retry backoff, no blocked windows. *)

type t

val create :
  ?shards:int ->
  ?router:router_config ->
  Xsim.Engine.t ->
  Xsm.Environment.t ->
  Xreplication.Service.config ->
  t
(** Builds [shards] (default 1) replica groups of [cfg] on one shared
    wire and a hash partitioner over them.  One shard is the classic
    single group: plain addresses (["replica"], ["client"]), rid spaces
    from 0, and no router tier, so its runs are those of a group built
    by {!Xreplication.Service.create}.  More shards get address prefixes
    ["s<i>."], disjoint client rid spaces, and the router tier from
    [router] (default {!default_router}, including its [blocked]
    windows), whose per-shard proxy stubs are registered as extra
    observers of each group's failure detector. *)

val partition : t -> Partition.t
val shards : t -> int
val group : t -> int -> Xreplication.Service.t

(** {1 Sessions} *)

type session

val session : t -> shard:int -> client:int -> session
(** The closed-loop session [client] (of [cfg.n_clients]) homed on
    [shard].  Its requests are minted from the shard's own client stub
    (deterministic disjoint rids). *)

val home : session -> int
val session_client : session -> Xreplication.Client.t
(** For minting requests (e.g. the {!Xworkload.Workloads} constructors). *)

val session_proc : session -> Xsim.Proc.t

val submit : t -> session -> Xsm.Request.t -> Xability.Value.t
(** Route by the request's key: directly through the home shard's stub,
    or — when the key lives elsewhere — through the router (directory
    lookup, then the target shard's proxy stub).  Blocks the calling
    fiber until the reply; records the submission.  One shard routes
    nothing: the request goes straight through the session's stub and
    no routing counter moves.  Obs (more than one shard):
    [shard.local_submits] / [shard.routed_submits]. *)

val submit_cross : t -> session -> Xsm.Request.t list -> Xability.Value.t list
(** A cross-shard request: fan the sub-requests out through the router
    tier in parallel fibers, join all replies (in sub-request order)
    before returning.  Each sub-request is an independent logical group
    on its own shard — exactly the shape section 4 composes.  With one
    shard there is no router tier: the parts fan out on the session's
    own process and stub.  Obs: [shard.cross_requests],
    [shard.cross_fanout]. *)

(** {1 Faults} *)

val kill_replica : t -> int -> unit
(** Global replica index [shard * n_replicas + r] — crash-stop replica
    [r] of that shard, matching the flat index space used by explorer
    schedules. *)

val kill_session : t -> shard:int -> client:int -> unit
(** Crash a session's client process. *)

(** {1 Verification & accounting} *)

val shard_of_expected : t -> Xability.Action.name -> Xability.Value.t -> int
(** The [shard_of] projection for {!Xability.Checker.compose}: derives
    the shard from a logical identity via {!Partition.key_of_logical} —
    the same pure function the router used online. *)

type submission = { req : Xsm.Request.t; reply : Xability.Value.t; latency : int }

val last_issued : session -> Xsm.Request.t option
(** The session's most recently issued request. *)

val issued : t -> Xsm.Request.t list
(** Every request issued, in issue order (deterministic: the simulation
    is). *)

val submissions : t -> submission list
(** Every completed submission, in completion order. *)

type totals = {
  service : Xreplication.Service.totals;
      (** replica/consensus counters summed across groups; the shared
          wire's messages counted once *)
  local_submits : int;
  routed_submits : int;  (** both 0 for one shard, which routes nothing *)
  cross_requests : int;
  router : Router.stats;  (** zero for one shard, which has no router *)
}

val totals : t -> totals
