type substrate =
  [ `Register of int
  | `Paxos of Xnet.Latency.t
  | `Seqlog of Xnet.Latency.t ]

let substrates =
  [
    ("register", `Register 25);
    ("paxos", `Paxos (Xnet.Latency.Uniform (10, 40)));
    ("seqlog", `Seqlog (Xnet.Latency.Uniform (10, 40)));
  ]

(* The pluggable consensus substrate behind one first-class-module
   interface: each implementation provides the same propose/read surface
   over Pval values, so the replicas never know which point of the
   paper's section 5.1 spectrum they are running on. *)
module type SUBSTRATE = sig
  type t

  val name : string

  val propose :
    t -> member:Xnet.Address.t -> inst:string -> weight:int -> Pval.t -> Pval.t

  val read : t -> member:Xnet.Address.t -> inst:string -> Pval.t option

  val read_takes_time : bool
  (** [read] yields to the simulator (it models a round trip). *)

  val peek : t -> member:Xnet.Address.t -> inst:string -> Pval.t option
  (** Instant local view: no latency, no messages. *)

  val decisions : t -> member:Xnet.Address.t -> Xconsensus.Decisions.t
  (** The instances [member] knows decided, in the order it learned them. *)

  val fast_decide :
    t -> member:Xnet.Address.t -> inst:string -> Pval.t -> Pval.t
  (** Unilateral decide for the leased fast path (first value wins);
      only called under a lease validity check. *)

  val total_proposals : t -> int

  val messages_sent : t -> int
  (** Raw substrate transport sends (0 for [`Register], whose cost is
      modelled as latency). *)

  val messages_model : t -> int
  (** Modelled message count, covering [`Register] too (two messages per
      round trip) — the numerator of [coord.msgs_per_request]. *)
end

(* ---- `Register: the paper's write-once register service ---- *)

module Register_sub = struct
  type t = {
    eng : Xsim.Engine.t;
    latency : int;
    table : (string, Pval.t Xconsensus.Register.t) Hashtbl.t;
    decided : Xconsensus.Decisions.t;
        (** every decided register, in decision order: one service, so
            every member knows the same decisions *)
    mutable proposals : int;
    mutable full_proposes : int;
        (** round-trip proposes only (not fast decides), for the model *)
  }

  let name = "register"

  let create eng ~latency =
    {
      eng;
      latency;
      table = Hashtbl.create 64;
      decided = Xconsensus.Decisions.create ();
      proposals = 0;
      full_proposes = 0;
    }

  let obj t inst =
    match Hashtbl.find_opt t.table inst with
    | Some obj -> obj
    | None ->
        let obj =
          Xconsensus.Register.create t.eng ~latency:t.latency
            ~on_decide:(fun () -> Xconsensus.Decisions.add t.decided inst)
            ~name:inst ()
        in
        Hashtbl.replace t.table inst obj;
        obj

  let propose t ~member:_ ~inst ~weight v =
    t.proposals <- t.proposals + 1;
    t.full_proposes <- t.full_proposes + 1;
    Xconsensus.Register.propose (obj t inst) ~weight v

  let read t ~member:_ ~inst = Xconsensus.Register.read (obj t inst)
  let read_takes_time = true

  let peek t ~member:_ ~inst =
    match Hashtbl.find_opt t.table inst with
    | Some obj -> Xconsensus.Register.peek obj
    | None -> None

  let decisions t ~member:_ = t.decided

  let fast_decide t ~member:_ ~inst v =
    t.proposals <- t.proposals + 1;
    Xconsensus.Register.decide_if_unset (obj t inst) v

  let total_proposals t = t.proposals

  let messages_sent _ = 0

  (* Two messages per agreement round trip; reads are excluded so the
     model is comparable across substrates (Paxos/Seqlog reads are local
     and free), and fast decides genuinely cost zero. *)
  let messages_model t = 2 * t.full_proposes
end

(* ---- `Paxos: per-instance synod among the replicas ---- *)

module Paxos_sub = struct
  type t = Pval.t Xconsensus.Paxos.group

  let name = "paxos"

  let propose g ~member ~inst ~weight v =
    Xconsensus.Paxos.propose (Xconsensus.Paxos.handle g ~member ~inst) ~weight v

  let read g ~member ~inst =
    Xconsensus.Paxos.read (Xconsensus.Paxos.handle g ~member ~inst)

  let read_takes_time = false
  let peek g ~member ~inst = Xconsensus.Paxos.decided_at g ~member ~inst
  let decisions g ~member = Xconsensus.Paxos.decisions g ~member
  let fast_decide g ~member ~inst v = Xconsensus.Paxos.fast_decide g ~member ~inst v
  let total_proposals g = (Xconsensus.Paxos.stats g).proposals
  let messages_sent g = (Xconsensus.Paxos.stats g).messages_sent
  let messages_model = messages_sent
end

(* ---- `Seqlog: VR/Zab-style sequenced log ---- *)

module Seqlog_sub = struct
  type t = Pval.t Xconsensus.Seqlog.group

  let name = "seqlog"

  let propose g ~member ~inst ~weight v =
    Xconsensus.Seqlog.propose
      (Xconsensus.Seqlog.handle g ~member ~inst)
      ~weight v

  let read g ~member ~inst = Xconsensus.Seqlog.decided_at g ~member ~inst
  let read_takes_time = false
  let peek g ~member ~inst = Xconsensus.Seqlog.decided_at g ~member ~inst
  let decisions g ~member = Xconsensus.Seqlog.decisions g ~member

  let fast_decide g ~member ~inst v =
    Xconsensus.Seqlog.fast_decide g ~member ~inst v

  let total_proposals g = (Xconsensus.Seqlog.stats g).proposals
  let messages_sent g = (Xconsensus.Seqlog.stats g).messages_sent
  let messages_model = messages_sent
end

type sub = Sub : (module SUBSTRATE with type t = 'a) * 'a -> sub

type t = {
  sub : sub;
  eng : Xsim.Engine.t;
  lease : Lease.t option;
  (* Serial-substrate model: a Multi-Paxos-style log sequences proposals,
     it does not run them all concurrently.  Each proposal occupies the
     substrate for [service_time] ticks (one log slot — a batched
     aggregate value still costs one slot, which is exactly what batching
     amortizes).  0 (the default) keeps the substrate unserialised and
     every pre-existing run byte-identical. *)
  service_time : int;
  mutable busy_until : int;
}

let create eng ?(service_time = 0) ?lease ~substrate ~members () =
  let sub =
    match substrate with
    | `Register latency ->
        ignore members;
        Sub
          ( (module Register_sub : SUBSTRATE with type t = Register_sub.t),
            Register_sub.create eng ~latency )
    | `Paxos latency ->
        let g = Xconsensus.Paxos.create_group eng ~latency ~members () in
        if lease <> None then Xconsensus.Paxos.set_fast_path g true;
        Sub ((module Paxos_sub : SUBSTRATE with type t = Paxos_sub.t), g)
    | `Seqlog latency ->
        Sub
          ( (module Seqlog_sub : SUBSTRATE with type t = Seqlog_sub.t),
            Xconsensus.Seqlog.create_group eng ~latency ~members () )
  in
  { sub; eng; lease; service_time; busy_until = 0 }

let substrate_name t =
  let (Sub ((module S), _)) = t.sub in
  S.name

let lease t = t.lease

(* Pval names instances "o/..."/"r/..."/"x/..." (owner / result /
   outcome) and "b/..."/"y/..." (batch slot / batch outcome); classify
   consensus traffic per protocol decision family. *)
let count_decision_family inst =
  if Xobs.enabled () && String.length inst >= 2 && inst.[1] = '/' then
    match inst.[0] with
    | 'o' -> Xobs.Counter.incr (Xobs.counter "coord.owner_decisions")
    | 'r' -> Xobs.Counter.incr (Xobs.counter "coord.result_decisions")
    | 'x' -> Xobs.Counter.incr (Xobs.counter "coord.outcome_decisions")
    | 'b' -> Xobs.Counter.incr (Xobs.counter "coord.batch_decisions")
    | 'y' -> Xobs.Counter.incr (Xobs.counter "coord.batch_outcome_decisions")
    | _ -> ()

(* Cardinality of an aggregate proposal: a batch slot or batch outcome
   settles one consensus instance for all its members at once. *)
let weight_of v =
  match Pval.strip v with
  | Pval.Batch { members; _ } -> max 1 (List.length members)
  | Pval.Batch_outcome { results; _ } -> max 1 (List.length results)
  | Pval.Owner _ | Pval.Result _ | Pval.Outcome _ | Pval.Leased _ -> 1

let propose t ~member ~inst v =
  (* Take this proposal's turn on the serial substrate before touching
     the backend.  Turn order is the (deterministic) order fibers reach
     this point; the reservation happens before the sleep so concurrent
     proposers queue rather than racing for the same slot. *)
  if t.service_time > 0 then begin
    let now = Xsim.Engine.now t.eng in
    let start = max now t.busy_until in
    t.busy_until <- start + t.service_time;
    if Xobs.enabled () then
      Xobs.Histogram.record
        (Xobs.histogram "coord.serial_wait")
        (start - now);
    if start > now then Xsim.Timer.sleep t.eng (start - now)
  end;
  count_decision_family inst;
  let weight = weight_of v in
  let (Sub ((module S), s)) = t.sub in
  Pval.strip (S.propose s ~member ~inst ~weight v)

(* The leased fast path: if [member] holds the group's unexpired lease,
   decide [inst] unilaterally (wrapped in {!Pval.Leased} with the fence
   epoch) — no owner agreement, no serial-substrate turn.  The lease
   check and the decide happen in one atomic step (cooperative fibers),
   so a stale holder can never commit; [None] sends the caller down the
   full agreement path. *)
let fast_propose t ~member ~inst v =
  match t.lease with
  | None -> None
  | Some l -> (
      match Lease.holder l with
      | Some (h, epoch) when Xnet.Address.equal h member ->
          if Xobs.enabled () then
            Xobs.Counter.incr (Xobs.counter "coord.lease_hits");
          count_decision_family inst;
          let (Sub ((module S), s)) = t.sub in
          Some
            (Pval.strip
               (S.fast_decide s ~member ~inst (Pval.Leased { epoch; inner = v })))
      | _ ->
          if Xobs.enabled () then
            Xobs.Counter.incr (Xobs.counter "coord.lease_misses");
          None)

let read t ~member ~inst =
  if Xobs.enabled () then Xobs.Counter.incr (Xobs.counter "coord.reads");
  let (Sub ((module S), s)) = t.sub in
  Option.map Pval.strip (S.read s ~member ~inst)

(* Instant local view of a decision: no latency, no messages.  For the
   `Register backend this is globally accurate; for `Paxos it is the
   member's knowledge (decisions it has learned); for `Seqlog it is
   local knowledge backed by the log (recovery reads). *)
let peek t ~member ~inst =
  let (Sub ((module S), s)) = t.sub in
  Option.map Pval.strip (S.peek s ~member ~inst)

(* Raw (unstripped) view, exposing the {!Pval.Leased} fence evidence. *)
let peek_raw t ~member ~inst =
  let (Sub ((module S), s)) = t.sub in
  S.peek s ~member ~inst

let read_takes_time t =
  let (Sub ((module S), _)) = t.sub in
  S.read_takes_time

(* A member's cursor over the decisions it knows: each [next] returns one
   it has not returned before, so a reader pays once per decision, not
   once per decision per look. *)
type feed = { log : Xconsensus.Decisions.t; mutable seen : int }

let feed t ~member =
  let (Sub ((module S), s)) = t.sub in
  { log = S.decisions s ~member; seen = 0 }

let next f =
  if f.seen = Xconsensus.Decisions.length f.log then None
  else begin
    let inst = Xconsensus.Decisions.get f.log f.seen in
    f.seen <- f.seen + 1;
    Some inst
  end

let total_proposals t =
  let (Sub ((module S), s)) = t.sub in
  S.total_proposals s

let messages_sent t =
  let (Sub ((module S), s)) = t.sub in
  S.messages_sent s

let messages_model t =
  let (Sub ((module S), s)) = t.sub in
  S.messages_model s
