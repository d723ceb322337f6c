module Addr_tbl = Hashtbl.Make (struct
  type t = Address.t

  let equal = Address.equal
  let hash = Address.hash
end)

(* Inline integer mix of the two endpoint hashes.  [Hashtbl.hash
   (Address.hash a, Address.hash b)] built a tuple per lookup; this is
   allocation-free and spreads links at least as well (collision-sanity
   checked in test_net). *)
let link_hash a b =
  let h = (Address.hash a * 0x9e3779b1) lxor Address.hash b in
  (h lxor (h lsr 16)) land max_int

module Link_tbl = Hashtbl.Make (struct
  type t = Address.t * Address.t

  let equal (a1, b1) (a2, b2) = Address.equal a1 a2 && Address.equal b1 b2
  let hash (a, b) = link_hash a b
end)

type 'm envelope = { src : Address.t; dst : Address.t; payload : 'm }

type node = {
  proc : Xsim.Proc.t;
  (* Existentially hidden mailbox is avoided by keeping nodes in a
     per-transport table with the transport's message type. *)
}

(* Everything [send] needs for one directed link, resolved once on the
   first message and cached: destination mailbox, pre-concatenated
   schedule labels, latency model, fault profile, and FIFO clamp state.
   The hot path does two table lookups and allocates nothing but the
   delivery closure. *)
type 'm link = {
  l_mbox : 'm envelope Xsim.Mailbox.t;
  l_label : string;  (* "net:<dst>" *)
  l_dup_label : string;  (* "netdup:<dst>" *)
  mutable l_latency : Latency.t;
  mutable l_profile : Fault.link;
  mutable l_override : bool;  (* profile pinned by [set_link_faults] *)
  mutable l_last : int;  (* FIFO clamp: last arrival on this link *)
}

type stats = {
  sent : int;
  delivered : int;
  total_delay : int;
  dropped : int;
  duplicated : int;
  partition_dropped : int;
  forced_faults : int;
}

type 'm t = {
  eng : Xsim.Engine.t;
  fifo : bool;
  default_latency : Latency.t;
  rng : Xsim.Rng.t;
  nodes : node Addr_tbl.t;
  mailboxes : 'm envelope Xsim.Mailbox.t Addr_tbl.t;
  mutable order : Address.t list;  (* reverse registration order *)
  links : 'm link Addr_tbl.t Addr_tbl.t;  (* src -> dst -> link cache *)
  link_latency : Latency.t Link_tbl.t;
  (* Fault plane.  [fault_rng] is split lazily on first configuration, so
     a transport that never sees faults draws exactly the same RNG stream
     as before the fault plane existed. *)
  mutable faults : Fault.t;
  link_faults : Fault.link Link_tbl.t;
  forced : (int, Fault.action) Hashtbl.t;  (* by send index *)
  mutable fault_rng : Xsim.Rng.t option;
  mutable send_idx : int;
  mutable delivery_hook : ('m envelope -> bool) option;
  mutable sent : int;
  mutable delivered : int;
  mutable total_delay : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable partition_dropped : int;
  mutable forced_faults : int;
}

let obs_incr name = if Xobs.enabled () then Xobs.Counter.incr (Xobs.counter name)

let iter_links t f =
  Addr_tbl.iter (fun _src by_dst -> Addr_tbl.iter (fun _dst l -> f l) by_dst)
    t.links

let install_faults t (f : Fault.t) =
  t.faults <- f;
  Hashtbl.reset t.forced;
  List.iter (fun (i, a) -> Hashtbl.replace t.forced i a) f.Fault.forced;
  iter_links t (fun l -> if not l.l_override then l.l_profile <- f.Fault.default);
  if (not (Fault.is_none f)) && t.fault_rng = None then
    t.fault_rng <- Some (Xsim.Rng.split t.rng)

let create eng ?(fifo = false) ?faults ~latency () =
  let t =
    {
      eng;
      fifo;
      default_latency = latency;
      rng = Xsim.Rng.split (Xsim.Engine.rng eng);
      nodes = Addr_tbl.create 16;
      mailboxes = Addr_tbl.create 16;
      order = [];
      links = Addr_tbl.create 16;
      link_latency = Link_tbl.create 16;
      faults = Fault.none;
      link_faults = Link_tbl.create 16;
      forced = Hashtbl.create 16;
      fault_rng = None;
      send_idx = 0;
      delivery_hook = None;
      sent = 0;
      delivered = 0;
      total_delay = 0;
      dropped = 0;
      duplicated = 0;
      partition_dropped = 0;
      forced_faults = 0;
    }
  in
  (match faults with Some f -> install_faults t f | None -> ());
  t

let engine t = t.eng

let register t addr ~proc =
  if Addr_tbl.mem t.nodes addr then
    invalid_arg
      (Printf.sprintf "Transport.register: %s already registered"
         (Address.to_string addr));
  let mbox =
    Xsim.Mailbox.create ~name:("inbox:" ^ Address.to_string addr) ()
  in
  Addr_tbl.replace t.nodes addr { proc };
  Addr_tbl.replace t.mailboxes addr mbox;
  t.order <- addr :: t.order;
  mbox

let mailbox t addr = Addr_tbl.find t.mailboxes addr

let proc_of t addr = (Addr_tbl.find t.nodes addr).proc

let members t = List.rev t.order

let link_model t ~src ~dst =
  match Link_tbl.find_opt t.link_latency (src, dst) with
  | Some m -> m
  | None -> t.default_latency

let link_profile t ~src ~dst =
  match Link_tbl.find_opt t.link_faults (src, dst) with
  | Some p -> p
  | None -> t.faults.Fault.default

let link_of t ~src ~dst =
  let by_dst =
    match Addr_tbl.find t.links src with
    | by_dst -> by_dst
    | exception Not_found ->
        let by_dst = Addr_tbl.create 8 in
        Addr_tbl.replace t.links src by_dst;
        by_dst
  in
  match Addr_tbl.find by_dst dst with
  | l -> l
  | exception Not_found ->
      ignore (Addr_tbl.find t.nodes dst : node);
      let name = Address.to_string dst in
      let l =
        {
          l_mbox = Addr_tbl.find t.mailboxes dst;
          l_label = "net:" ^ name;
          l_dup_label = "netdup:" ^ name;
          l_latency = link_model t ~src ~dst;
          l_profile = link_profile t ~src ~dst;
          l_override = Link_tbl.mem t.link_faults (src, dst);
          l_last = 0;
        }
      in
      Addr_tbl.replace by_dst dst l;
      l

let cached_link t ~src ~dst =
  match Addr_tbl.find t.links src with
  | by_dst -> (
      match Addr_tbl.find by_dst dst with
      | l -> Some l
      | exception Not_found -> None)
  | exception Not_found -> None

let set_faults t f = install_faults t f
let faults t = t.faults

let set_link_faults t ~src ~dst profile =
  Link_tbl.replace t.link_faults (src, dst) profile;
  (match cached_link t ~src ~dst with
  | Some l ->
      l.l_profile <- profile;
      l.l_override <- true
  | None -> ());
  if t.fault_rng = None && not (Fault.link_is_clean profile) then
    t.fault_rng <- Some (Xsim.Rng.split t.rng)

let clear_link_faults t ~src ~dst =
  Link_tbl.remove t.link_faults (src, dst);
  match cached_link t ~src ~dst with
  | Some l ->
      l.l_profile <- t.faults.Fault.default;
      l.l_override <- false
  | None -> ()

let set_delivery_hook t hook = t.delivery_hook <- hook

(* FIFO clamp: this message arrives no earlier than the previous one on
   the same directed link. *)
let clamp t link delay =
  if not t.fifo then delay
  else begin
    let now = Xsim.Engine.now t.eng in
    let arrival = max (now + delay) link.l_last in
    link.l_last <- arrival;
    arrival - now
  end

let commit_delivery t link delay e =
  t.delivered <- t.delivered + 1;
  t.total_delay <- t.total_delay + delay;
  match t.delivery_hook with
  | Some hook when hook e -> ()
  | _ -> Xsim.Mailbox.put link.l_mbox e

(* Schedule one wire-level delivery.  Deliveries are labelled choice
   points: the explorer reorders or defers them to cover message races
   the latency model alone would never produce with a given seed. *)
let deliver t link ~src ~dst ~label delay payload =
  let delay = clamp t link delay in
  Xsim.Engine.schedule t.eng ~label ~delay (fun () ->
      commit_delivery t link delay { src; dst; payload })

(* The fate of one message: partition check, then the forced-fault table
   (the explorer's systematic injections), then sampling.  Returns the
   action plus whether it was forced. *)
let decide t ~src ~dst ~now ~idx profile =
  if Fault.partitioned t.faults ~src ~dst ~now then `Partition
  else
    match Hashtbl.find_opt t.forced idx with
    | Some Fault.Drop -> `Drop true
    | Some Fault.Duplicate -> `Duplicate true
    | None -> (
        match t.fault_rng with
        | None -> `Deliver
        | Some rng ->
            if profile.Fault.drop > 0.0 && Xsim.Rng.chance rng profile.Fault.drop
            then `Drop false
            else if
              profile.Fault.dup > 0.0 && Xsim.Rng.chance rng profile.Fault.dup
            then `Duplicate false
            else `Deliver)

let jitter_of t profile =
  if profile.Fault.jitter = 0 then 0
  else
    match t.fault_rng with
    | None -> 0
    | Some rng -> Xsim.Rng.int rng (profile.Fault.jitter + 1)

(* Hot-path helper, hoisted out of [send]: the send path used to build a
   [sample_delay] closure (capturing src/dst/now/profile) for every
   single message.  The RNG draw order (latency sample, then jitter) is
   exactly the closure's, so schedules are byte-identical. *)
let sample_delay t link ~now profile =
  Latency.sample link.l_latency t.rng ~now + jitter_of t profile

let note_forced t f =
  if f then begin
    t.forced_faults <- t.forced_faults + 1;
    obs_incr "net.forced_faults"
  end

let send t ~src ~dst payload =
  let link = link_of t ~src ~dst in
  let now = Xsim.Engine.now t.eng in
  let idx = t.send_idx in
  t.send_idx <- idx + 1;
  t.sent <- t.sent + 1;
  let profile = link.l_profile in
  match decide t ~src ~dst ~now ~idx profile with
  | `Partition ->
      (* Latency is still sampled so that healing a partition does not
         shift the RNG stream of the surviving messages. *)
      ignore (sample_delay t link ~now profile : int);
      t.partition_dropped <- t.partition_dropped + 1;
      obs_incr "net.partition_drops"
  | `Drop f ->
      ignore (sample_delay t link ~now profile : int);
      note_forced t f;
      t.dropped <- t.dropped + 1;
      obs_incr "net.drops"
  | `Deliver ->
      let delay = sample_delay t link ~now profile in
      deliver t link ~src ~dst ~label:link.l_label delay payload
  | `Duplicate f ->
      note_forced t f;
      t.duplicated <- t.duplicated + 1;
      obs_incr "net.dups";
      let delay = sample_delay t link ~now profile in
      (* The copy is independently delayed and separately labelled, so it
         is its own choice point for the explorer. *)
      let dup_delay = sample_delay t link ~now profile in
      deliver t link ~src ~dst ~label:link.l_label delay payload;
      deliver t link ~src ~dst ~label:link.l_dup_label dup_delay payload

let broadcast t ~src ?(include_self = false) payload =
  List.iter
    (fun dst ->
      if include_self || not (Address.equal dst src) then
        send t ~src ~dst payload)
    (members t)

let set_link_latency t ~src ~dst model =
  Link_tbl.replace t.link_latency (src, dst) model;
  match cached_link t ~src ~dst with
  | Some l -> l.l_latency <- model
  | None -> ()

let clear_link_latency t ~src ~dst =
  Link_tbl.remove t.link_latency (src, dst);
  match cached_link t ~src ~dst with
  | Some l -> l.l_latency <- t.default_latency
  | None -> ()

let stats t =
  {
    sent = t.sent;
    delivered = t.delivered;
    total_delay = t.total_delay;
    dropped = t.dropped;
    duplicated = t.duplicated;
    partition_dropped = t.partition_dropped;
    forced_faults = t.forced_faults;
  }
