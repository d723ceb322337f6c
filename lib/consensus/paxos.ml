module Addr = Xnet.Address

type 'v msg =
  | Prepare of { inst : string; ballot : int }
  | Promise of { inst : string; ballot : int; accepted : (int * 'v) option }
  | Accept of { inst : string; ballot : int; value : 'v }
  | Accepted of { inst : string; ballot : int }
  | Nack of { inst : string; ballot : int; promised : int }
  | Decided of { inst : string; value : 'v }

type 'v acceptor = {
  mutable promised : int;
  mutable accepted : (int * 'v) option;
  mutable decided : 'v option;
  mutable decision_waiters : 'v Xsim.Ivar.t list;
}

type 'v phase1_outcome =
  [ `Quorum of (int * 'v) option  (** highest accepted proposal seen *)
  | `Nacked of int
  | `Decided of 'v
  | `Timeout ]

type 'v phase2_outcome = [ `Chosen | `Nacked of int | `Decided of 'v | `Timeout ]

type 'v campaign =
  | C1 of {
      mutable promise_count : int;
      mutable best : (int * 'v) option;
      cell : 'v phase1_outcome Xsim.Ivar.t;
    }
  | C2 of {
      mutable accepted_count : int;
      cell : 'v phase2_outcome Xsim.Ivar.t;
    }

type 'v member_state = {
  addr : Addr.t;
  index : int;
  insts : (string, 'v acceptor) Hashtbl.t;
  learned : Decisions.t;  (** instances decided here, in learning order *)
  campaigns : (string * int, 'v campaign) Hashtbl.t;
  mutable attempt_hint : int;
}

type 'v group = {
  eng : Xsim.Engine.t;
  transport : 'v msg Xnet.Transport.t;
  states : (Addr.t, 'v member_state) Hashtbl.t;
  member_list : Addr.t list;
  majority : int;
  phase_timeout : int;
  backoff_base : int;
  rng : Xsim.Rng.t;
  (* Canonical decisions, group-wide: inst -> decided value.  Historically
     a presence set (for the decision count); with the leased fast path
     enabled it doubles as the shared authority consulted atomically at
     every decide point, so a lease holder's unilateral decision and a
     cleaner's quorum campaign can never commit conflicting values. *)
  decided_insts : (string, 'v) Hashtbl.t;
  mutable fast_enabled : bool;
  mutable proposals : int;
  mutable ballots : int;
}

type 'v handle = { group : 'v group; st : 'v member_state; inst : string }

let acceptor st inst =
  match Hashtbl.find_opt st.insts inst with
  | Some a -> a
  | None ->
      let a =
        { promised = -1; accepted = None; decided = None; decision_waiters = [] }
      in
      Hashtbl.replace st.insts inst a;
      a

let record_decision g st inst value =
  let a = acceptor st inst in
  if a.decided = None then begin
    a.decided <- Some value;
    Decisions.add st.learned inst;
    if (not (Hashtbl.mem g.decided_insts inst)) && Xobs.enabled () then
      Xobs.Counter.incr (Xobs.counter "consensus.decisions");
    if not (Hashtbl.mem g.decided_insts inst) then
      Hashtbl.replace g.decided_insts inst value;
    let ws = a.decision_waiters in
    a.decision_waiters <- [];
    List.iter (fun iv -> ignore (Xsim.Ivar.try_fill iv value)) ws
  end;
  (* Abort any local campaigns for this instance. *)
  Hashtbl.iter
    (fun (i, _) c ->
      if String.equal i inst then
        match c with
        | C1 c1 -> ignore (Xsim.Ivar.try_fill c1.cell (`Decided value))
        | C2 c2 -> ignore (Xsim.Ivar.try_fill c2.cell (`Decided value)))
    st.campaigns

let handle_msg g st (envelope : 'v msg Xnet.Transport.envelope) =
  let reply m = Xnet.Transport.send g.transport ~src:st.addr ~dst:envelope.src m in
  match envelope.payload with
  | Prepare { inst; ballot } -> (
      let a = acceptor st inst in
      match a.decided with
      | Some value -> reply (Decided { inst; value })
      | None ->
          if ballot > a.promised then begin
            a.promised <- ballot;
            reply (Promise { inst; ballot; accepted = a.accepted })
          end
          else reply (Nack { inst; ballot; promised = a.promised }))
  | Accept { inst; ballot; value } -> (
      let a = acceptor st inst in
      match a.decided with
      | Some value -> reply (Decided { inst; value })
      | None ->
          if ballot >= a.promised then begin
            a.promised <- ballot;
            a.accepted <- Some (ballot, value);
            reply (Accepted { inst; ballot })
          end
          else reply (Nack { inst; ballot; promised = a.promised }))
  | Promise { inst; ballot; accepted } -> (
      match Hashtbl.find_opt st.campaigns (inst, ballot) with
      | Some (C1 c) ->
          c.promise_count <- c.promise_count + 1;
          (match (accepted, c.best) with
          | Some (b, _), Some (b', _) when b > b' -> c.best <- accepted
          | Some _, None -> c.best <- accepted
          | _ -> ());
          if c.promise_count >= g.majority then
            ignore (Xsim.Ivar.try_fill c.cell (`Quorum c.best))
      | _ -> ())
  | Accepted { inst; ballot } -> (
      match Hashtbl.find_opt st.campaigns (inst, ballot) with
      | Some (C2 c) ->
          c.accepted_count <- c.accepted_count + 1;
          if c.accepted_count >= g.majority then
            ignore (Xsim.Ivar.try_fill c.cell `Chosen)
      | _ -> ())
  | Nack { inst; ballot; promised } -> (
      match Hashtbl.find_opt st.campaigns (inst, ballot) with
      | Some (C1 c) -> ignore (Xsim.Ivar.try_fill c.cell (`Nacked promised))
      | Some (C2 c) -> ignore (Xsim.Ivar.try_fill c.cell (`Nacked promised))
      | None -> ())
  | Decided { inst; value } -> record_decision g st inst value

let create_group eng ~latency ~members ?(phase_timeout = 400)
    ?(backoff_base = 50) () =
  let transport = Xnet.Transport.create eng ~latency () in
  let g =
    {
      eng;
      transport;
      states = Hashtbl.create 8;
      member_list = List.map fst members;
      majority = (List.length members / 2) + 1;
      phase_timeout;
      backoff_base;
      rng = Xsim.Rng.split (Xsim.Engine.rng eng);
      decided_insts = Hashtbl.create 32;
      fast_enabled = false;
      proposals = 0;
      ballots = 0;
    }
  in
  List.iteri
    (fun index (addr, proc) ->
      let mbox = Xnet.Transport.register transport addr ~proc in
      let st =
        {
          addr;
          index;
          insts = Hashtbl.create 32;
          learned = Decisions.create ();
          campaigns = Hashtbl.create 16;
          attempt_hint = 0;
        }
      in
      Hashtbl.replace g.states addr st;
      (* Acceptor/learner daemon; dies with the member's process. *)
      Xsim.Engine.spawn eng ~proc
        ~name:("paxos:" ^ Addr.to_string addr)
        (fun () ->
          let rec loop () =
            let envelope = Xsim.Mailbox.take eng mbox in
            handle_msg g st envelope;
            loop ()
          in
          loop ()))
    members;
  g

let members g = g.member_list

let handle g ~member ~inst =
  match Hashtbl.find_opt g.states member with
  | Some st -> { group = g; st; inst }
  | None ->
      invalid_arg
        (Printf.sprintf "Paxos.handle: %s is not a member" (Addr.to_string member))

let read { st; inst; _ } = (acceptor st inst).decided

let backoff g attempt =
  let cap = min attempt 6 in
  let base = g.backoff_base * (1 lsl cap) in
  (base / 2) + Xsim.Rng.int g.rng (max 1 base)

let propose { group = g; st; inst } ?(weight = 1) v =
  g.proposals <- g.proposals + 1;
  let obs_on = Xobs.enabled () in
  let t0 = Xsim.Engine.now g.eng in
  let ballots0 = g.ballots in
  if obs_on then begin
    Xobs.Counter.incr (Xobs.counter "consensus.proposals");
    (* An aggregate value (a batch of requests) runs the two phases once
       for the whole list payload — no per-element ballots. *)
    if weight > 1 then begin
      Xobs.Counter.incr (Xobs.counter "consensus.aggregate_values");
      Xobs.Histogram.record (Xobs.histogram "consensus.value_weight") weight
    end
  end;
  let n = List.length g.member_list in
  let canonical () =
    if g.fast_enabled then Hashtbl.find_opt g.decided_insts inst else None
  in
  let rec campaign attempt =
    let a = acceptor st inst in
    match a.decided with
    | Some d -> d
    | None ->
    (* Fast path enabled: the canonical table is the decide authority —
       learn an already-committed (possibly lease-fast) decision instead
       of campaigning against it. *)
    match canonical () with
    | Some d ->
        record_decision g st inst d;
        d
    | None -> (
        g.ballots <- g.ballots + 1;
        let ballot = (attempt * n) + st.index in
        (* ----- Phase 1: prepare / promise ----- *)
        let cell1 = Xsim.Ivar.create () in
        Hashtbl.replace st.campaigns (inst, ballot)
          (C1 { promise_count = 0; best = None; cell = cell1 });
        Xnet.Transport.broadcast g.transport ~src:st.addr ~include_self:true
          (Prepare { inst; ballot });
        Xsim.Timer.after_into g.eng g.phase_timeout (fun () ->
            Xsim.Ivar.try_fill cell1 `Timeout);
        let outcome1 = Xsim.Ivar.read g.eng cell1 in
        Hashtbl.remove st.campaigns (inst, ballot);
        match outcome1 with
        | `Decided d -> d
        | `Nacked promised ->
            let next = max (attempt + 1) ((promised / n) + 1) in
            Xsim.Engine.sleep g.eng (backoff g attempt);
            campaign next
        | `Timeout ->
            Xsim.Engine.sleep g.eng (backoff g attempt);
            campaign (attempt + 1)
        | `Quorum best -> (
            let value = match best with Some (_, v') -> v' | None -> v in
            (* ----- Phase 2: accept / accepted ----- *)
            let cell2 = Xsim.Ivar.create () in
            Hashtbl.replace st.campaigns (inst, ballot)
              (C2 { accepted_count = 0; cell = cell2 });
            Xnet.Transport.broadcast g.transport ~src:st.addr
              ~include_self:true
              (Accept { inst; ballot; value });
            Xsim.Timer.after_into g.eng g.phase_timeout (fun () ->
                Xsim.Ivar.try_fill cell2 `Timeout);
            let outcome2 = Xsim.Ivar.read g.eng cell2 in
            Hashtbl.remove st.campaigns (inst, ballot);
            match outcome2 with
            | `Decided d -> d
            | `Chosen -> (
                (* Under the fast path, re-check the canonical table at
                   the commit point: a lease holder may have decided
                   while our quorum was forming, and its decision wins
                   (it held the lease; we must not broadcast a rival). *)
                match canonical () with
                | Some d ->
                    record_decision g st inst d;
                    d
                | None ->
                    Xnet.Transport.broadcast g.transport ~src:st.addr
                      ~include_self:true
                      (Decided { inst; value });
                    record_decision g st inst value;
                    value)
            | `Nacked promised ->
                let next = max (attempt + 1) ((promised / n) + 1) in
                Xsim.Engine.sleep g.eng (backoff g attempt);
                campaign next
            | `Timeout ->
                Xsim.Engine.sleep g.eng (backoff g attempt);
                campaign (attempt + 1)))
  in
  let d = campaign st.attempt_hint in
  if obs_on then begin
    (* Rounds spent on this propose = ballots started while it ran. *)
    Xobs.Counter.add (Xobs.counter "consensus.rounds") (g.ballots - ballots0);
    Xobs.Span.record (Xobs.span "consensus.propose") ~t0 ~t1:(Xsim.Engine.now g.eng)
  end;
  d

let set_fast_path g on = g.fast_enabled <- on

(* Leased fast path: commit [inst] at the canonical table (first value
   wins, atomically — cooperative fibers), learn it locally, and
   broadcast [Decided] so the other members learn too.  n messages
   instead of the two quorum phases; sound only while the caller holds a
   valid lease, which Coord checks in the same atomic step. *)
let fast_decide g ~member ~inst v =
  match Hashtbl.find_opt g.decided_insts inst with
  | Some d ->
      (match Hashtbl.find_opt g.states member with
      | Some st -> record_decision g st inst d
      | None -> ());
      d
  | None ->
      (match Hashtbl.find_opt g.states member with
      | Some st -> record_decision g st inst v
      | None ->
          if Xobs.enabled () then
            Xobs.Counter.incr (Xobs.counter "consensus.decisions");
          Hashtbl.replace g.decided_insts inst v);
      Xnet.Transport.broadcast g.transport ~src:member ~include_self:false
        (Decided { inst; value = v });
      v

let decided_at g ~member ~inst =
  match Hashtbl.find_opt g.states member with
  | Some st -> (acceptor st inst).decided
  | None -> None

let decisions g ~member =
  match Hashtbl.find_opt g.states member with
  | Some st -> st.learned
  | None ->
      invalid_arg
        (Printf.sprintf "Paxos.decisions: %s is not a member"
           (Addr.to_string member))

type stats = {
  proposals : int;
  ballots : int;
  decisions : int;
  messages_sent : int;
}

let stats (g : 'v group) =
  {
    proposals = g.proposals;
    ballots = g.ballots;
    decisions = Hashtbl.length g.decided_insts;
    messages_sent = (Xnet.Transport.stats g.transport).sent;
  }
