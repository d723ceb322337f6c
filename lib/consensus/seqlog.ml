module Addr = Xnet.Address

(* VR/Zab-style sequenced-log consensus: a sequencer (the leader of the
   current view) orders every instance through one log stream.  Message
   complexity per decision is 1 forward + n commits — between the
   `Register model (0 messages, pure latency) and per-instance Paxos
   (two quorum phases).  The sequencing point itself is modelled
   atomically at the group's log, the same modelling choice Register
   makes for its decision point; the commit fan-out and each member's
   local learning are real (counted, delayed) messages. *)

type 'v msg =
  | Forward of { inst : string; value : 'v }
      (** proposer -> sequencer: please order this value *)
  | Commit of { seq : int; inst : string; value : 'v }
      (** sequencer -> all: log entry [seq] decides [inst] *)

type 'v outcome = Decided of 'v | Timeout

type 'v member_state = {
  addr : Addr.t;
  index : int;
  decided : (string, 'v) Hashtbl.t;  (** local knowledge, fed by commits *)
  waiters : (string, 'v outcome Xsim.Ivar.t list ref) Hashtbl.t;
}

type 'v group = {
  eng : Xsim.Engine.t;
  transport : 'v msg Xnet.Transport.t;
  states : (Addr.t, 'v member_state) Hashtbl.t;
  member_list : Addr.t list;
  forward_timeout : int;
  (* The replicated log, as sequenced by the leader: the group's shared
     authority.  Commits relay entries to the members; recovery-style
     reads ([decided_at], [decisions]) may consult the log directly,
     modelling VR state transfer. *)
  log : (string, 'v) Hashtbl.t;
  log_order : Decisions.t;  (* in sequence order *)
  mutable seq : int;
  mutable view : int;
  mutable proposals : int;
  mutable view_changes : int;
  mutable fast_decisions : int;
}

type 'v handle = { group : 'v group; st : 'v member_state; inst : string }

let leader g = List.nth g.member_list (g.view mod List.length g.member_list)

let record_local g st inst value =
  if not (Hashtbl.mem st.decided inst) then begin
    Hashtbl.replace st.decided inst value;
    ignore g;
    match Hashtbl.find_opt st.waiters inst with
    | Some ws ->
        let pending = !ws in
        ws := [];
        List.iter
          (fun iv -> ignore (Xsim.Ivar.try_fill iv (Decided value)))
          pending
    | None -> ()
  end

(* The sequencing point: first value for an instance to reach the log
   wins, atomically (fibers are cooperative; no yield between test and
   write). *)
let sequence g inst value =
  match Hashtbl.find_opt g.log inst with
  | Some v -> (v, false)
  | None ->
      g.seq <- g.seq + 1;
      Hashtbl.replace g.log inst value;
      Decisions.add g.log_order inst;
      if Xobs.enabled () then
        Xobs.Counter.incr (Xobs.counter "consensus.decisions");
      (value, true)

let handle_msg g st (envelope : 'v msg Xnet.Transport.envelope) =
  match envelope.payload with
  | Forward { inst; value } ->
      (* Only the current view's leader sequences; a stale forward is
         dropped and the proposer's timeout re-routes it. *)
      if Addr.equal (leader g) st.addr then begin
        let decided, fresh = sequence g inst value in
        if fresh then begin
          let seq = g.seq in
          Xnet.Transport.broadcast g.transport ~src:st.addr ~include_self:true
            (Commit { seq; inst; value = decided })
        end
        else
          (* Already in the log: answer just the asker. *)
          Xnet.Transport.send g.transport ~src:st.addr ~dst:envelope.src
            (Commit { seq = 0; inst; value = decided })
      end
  | Commit { inst; value; _ } -> record_local g st inst value

let create_group eng ~latency ~members ?(forward_timeout = 600) () =
  let transport = Xnet.Transport.create eng ~latency () in
  let g =
    {
      eng;
      transport;
      states = Hashtbl.create 8;
      member_list = List.map fst members;
      forward_timeout;
      log = Hashtbl.create 64;
      log_order = Decisions.create ();
      seq = 0;
      view = 0;
      proposals = 0;
      view_changes = 0;
      fast_decisions = 0;
    }
  in
  List.iteri
    (fun index (addr, proc) ->
      let mbox = Xnet.Transport.register transport addr ~proc in
      let st =
        { addr; index; decided = Hashtbl.create 32; waiters = Hashtbl.create 8 }
      in
      Hashtbl.replace g.states addr st;
      (* Sequencer/learner daemon; dies with the member's process. *)
      Xsim.Engine.spawn eng ~proc
        ~name:("seqlog:" ^ Addr.to_string addr)
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
        (Printf.sprintf "Seqlog.handle: %s is not a member"
           (Addr.to_string member))

let wait_local g st inst =
  match Hashtbl.find_opt st.decided inst with
  | Some v -> Decided v
  | None ->
      let cell = Xsim.Ivar.create () in
      (match Hashtbl.find_opt st.waiters inst with
      | Some ws -> ws := cell :: !ws
      | None -> Hashtbl.replace st.waiters inst (ref [ cell ]));
      Xsim.Timer.after_into g.eng g.forward_timeout (fun () ->
          Xsim.Ivar.try_fill cell Timeout);
      Xsim.Ivar.read g.eng cell

let propose { group = g; st; inst } ?(weight = 1) v =
  g.proposals <- g.proposals + 1;
  let obs_on = Xobs.enabled () in
  let t0 = Xsim.Engine.now g.eng in
  if obs_on then begin
    Xobs.Counter.incr (Xobs.counter "consensus.proposals");
    if weight > 1 then begin
      Xobs.Counter.incr (Xobs.counter "consensus.aggregate_values");
      Xobs.Histogram.record (Xobs.histogram "consensus.value_weight") weight
    end
  end;
  let rec attempt () =
    match Hashtbl.find_opt st.decided inst with
    | Some d -> d
    | None -> (
        let view0 = g.view in
        if obs_on then Xobs.Counter.incr (Xobs.counter "consensus.rounds");
        Xnet.Transport.send g.transport ~src:st.addr ~dst:(leader g)
          (Forward { inst; value = v });
        match wait_local g st inst with
        | Decided d -> d
        | Timeout ->
            (* The sequencer is dead or unreachable: rotate the view
               (round-robin) and re-forward.  The view cell is shared, so
               concurrent proposers rotate it once per failed leader. *)
            if g.view = view0 then begin
              g.view <- g.view + 1;
              g.view_changes <- g.view_changes + 1;
              if obs_on then
                Xobs.Counter.incr (Xobs.counter "consensus.view_changes")
            end;
            attempt ())
  in
  let d = attempt () in
  if obs_on then
    Xobs.Span.record (Xobs.span "consensus.propose") ~t0
      ~t1:(Xsim.Engine.now g.eng);
  d

let read { st; inst; _ } = Hashtbl.find_opt st.decided inst

(* Recovery-style reads: local knowledge first, then the log itself
   (modelling VR state transfer — a member can always re-read committed
   entries from the group's log).  This is what lets a cleaner discover
   fast-path decisions whose commit traffic a crashed leaseholder never
   sent. *)
let decided_at g ~member ~inst =
  match Hashtbl.find_opt g.states member with
  | None -> None
  | Some st -> (
      match Hashtbl.find_opt st.decided inst with
      | Some v -> Some v
      | None -> Hashtbl.find_opt g.log inst)

let decisions g ~member =
  ignore member;
  g.log_order

(* Leased fast path: the holder decides unilaterally at the log — valid
   because the lease (checked atomically by the caller at this instant)
   guarantees no competing sequencer.  No messages: the entry is read
   back via the log (recovery reads) or piggybacked on later commits. *)
let fast_decide g ~member ~inst v =
  let decided, fresh = sequence g inst v in
  if fresh then g.fast_decisions <- g.fast_decisions + 1;
  (match Hashtbl.find_opt g.states member with
  | Some st -> record_local g st inst decided
  | None -> ());
  decided

type stats = {
  proposals : int;
  view_changes : int;
  decisions : int;
  fast_decisions : int;
  messages_sent : int;
}

let stats (g : 'v group) =
  {
    proposals = g.proposals;
    view_changes = g.view_changes;
    decisions = Hashtbl.length g.log;
    fast_decisions = g.fast_decisions;
    messages_sent = (Xnet.Transport.stats g.transport).sent;
  }
