open Xability

type config = {
  cleaner_poll : int;
  veto_check : bool;
  mutation : Mutation.t;
  batching : Batcher.config option;
      (** [None] (the default) is the paper's per-request hot path,
          byte-identical to the pre-batching protocol; [Some _] routes
          round-1 requests through the batch log (see [process_batch]). *)
}

let default_config =
  {
    cleaner_poll = 200;
    veto_check = true;
    mutation = Mutation.Faithful;
    batching = None;
  }

type metrics = {
  mutable requests_seen : int;
  mutable rounds_owned : int;
  mutable executions : int;
  mutable cleanups : int;
  mutable takeovers : int;
  mutable replies_sent : int;
}

type request_state = {
  rid : int;
  born : int;  (** creation order: a cleaner pass visits older states only *)
  mutable max_round : int;
  mutable owner : Xnet.Address.t option;
      (** the owner decided for [max_round] ([None] while it is 0) *)
  mutable client_known : bool;
      (** this replica has seen the request itself or one of its owner
          decisions; until then a cleaner visit starts by reading round 1 *)
  mutable settled : Value.t option;  (** result already sent to the client *)
}

module Int_set = Set.Make (Int)

(* Work a cleaner pass may have to visit, filed under the replica that
   owns it: request ids under the owner of their latest round ([None]
   before any round is known), batch slots under the slot's owner.  A
   pass asks for the smallest id above its cursor among the owners it
   may act against, so it never walks work it cannot act on. *)
type pending = {
  mutable by_owner : (Xnet.Address.t option * Int_set.t ref) list;
}

let pending_cell p key =
  let rec find = function
    | (k, cell) :: rest ->
        if Option.equal Xnet.Address.equal k key then cell else find rest
    | [] ->
        let cell = ref Int_set.empty in
        p.by_owner <- (key, cell) :: p.by_owner;
        cell
  in
  find p.by_owner

let pending_add p key x =
  let cell = pending_cell p key in
  cell := Int_set.add x !cell

let pending_remove p key x =
  let cell = pending_cell p key in
  cell := Int_set.remove x !cell

let pending_next p ~after ~eligible =
  List.fold_left
    (fun best (key, cell) ->
      if not (eligible key) then best
      else
        match (Int_set.find_first_opt (fun x -> x > after) !cell, best) with
        | Some x, Some b when x >= b -> best
        | Some x, _ -> Some x
        | None, _ -> best)
    None p.by_owner

(* Observability handles, fetched once at [create] when Xobs is on.
   All replicas of a run share the same named cells, so the counters
   aggregate across the group. *)
type obs = {
  o_requests : Xobs.Counter.t;      (* replica.requests *)
  o_rounds : Xobs.Counter.t;        (* replica.rounds_owned *)
  o_execs : Xobs.Counter.t;         (* replica.executions *)
  o_retries : Xobs.Counter.t;       (* replica.execute_retries *)
  o_undos : Xobs.Counter.t;         (* replica.undos *)
  o_cleanups : Xobs.Counter.t;      (* replica.cleanups *)
  o_takeovers : Xobs.Counter.t;     (* replica.takeovers *)
  o_mode_switches : Xobs.Counter.t; (* replica.mode_switches *)
  o_dup_replies : Xobs.Counter.t;   (* replica.duplicate_replies *)
  o_replies : Xobs.Counter.t;       (* replica.replies *)
  o_round : Xobs.Span.t;            (* replica.round *)
  o_batch_commits : Xobs.Counter.t;      (* repl.batch_commits *)
  o_batch_aborts : Xobs.Counter.t;       (* repl.batch_aborts *)
  o_batch_skips : Xobs.Counter.t;        (* repl.batch_skips *)
  o_batch_slot_retries : Xobs.Counter.t; (* repl.batch_slot_retries *)
  o_batch : Xobs.Span.t;                 (* repl.batch_span *)
}

(* One slot of the global batch log, as locally observed. *)
type slot = {
  s_owner : Xnet.Address.t;
  s_bid : int;
  s_members : (Xsm.Request.t * Xnet.Address.t) list;
}

type t = {
  eng : Xsim.Engine.t;
  env : Xsm.Environment.t;
  sm : Xsm.Statemachine.t;  (** this replica's copy of S (Fig. 6) *)
  transport : Wire.t Xnet.Conduit.t;
  detector : Xdetect.Detector.t;
  coord : Coord.t;
  lease : Lease.t option;  (** the group's lease cell (from [coord]) *)
  r_addr : Xnet.Address.t;
  r_proc : Xsim.Proc.t;
  cfg : config;
  m : metrics;
  requests : (int, request_state) Hashtbl.t;
  mutable births : int;
  pending : pending;  (** request states a cleaner visit could matter for *)
  mutable dirty : Int_set.t;
      (** rids with an owner decision learned since the last discovery *)
  feed : Coord.feed;  (** this replica's cursor over known decisions *)
  new_rounds : (int * int * Xnet.Address.t) Queue.t;
      (** owner decisions (rid, round, owner) learned since the last
          discovery *)
  new_slots : (int * slot) Queue.t;
      (** batch slots learned since the last pass began *)
  timed_reads : bool;  (** {!Coord.read_takes_time} *)
  owned_rounds : (int * int, unit) Hashtbl.t;
      (** (rid, round) pairs this replica is executing, to ignore duplicate
          deliveries of the same request *)
  suspicion_events : Xnet.Address.t Xsim.Mailbox.t;
  mutable fiber_counter : int;
  (* --- batch-log state (inert unless cfg.batching is set) --- *)
  mutable batcher : (Xsm.Request.t * Xnet.Address.t) Batcher.t option;
  slots : (int, slot) Hashtbl.t;  (** locally observed batch-log slots *)
  slot_work : pending;
      (** other replicas' integrated slots that may still have a member
          to repair, filed under the slot's owner *)
  claims : (int, int) Hashtbl.t;
      (** rid -> first slot claiming it; computed by scanning slots in
          order, so it is identical at every replica *)
  mutable scanned_slot : int;
      (** contiguous prefix of the log folded into [claims] *)
  mutable next_slot : int;  (** next slot to propose at *)
  mutable slot_lock : bool;
      (** serializes this replica's slot claims so its own slots are
          proposed in order (pipelining overlaps execute/outcome only) *)
  slot_waiters : unit Xsim.Ivar.t Queue.t;
  batch_pending : (int, unit) Hashtbl.t;
      (** rids queued or in flight in this replica's own batches *)
  obs : obs option;
  mutable mode_active : bool;
      (** Paper §5 "asynchronous flavor": [false] while the replica
          behaves primary-backup-like (owners decide, nobody cleans);
          flips to [true] when this replica starts cleaning a suspected
          owner's round (active-like behaviour), and back when a
          round-1 owned request settles cleanly again. *)
}

let obs_incr t f =
  match t.obs with Some o -> Xobs.Counter.incr (f o) | None -> ()

(* Count one mode switch per transition between primary-backup-like and
   active-like behaviour (Section 5's run-time morphing, made visible). *)
let note_mode t active =
  match t.obs with
  | Some o when t.mode_active <> active ->
      t.mode_active <- active;
      Xobs.Counter.incr o.o_mode_switches
  | _ -> t.mode_active <- active

(* Figure 7 dispatches on S.is-idempotent / S.is-undoable; raw actions
   (not in the paper's theory) fall back to the request's declared kind. *)
let kind_of_request t (req : Xsm.Request.t) =
  match Xsm.Statemachine.kind_of t.sm (Xsm.Request.base_action req) with
  | Some kind -> kind
  | None -> req.kind

let addr t = t.r_addr
let proc t = t.r_proc
let metrics t = t.m

let tracef t fmt =
  Xsim.Engine.tracef t.eng ~source:(Xnet.Address.to_string t.r_addr) fmt

(* Is [rs] filed in [t.pending]?  While it is live (unsettled, or its
   client not yet known) and a visit could matter: always when reads take
   time, since every visit then costs its reads; otherwise only under
   another replica, the one a cleaner may come to suspect. *)
let filed t rs =
  (rs.settled = None || not rs.client_known)
  && (t.timed_reads
     ||
     match rs.owner with
     | Some o -> not (Xnet.Address.equal o t.r_addr)
     | None -> false)

let file t rs = if filed t rs then pending_add t.pending rs.owner rs.rid
let unfile t rs = if filed t rs then pending_remove t.pending rs.owner rs.rid

let state_of t rid =
  match Hashtbl.find_opt t.requests rid with
  | Some rs -> rs
  | None ->
      t.births <- t.births + 1;
      let rs =
        {
          rid;
          born = t.births;
          max_round = 0;
          owner = None;
          client_known = false;
          settled = None;
        }
      in
      Hashtbl.replace t.requests rid rs;
      file t rs;
      rs

let settle t rs v =
  unfile t rs;
  rs.settled <- Some v;
  file t rs

let know_client t rs =
  if not rs.client_known then begin
    unfile t rs;
    rs.client_known <- true;
    file t rs
  end

(* [round], decided with [owner], is the highest round known. *)
let raise_round t rs round owner =
  unfile t rs;
  rs.max_round <- round;
  rs.owner <- Some owner;
  file t rs

let max_round_of t ~rid =
  match Hashtbl.find_opt t.requests rid with
  | Some rs -> rs.max_round
  | None -> 0

let send_result t ~client ~rid value =
  t.m.replies_sent <- t.m.replies_sent + 1;
  obs_incr t (fun o -> o.o_replies);
  Xnet.Conduit.send t.transport ~src:t.r_addr ~dst:client
    (Wire.Result { rid; value })

(* ------------------------------------------------------------------ *)
(* Figure 7: execute-until-success and result-coordination.            *)

(* Retry an idempotent finalization (cancel/commit) until it succeeds.
   The paper's execute-until-success specialised to finalizations: they
   are idempotent, so we simply re-issue. *)
let rec finalize_until_success t (req : Xsm.Request.t) =
  t.m.executions <- t.m.executions + 1;
  obs_incr t (fun o -> o.o_execs);
  match Xsm.Statemachine.execute t.sm req with
  | Ok v -> v
  | Error _ ->
      obs_incr t (fun o -> o.o_retries);
      finalize_until_success t req

(* Has this round been terminated by a cleaner?  (Protocol completion: the
   pseudo-code's execute-until-success would retry forever, not knowing
   that its round can no longer report a result.) *)
let round_vetoed t (req : Xsm.Request.t) =
  match kind_of_request t req with
  | Action.Idempotent -> (
      match
        Coord.read t.coord ~member:t.r_addr
          ~inst:(Pval.result_inst ~rid:req.rid ~round:req.round)
      with
      | Some (Pval.Result None) -> true
      | _ -> false)
  | Action.Undoable -> (
      match
        Coord.read t.coord ~member:t.r_addr
          ~inst:(Pval.outcome_inst ~rid:req.rid ~round:req.round)
      with
      | Some (Pval.Outcome { outcome = Pval.Abort; _ }) -> true
      | _ -> false)

(* Figure 7, execute-until-success.  Returns [None] when the round was
   abandoned because a cleaner vetoed it. *)
let rec execute_until_success t (req : Xsm.Request.t) =
  if t.cfg.veto_check && round_vetoed t req then None
  else begin
    t.m.executions <- t.m.executions + 1;
    obs_incr t (fun o -> o.o_execs);
    match Xsm.Statemachine.execute t.sm req with
    | Ok v -> Some v
    | Error _ ->
        obs_incr t (fun o -> o.o_retries);
        (match kind_of_request t req with
        | Action.Idempotent -> ()
        | Action.Undoable ->
            (* Cancel the failed attempt before retrying. *)
            obs_incr t (fun o -> o.o_undos);
            ignore (finalize_until_success t (Xsm.Request.cancel_of req)));
        execute_until_success t req
  end

(* Figure 7, result-coordination.  [value = None] is cleaning mode. *)
let result_coordination t (req : Xsm.Request.t) value =
  match kind_of_request t req with
  | Action.Idempotent -> (
      let inst = Pval.result_inst ~rid:req.rid ~round:req.round in
      match Coord.propose t.coord ~member:t.r_addr ~inst (Pval.Result value) with
      | Pval.Result decided -> decided
      | other ->
          failwith
            (Format.asprintf "result-agreement decided a foreign value: %a"
               Pval.pp other))
  | Action.Undoable -> (
      let inst = Pval.outcome_inst ~rid:req.rid ~round:req.round in
      let proposal =
        match value with
        | None -> Pval.Outcome { outcome = Pval.Abort; result = None }
        | Some v -> Pval.Outcome { outcome = Pval.Commit; result = Some v }
      in
      match Coord.propose t.coord ~member:t.r_addr ~inst proposal with
      | Pval.Outcome { outcome = Pval.Abort; _ } ->
          (* Mutation hook: the skip-undo variant terminates the round
             without issuing the cancellation, leaving any completed
             execution of the aborted round in effect. *)
          if not (Mutation.equal t.cfg.mutation Mutation.Skip_undo_on_takeover)
          then begin
            obs_incr t (fun o -> o.o_undos);
            ignore (finalize_until_success t (Xsm.Request.cancel_of req))
          end;
          None
      | Pval.Outcome { outcome = Pval.Commit; result } ->
          ignore (finalize_until_success t (Xsm.Request.commit_of req));
          result
      | other ->
          failwith
            (Format.asprintf "outcome-agreement decided a foreign value: %a"
               Pval.pp other))

(* ------------------------------------------------------------------ *)
(* Result lookup for requests this replica does not own.               *)

let slot_outcome_peek t slot =
  Coord.peek t.coord ~member:t.r_addr ~inst:(Pval.batch_outcome_inst ~slot)

(* A result settled by the batch log: the rid's claiming slot committed
   with a real result.  Instant (local peek), no consensus traffic. *)
let batch_result t ~rid =
  match Hashtbl.find_opt t.claims rid with
  | None -> None
  | Some slot -> (
      match slot_outcome_peek t slot with
      | Some (Pval.Batch_outcome { outcome = Pval.Commit; results }) -> (
          match List.assoc_opt rid results with
          | Some (Some v) -> Some v
          | _ -> None)
      | _ -> None)

let known_result t rs (req : Xsm.Request.t) =
  match rs.settled with
  | Some v -> Some v
  | None -> (
      match batch_result t ~rid:req.rid with
      | Some v -> Some v
      | None ->
      let rec scan round =
        if round > rs.max_round then None
        else
          let found =
            match kind_of_request t req with
            | Action.Idempotent -> (
                match
                  Coord.read t.coord ~member:t.r_addr
                    ~inst:(Pval.result_inst ~rid:req.rid ~round)
                with
                | Some (Pval.Result (Some v)) -> Some v
                | _ -> None)
            | Action.Undoable -> (
                match
                  Coord.read t.coord ~member:t.r_addr
                    ~inst:(Pval.outcome_inst ~rid:req.rid ~round)
                with
                | Some (Pval.Outcome { outcome = Pval.Commit; result = Some v })
                  ->
                    Some v
                | _ -> None)
          in
          match found with Some v -> Some v | None -> scan (round + 1)
      in
      scan 1)

(* ------------------------------------------------------------------ *)
(* Figure 6: process-request.                                          *)

let rec process_request t (req : Xsm.Request.t) client =
  let rs = state_of t req.rid in
  know_client t rs;
  let inst = Pval.owner_inst ~rid:req.rid ~round:req.round in
  let proposal = Pval.Owner { owner = t.r_addr; req; client } in
  (* Leased fast path: while this replica holds the group's lease it
     decides owner-agreement unilaterally (fenced, zero messages) and the
     request goes straight to result/outcome settlement below. *)
  let decision =
    match Coord.fast_propose t.coord ~member:t.r_addr ~inst proposal with
    | Some d -> d
    | None -> Coord.propose t.coord ~member:t.r_addr ~inst proposal
  in
  match decision with
  | Pval.Owner { owner; req = req'; client = client' } ->
      if req'.round > rs.max_round then
        raise_round t rs req'.round owner;
      if Xnet.Address.equal owner t.r_addr then begin
        (* Mutation hook: the dup-exec variant drops the owned-round test
           (the "testable action" guard) and re-runs execution on every
           delivery of the round. *)
        if
          (not (Hashtbl.mem t.owned_rounds (req'.rid, req'.round)))
          || Mutation.equal t.cfg.mutation Mutation.Unguarded_duplicate_execution
        then begin
          Hashtbl.replace t.owned_rounds (req'.rid, req'.round) ();
          t.m.rounds_owned <- t.m.rounds_owned + 1;
          obs_incr t (fun o -> o.o_rounds);
          let span_t0 = Xsim.Engine.now t.eng in
          tracef t "own %s round %d" (Xsm.Request.key req') req'.round;
          let res = execute_until_success t req' in
          (* Mutation hook: the early-reply variant answers the client as
             soon as its own execution succeeds, before outcome-consensus
             has made that execution the round's agreed result. *)
          (match res with
          | Some v
            when Mutation.equal t.cfg.mutation Mutation.Reply_before_consensus
            ->
              send_result t ~client:client' ~rid:req'.rid v
          | _ -> ());
          let decided = result_coordination t req' res in
          (match t.obs with
          | Some o ->
              Xobs.Span.record o.o_round ~t0:span_t0
                ~t1:(Xsim.Engine.now t.eng)
          | None -> ());
          match decided with
          | Some v ->
              settle t rs v;
              (* A round-1 owner settling cleanly means nobody had to
                 clean: the group is back to primary-backup behaviour. *)
              if req'.round = 1 then note_mode t false;
              send_result t ~client:client' ~rid:req'.rid v
          | None ->
              (* Our round was vetoed; a cleaner is carrying the request
                 forward. *)
              tracef t "round %d of %s vetoed" req'.round
                (Xsm.Request.key req')
        end
        else begin
          (* Duplicate delivery of a round we already own (an idempotent
             re-submission, R1): if the result is settled, re-send it; if
             we are still executing, the original processing will reply. *)
          match known_result t rs req' with
          | Some v ->
              obs_incr t (fun o -> o.o_dup_replies);
              send_result t ~client ~rid:req'.rid v
          | None -> ()
        end
      end
      else begin
        (* Not the owner.  If the request already has an agreed result,
           answer the (possibly retrying) client ourselves. *)
        match known_result t rs req' with
        | Some v ->
            settle t rs v;
            obs_incr t (fun o -> o.o_dup_replies);
            send_result t ~client ~rid:req'.rid v
        | None -> ()
      end
  | other ->
      failwith
        (Format.asprintf "owner-agreement decided a foreign value: %a" Pval.pp
           other)

(* ------------------------------------------------------------------ *)
(* Figure 6: the cleaner activity.                                     *)

and clean_request t rs =
  match rs.settled with
  | Some _ -> ()
  | None -> (
      (* Advance to the largest defined index in owner-agreement. *)
      let rec advance () =
        match
          Coord.read t.coord ~member:t.r_addr
            ~inst:(Pval.owner_inst ~rid:rs.rid ~round:(rs.max_round + 1))
        with
        | Some (Pval.Owner { owner; _ }) ->
            raise_round t rs (rs.max_round + 1) owner;
            know_client t rs;
            advance ()
        | _ -> ()
      in
      advance ();
      if rs.max_round = 0 then ()
      else
        match
          Coord.read t.coord ~member:t.r_addr
            ~inst:(Pval.owner_inst ~rid:rs.rid ~round:rs.max_round)
        with
        | Some (Pval.Owner { owner; req; client })
          when (not (Xnet.Address.equal owner t.r_addr))
               && Xdetect.Detector.suspects t.detector ~observer:t.r_addr
                    ~target:owner -> (
            t.m.cleanups <- t.m.cleanups + 1;
            obs_incr t (fun o -> o.o_cleanups);
            (* Cleaning a suspected owner's round is the protocol's
               active-replication-like behaviour taking over. *)
            note_mode t true;
            (* Fence first: a suspected owner must not keep fast-deciding
               while we clean behind it. *)
            (match t.lease with
            | Some l -> Lease.break_suspect l ~suspect:owner
            | None -> ());
            tracef t "cleaning %s round %d (suspect %s)" (Xsm.Request.key req)
              req.round
              (Xnet.Address.to_string owner);
            let res = result_coordination t req None in
            match res with
            | None ->
                (* The round is terminated with no result: continue the
                   request as owner-candidate of the next round. *)
                t.m.takeovers <- t.m.takeovers + 1;
                obs_incr t (fun o -> o.o_takeovers);
                process_request t
                  (Xsm.Request.with_round req (req.round + 1))
                  client
            | Some v ->
                (* The suspected owner did decide a result; make sure the
                   client gets it (it may never have been sent). *)
                settle t rs v;
                send_result t ~client ~rid:rs.rid v)
        | _ -> ())

let spawn_named t base fn =
  t.fiber_counter <- t.fiber_counter + 1;
  Xsim.Engine.spawn t.eng ~proc:t.r_proc
    ~name:
      (Printf.sprintf "%s:%s#%d" (Xnet.Address.to_string t.r_addr) base
         t.fiber_counter)
    fn

(* ------------------------------------------------------------------ *)
(* The batch log (Batcher + slots): round 1 of every member of a batch
   is claimed by one slot of a global, totally ordered log; one outcome
   agreement settles the whole slot.  Rounds >= 2 (recovery) go through
   the per-request path above unchanged.                               *)

let record_slot t n (b : slot) =
  if not (Hashtbl.mem t.slots n) then Hashtbl.replace t.slots n b;
  if n >= t.next_slot then t.next_slot <- n + 1

(* Fold newly decided slots into [claims], strictly in slot order: the
   first slot containing a rid claims it, every replica computes the same
   mapping.  Only the contiguous decided prefix is folded, so a slot
   learned out of order (possible under `Paxos local knowledge) waits. *)
let integrate_slots t =
  while Hashtbl.mem t.slots (t.scanned_slot + 1) do
    t.scanned_slot <- t.scanned_slot + 1;
    let s = Hashtbl.find t.slots t.scanned_slot in
    List.iter
      (fun ((req : Xsm.Request.t), _) ->
        if not (Hashtbl.mem t.claims req.rid) then
          Hashtbl.replace t.claims req.rid t.scanned_slot;
        know_client t (state_of t req.rid))
      s.s_members;
    if not (Xnet.Address.equal s.s_owner t.r_addr) then
      pending_add t.slot_work (Some s.s_owner) t.scanned_slot
  done

let lock_slots t =
  if t.slot_lock then begin
    let iv = Xsim.Ivar.create () in
    Queue.add iv t.slot_waiters;
    Xsim.Ivar.read t.eng iv
  end
  else t.slot_lock <- true

let unlock_slots t =
  match Queue.take_opt t.slot_waiters with
  | Some iv -> Xsim.Ivar.fill iv () (* hand the lock over *)
  | None -> t.slot_lock <- false

(* Claim the next free slot of the log for this batch.  Proposals are
   serialized per replica (so our own slots land in order) and walk
   forward on contention: losing slot [n] to another owner's batch both
   teaches us that batch and moves us to [n + 1]. *)
let claim_slot t ~bid members =
  lock_slots t;
  let rec go () =
    let n = max t.next_slot (t.scanned_slot + 1) in
    let inst = Pval.batch_inst ~slot:n in
    let proposal = Pval.Batch { owner = t.r_addr; bid; members } in
    (* A leased owner claims the slot unilaterally: the whole batch skips
       owner agreement in one fenced decide. *)
    let decision =
      match Coord.fast_propose t.coord ~member:t.r_addr ~inst proposal with
      | Some d -> d
      | None -> Coord.propose t.coord ~member:t.r_addr ~inst proposal
    in
    match decision with
    | Pval.Batch b ->
        record_slot t n
          { s_owner = b.owner; s_bid = b.bid; s_members = b.members };
        integrate_slots t;
        if Xnet.Address.equal b.owner t.r_addr && b.bid = bid then n
        else begin
          obs_incr t (fun o -> o.o_batch_slot_retries);
          go ()
        end
    | other ->
        failwith
          (Format.asprintf "batch slot decided a foreign value: %a" Pval.pp
             other)
  in
  let n = go () in
  unlock_slots t;
  n

(* execute-until-success for one batch member.  The veto evidence for a
   batched round 1 is its slot's outcome instance (a cleaner deciding
   abort-all), checked with an instant local peek. *)
let rec execute_member t ~slot (req : Xsm.Request.t) =
  if t.cfg.veto_check && slot_outcome_peek t slot <> None then None
  else begin
    t.m.executions <- t.m.executions + 1;
    obs_incr t (fun o -> o.o_execs);
    match Xsm.Statemachine.execute t.sm req with
    | Ok v -> Some v
    | Error _ ->
        obs_incr t (fun o -> o.o_retries);
        (match kind_of_request t req with
        | Action.Idempotent -> ()
        | Action.Undoable ->
            obs_incr t (fun o -> o.o_undos);
            ignore (finalize_until_success t (Xsm.Request.cancel_of req)));
        execute_member t ~slot req
  end

(* A slot committed: finalize and answer every member with a real result
   that is not already settled here.  Run by the owner after winning the
   outcome, and by cleaners that find a committed slot whose owner may
   have crashed between deciding and replying. *)
let settle_slot_commit t (s : slot) agreed =
  List.iter
    (fun ((req : Xsm.Request.t), client) ->
      match List.assoc_opt req.rid agreed with
      | Some (Some v) ->
          let rs = state_of t req.rid in
          if rs.settled = None then begin
            (match kind_of_request t req with
            | Action.Undoable ->
                ignore (finalize_until_success t (Xsm.Request.commit_of req))
            | Action.Idempotent -> ());
            settle t rs v;
            Hashtbl.remove t.batch_pending req.rid;
            send_result t ~client ~rid:req.rid v
          end
      | _ -> Hashtbl.remove t.batch_pending req.rid)
    s.s_members

(* A slot aborted: cancel the members it claimed (idempotent, so the
   owner and any number of cleaners may each do it), and — when cleaning —
   carry each unsettled member forward as round 2 of the per-request
   protocol. *)
let continue_aborted_slot t ~slot (s : slot) ~takeover =
  List.iter
    (fun ((req : Xsm.Request.t), client) ->
      if Hashtbl.find_opt t.claims req.rid = Some slot then begin
        let rs = state_of t req.rid in
        Hashtbl.remove t.batch_pending req.rid;
        if rs.settled = None then begin
          (* Mutation hook: the skip-undo variant terminates the slot
             without issuing the cancellations. *)
          if not (Mutation.equal t.cfg.mutation Mutation.Skip_undo_on_takeover)
          then (
            match kind_of_request t req with
            | Action.Undoable ->
                obs_incr t (fun o -> o.o_undos);
                ignore (finalize_until_success t (Xsm.Request.cancel_of req))
            | Action.Idempotent -> ());
          if takeover && max_round_of t ~rid:req.rid < 2 then begin
            t.m.takeovers <- t.m.takeovers + 1;
            obs_incr t (fun o -> o.o_takeovers);
            process_request t (Xsm.Request.with_round req 2) client
          end
        end
      end)
    s.s_members

(* Figure 6's process-request lifted to a whole batch: one slot claim
   (owner-agreement for round 1 of every member), one execution sweep,
   one outcome agreement, then per-member replies. *)
let process_batch t ~bid members =
  let span_t0 = Xsim.Engine.now t.eng in
  let slot = claim_slot t ~bid members in
  tracef t "batch %d -> slot %d (%d members)" bid slot (List.length members);
  (* Classify members first (cheap, non-blocking), then execute the
     runnable ones in parallel fibers: members of one batch are
     independent requests, and executing them in sequence would make the
     batch as slow as its members summed — the opposite of amortization. *)
  let plans =
    List.map
      (fun ((req : Xsm.Request.t), client) ->
        if Hashtbl.find_opt t.claims req.rid <> Some slot then begin
          (* An earlier slot already claimed this rid (the client retried
             to another replica): that slot's owner or cleaner answers. *)
          obs_incr t (fun o -> o.o_batch_skips);
          `Skip (req, client)
        end
        else if slot_outcome_peek t slot <> None then `Skip (req, client)
        else begin
          Hashtbl.replace t.owned_rounds (req.rid, 1) ();
          t.m.rounds_owned <- t.m.rounds_owned + 1;
          obs_incr t (fun o -> o.o_rounds);
          `Run (req, client)
        end)
      members
  in
  let outcomes : (int, Value.t option) Hashtbl.t = Hashtbl.create 16 in
  let all_done = Xsim.Ivar.create () in
  let remaining =
    ref
      (List.length
         (List.filter (function `Run _ -> true | `Skip _ -> false) plans))
  in
  if !remaining > 0 then begin
    List.iter
      (function
        | `Skip _ -> ()
        | `Run ((req : Xsm.Request.t), _) ->
            spawn_named t
              (Printf.sprintf "batch%d.r%d" bid req.rid)
              (fun () ->
                Hashtbl.replace outcomes req.rid (execute_member t ~slot req);
                decr remaining;
                if !remaining = 0 then Xsim.Ivar.fill all_done ()))
      plans;
    Xsim.Ivar.read t.eng all_done
  end;
  let executed =
    List.map
      (function
        | `Skip (req, client) -> (req, client, None)
        | `Run ((req : Xsm.Request.t), client) ->
            (req, client, Option.join (Hashtbl.find_opt outcomes req.rid)))
      plans
  in
  let results =
    List.map (fun ((req : Xsm.Request.t), _, r) -> (req.rid, r)) executed
  in
  let decision =
    Coord.propose t.coord ~member:t.r_addr
      ~inst:(Pval.batch_outcome_inst ~slot)
      (Pval.Batch_outcome { outcome = Pval.Commit; results })
  in
  let s = Hashtbl.find t.slots slot in
  (match decision with
  | Pval.Batch_outcome { outcome = Pval.Commit; results = agreed } ->
      obs_incr t (fun o -> o.o_batch_commits);
      settle_slot_commit t s agreed;
      (* A batch settling cleanly is round-1 behaviour: primary-backup. *)
      note_mode t false
  | Pval.Batch_outcome { outcome = Pval.Abort; _ } ->
      obs_incr t (fun o -> o.o_batch_aborts);
      tracef t "slot %d vetoed" slot;
      (* A cleaner aborted the whole slot while we were executing: cancel
         our work; the cleaner carries the members forward. *)
      continue_aborted_slot t ~slot s ~takeover:false
  | other ->
      failwith
        (Format.asprintf "batch outcome decided a foreign value: %a" Pval.pp
           other));
  match t.obs with
  | Some o -> Xobs.Span.record o.o_batch ~t0:span_t0 ~t1:(Xsim.Engine.now t.eng)
  | None -> ()

(* The owner a cleaner may act against: another replica it suspects. *)
let may_act_against t = function
  | Some o ->
      (not (Xnet.Address.equal o t.r_addr))
      && Xdetect.Detector.suspects t.detector ~observer:t.r_addr ~target:o
  | None -> false

(* Cleaner activity over one batch-log slot: abort it if its owner is
   suspected before the outcome is settled, and finish the work of a
   decider that crashed after the outcome.  Once every member is settled
   here the slot has nothing left to do and leaves [slot_work]. *)
let visit_slot t slot =
  let s = Hashtbl.find t.slots slot in
  (* Only ever act on another replica's slot when its owner is
     suspected: a live owner settles (or aborts) its own slots in
     [process_batch], and repairing behind its back would triple every
     reply.  The owner-crashed-after-deciding case is exactly what the
     repair arms below cover. *)
  let orphaned =
    (not (Xnet.Address.equal s.s_owner t.r_addr))
    && Xdetect.Detector.suspects t.detector ~observer:t.r_addr
         ~target:s.s_owner
  in
  (match slot_outcome_peek t slot with
  | None ->
      if
        orphaned
        && List.exists
             (fun ((req : Xsm.Request.t), _) ->
               (state_of t req.rid).settled = None)
             s.s_members
      then begin
        t.m.cleanups <- t.m.cleanups + 1;
        obs_incr t (fun o -> o.o_cleanups);
        note_mode t true;
        (match t.lease with
        | Some l -> Lease.break_suspect l ~suspect:s.s_owner
        | None -> ());
        tracef t "cleaning slot %d (suspect %s)" slot
          (Xnet.Address.to_string s.s_owner);
        let results =
          List.map
            (fun ((req : Xsm.Request.t), _) -> (req.rid, None))
            s.s_members
        in
        let decision =
          Coord.propose t.coord ~member:t.r_addr
            ~inst:(Pval.batch_outcome_inst ~slot)
            (Pval.Batch_outcome { outcome = Pval.Abort; results })
        in
        match decision with
        | Pval.Batch_outcome { outcome = Pval.Abort; _ } ->
            continue_aborted_slot t ~slot s ~takeover:true
        | Pval.Batch_outcome { outcome = Pval.Commit; results = agreed } ->
            (* The owner won the race: make sure the clients get their
               results (they may never have been sent). *)
            settle_slot_commit t s agreed
        | other ->
            failwith
              (Format.asprintf "batch outcome decided a foreign value: %a"
                 Pval.pp other)
      end
  | Some (Pval.Batch_outcome { outcome = Pval.Commit; results = agreed }) ->
      if orphaned then settle_slot_commit t s agreed
  | Some (Pval.Batch_outcome { outcome = Pval.Abort; _ }) ->
      if orphaned then continue_aborted_slot t ~slot s ~takeover:true
  | Some _ -> ());
  if
    List.for_all
      (fun ((req : Xsm.Request.t), _) -> (state_of t req.rid).settled <> None)
      s.s_members
  then pending_remove t.slot_work (Some s.s_owner) slot

(* Read the decisions learned since the last look, once each.  Batch
   slots wait for the next pass to begin and owner decisions for the next
   discovery: the points where a pass used to list every known decision.
   During a pass ([mark]), an owner decision also marks its request for a
   visit, since that visit's round advance may now find it. *)
let learn t ~mark =
  let peek inst = Coord.peek t.coord ~member:t.r_addr ~inst in
  let rec loop () =
    match Coord.next t.feed with
    | None -> ()
    | Some inst ->
        (* Instance ids follow [Pval]'s naming: the family comes first. *)
        (match inst.[0] with
        | 'o' -> (
            match (Pval.parse_owner_inst inst, peek inst) with
            | Some (rid, round), Some (Pval.Owner { owner; _ }) ->
                Queue.add (rid, round, owner) t.new_rounds;
                if mark then t.dirty <- Int_set.add rid t.dirty
            | _ -> ())
        | 'b' when t.batcher <> None -> (
            match (Pval.parse_batch_inst inst, peek inst) with
            | Some n, Some (Pval.Batch b) ->
                let s =
                  { s_owner = b.owner; s_bid = b.bid; s_members = b.members }
                in
                Queue.add (n, s) t.new_slots
            | _ -> ())
        | _ -> ());
        loop ()
  in
  loop ()

(* Cleaner activity over the batch log: fold in the slots decided since
   the last pass, then visit, in slot order, the slots decided by then
   whose owner is suspected at the moment of the visit. *)
let clean_batches t =
  learn t ~mark:false;
  Queue.iter (fun (n, s) -> record_slot t n s) t.new_slots;
  Queue.clear t.new_slots;
  integrate_slots t;
  let bound = t.scanned_slot in
  let rec loop after =
    match pending_next t.slot_work ~after ~eligible:(may_act_against t) with
    | Some slot when slot <= bound ->
        visit_slot t slot;
        loop slot
    | _ -> ()
  in
  loop 0

(* Every owner decision known now raises its request's round. *)
let discover_requests t =
  learn t ~mark:false;
  Queue.iter
    (fun (rid, round, owner) ->
      let rs = state_of t rid in
      if round > rs.max_round then raise_round t rs round owner)
    t.new_rounds;
  Queue.clear t.new_rounds;
  t.dirty <- Int_set.empty

(* The next request after [after], among those existing at the pass's
   discovery ([born <= stamp]), that a visit could matter for: one filed
   under an owner this replica may act against — under any owner when
   reads take time — or one whose round may advance. *)
let next_request t ~after ~stamp =
  let eligible key = t.timed_reads || may_act_against t key in
  let rec go after =
    let filed = pending_next t.pending ~after ~eligible in
    let next =
      match (Int_set.find_first_opt (fun r -> r > after) t.dirty, filed) with
      | Some d, Some f -> Some (min d f)
      | Some d, None -> Some d
      | None, f -> f
    in
    match next with
    | None -> None
    | Some rid -> (
        match Hashtbl.find_opt t.requests rid with
        | Some rs when rs.born <= stamp -> Some rs
        | _ -> go rid)
  in
  go after

(* One request of a pass: a replica that has never seen the request reads
   its round-1 decision first, then cleans it.  The read only marks the
   client known, but on the register substrate it is a modelled round
   trip, and the schedule depends on it. *)
let visit_request t rs =
  if not rs.client_known then begin
    match
      Coord.read t.coord ~member:t.r_addr
        ~inst:(Pval.owner_inst ~rid:rs.rid ~round:1)
    with
    | Some (Pval.Owner _) -> know_client t rs
    | _ -> ()
  end;
  clean_request t rs

(* Figure 6's cleaner over every request known at the pass's discovery,
   in rid order, visiting only those a visit could matter for.  Each step
   re-reads the suspicions and the decisions learned meanwhile, because a
   visit that acts blocks in consensus and the world moves on. *)
let cleaner_pass t =
  if t.batcher <> None then clean_batches t;
  discover_requests t;
  let stamp = t.births in
  let rec loop after =
    learn t ~mark:true;
    match next_request t ~after ~stamp with
    | None -> ()
    | Some rs ->
        visit_request t rs;
        loop rs.rid
  in
  loop min_int

(* ------------------------------------------------------------------ *)

let create ~eng ~env ~transport ~detector ~coord ~addr:r_addr ~proc:r_proc
    ?(config = default_config) () =
  let mbox = Xnet.Conduit.register transport r_addr ~proc:r_proc in
  let t =
    {
      eng;
      env;
      sm = Xsm.Statemachine.create env;
      transport;
      detector;
      coord;
      lease = Coord.lease coord;
      r_addr;
      r_proc;
      cfg = config;
      m =
        {
          requests_seen = 0;
          rounds_owned = 0;
          executions = 0;
          cleanups = 0;
          takeovers = 0;
          replies_sent = 0;
        };
      requests = Hashtbl.create 32;
      births = 0;
      pending = { by_owner = [] };
      dirty = Int_set.empty;
      feed = Coord.feed coord ~member:r_addr;
      new_rounds = Queue.create ();
      new_slots = Queue.create ();
      timed_reads = Coord.read_takes_time coord;
      owned_rounds = Hashtbl.create 32;
      suspicion_events = Xsim.Mailbox.create ~name:"suspicions" ();
      fiber_counter = 0;
      batcher = None;
      slots = Hashtbl.create 8;
      slot_work = { by_owner = [] };
      claims = Hashtbl.create 32;
      scanned_slot = 0;
      next_slot = 1;
      slot_lock = false;
      slot_waiters = Queue.create ();
      batch_pending = Hashtbl.create 16;
      obs =
        (if Xobs.enabled () then
           Some
             {
               o_requests = Xobs.counter "replica.requests";
               o_rounds = Xobs.counter "replica.rounds_owned";
               o_execs = Xobs.counter "replica.executions";
               o_retries = Xobs.counter "replica.execute_retries";
               o_undos = Xobs.counter "replica.undos";
               o_cleanups = Xobs.counter "replica.cleanups";
               o_takeovers = Xobs.counter "replica.takeovers";
               o_mode_switches = Xobs.counter "replica.mode_switches";
               o_dup_replies = Xobs.counter "replica.duplicate_replies";
               o_replies = Xobs.counter "replica.replies";
               o_round = Xobs.span "replica.round";
               o_batch_commits = Xobs.counter "repl.batch_commits";
               o_batch_aborts = Xobs.counter "repl.batch_aborts";
               o_batch_skips = Xobs.counter "repl.batch_skips";
               o_batch_slot_retries = Xobs.counter "repl.batch_slot_retries";
               o_batch = Xobs.span "repl.batch_span";
             }
         else None);
      mode_active = false;
    }
  in
  Xdetect.Detector.on_suspicion detector ~observer:r_addr (fun target ->
      Xsim.Mailbox.put t.suspicion_events target);
  (match config.batching with
  | Some bcfg ->
      t.batcher <-
        Some
          (Batcher.create ~eng ~config:bcfg ~spawn:(spawn_named t)
             ~run:(fun ~bid batch -> process_batch t ~bid batch)
             ())
  | None -> ());
  (* Request activity: one dispatcher fiber; each request is processed in
     its own fiber so a slow execution does not block other clients.
     With batching enabled, round-1 requests instead join the batcher's
     current epoch and ride the batch log. *)
  spawn_named t "main" (fun () ->
      let rec loop () =
        let envelope = Xsim.Mailbox.take eng mbox in
        (match envelope.Xnet.Transport.payload with
        | Wire.Request { req; client } -> (
            t.m.requests_seen <- t.m.requests_seen + 1;
            obs_incr t (fun o -> o.o_requests);
            let req = Xsm.Request.with_round req 1 in
            match t.batcher with
            | None ->
                spawn_named t
                  (Printf.sprintf "req%d" req.rid)
                  (fun () -> process_request t req client)
            | Some b ->
                let rs = state_of t req.rid in
                know_client t rs;
                let settled =
                  match rs.settled with
                  | Some v -> Some v
                  | None -> batch_result t ~rid:req.rid
                in
                (match settled with
                | Some v ->
                    (* Duplicate of an already-settled request: answer
                       from local knowledge, never re-batch. *)
                    obs_incr t (fun o -> o.o_dup_replies);
                    send_result t ~client ~rid:req.rid v
                | None ->
                    if
                      not
                        (Hashtbl.mem t.batch_pending req.rid
                        || Hashtbl.mem t.claims req.rid)
                    then begin
                      Hashtbl.replace t.batch_pending req.rid ();
                      Batcher.enqueue b (req, client)
                    end))
        | Wire.Result _ -> () (* replicas do not expect results *));
        loop ()
      in
      loop ());
  (* Cleaner activity: wake on suspicion onset or periodically. *)
  spawn_named t "cleaner" (fun () ->
      let rec loop () =
        let wake = Xsim.Ivar.create () in
        Xsim.Mailbox.take_into t.suspicion_events (fun a ->
            Xsim.Ivar.try_fill wake (`Suspicion a));
        Xsim.Timer.after_into eng t.cfg.cleaner_poll (fun () ->
            Xsim.Ivar.try_fill wake `Tick);
        (match Xsim.Ivar.read eng wake with
        | `Suspicion _ | `Tick ->
            (* Drain any queued onsets; one pass covers them all. *)
            let rec drain () =
              match Xsim.Mailbox.poll t.suspicion_events with
              | Some _ -> drain ()
              | None -> ()
            in
            drain ();
            cleaner_pass t);
        loop ()
      in
      loop ());
  (* Lease activity (only when the group is leased): the holder renews
     every renew_interval; challengers break a suspected holder's lease
     (◇P evidence) and acquire once no valid lease stands.  All replicas
     poll at time 0, so the first replica deterministically takes the
     first epoch before any request arrives. *)
  (match t.lease with
  | None -> ()
  | Some l ->
      spawn_named t "lease" (fun () ->
          let period = (Lease.config l).Lease.renew_interval in
          let rec loop () =
            (match Lease.holder l with
            | Some (h, _) when Xnet.Address.equal h t.r_addr ->
                ignore (Lease.renew l t.r_addr)
            | Some (h, _) ->
                if
                  Xdetect.Detector.suspects t.detector ~observer:t.r_addr
                    ~target:h
                then begin
                  Lease.break_suspect l ~suspect:h;
                  ignore (Lease.try_acquire l t.r_addr)
                end
            | None -> ignore (Lease.try_acquire l t.r_addr));
            Xsim.Timer.sleep eng period;
            loop ()
          in
          loop ()));
  t
