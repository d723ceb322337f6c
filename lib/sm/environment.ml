open Xability

type config = {
  exec_min : int;
  exec_mean : float;
  finalize_min : int;
  finalize_mean : float;
  fail_prob : float;
  fail_after_prob : float;
  finalize_fail_prob : float;
  max_consecutive_failures : int;
}

let default_config =
  {
    exec_min = 40;
    exec_mean = 40.0;
    finalize_min = 10;
    finalize_mean = 10.0;
    fail_prob = 0.0;
    fail_after_prob = 0.5;
    finalize_fail_prob = 0.0;
    max_consecutive_failures = 10;
  }

type semantics =
  | Idem of (rid:int -> payload:Value.t -> rng:Xsim.Rng.t -> Value.t)
  | Undo of {
      attempt : rid:int -> payload:Value.t -> round:int -> rng:Xsim.Rng.t -> Value.t;
      cancel : rid:int -> payload:Value.t -> round:int -> unit;
      commit : rid:int -> payload:Value.t -> round:int -> unit;
    }
  | Raw of (rid:int -> payload:Value.t -> rng:Xsim.Rng.t -> Value.t)

type round_state = {
  mutable tentative : Value.t option;  (** unfinalized effect's output *)
  mutable committed : bool;
}

type job = { req : Request.t; reply : (Value.t, string) result Xsim.Ivar.t }

type key_state = {
  k_action : Action.name;
  k_rid : int;
  mutable attempts : int;
  mutable completions : int;
  mutable applied : int;
  mutable committed_rounds : int;
  mutable cancelled_rounds : int;
  mutable fixed : Value.t option;  (** idempotent fixed output *)
  mutable consecutive_failures : int;
  mutable possible_rev : Value.t list;
  rounds : (int, round_state) Hashtbl.t;
  jobs : job Xsim.Mailbox.t;
}

type key_stats = {
  action : Action.name;
  rid : int;
  attempts : int;
  completions : int;
  applied : int;
  committed_rounds : int;
  cancelled_rounds : int;
  net_effects : int;
  possible : Value.t list;
}

type t = {
  eng : Xsim.Engine.t;
  proc : Xsim.Proc.t;  (** never killed: the external world does not crash *)
  mutable cfg : config;
  rng : Xsim.Rng.t;
  actions : (Action.name, semantics) Hashtbl.t;
  keys : (string, key_state) Hashtbl.t;
  mutable key_order : string list;  (** reverse first-seen order *)
  mutable rev_history : Event.t list;
  mutable violations_rev : string list;
  mutable in_flight : int;
  mutable listeners : (Event.t -> unit) list;  (** registration order *)
}

let create eng ?(config = default_config) () =
  {
    eng;
    proc = Xsim.Proc.create ~name:"environment";
    cfg = config;
    rng = Xsim.Rng.split (Xsim.Engine.rng eng);
    actions = Hashtbl.create 16;
    keys = Hashtbl.create 64;
    key_order = [];
    rev_history = [];
    violations_rev = [];
    in_flight = 0;
    listeners = [];
  }

let engine t = t.eng
let config t = t.cfg
let set_config t cfg = t.cfg <- cfg

let register t name sem =
  if not (Action.valid_base name) then
    invalid_arg (Printf.sprintf "Environment: invalid action name %S" name);
  if Hashtbl.mem t.actions name then
    invalid_arg (Printf.sprintf "Environment: action %S already registered" name);
  Hashtbl.replace t.actions name sem

let register_idempotent t name f = register t name (Idem f)

let register_undoable t name ~attempt ~cancel ~commit =
  register t name (Undo { attempt; cancel; commit })

let register_raw t name f = register t name (Raw f)

let is_registered t name = Hashtbl.mem t.actions (Action.base name)

let kind_of t name =
  match Hashtbl.find_opt t.actions (Action.base name) with
  | Some (Idem _) -> Some Action.Idempotent
  | Some (Undo _) -> Some Action.Undoable
  | Some (Raw _) -> None
  | None -> None

(* Kept in registration order, so [record] walks the list as it is: an
   online monitor fed events out of order would see phantom violations. *)
let on_event t f = t.listeners <- t.listeners @ [ f ]

let record t e =
  t.rev_history <- e :: t.rev_history;
  Xsim.Engine.tracef t.eng ~source:"env" "%a" Event.pp_compact e;
  List.iter (fun f -> f e) t.listeners

let violation t key msg =
  t.violations_rev <- Printf.sprintf "%s: %s" key msg :: t.violations_rev

let round_state (ks : key_state) round =
  match Hashtbl.find_opt ks.rounds round with
  | Some rs -> rs
  | None ->
      let rs = { tentative = None; committed = false } in
      Hashtbl.replace ks.rounds round rs;
      rs

(* Payload of the request as seen by handlers: the application input. *)
let payload_of (req : Request.t) = req.input

let draw_duration t ~min ~mean =
  min + int_of_float (Xsim.Rng.exponential t.rng ~mean)

let should_fail t (ks : key_state) prob =
  if ks.consecutive_failures >= t.cfg.max_consecutive_failures then false
  else Xsim.Rng.chance t.rng prob

(* ------------------------------------------------------------------ *)
(* Per-key worker: serializes executions of one logical action.        *)

let apply_exec t (ks : key_state) (req : Request.t) sem =
  let rid = req.rid and payload = payload_of req in
  match sem with
  | Idem f -> (
      match ks.fixed with
      | Some out -> out
      | None ->
          let out = f ~rid ~payload ~rng:t.rng in
          ks.fixed <- Some out;
          ks.applied <- ks.applied + 1;
          ks.possible_rev <- out :: ks.possible_rev;
          out)
  | Raw f ->
      let out = f ~rid ~payload ~rng:t.rng in
      ks.applied <- ks.applied + 1;
      ks.possible_rev <- out :: ks.possible_rev;
      out
  | Undo { attempt; _ } ->
      let rs = round_state ks req.round in
      if rs.committed then
        violation t (Request.key req) "execution attempt after commit";
      if rs.tentative <> None then
        violation t (Request.key req) "execution attempt while tentative effect active";
      let out = attempt ~rid ~payload ~round:req.round ~rng:t.rng in
      rs.tentative <- Some out;
      ks.applied <- ks.applied + 1;
      ks.possible_rev <- out :: ks.possible_rev;
      out

let apply_cancel t (ks : key_state) (req : Request.t) sem =
  match sem with
  | Undo { cancel; _ } ->
      let rs = round_state ks req.round in
      if rs.committed then
        violation t (Request.key req) "cancel after commit in the same round"
      else begin
        match rs.tentative with
        | Some _ ->
            cancel ~rid:req.rid ~payload:(payload_of req) ~round:req.round;
            rs.tentative <- None;
            ks.cancelled_rounds <- ks.cancelled_rounds + 1
        | None -> () (* cancelling nothing: idempotent no-op *)
      end
  | Idem _ | Raw _ ->
      violation t (Request.key req) "cancel of a non-undoable action"

let apply_commit t (ks : key_state) (req : Request.t) sem =
  match sem with
  | Undo { commit; _ } ->
      let rs = round_state ks req.round in
      if rs.committed then () (* duplicate commit: idempotent no-op *)
      else begin
        match rs.tentative with
        | Some _ ->
            commit ~rid:req.rid ~payload:(payload_of req) ~round:req.round;
            rs.tentative <- None;
            rs.committed <- true;
            ks.committed_rounds <- ks.committed_rounds + 1
        | None ->
            violation t (Request.key req) "commit without a tentative effect"
      end
  | Idem _ | Raw _ ->
      violation t (Request.key req) "commit of a non-undoable action"

let process t (ks : key_state) (job : job) =
  let req = job.req in
  let sem =
    match Hashtbl.find_opt t.actions (Request.base_action req) with
    | Some sem -> sem
    | None ->
        failwith
          (Printf.sprintf "Environment: unregistered action %S" req.action)
  in
  let iv = Request.env_iv req in
  match Request.variant req with
  | Action.Exec ->
      ks.attempts <- ks.attempts + 1;
      record t (Event.S (Request.base_action req, iv));
      Xsim.Engine.sleep t.eng
        (draw_duration t ~min:t.cfg.exec_min ~mean:t.cfg.exec_mean);
      if should_fail t ks t.cfg.fail_prob then begin
        ks.consecutive_failures <- ks.consecutive_failures + 1;
        if Xsim.Rng.chance t.rng t.cfg.fail_after_prob then
          (* The side-effect happened, but the caller sees a failure.  No
             completion event: the effect is in doubt. *)
          ignore (apply_exec t ks req sem);
        ignore (Xsim.Ivar.try_fill job.reply (Error "action failed"))
      end
      else begin
        ks.consecutive_failures <- 0;
        let out = apply_exec t ks req sem in
        ks.completions <- ks.completions + 1;
        record t (Event.C (Request.base_action req, iv, out));
        ignore (Xsim.Ivar.try_fill job.reply (Ok out))
      end
  | Action.Cancel | Action.Commit ->
      record t (Event.S (req.action, iv));
      Xsim.Engine.sleep t.eng
        (draw_duration t ~min:t.cfg.finalize_min ~mean:t.cfg.finalize_mean);
      if should_fail t ks t.cfg.finalize_fail_prob then begin
        ks.consecutive_failures <- ks.consecutive_failures + 1;
        ignore (Xsim.Ivar.try_fill job.reply (Error "finalization failed"))
      end
      else begin
        ks.consecutive_failures <- 0;
        (match Request.variant req with
        | Action.Cancel -> apply_cancel t ks req sem
        | Action.Commit -> apply_commit t ks req sem
        | Action.Exec -> assert false);
        record t (Event.C (req.action, iv, Value.nil));
        ignore (Xsim.Ivar.try_fill job.reply (Ok Value.nil))
      end

let key_state t (req : Request.t) =
  let key = Request.key req in
  match Hashtbl.find_opt t.keys key with
  | Some ks -> ks
  | None ->
      let ks =
        {
          k_action = Request.base_action req;
          k_rid = req.rid;
          attempts = 0;
          completions = 0;
          applied = 0;
          committed_rounds = 0;
          cancelled_rounds = 0;
          fixed = None;
          consecutive_failures = 0;
          possible_rev = [];
          rounds = Hashtbl.create 4;
          jobs = Xsim.Mailbox.create ~name:("env:" ^ key) ();
        }
      in
      Hashtbl.replace t.keys key ks;
      t.key_order <- key :: t.key_order;
      (* One worker fiber per logical action, owned by the environment:
         caller crashes do not abort in-flight external work. *)
      Xsim.Engine.spawn t.eng ~proc:t.proc ~name:("env-worker:" ^ key)
        (fun () ->
          let rec loop () =
            let job = Xsim.Mailbox.take t.eng ks.jobs in
            process t ks job;
            t.in_flight <- t.in_flight - 1;
            loop ()
          in
          loop ());
      ks

let execute t req =
  let ks = key_state t req in
  let reply = Xsim.Ivar.create () in
  t.in_flight <- t.in_flight + 1;
  Xsim.Mailbox.put ks.jobs { req; reply };
  Xsim.Ivar.read t.eng reply

let in_flight t = t.in_flight

(* ------------------------------------------------------------------ *)

let history t = List.rev t.rev_history

let checker_expected t (req : Request.t) : Checker.expected =
  let kind =
    match kind_of t req.action with
    | Some k -> k
    | None -> req.kind (* raw actions keep their declared kind *)
  in
  { action = Request.base_action req; kind; logical = Request.logical_iv req }

let stats_of_key (ks : key_state) : key_stats =
  let net =
    match ks.fixed with
    | Some _ -> min ks.applied 1
    | None ->
        if Hashtbl.length ks.rounds > 0 then ks.committed_rounds
        else ks.applied
  in
  {
    action = ks.k_action;
    rid = ks.k_rid;
    attempts = ks.attempts;
    completions = ks.completions;
    applied = ks.applied;
    committed_rounds = ks.committed_rounds;
    cancelled_rounds = ks.cancelled_rounds;
    net_effects = net;
    possible = List.rev ks.possible_rev;
  }

let stats t =
  List.rev_map (fun key -> stats_of_key (Hashtbl.find t.keys key)) t.key_order

let stats_of t req =
  Option.map stats_of_key (Hashtbl.find_opt t.keys (Request.key req))

let possible_replies t req =
  match stats_of t req with Some s -> s.possible | None -> []

let violations t = List.rev t.violations_rev

let duplicate_effects t =
  List.fold_left (fun acc s -> acc + max 0 (s.net_effects - 1)) 0 (stats t)
