type expected = {
  action : Action.name;
  kind : Action.kind;
  logical : Value.t;
}

type group_result = {
  expected : expected;
  events : int;
  ok : bool;
  reduced : History.t option;
  output : Value.t option;
  first_completion : int option;
  detail : string;
}

type report = {
  ok : bool;
  groups : group_result list;
  unexpected : (Action.name * Value.t) list;
  order_ok : bool;
  violations : string list;
}

let group_key action logical =
  action ^ "|" ^ Value.to_string logical

(* Is [h] a failure-free history for the expected logical action?  For
   undoable actions the surviving instance may carry any round-tagged
   input that projects to the expected logical identity. *)
let group_goal ~logical_of exp h =
  match exp.kind with
  | Action.Idempotent -> (
      match h with
      | [ Event.S (a, iv); Event.C (a', iv', _ov) ] ->
          Action.equal_name a exp.action && Action.equal_name a' exp.action
          && Value.equal iv iv' && Value.equal (logical_of a iv) exp.logical
      | _ -> false)
  | Action.Undoable -> (
      match h with
      | [
       Event.S (a, iv);
       Event.C (a', iv', _ov);
       Event.S (c, civ);
       Event.C (c', civ', nil);
      ] ->
          let ac = Action.commit_name exp.action in
          Action.equal_name a exp.action && Action.equal_name a' exp.action
          && Action.equal_name c ac && Action.equal_name c' ac
          && Value.equal iv iv' && Value.equal civ iv && Value.equal civ' iv
          && Value.equal nil Value.nil
          && Value.equal (logical_of a iv) exp.logical
      | _ -> false)

type engine = [ `Search | `Fast | `Hybrid ]

(* Per-group persistent searchers.  The goal of a group's search depends
   only on the group's expectation, so a searcher created once can serve
   every re-check of that group as its history grows — and, because the
   explorer's runs draw deterministic request ids, every re-check of the
   same group across thousands of explored schedules.  Keyed by the
   group key; the [Reduction.searcher] memo inside each entry is what
   makes incremental and repeated checking cheap. *)
type cache = (string, Reduction.search) Hashtbl.t

let create_cache () : cache = Hashtbl.create 64

let check ~kinds ~logical_of ?(round_of = fun _ -> None)
    ?(engine = (`Hybrid : engine)) ?(check_order = true) ?cache ~expected h =
  let indexed = List.mapi (fun i e -> (i, e)) h in
  (* Partition events into logical groups. *)
  let groups_tbl : (string, (int * Event.t) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let group_id : (string, Action.name * Value.t) Hashtbl.t =
    Hashtbl.create 16
  in
  (* Index of the first start event of each (action, logical) pair, under
     its group key: the order check's request boundaries. *)
  let starts : (string, (Action.name * Value.t * int) list) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (i, e) ->
      let base = Action.base (Event.action e) in
      let logical = logical_of base (Event.input e) in
      let key = group_key base logical in
      if not (Hashtbl.mem group_id key) then
        Hashtbl.replace group_id key (base, logical);
      (if check_order && Event.is_start e then
         let seen = Option.value (Hashtbl.find_opt starts key) ~default:[] in
         if
           not
             (List.exists
                (fun (a, l, _) ->
                  Action.equal_name a base && Value.equal l logical)
                seen)
         then Hashtbl.replace starts key ((base, logical, i) :: seen));
      (match Hashtbl.find_opt groups_tbl key with
      | Some cell -> cell := (i, e) :: !cell
      | None -> Hashtbl.replace groups_tbl key (ref [ (i, e) ])))
    indexed;
  let take_group key =
    match Hashtbl.find_opt groups_tbl key with
    | Some cell ->
        Hashtbl.remove groups_tbl key;
        List.rev !cell
    | None -> []
  in
  let groups =
    List.map
      (fun exp ->
        let key = group_key exp.action exp.logical in
        let pairs = take_group key in
        let events = List.map snd pairs in
        if events = [] then
          {
            expected = exp;
            events = 0;
            ok = false;
            reduced = None;
            output = None;
            first_completion = None;
            detail = "no events for this request";
          }
        else
          let search () =
            match cache with
            | None ->
                Reduction.reduces_to ~kinds events
                  ~goal:(group_goal ~logical_of exp)
            | Some cache ->
                let run =
                  match Hashtbl.find_opt cache key with
                  | Some run -> run
                  | None ->
                      let run =
                        Reduction.searcher ~kinds
                          ~goal:(group_goal ~logical_of exp)
                          ()
                      in
                      Hashtbl.replace cache key run;
                      run
                in
                run events
          in
          let fast () =
            match
              Analyzer.analyze ~kind:exp.kind ~action:exp.action ~logical_of
                ~round_of ~logical:exp.logical events
            with
            | Analyzer.Xable ov ->
                Some (Xable.eventsof exp.kind exp.action ~iv:exp.logical ~ov)
            | Analyzer.Not_xable _ -> None
          in
          let witness =
            (* The analyzer is the linear-time fast path; the reduction
               search engine only runs when it cannot decide.  Count both
               outcomes so `xrepl stats` shows the split. *)
            let obs_on = Xobs.enabled () in
            let fast () =
              let w = fast () in
              if obs_on then
                Xobs.Counter.incr
                  (Xobs.counter
                     (match w with
                     | Some _ -> "reduction.analyzer_hits"
                     | None -> "reduction.analyzer_misses"));
              w
            in
            let search () =
              if obs_on then Xobs.Counter.incr (Xobs.counter "reduction.searches");
              search ()
            in
            match engine with
            | `Search -> search ()
            | `Fast -> fast ()
            | `Hybrid -> ( match fast () with Some w -> Some w | None -> search ())
          in
          match witness with
          | Some witness ->
              let output = List.find_map Event.output witness in
              (* First completion of a base-action execution in this group:
                 the earliest moment the request's effect was settled. *)
              let first_completion =
                List.find_map
                  (fun (i, e) ->
                    match e with
                    | Event.C (a, _, _) when Action.is_base a -> Some i
                    | _ -> None)
                  pairs
              in
              {
                expected = exp;
                events = List.length events;
                ok = true;
                reduced = Some witness;
                output;
                first_completion;
                detail = "x-able";
              }
          | None ->
              {
                expected = exp;
                events = List.length events;
                ok = false;
                reduced = None;
                output = None;
                first_completion = None;
                detail =
                  Printf.sprintf "irreducible: %s" (History.to_string events);
              })
      expected
  in
  (* Remaining groups were not expected at all. *)
  let unexpected =
    Hashtbl.fold (fun key _ acc -> Hashtbl.find group_id key :: acc) groups_tbl []
  in
  (* Order discipline: request i's first completion precedes request i+1's
     first start. *)
  let first_start exp =
    Hashtbl.find_opt starts (group_key exp.action exp.logical)
    |> Option.value ~default:[]
    |> List.find_map (fun (a, l, i) ->
           if Action.equal_name a exp.action && Value.equal l exp.logical then
             Some i
           else None)
  in
  let rec order_violations = function
    | g1 :: (g2 :: _ as rest) ->
        let v =
          match (g1.first_completion, first_start g2.expected) with
          | Some c1, Some s2 when c1 >= s2 ->
              [
                Printf.sprintf
                  "request %s settled at %d, after request %s started at %d"
                  g1.expected.action c1 g2.expected.action s2;
              ]
          | _ -> []
        in
        v @ order_violations rest
    | _ -> []
  in
  let order_viols = if check_order then order_violations groups else [] in
  let violations =
    List.filter_map
      (fun (g : group_result) ->
        if g.ok then None
        else Some (Printf.sprintf "%s: %s" g.expected.action g.detail))
      groups
    @ List.map
        (fun (a, v) ->
          Printf.sprintf "unexpected action group %s on %s" a
            (Value.to_string v))
        unexpected
    @ order_viols
  in
  {
    ok = violations = [];
    groups;
    unexpected;
    order_ok = order_viols = [];
    violations;
  }

(* ------------------------------------------------------------------ *)
(* Composition (paper section 4).  Reduction rules never relate events of
   different action instances, and a shard projection is a union of whole
   logical groups — so a multi-shard history is x-able iff each shard's
   projection is.  [compose] makes that theorem executable: project the
   global history per shard, run [check] on each projection, and conjoin.
   The per-shard reports are kept alongside a flattened [combined] report
   so existing report plumbing works unchanged. *)

type compose_report = {
  per_shard : (int * report) list;
  combined : report;
}

let compose ~kinds ~logical_of ?round_of ?engine ?(check_order = false) ?cache
    ~shard_of ~expected h =
  (* Partition the history into per-shard projections, preserving event
     order.  An event's shard is a function of its logical group, so every
     group lands wholly in one projection — the theorem's precondition. *)
  let hist_tbl : (int, Event.t list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let base = Action.base (Event.action e) in
      let s = shard_of base (logical_of base (Event.input e)) in
      match Hashtbl.find_opt hist_tbl s with
      | Some cell -> cell := e :: !cell
      | None -> Hashtbl.replace hist_tbl s (ref [ e ]))
    h;
  let exp_tbl : (int, expected list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun exp ->
      let s = shard_of exp.action exp.logical in
      match Hashtbl.find_opt exp_tbl s with
      | Some cell -> cell := exp :: !cell
      | None -> Hashtbl.replace exp_tbl s (ref [ exp ]))
    expected;
  let shards =
    let add tbl acc = Hashtbl.fold (fun s _ acc -> s :: acc) tbl acc in
    add hist_tbl (add exp_tbl [])
    |> List.sort_uniq compare
  in
  let per_shard =
    List.map
      (fun s ->
        let h_s =
          match Hashtbl.find_opt hist_tbl s with
          | Some cell -> List.rev !cell
          | None -> []
        in
        let exp_s =
          match Hashtbl.find_opt exp_tbl s with
          | Some cell -> List.rev !cell
          | None -> []
        in
        ( s,
          check ~kinds ~logical_of ?round_of ?engine ~check_order ?cache
            ~expected:exp_s h_s ))
      shards
  in
  let combined =
    {
      ok = List.for_all (fun (_, r) -> r.ok) per_shard;
      groups = List.concat_map (fun (_, r) -> r.groups) per_shard;
      unexpected = List.concat_map (fun (_, r) -> r.unexpected) per_shard;
      order_ok = List.for_all (fun (_, r) -> r.order_ok) per_shard;
      violations =
        List.concat_map
          (fun (s, r) ->
            List.map (fun v -> Printf.sprintf "shard %d: %s" s v) r.violations)
          per_shard;
    }
  in
  { per_shard; combined }

(* ------------------------------------------------------------------ *)
(* Online checking.  A growing history cannot be judged not-x-able in
   general — a pending round may still be cancelled, a missing completion
   may still arrive.  What CAN be decided online are the irrevocable
   patterns: event shapes no future suffix and no reduction rule can
   repair.  The incremental checker watches for exactly those, so a
   monitor can abort a doomed run the moment the history is lost. *)

module Incremental = struct
  type group = {
    g_action : Action.name;
    g_logical : Value.t;
    g_kind : Action.kind option;
    (* Outputs of completed base-action executions, with their retry
       round (None when the input carries no round tag). *)
    mutable exec_outputs : (int option * Value.t) list;
    mutable committed_rounds : int option list;  (* distinct *)
    mutable n_events : int;
  }

  type t = {
    i_kinds : Reduction.kinds;
    i_logical_of : Action.name -> Value.t -> Value.t;
    i_round_of : Value.t -> int option;
    groups : (string, group) Hashtbl.t;
    mutable first_violation : string option;
    mutable n_fed : int;
  }

  let create ~kinds ~logical_of ?(round_of = fun _ -> None) () =
    {
      i_kinds = kinds;
      i_logical_of = logical_of;
      i_round_of = round_of;
      groups = Hashtbl.create 32;
      first_violation = None;
      n_fed = 0;
    }

  let group_of t base logical =
    let key = group_key base logical in
    match Hashtbl.find_opt t.groups key with
    | Some g -> g
    | None ->
        let g =
          {
            g_action = base;
            g_logical = logical;
            g_kind = t.i_kinds base;
            exec_outputs = [];
            committed_rounds = [];
            n_events = 0;
          }
        in
        Hashtbl.replace t.groups key g;
        g

  let flag t g msg =
    if t.first_violation = None then
      t.first_violation <-
        Some
          (Printf.sprintf "%s on %s: %s" g.g_action
             (Value.to_string g.g_logical) msg)

  let feed t e =
    t.n_fed <- t.n_fed + 1;
    let name = Event.action e in
    let base = Action.base name in
    let logical = t.i_logical_of base (Event.input e) in
    let g = group_of t base logical in
    g.n_events <- g.n_events + 1;
    match (e, Action.variant_of name, g.g_kind) with
    | Event.C (_, _, ov), Action.Exec, Some Action.Idempotent ->
        (* Rule 18 absorbs a duplicate completion only when the outputs
           agree; two different completed outputs are beyond repair. *)
        (match g.exec_outputs with
        | (_, ov') :: _ when not (Value.equal ov ov') ->
            flag t g
              (Printf.sprintf
                 "idempotent executions completed with conflicting outputs \
                  %s vs %s"
                 (Value.to_string ov') (Value.to_string ov))
        | _ -> ());
        g.exec_outputs <- (None, ov) :: g.exec_outputs
    | Event.C (_, iv, ov), Action.Exec, Some Action.Undoable ->
        g.exec_outputs <- (t.i_round_of iv, ov) :: g.exec_outputs
    | Event.C (_, iv, _), Action.Commit, Some Action.Undoable ->
        let round = t.i_round_of iv in
        if not (List.mem round g.committed_rounds) then begin
          g.committed_rounds <- round :: g.committed_rounds;
          (* Commits are permanent.  Rule 20 deduplicates commits of one
             round; commits of two different rounds both survive, so the
             group can never again reduce to a single execution. *)
          if List.length g.committed_rounds >= 2 then
            flag t g "two retry rounds committed (permanent duplicate effect)"
        end
    | _ -> ()

  let events_fed t = t.n_fed
  let violation t = t.first_violation

  (* The output the group's effect settled on: for an idempotent action
     the (first) completed output, for an undoable action the completed
     output of the committed round.  [None] while unsettled. *)
  let settled_output t ~action ~logical =
    match Hashtbl.find_opt t.groups (group_key action logical) with
    | None -> None
    | Some g -> (
        match g.g_kind with
        | Some Action.Idempotent -> (
            match List.rev g.exec_outputs with
            | (_, ov) :: _ -> Some ov
            | [] -> None)
        | Some Action.Undoable -> (
            match g.committed_rounds with
            | [ round ] ->
                List.find_map
                  (fun (r, ov) -> if r = round then Some ov else None)
                  g.exec_outputs
            | _ -> None)
        | None -> None)
end

let pp_report ppf r =
  Format.fprintf ppf "x-able: %b@," r.ok;
  List.iter
    (fun g ->
      Format.fprintf ppf "  %-16s events=%-3d ok=%b %s@," g.expected.action
        g.events g.ok g.detail)
    r.groups;
  List.iter (fun v -> Format.fprintf ppf "  violation: %s@," v) r.violations

let pp_compose ppf c =
  Format.fprintf ppf "x-able (composed): %b@," c.combined.ok;
  List.iter
    (fun (s, r) ->
      Format.fprintf ppf " shard %d: groups=%d ok=%b@," s
        (List.length r.groups) r.ok)
    c.per_shard;
  List.iter
    (fun v -> Format.fprintf ppf "  violation: %s@," v)
    c.combined.violations
