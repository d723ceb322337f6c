open Xability

type spec = {
  seed : int;
  env_config : Xsm.Environment.config;
  service_config : Xreplication.Service.config;
  crashes : (int * int) list;
  client_crash_at : int option;
  noise : (float * int * int) option;
  time_limit : int;
  quiesce_grace : int;
  clients : int;  (* closed-loop client processes *)
  inflight : int;  (* concurrent lanes (outstanding requests) per client *)
  shards : int;
  router : Xshard.Deployment.router_config;
}

let default_spec =
  {
    seed = 42;
    env_config = Xsm.Environment.default_config;
    service_config = Xreplication.Service.default_config;
    crashes = [];
    client_crash_at = None;
    noise = None;
    time_limit = 1_000_000;
    quiesce_grace = 8_000;
    clients = 1;
    inflight = 1;
    shards = 1;
    router = Xshard.Deployment.default_router;
  }

type submission = Xshard.Deployment.submission = {
  req : Xsm.Request.t;
  reply : Value.t;
  latency : int;
}

type result = {
  completed : bool;
  end_time : int;
  work_end_time : int;
  submissions : submission list;
  report : Checker.report;
  r4_ok : bool;
  r4_violations : string list;
  reply_mismatches : string list;
  env_violations : string list;
  duplicate_effects : int;
  engine_errors : (int * string * string) list;
  totals : Xreplication.Service.totals;
  history_length : int;
  false_suspicions : int;
  rounds_per_request : float;
  shard_reports : (int * Checker.report) list;
      (* per-shard projection verdicts of a multi-shard run ([] for one
         shard); [report] is then their conjunction (Checker.compose) *)
}

let ok r =
  r.completed && r.report.Checker.ok && r.r4_ok
  && r.reply_mismatches = []
  && r.env_violations = []
  && r.engine_errors = []
  && r.duplicate_effects = 0

let failures r =
  (if r.completed then [] else [ "workload did not complete" ])
  @ (if r.report.Checker.ok then []
     else List.map (fun v -> "R3: " ^ v) r.report.Checker.violations)
  @ List.map (fun v -> "R4: " ^ v) r.r4_violations
  @ List.map (fun v -> "reply: " ^ v) r.reply_mismatches
  @ List.map (fun v -> "env: " ^ v) r.env_violations
  @ List.map
      (fun (t, f, e) -> Printf.sprintf "fiber error @%d in %s: %s" t f e)
      r.engine_errors
  @
  if r.duplicate_effects = 0 then []
  else [ Printf.sprintf "duplicate effects: %d" r.duplicate_effects ]

(* The output each request's effect settled on: that of the first group
   for its (action, logical) pair whose output is known.  The groups are
   indexed by key once, so a lookup costs only the pair's own groups. *)
let settled_outputs (groups : Checker.group_result list) =
  let tbl = Hashtbl.create (List.length groups) in
  List.iter
    (fun (g : Checker.group_result) ->
      if g.output <> None then
        Hashtbl.add tbl
          (Checker.group_key g.expected.Checker.action
             g.expected.Checker.logical)
          g)
    (List.rev groups);
  fun (exp : Checker.expected) ->
    List.find_map
      (fun (g : Checker.group_result) ->
        if
          g.expected.Checker.action = exp.Checker.action
          && Value.equal g.expected.Checker.logical exp.Checker.logical
        then g.output
        else None)
      (Hashtbl.find_all tbl (Checker.group_key exp.action exp.logical))

(* The reply the client accepted must be the output the request's effect
   actually settled on (the surviving execution in the reduced history).
   R4 alone admits any member of PossibleReply; a protocol that replies
   before outcome-consensus can return a value from a round that was
   later aborted — still a possible reply, but of no surviving effect. *)
let reply_mismatches env (report : Checker.report) submissions =
  let settled = settled_outputs report.Checker.groups in
  List.filter_map
    (fun s ->
      match settled (Xsm.Environment.checker_expected env s.req) with
      | Some v when not (Value.equal s.reply v) ->
          Some
            (Printf.sprintf
               "client accepted %s for %s but its effect settled on %s"
               (Value.to_string s.reply) (Xsm.Request.key s.req)
               (Value.to_string v))
      | _ -> None)
    submissions

(* The one run body: a closed loop on every shard of the deployment,
   quiesced, then verified (see the interface). *)
let run_deployment ~spec ?prepare ?(aborted = fun () -> false) ?cache ~setup
    ~workload () =
  let n_sessions = max 1 spec.clients in
  let n_lanes = max 1 spec.inflight in
  let cfg = spec.service_config in
  let cfg =
    { cfg with n_clients = max n_sessions cfg.Xreplication.Service.n_clients }
  in
  let eng = Xsim.Engine.create ~seed:spec.seed ~trace_enabled:false () in
  let env = Xsm.Environment.create eng ~config:spec.env_config () in
  (match prepare with Some f -> f eng env | None -> ());
  let srv = setup env in
  let d =
    Xshard.Deployment.create ~shards:spec.shards ~router:spec.router eng env
      cfg
  in
  let n_shards = Xshard.Deployment.shards d in
  let lanes = n_shards * n_sessions * n_lanes in
  let lane_name shard c k =
    if n_shards > 1 then Printf.sprintf "workload.s%d.%d.%d" shard c k
    else if lanes = 1 then "workload"
    else Printf.sprintf "workload%d.%d" c k
  in
  let done_iv = Xsim.Ivar.create () in
  let remaining = ref lanes in
  for shard = 0 to n_shards - 1 do
    for c = 0 to n_sessions - 1 do
      let sess = Xshard.Deployment.session d ~shard ~client:c in
      for k = 0 to n_lanes - 1 do
        Xsim.Engine.spawn eng
          ~proc:(Xshard.Deployment.session_proc sess)
          ~name:(lane_name shard c k)
          (fun () ->
            workload srv d sess;
            decr remaining;
            if !remaining = 0 then Xsim.Ivar.fill done_iv ())
      done
    done
  done;
  (* Crash schedule: [idx] is the flat index shard * n_replicas + r. *)
  List.iter
    (fun (at, idx) ->
      Xsim.Engine.schedule eng ~delay:at (fun () ->
          Xshard.Deployment.kill_replica d idx))
    spec.crashes;
  (match spec.client_crash_at with
  | Some at ->
      Xsim.Engine.schedule eng ~delay:at (fun () ->
          Xshard.Deployment.kill_session d ~shard:0 ~client:0)
  | None -> ());
  (match spec.noise with
  | Some (probability, duration, until) ->
      for s = 0 to n_shards - 1 do
        match Xreplication.Service.oracle (Xshard.Deployment.group d s) with
        | Some o -> Xdetect.Oracle.enable_noise o ~probability ~duration ~until ()
        | None -> ()
      done
  | None -> ());
  (* Drive until the workload completes (or the hard limit). *)
  let work_end = ref 0 in
  Xsim.Ivar.watch done_iv (fun () ->
      work_end := Xsim.Engine.now eng;
      Xsim.Engine.request_stop eng;
      true);
  Xsim.Engine.run ~limit:spec.time_limit eng;
  (* Quiesce: give cleaners and in-flight finalizations time to settle so
     the final history is not cut mid-action. *)
  let deadline =
    min spec.time_limit (Xsim.Engine.now eng + spec.quiesce_grace)
  in
  let rec quiesce () =
    let next = min deadline (Xsim.Engine.now eng + 500) in
    if (not (aborted ())) && Xsim.Engine.now eng < next then begin
      Xsim.Engine.run ~limit:next eng;
      if Xsm.Environment.in_flight env > 0 && Xsim.Engine.now eng < deadline
      then quiesce ()
      else if (not (aborted ())) && Xsim.Engine.now eng < deadline then begin
        (* One more slice: a cleaner may be between consensus and its
           finalization actions. *)
        Xsim.Engine.run ~limit:(min deadline (Xsim.Engine.now eng + 500)) eng;
        if Xsm.Environment.in_flight env > 0 && Xsim.Engine.now eng < deadline
        then quiesce ()
      end
    end
  in
  quiesce ();
  let completed = Xsim.Ivar.is_full done_iv in
  let issued = Xshard.Deployment.issued d in
  let submissions = Xshard.Deployment.submissions d in
  let history = Xsm.Environment.history env in
  let kinds = Xsm.Environment.kind_of env in
  let expected = List.map (Xsm.Environment.checker_expected env) issued in
  let verify exp =
    (* Concurrent lanes have no sequential order to check. *)
    let check_order = lanes = 1 in
    if n_shards = 1 then
      ( Checker.check ~kinds ~logical_of:Xsm.Request.logical_of_env_iv
          ~round_of:Xsm.Request.round_of_env_iv ~engine:`Hybrid ~check_order
          ?cache ~expected:exp history,
        [] )
    else
      let c =
        Checker.compose ~kinds ~logical_of:Xsm.Request.logical_of_env_iv
          ~round_of:Xsm.Request.round_of_env_iv ~engine:`Hybrid ~check_order
          ?cache
          ~shard_of:(Xshard.Deployment.shard_of_expected d)
          ~expected:exp history
      in
      (c.Checker.combined, c.Checker.per_shard)
  in
  let report, shard_reports =
    let ((full, _) as verdict) = verify expected in
    if full.Checker.ok || completed then verdict
    else
      (* Client crashed: also accept the history without the crashed
         session's last issued request, provided that request left no
         events (at-most-once). *)
      match
        Xshard.Deployment.last_issued
          (Xshard.Deployment.session d ~shard:0 ~client:0)
      with
      | Some last_req ->
          let last = Xsm.Environment.checker_expected env last_req in
          let is_last (e : Checker.expected) =
            e.Checker.action = last.Checker.action
            && Value.equal e.Checker.logical last.Checker.logical
          in
          let ((without, _) as without_last) =
            verify (List.filter (fun e -> not (is_last e)) expected)
          in
          let last_untouched =
            List.for_all
              (fun (g : Checker.group_result) ->
                (not (is_last g.expected)) || g.events = 0)
              full.Checker.groups
          in
          if without.Checker.ok && last_untouched then without_last
          else verdict
      | None -> verdict
  in
  let r4_violations =
    List.filter_map
      (fun s ->
        let possible = Xsm.Environment.possible_replies env s.req in
        if List.exists (Value.equal s.reply) possible then None
        else
          Some
            (Printf.sprintf "reply %s to %s not in PossibleReply {%s}"
               (Value.to_string s.reply) (Xsm.Request.key s.req)
               (String.concat ", " (List.map Value.to_string possible))))
      submissions
  in
  let false_suspicions =
    let acc = ref 0 in
    for s = 0 to n_shards - 1 do
      let g = Xshard.Deployment.group d s in
      acc :=
        !acc
        +
        match
          (Xreplication.Service.oracle g, Xreplication.Service.heartbeat g)
        with
        | Some o, _ -> Xdetect.Oracle.false_suspicions o
        | None, Some hb -> Xdetect.Heartbeat.false_suspicions hb
        | None, None -> 0
    done;
    !acc
  in
  let totals = (Xshard.Deployment.totals d).Xshard.Deployment.service in
  (* Modelled substrate messages per served request, in milli-units so the
     integer gauge keeps two decimals (4000 = 4.0 msgs/request). *)
  if Xobs.enabled () then
    Xobs.Gauge.set
      (Xobs.gauge "coord.msgs_per_request")
      (totals.Xreplication.Service.coord_msgs
       * 1000
       / max 1 totals.Xreplication.Service.replies_sent);
  let result =
    {
      completed;
      end_time = Xsim.Engine.now eng;
      work_end_time = (if completed then !work_end else Xsim.Engine.now eng);
      submissions;
      report;
      r4_ok = r4_violations = [];
      r4_violations;
      reply_mismatches = reply_mismatches env report submissions;
      env_violations = Xsm.Environment.violations env;
      duplicate_effects = Xsm.Environment.duplicate_effects env;
      engine_errors =
        List.map
          (fun (t, f, e) -> (t, f, Printexc.to_string e))
          (Xsim.Engine.errors eng);
      totals;
      history_length = History.length history;
      false_suspicions;
      rounds_per_request =
        Stats.ratio totals.Xreplication.Service.rounds_owned
          (max 1 (List.length issued));
      shard_reports;
    }
  in
  (result, srv, d)

let client_lane workload srv d sess =
  workload srv
    (Xshard.Deployment.session_client sess)
    (Xshard.Deployment.submit d sess)

let run ~spec ?prepare ?aborted ?cache ~setup ~workload () =
  let result, srv, _ =
    run_deployment ~spec ?prepare ?aborted ?cache ~setup
      ~workload:(client_lane workload) ()
  in
  (result, srv)

let timed_pp ppf r =
  Format.fprintf ppf
    "completed=%b x-able=%b r4=%b dup=%d rounds/req=%.2f hist=%d end=%d"
    r.completed r.report.Checker.ok r.r4_ok r.duplicate_effects
    r.rounds_per_request r.history_length r.end_time
