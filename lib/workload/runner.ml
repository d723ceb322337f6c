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
  }

type submission = { req : Xsm.Request.t; reply : Value.t; latency : int }

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
      (* per-shard projection verdicts of a sharded run ([] otherwise);
         [report] is then their conjunction (Checker.compose) *)
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

let run ~spec ?prepare ?(aborted = fun () -> false) ?cache ~setup ~workload () =
  let n_clients = max 1 spec.clients in
  let n_lanes = max 1 spec.inflight in
  let workers = n_clients * n_lanes in
  let spec =
    if n_clients <= spec.service_config.Xreplication.Service.n_clients then
      spec
    else
      {
        spec with
        service_config =
          { spec.service_config with Xreplication.Service.n_clients };
      }
  in
  let eng = Xsim.Engine.create ~seed:spec.seed ~trace_enabled:false () in
  let env = Xsm.Environment.create eng ~config:spec.env_config () in
  (match prepare with Some f -> f eng env | None -> ());
  let srv = setup env in
  let svc = Xreplication.Service.create eng env spec.service_config in
  let client = Xreplication.Service.client svc 0 in
  let submissions_rev = ref [] in
  let issued_rev = ref [] in
  let done_iv = Xsim.Ivar.create () in
  let submit_on client req =
    issued_rev := req :: !issued_rev;
    let t0 = Xsim.Engine.now eng in
    let reply = Xreplication.Client.submit_until_success client req in
    submissions_rev :=
      { req; reply; latency = Xsim.Engine.now eng - t0 } :: !submissions_rev;
    reply
  in
  let submit = submit_on client in
  if workers = 1 then
    Xsim.Engine.spawn eng
      ~proc:(Xreplication.Client.proc client)
      ~name:"workload"
      (fun () ->
        workload srv client submit;
        Xsim.Ivar.fill done_iv ())
  else begin
    (* Closed loop: [clients] client processes, each driving [inflight]
       concurrent lanes of the workload.  The run completes when every
       lane has. *)
    let remaining = ref workers in
    for c = 0 to n_clients - 1 do
      let cl = Xreplication.Service.client svc c in
      for k = 0 to n_lanes - 1 do
        Xsim.Engine.spawn eng
          ~proc:(Xreplication.Client.proc cl)
          ~name:(Printf.sprintf "workload%d.%d" c k)
          (fun () ->
            workload srv cl (submit_on cl);
            decr remaining;
            if !remaining = 0 then Xsim.Ivar.fill done_iv ())
      done
    done
  end;
  List.iter
    (fun (at, idx) ->
      Xsim.Engine.schedule eng ~delay:at (fun () ->
          Xreplication.Service.kill_replica svc idx))
    spec.crashes;
  (match spec.client_crash_at with
  | Some at ->
      Xsim.Engine.schedule eng ~delay:at (fun () ->
          Xreplication.Service.kill_client svc 0)
  | None -> ());
  (match (spec.noise, Xreplication.Service.oracle svc) with
  | Some (probability, duration, until), Some o ->
      Xdetect.Oracle.enable_noise o ~probability ~duration ~until ()
  | _ -> ());
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
  let issued = List.rev !issued_rev in
  let submissions = List.rev !submissions_rev in
  let history = Xsm.Environment.history env in
  let kinds = Xsm.Environment.kind_of env in
  let expected = List.map (Xsm.Environment.checker_expected env) issued in
  let check exp =
    (* Concurrent lanes have no per-client sequential order to check. *)
    Checker.check ~kinds ~logical_of:Xsm.Request.logical_of_env_iv
      ~round_of:Xsm.Request.round_of_env_iv ~engine:`Hybrid
      ~check_order:(workers = 1) ?cache ~expected:exp history
  in
  let report =
    let full = check expected in
    if full.Checker.ok || completed then full
    else
      (* Client crashed: also accept the history without the last issued
         request, provided that request left no events (at-most-once). *)
      match List.rev expected with
      | last :: rest_rev ->
          let without_last = check (List.rev rest_rev) in
          let last_untouched =
            List.for_all
              (fun (g : Checker.group_result) ->
                not
                  (g.expected.Checker.action = last.Checker.action
                  && Value.equal g.expected.Checker.logical
                       last.Checker.logical)
                || g.events = 0)
              full.Checker.groups
          in
          if without_last.Checker.ok && last_untouched then without_last
          else full
      | [] -> full
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
    match
      (Xreplication.Service.oracle svc, Xreplication.Service.heartbeat svc)
    with
    | Some o, _ -> Xdetect.Oracle.false_suspicions o
    | None, Some hb -> Xdetect.Heartbeat.false_suspicions hb
    | None, None -> 0
  in
  let totals = Xreplication.Service.totals svc in
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
      shard_reports = [];
    }
  in
  (result, srv)

(* ------------------------------------------------------------------ *)
(* Sharded runs.  Same closed-loop discipline as [run], but the load is
   per shard — [spec.clients] sessions x [spec.inflight] lanes on every
   shard — and verification applies the paper's section-4 composition
   theorem: the global history is projected per shard by the same pure
   key function the router used online, each projection checked
   independently, verdicts conjoined (Checker.compose). *)

let run_sharded ~spec ?prepare ?(aborted = fun () -> false) ?cache ~setup
    ~workload () =
  let n_sessions = max 1 spec.clients in
  let n_lanes = max 1 spec.inflight in
  let spec =
    if n_sessions <= spec.service_config.Xreplication.Service.n_clients then
      spec
    else
      {
        spec with
        service_config =
          {
            spec.service_config with
            Xreplication.Service.n_clients = n_sessions;
          };
      }
  in
  let n_shards = max 1 spec.service_config.Xreplication.Service.shards in
  let eng = Xsim.Engine.create ~seed:spec.seed ~trace_enabled:false () in
  let env = Xsm.Environment.create eng ~config:spec.env_config () in
  (match prepare with Some f -> f eng env | None -> ());
  let srv = setup env in
  let d = Xshard.Deployment.create eng env spec.service_config in
  let done_iv = Xsim.Ivar.create () in
  let sessions =
    Array.init n_shards (fun shard ->
        Array.init n_sessions (fun client ->
            Xshard.Deployment.session d ~shard ~client))
  in
  let remaining = ref (n_shards * n_sessions * n_lanes) in
  Array.iteri
    (fun shard row ->
      Array.iteri
        (fun c sess ->
          for k = 0 to n_lanes - 1 do
            Xsim.Engine.spawn eng
              ~proc:(Xshard.Deployment.session_proc sess)
              ~name:(Printf.sprintf "workload.s%d.%d.%d" shard c k)
              (fun () ->
                workload srv d sess;
                decr remaining;
                if !remaining = 0 then Xsim.Ivar.fill done_iv ())
          done)
        row)
    sessions;
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
  let work_end = ref 0 in
  Xsim.Ivar.watch done_iv (fun () ->
      work_end := Xsim.Engine.now eng;
      Xsim.Engine.request_stop eng;
      true);
  Xsim.Engine.run ~limit:spec.time_limit eng;
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
        Xsim.Engine.run ~limit:(min deadline (Xsim.Engine.now eng + 500)) eng;
        if Xsm.Environment.in_flight env > 0 && Xsim.Engine.now eng < deadline
        then quiesce ()
      end
    end
  in
  quiesce ();
  let completed = Xsim.Ivar.is_full done_iv in
  let issued = Xshard.Deployment.issued d in
  let submissions =
    List.map
      (fun (s : Xshard.Deployment.submission) ->
        {
          req = s.Xshard.Deployment.req;
          reply = s.Xshard.Deployment.reply;
          latency = s.Xshard.Deployment.latency;
        })
      (Xshard.Deployment.submissions d)
  in
  let history = Xsm.Environment.history env in
  let kinds = Xsm.Environment.kind_of env in
  let expected = List.map (Xsm.Environment.checker_expected env) issued in
  let compose exp =
    (* Concurrent per-shard sessions induce no global request order. *)
    Checker.compose ~kinds ~logical_of:Xsm.Request.logical_of_env_iv
      ~round_of:Xsm.Request.round_of_env_iv ~engine:`Hybrid ~check_order:false
      ?cache
      ~shard_of:(Xshard.Deployment.shard_of_expected d)
      ~expected:exp history
  in
  let composed =
    let full = compose expected in
    if full.Checker.combined.Checker.ok || completed then full
    else
      (* The crashed session's last issued request may legitimately have
         no trace (at-most-once): accept the history without it. *)
      match
        List.rev (Xshard.Deployment.session_issued sessions.(0).(0))
      with
      | last_req :: _ ->
          let last = Xsm.Environment.checker_expected env last_req in
          let without_last =
            compose
              (List.filter
                 (fun (e : Checker.expected) ->
                   not
                     (e.Checker.action = last.Checker.action
                     && Value.equal e.Checker.logical last.Checker.logical))
                 expected)
          in
          let last_untouched =
            List.for_all
              (fun (g : Checker.group_result) ->
                not
                  (g.expected.Checker.action = last.Checker.action
                  && Value.equal g.expected.Checker.logical
                       last.Checker.logical)
                || g.events = 0)
              full.Checker.combined.Checker.groups
          in
          if without_last.Checker.combined.Checker.ok && last_untouched then
            without_last
          else full
      | [] -> full
  in
  let report = composed.Checker.combined in
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
    let per_group s =
      let g = Xshard.Deployment.group d s in
      match
        (Xreplication.Service.oracle g, Xreplication.Service.heartbeat g)
      with
      | Some o, _ -> Xdetect.Oracle.false_suspicions o
      | None, Some hb -> Xdetect.Heartbeat.false_suspicions hb
      | None, None -> 0
    in
    let acc = ref 0 in
    for s = 0 to n_shards - 1 do
      acc := !acc + per_group s
    done;
    !acc
  in
  let totals = (Xshard.Deployment.totals d).Xshard.Deployment.service in
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
      shard_reports = composed.Checker.per_shard;
    }
  in
  (result, srv, d)

let timed_pp ppf r =
  Format.fprintf ppf
    "completed=%b x-able=%b r4=%b dup=%d rounds/req=%.2f hist=%d end=%d"
    r.completed r.report.Checker.ok r.r4_ok r.duplicate_effects
    r.rounds_per_request r.history_length r.end_time
