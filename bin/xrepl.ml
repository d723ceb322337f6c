(* xrepl: command-line driver for the x-ability replication simulator.

   Subcommands:
     run     — run one scenario and print the verdict (R1-R4 checks)
     sweep   — sweep false-suspicion rates and print the behaviour spectrum
     trace   — run a small scenario and dump the environment history
     explore — search the schedule space for x-ability violations
     replay  — re-run a schedule printed by explore, byte-identically
     stats   — run with observability on; print the metric tables

   Examples:
     xrepl run --requests 6 --mix mixed --crash 150:0 --noise 0.08:150:6000
     xrepl run --backend paxos --detector heartbeat --seed 9
     xrepl sweep --points 6 --seeds 5
     xrepl trace --mix undoable --crash 200:0
     xrepl trace --json --requests 2
     xrepl run --loss 0.2 --dup 0.1 --partition 400:1200:0
     xrepl explore --strategy walk --trials 500 --noise 0.25:150:10000
     xrepl explore --strategy net --loss 0.2 --dup 0.1 --seeds 20
     xrepl explore --mutation skip-undo --expect-violation
     xrepl replay --schedule 'v1 seed=43 win=4 mut=skip-undo ...' *)

open Cmdliner
module Runner = Xworkload.Runner
module Workloads = Xworkload.Workloads
module Service = Xreplication.Service

(* ------------------------------------------------------------------ *)
(* Shared argument parsing *)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let replicas_arg =
  Arg.(
    value & opt int 3
    & info [ "replicas"; "n" ] ~docv:"N" ~doc:"Number of replicas.")

let requests_arg =
  Arg.(
    value & opt int 6
    & info [ "requests"; "r" ] ~docv:"N" ~doc:"Number of client requests.")

let mix_conv =
  let parse = function
    | "idempotent" | "idem" -> Ok Workloads.Idempotent_only
    | "undoable" | "undo" -> Ok Workloads.Undoable_only
    | "mixed" -> Ok Workloads.Mixed
    | s -> Error (`Msg (Printf.sprintf "unknown mix %S" s))
  in
  let print ppf = function
    | Workloads.Idempotent_only -> Format.fprintf ppf "idempotent"
    | Workloads.Undoable_only -> Format.fprintf ppf "undoable"
    | Workloads.Mixed -> Format.fprintf ppf "mixed"
  in
  Arg.conv (parse, print)

let mix_arg =
  Arg.(
    value
    & opt mix_conv Workloads.Mixed
    & info [ "mix" ] ~docv:"MIX"
        ~doc:"Workload mix: $(b,idempotent), $(b,undoable), or $(b,mixed).")

let crash_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ t; i ] -> (
        match (int_of_string_opt t, int_of_string_opt i) with
        | Some t, Some i -> Ok (t, i)
        | _ -> Error (`Msg "expected TIME:REPLICA"))
    | _ -> Error (`Msg "expected TIME:REPLICA")
  in
  let print ppf (t, i) = Format.fprintf ppf "%d:%d" t i in
  Arg.conv (parse, print)

let crashes_arg =
  Arg.(
    value & opt_all crash_conv []
    & info [ "crash" ] ~docv:"TIME:REPLICA"
        ~doc:"Crash a replica at a virtual time (repeatable).")

let noise_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ p; d; u ] -> (
        match (float_of_string_opt p, int_of_string_opt d, int_of_string_opt u)
        with
        | Some p, Some d, Some u -> Ok (p, d, u)
        | _ -> Error (`Msg "expected PROB:DURATION:UNTIL"))
    | _ -> Error (`Msg "expected PROB:DURATION:UNTIL")
  in
  let print ppf (p, d, u) = Format.fprintf ppf "%g:%d:%d" p d u in
  Arg.conv (parse, print)

let noise_arg =
  Arg.(
    value
    & opt (some noise_conv) None
    & info [ "noise" ] ~docv:"PROB:DURATION:UNTIL"
        ~doc:"Inject false suspicions with the given per-poll probability.")

let fail_prob_arg =
  Arg.(
    value & opt float 0.0
    & info [ "fail-prob" ] ~docv:"P"
        ~doc:"Probability that an environment action execution fails.")

(* Network fault plane: sampled faults on the service transport.  Any
   non-zero setting also switches the service onto the reliable (ARQ)
   channel, so the exactly-once interface survives the lossy wire. *)
let loss_arg =
  Arg.(
    value & opt float 0.0
    & info [ "loss" ] ~docv:"P"
        ~doc:"Per-message drop probability on every service link.")

let dup_arg =
  Arg.(
    value & opt float 0.0
    & info [ "dup" ] ~docv:"P" ~doc:"Per-message duplication probability.")

let jitter_arg =
  Arg.(
    value & opt int 0
    & info [ "jitter" ] ~docv:"N"
        ~doc:"Extra reorder delay, uniform in [0, N] ticks per message.")

let partition_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ st; h; g ] -> (
        match (int_of_string_opt st, int_of_string_opt h) with
        | Some st, Some h ->
            let toks = String.split_on_char '.' g in
            let idxs = List.filter_map int_of_string_opt toks in
            if g <> "" && List.length idxs = List.length toks then
              Ok (st, h, idxs)
            else Error (`Msg "expected START:HEAL:IDX[.IDX...]")
        | _ -> Error (`Msg "expected START:HEAL:IDX[.IDX...]"))
    | _ -> Error (`Msg "expected START:HEAL:IDX[.IDX...]")
  in
  let print ppf (st, h, idxs) =
    Format.fprintf ppf "%d:%d:%s" st h
      (String.concat "." (List.map string_of_int idxs))
  in
  Arg.conv (parse, print)

let partitions_arg =
  Arg.(
    value & opt_all partition_conv []
    & info [ "partition" ] ~docv:"START:HEAL:IDX[.IDX...]"
        ~doc:
          "Sever the listed replicas from everyone else during \
           [START, HEAL) virtual time (repeatable).")

let fault_plan_of loss dup jitter partitions =
  {
    Xexplore.Schedule.loss;
    dup_prob = dup;
    jitter;
    partitions;
    forced = [];
  }

let substrate_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("register", `Register); ("paxos", `Paxos); ("seqlog", `Seqlog) ])
        `Register
    & info [ "substrate"; "backend" ] ~docv:"S"
        ~doc:
          "Consensus substrate: $(b,register) (remote atomic cell), \
           $(b,paxos) (per-instance synod) or $(b,seqlog) (VR/Zab-style \
           sequenced log).")

let lease_arg =
  Arg.(
    value & flag
    & info [ "lease" ]
        ~doc:
          "Arm the leased-owner fast path: the lease holder decides \
           owner-agreement instances unilaterally (epoch-fenced), skipping \
           one agreement per request while the lease is held.")

let detector_arg =
  Arg.(
    value
    & opt (enum [ ("oracle", `Oracle); ("heartbeat", `Heartbeat) ]) `Oracle
    & info [ "detector" ] ~docv:"D"
        ~doc:"Failure detector: $(b,oracle) or $(b,heartbeat).")

let client_crash_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "client-crash" ] ~docv:"TIME"
        ~doc:"Crash the client at a virtual time (at-most-once semantics).")

(* Batching / pipelining / load knobs (the amortized hot path). *)
let batch_arg =
  Arg.(
    value & opt int 1
    & info [ "batch" ] ~docv:"N"
        ~doc:
          "Coalesce up to N concurrently-pending requests into one batch \
           (one consensus sequence per batch).  1 (default) keeps the \
           per-request protocol.")

let pipeline_arg =
  Arg.(
    value & opt int 1
    & info [ "pipeline" ] ~docv:"N"
        ~doc:"Batches in flight at once per replica (with $(b,--batch)).")

let clients_arg =
  Arg.(
    value & opt int 1
    & info [ "clients" ] ~docv:"N"
        ~doc:"Closed-loop client processes driving the workload.")

let inflight_arg =
  Arg.(
    value & opt int 1
    & info [ "inflight" ] ~docv:"K"
        ~doc:"Concurrent outstanding requests per client.")

let shards_arg =
  Arg.(
    value & opt int 1
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Independent replica groups over a shared wire, keys partitioned \
           by hash with a router/directory tier in front ($(b,lib/shard)). \
           1 (default) keeps the single-group deployment; with N > 1 the \
           workload becomes the cross-shard mix and the R3 verdict is the \
           section-4 composition of per-shard checks.")

let batching_of ~batch ~pipeline =
  if batch > 1 || pipeline > 1 then
    Some
      {
        Xreplication.Batcher.default_config with
        size = max 1 batch;
        depth = max 1 pipeline;
      }
  else None

let make_spec ?(faults = Xexplore.Schedule.no_faults) ?(batch = 1)
    ?(pipeline = 1) ?(clients = 1) ?(inflight = 1) ?(shards = 1)
    ?(lease = false) seed
    n_replicas crashes noise fail_prob substrate detector client_crash =
  let net_faults = Xexplore.Explorer.net_faults_of_plan faults in
  let channel =
    if Xexplore.Schedule.faults_are_none faults then Service.Assumed_reliable
    else Service.Arq Xnet.Reliable.default_arq
  in
  let service_config =
    {
      Service.default_config with
      n_replicas;
      faults = net_faults;
      channel;
      substrate =
        (match substrate with
        | `Register -> `Register 25
        | `Paxos -> `Paxos (Xnet.Latency.Uniform (10, 40))
        | `Seqlog -> `Seqlog (Xnet.Latency.Uniform (10, 40)));
      lease =
        (if lease then Some Xreplication.Lease.default_config else None);
      detector =
        (match detector with
        | `Oracle -> Service.default_config.Service.detector
        | `Heartbeat ->
            Service.Heartbeat
              {
                latency = Xnet.Latency.Constant 10;
                period = 40;
                initial_timeout = 160;
                timeout_increment = 120;
              });
      replica =
        {
          Service.default_config.Service.replica with
          batching = batching_of ~batch ~pipeline;
        };
    }
  in
  {
    Runner.default_spec with
    seed;
    crashes;
    noise;
    client_crash_at = client_crash;
    env_config = { Xsm.Environment.default_config with fail_prob };
    service_config;
    time_limit = 5_000_000;
    quiesce_grace = 20_000;
    clients;
    inflight;
    shards;
  }

let print_result (r : Runner.result) =
  Format.printf "workload completed : %b@." r.Runner.completed;
  Format.printf "R3 x-able          : %b@." r.Runner.report.Xability.Checker.ok;
  Format.printf "R4 possible replies: %b@." r.Runner.r4_ok;
  Format.printf "duplicate effects  : %d@." r.Runner.duplicate_effects;
  Format.printf "env violations     : %d@."
    (List.length r.Runner.env_violations);
  Format.printf "history events     : %d@." r.Runner.history_length;
  Format.printf "rounds per request : %.2f@." r.Runner.rounds_per_request;
  Format.printf "false suspicions   : %d@." r.Runner.false_suspicions;
  Format.printf "end time           : %d ticks@." r.Runner.end_time;
  let lat =
    List.map
      (fun s -> float_of_int s.Runner.latency)
      r.Runner.submissions
  in
  if lat <> [] then
    Format.printf "latency mean/p95   : %.0f / %.0f ticks@."
      (Xworkload.Stats.mean lat)
      (Xworkload.Stats.percentile 0.95 lat);
  List.iter (Format.printf "!! %s@.") (Runner.failures r);
  if Runner.ok r then begin
    Format.printf "verdict            : OK (exactly-once illusion holds)@.";
    0
  end
  else if
    (not r.Runner.completed)
    && r.Runner.report.Xability.Checker.ok && r.Runner.r4_ok
    && r.Runner.env_violations = []
    && r.Runner.engine_errors = []
    && r.Runner.duplicate_effects = 0
  then begin
    Format.printf
      "verdict            : OK (client crashed; at-most-once holds)@.";
    0
  end
  else begin
    Format.printf "verdict            : FAILED@.";
    1
  end

(* ------------------------------------------------------------------ *)
(* run *)

let run_cmd =
  let doc = "Run one replication scenario and verify R1-R4." in
  let run seed n crashes noise fail_prob substrate detector requests mix
      client_crash loss dup jitter partitions batch pipeline clients inflight
      shards lease =
    let faults = fault_plan_of loss dup jitter partitions in
    let spec =
      make_spec ~faults ~batch ~pipeline ~clients ~inflight ~shards
        ~lease seed n crashes noise fail_prob substrate detector client_crash
    in
    (* More than one shard runs a per-shard closed loop over the
       cross-shard mix, its verdict composed from per-shard projections
       (section 4). *)
    let r, _, d =
      Runner.run_deployment ~spec ~setup:Workloads.setup_all
        ~workload:
          (if shards > 1 then fun _ dep sess ->
             Workloads.sharded_mix ~n:requests ~cross_every:3 dep sess
           else
             Runner.client_lane (fun _ c s ->
                 Workloads.sequence mix ~n:requests c s))
        ()
    in
    if shards > 1 then begin
      let totals = Xshard.Deployment.totals d in
      Format.printf "shards             : %d@." shards;
      List.iter
        (fun (s, rep) ->
          Format.printf "shard %-2d x-able    : %b@." s
            rep.Xability.Checker.ok)
        r.Runner.shard_reports;
      Format.printf
        "submits local/routed/cross: %d / %d / %d (router lookups %d)@."
        totals.Xshard.Deployment.local_submits
        totals.Xshard.Deployment.routed_submits
        totals.Xshard.Deployment.cross_requests
        totals.Xshard.Deployment.router.Xshard.Router.lookups
    end;
    print_result r
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ seed_arg $ replicas_arg $ crashes_arg $ noise_arg
      $ fail_prob_arg $ substrate_arg $ detector_arg $ requests_arg $ mix_arg
      $ client_crash_arg $ loss_arg $ dup_arg $ jitter_arg $ partitions_arg
      $ batch_arg $ pipeline_arg $ clients_arg $ inflight_arg $ shards_arg
      $ lease_arg)

(* ------------------------------------------------------------------ *)
(* sweep *)

let sweep_cmd =
  let doc =
    "Sweep false-suspicion rates: the behaviour spectrum from \
     primary-backup-like to active-replication-like."
  in
  let points_arg =
    Arg.(value & opt int 6 & info [ "points" ] ~docv:"N" ~doc:"Sweep points.")
  in
  let seeds_arg =
    Arg.(
      value & opt int 5 & info [ "seeds" ] ~docv:"N" ~doc:"Seeds per point.")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains for the sweep (default: the $(b,JOBS) environment \
             variable, else the recommended domain count).  Results are \
             collected in seed order, so the table is identical whatever the \
             pool size.")
  in
  let sweep points seeds jobs =
    Xpar.Pool.with_pool ?domains:jobs (fun pool ->
        Format.printf "%-12s %-10s %-14s %-12s %-8s@." "noise-prob"
          "rounds/req" "execs/req" "cleanups/req" "x-able";
        for p = 0 to points - 1 do
          let prob = 0.04 *. float_of_int p in
          let results =
            Xpar.Pool.map pool
              (fun seed ->
                let spec =
                  {
                    Runner.default_spec with
                    seed = (p * 1000) + seed;
                    noise =
                      (if prob > 0.0 then Some (prob, 150, 8_000) else None);
                    time_limit = 5_000_000;
                  }
                in
                let r, _ =
                  Runner.run ~spec ~setup:Workloads.setup_all
                    ~workload:(fun _ c s -> Workloads.sequence Mixed ~n:6 c s)
                    ()
                in
                ( Runner.ok r,
                  r.Runner.rounds_per_request,
                  Xworkload.Stats.ratio r.Runner.totals.Service.executions 6,
                  Xworkload.Stats.ratio r.Runner.totals.Service.cleanups 6 ))
              (List.init seeds (fun i -> i + 1))
          in
          let all_ok = List.for_all (fun (ok, _, _, _) -> ok) results in
          let rounds = List.map (fun (_, r, _, _) -> r) results in
          let execs = List.map (fun (_, _, e, _) -> e) results in
          let cleans = List.map (fun (_, _, _, c) -> c) results in
          Format.printf "%-12.2f %-10.2f %-14.2f %-12.2f %-8b@." prob
            (Xworkload.Stats.mean rounds)
            (Xworkload.Stats.mean execs)
            (Xworkload.Stats.mean cleans)
            all_ok
        done;
        0)
  in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(const sweep $ points_arg $ seeds_arg $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* trace *)

let trace_cmd =
  let doc = "Run a small scenario and dump the environment event history." in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the full engine trace as JSON Lines on stdout (one object \
             per entry) instead of the human-readable history.")
  in
  let trace seed n crashes noise fail_prob backend detector requests mix
      client_crash json =
    let spec =
      make_spec seed n crashes noise fail_prob backend detector client_crash
    in
    let env_ref = ref None in
    let eng_ref = ref None in
    let prepare eng _env =
      eng_ref := Some eng;
      if json then Xsim.Trace.set_enabled (Xsim.Engine.trace eng) true
    in
    let r, _ =
      Runner.run ~spec ~prepare
        ~setup:(fun env ->
          env_ref := Some env;
          Workloads.setup_all env)
        ~workload:(fun _ c s -> Workloads.sequence mix ~n:requests c s)
        ()
    in
    if json then begin
      (match !eng_ref with
      | Some eng -> Format.printf "%a" Xsim.Trace.pp_jsonl (Xsim.Engine.trace eng)
      | None -> ());
      if Runner.ok r then 0 else 1
    end
    else begin
      Format.printf "=== environment history (%d events) ===@."
        r.Runner.history_length;
      (match !env_ref with
      | Some env ->
          List.iter
            (fun e -> Format.printf "  %a@." Xability.Event.pp_compact e)
            (Xsm.Environment.history env)
      | None -> ());
      print_result r
    end
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const trace $ seed_arg $ replicas_arg $ crashes_arg $ noise_arg
      $ fail_prob_arg $ substrate_arg $ detector_arg $ requests_arg $ mix_arg
      $ client_crash_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* explore / replay *)

module Explorer = Xexplore.Explorer
module Schedule = Xexplore.Schedule
module Strategy = Xexplore.Strategy
module Mutation = Xreplication.Mutation

let scenario_arg =
  Arg.(
    value
    & opt (enum [ ("booking", `Booking); ("mixed", `Mixed) ]) `Booking
    & info [ "scenario" ] ~docv:"S"
        ~doc:"Explorer workload: $(b,booking) or $(b,mixed).")

let mutation_conv =
  let parse s =
    match Mutation.of_string s with
    | Some m -> Ok m
    | None ->
        Error
          (`Msg
            (Printf.sprintf
               "unknown mutation %S (faithful, skip-undo, dup-exec, \
                early-reply)"
               s))
  in
  Arg.conv (parse, Mutation.pp)

let mutation_arg =
  Arg.(
    value
    & opt mutation_conv Mutation.Faithful
    & info [ "mutation" ] ~docv:"M"
        ~doc:
          "Protocol variant under test: $(b,faithful) (default), \
           $(b,skip-undo), $(b,dup-exec), or $(b,early-reply).")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains (default: the $(b,JOBS) environment variable). \
           Results are byte-identical whatever the pool size.")

let make_scenario ?(faults = Schedule.no_faults) scenario requests seed noise =
  let scen =
    match scenario with
    | `Booking -> Explorer.booking ~requests ~faults ()
    | `Mixed -> Explorer.mixed ~requests ~faults ()
  in
  { scen with Explorer.spec = { scen.Explorer.spec with Runner.seed; noise } }

let explore_cmd =
  let doc = "Search the schedule space for x-ability violations." in
  let strategy_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("walk", `Walk);
               ("dfs", `Dfs);
               ("faults", `Faults);
               ("net", `Net);
               ("batch", `Batch);
               ("xshard", `Xshard);
               ("lease", `Lease);
               ("lease-edge", `Lease);
               ("all", `All);
             ])
          `All
      & info [ "strategy" ] ~docv:"S"
          ~doc:
            "$(b,walk) (replayable random walk), $(b,dfs) (delay-bounded \
             systematic), $(b,faults) (crash-time enumeration), $(b,net) \
             (network fault-plane sweep over the ARQ channel), $(b,batch) \
             (batch-boundary adversity with batching/pipelining on), \
             $(b,xshard) (sharded-deployment adversity: owner crashes \
             mid-cross-shard request and router partitions, verdicts \
             composed per section 4), $(b,lease) (lease-boundary \
             adversity: owner crashes, suspicion bursts and holder \
             partitions at lease grant/renewal/expiry instants, swept \
             across all consensus substrates), or $(b,all).")
  in
  let seeds_arg =
    Arg.(
      value & opt int 10
      & info [ "seeds" ] ~docv:"N"
          ~doc:"Engine seeds per network fault point ($(b,net) strategy).")
  in
  let trials_arg =
    Arg.(
      value & opt int 200
      & info [ "trials" ] ~docv:"N" ~doc:"Random-walk trials.")
  in
  let budget_arg =
    Arg.(
      value & opt int 200
      & info [ "budget" ] ~docv:"N" ~doc:"Delay-DFS schedule budget.")
  in
  let window_arg =
    Arg.(
      value & opt int 4
      & info [ "window" ] ~docv:"N" ~doc:"Scheduling ready-window width.")
  in
  let expect_arg =
    Arg.(
      value & flag
      & info [ "expect-violation" ]
          ~doc:
            "Exit 0 iff a violation was found (mutation self-test mode); \
             default is the opposite.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Append verdicts and counterexamples as JSON Lines to FILE.")
  in
  let explore scenario requests seed noise mutation strategy trials budget
      window jobs expect out loss dup jitter partitions seeds batch pipeline
      shards =
    (* Under walk/dfs/faults, any --loss/--dup/--partition plan is stamped
       on every schedule; the net strategy sweeps its own plans instead. *)
    let base_faults = fault_plan_of loss dup jitter partitions in
    let scen = make_scenario ~faults:base_faults scenario requests seed noise in
    let strategies =
      let walk = Strategy.random_walk ~trials ~window () in
      let dfs = Strategy.delay_dfs ~budget ~window () in
      let faults =
        Strategy.fault_enum ?noise
          ~times:(List.init 12 (fun i -> 50 + (100 * i)))
          ~replicas:(List.init 3 (fun i -> i))
          ()
      in
      let net =
        let loss_levels =
          if loss > 0.0 then [ loss ] else [ 0.05; 0.1; 0.2 ]
        in
        let partition_windows =
          List.map (fun (s, h, _) -> (s, h)) partitions
        in
        let groups =
          match List.map (fun (_, _, g) -> g) partitions with
          | [] -> [ [ 0 ] ]
          | gs -> List.sort_uniq compare gs
        in
        Strategy.net_fault ~dup ~jitter ~partition_windows ~groups ~seeds
          ~loss_levels ()
      in
      let batch_boundary =
        (* --batch/--pipeline default to 1 (batching off) elsewhere; for
           the boundary sweep that would test nothing, so fall back to
           the strategy's own defaults (16/4) unless overridden. *)
        Strategy.batch_boundary
          ~batch:(if batch > 1 then batch else 16)
          ~pipeline:(if pipeline > 1 then pipeline else 4)
          ~seeds ()
      in
      let cross_shard =
        (* --shards defaults to 1 (sharding off) elsewhere; a 1-shard
           adversity sweep would test nothing, so fall back to the
           strategy's own default (4) unless overridden. *)
        Strategy.cross_shard
          ~shards:(if shards > 1 then shards else 4)
          ~seeds ()
      in
      let lease_edge =
        (* Cap the per-substrate seed count so --seeds (shared with the
           net sweep, default 10) doesn't balloon the 27-plan × 3-substrate
           grid; 7 seeds is the strategy's own ≥500-schedule default. *)
        Strategy.lease_edge ~seeds:(min seeds 7) ()
      in
      match strategy with
      | `Walk -> [ walk ]
      | `Dfs -> [ dfs ]
      | `Faults -> [ faults ]
      | `Net -> [ net ]
      | `Batch -> [ batch_boundary ]
      | `Xshard -> [ cross_shard ]
      | `Lease -> [ lease_edge ]
      | `All -> [ walk; dfs; faults; net ]
    in
    let emit =
      match out with
      | None -> fun _ -> ()
      | Some file ->
          let oc = open_out_gen [ Open_append; Open_creat ] 0o644 file in
          at_exit (fun () -> close_out_noerr oc);
          fun line -> output_string oc (line ^ "\n")
    in
    let found = ref None in
    List.iter
      (fun strategy ->
        if !found = None then begin
          let v =
            Explorer.explore ?jobs ~stop_on_first:true ~mutation scen strategy
          in
          Format.printf "%a@." Explorer.pp_verdict v;
          emit (Explorer.verdict_to_json v);
          match v.Explorer.violating with
          | o :: _ -> found := Some (v, o)
          | [] -> ()
        end)
      strategies;
    match !found with
    | None ->
        Format.printf "no violating schedule found@.";
        if expect then 1 else 0
    | Some (v, o) ->
        let shrunk, runs = Explorer.shrink scen o in
        let cx =
          {
            Explorer.cx_scenario = scen.Explorer.name;
            cx_strategy = v.Explorer.v_strategy;
            cx_explored = v.Explorer.explored;
            cx_original = o.Explorer.schedule;
            cx_original_violations = o.Explorer.violations;
            cx_shrunk = shrunk.Explorer.schedule;
            cx_violations = shrunk.Explorer.violations;
            cx_shrink_runs = runs;
            cx_steps = shrunk.Explorer.steps;
            cx_events = shrunk.Explorer.events;
          }
        in
        Format.printf "violating schedule (original):@.  %a@." Schedule.pp
          o.Explorer.schedule;
        Format.printf "shrunk (%d replays):@.  %a@." runs Schedule.pp
          shrunk.Explorer.schedule;
        List.iter
          (Format.printf "  violation: %s@.")
          shrunk.Explorer.violations;
        emit (Explorer.counterexample_to_json cx);
        if expect then 0 else 1
  in
  Cmd.v (Cmd.info "explore" ~doc)
    Term.(
      const explore $ scenario_arg $ requests_arg $ seed_arg $ noise_arg
      $ mutation_arg $ strategy_arg $ trials_arg $ budget_arg $ window_arg
      $ jobs_arg $ expect_arg $ out_arg $ loss_arg $ dup_arg $ jitter_arg
      $ partitions_arg $ seeds_arg $ batch_arg $ pipeline_arg $ shards_arg)

let replay_cmd =
  let doc = "Replay a schedule printed by $(b,xrepl explore)." in
  let schedule_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "schedule" ] ~docv:"LINE"
          ~doc:"The schedule line (as printed by explore).")
  in
  let file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "file" ] ~docv:"FILE"
          ~doc:"Read the schedule line from FILE (first line).")
  in
  let dump_trace_arg =
    Arg.(
      value & flag
      & info [ "dump-trace" ]
          ~doc:"Also dump the engine trace of the replay as JSON Lines.")
  in
  let replay scenario requests noise schedule file dump_trace =
    let line =
      match (schedule, file) with
      | Some s, _ -> Ok s
      | None, Some f -> (
          match In_channel.with_open_text f In_channel.input_line with
          | Some l -> Ok l
          | None -> Error (f ^ " is empty")
          | exception Sys_error e -> Error e)
      | None, None -> Error "no schedule (pass --schedule or --file)"
    in
    (* The schedule overrides seed/faults; the base scenario supplies the
       workload and must match the exploring invocation. *)
    let checked =
      let ( let* ) = Result.bind in
      let* line = line in
      let* sch = Schedule.parse line in
      let scen = make_scenario scenario requests sch.Schedule.seed noise in
      let* () = Explorer.check scen sch in
      Ok (scen, sch)
    in
    match checked with
    | Error why ->
        Format.eprintf "cannot replay schedule: %s@." why;
        2
    | Ok (scen, sch) ->
        let o, r, trace =
          Explorer.replay ~with_trace:dump_trace scen sch
        in
        Format.printf "schedule: %a@." Schedule.pp sch;
        Format.printf
          "choice points=%d events=%d end=%d online-abort=%b@."
          o.Explorer.steps o.Explorer.events o.Explorer.end_time
          o.Explorer.online_abort;
        if dump_trace then Format.printf "%a" Xsim.Trace.pp_jsonl trace;
        if Explorer.violating o then begin
          List.iter
            (Format.printf "violation: %s@.")
            o.Explorer.violations;
          Format.printf "verdict: VIOLATING@.";
          1
        end
        else begin
          ignore r;
          Format.printf "verdict: clean@.";
          0
        end
  in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(
      const replay $ scenario_arg $ requests_arg $ noise_arg $ schedule_arg
      $ file_arg $ dump_trace_arg)

(* ------------------------------------------------------------------ *)
(* stats *)

(* Human metric table: metrics grouped by subsystem prefix, with
   p50/p95/p99 recovered from histogram buckets via Stats.percentile
   (nearest-rank over bucket lower bounds). *)
let print_obs_table snap =
  let module S = Xobs.Snapshot in
  let pct p m = Xworkload.Stats.percentile_sorted p (S.representatives m) in
  let prefix name =
    match String.index_opt name '.' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  let last = ref "" in
  List.iter
    (fun (name, m) ->
      let p = prefix name in
      if p <> !last then begin
        Format.printf "@.== %s ==@." p;
        last := p
      end;
      match m with
      | S.Counter v -> Format.printf "  %-34s counter    %d@." name v
      | S.Gauge g ->
          Format.printf "  %-34s gauge      last=%d max=%d@." name g.last g.max
      | S.Histogram h ->
          Format.printf
            "  %-34s histogram  n=%d mean=%.1f p50=%.0f p95=%.0f p99=%.0f \
             max=%d@."
            name h.n
            (Xworkload.Stats.ratio h.sum h.n)
            (pct 0.50 m) (pct 0.95 m) (pct 0.99 m) h.max
      | S.Span s ->
          Format.printf
            "  %-34s span       n=%d total=%d p50=%.0f p95=%.0f p99=%.0f \
             max=%d@."
            name s.n s.total (pct 0.50 m) (pct 0.95 m) (pct 0.99 m) s.max)
    snap

let stats_cmd =
  let doc =
    "Run a scenario with observability on and print counters, histograms, \
     and spans from every instrumented subsystem (engine, consensus, coord, \
     replica, reduction, explorer)."
  in
  let explore_trials_arg =
    Arg.(
      value & opt int 48
      & info [ "explore-trials" ] ~docv:"N"
          ~doc:
            "Random-walk schedules for the explorer leg of the report (0 \
             skips it).")
  in
  let obs_json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "obs-json" ] ~docv:"FILE"
          ~doc:
            "Append the per-run snapshots as JSON Lines to FILE ($(b,-) for \
             stdout): line 1 the scenario run, line 2 the merged explore \
             sweep.")
  in
  let stats seed n crashes noise fail_prob substrate detector requests mix
      client_crash trials obs_json loss dup jitter partitions batch pipeline
      clients inflight lease =
    Xobs.set_enabled true;
    Xobs.reset ();
    let faults = fault_plan_of loss dup jitter partitions in
    let spec =
      make_spec ~faults ~batch ~pipeline ~clients ~inflight ~lease seed
        n crashes noise fail_prob substrate detector client_crash
    in
    let r, _ =
      Runner.run ~spec ~setup:Workloads.setup_all
        ~workload:(fun _ c s -> Workloads.sequence mix ~n:requests c s)
        ()
    in
    let run_snap = Xobs.snapshot () in
    (* A small schedule-space sweep so the explorer's own metrics are
       populated too; per-run snapshots are merged in schedule order. *)
    let explore_snap =
      if trials <= 0 then Xobs.Snapshot.empty
      else
        let scen = make_scenario ~faults `Booking requests seed noise in
        let v =
          Explorer.explore ~mutation:Mutation.Faithful scen
            (Strategy.random_walk ~trials ())
        in
        v.Explorer.v_obs
    in
    let merged = Xobs.Snapshot.merge run_snap explore_snap in
    Format.printf "scenario run (seed %d) + explore sweep (%d schedules)@."
      seed
      (match Xobs.Snapshot.find explore_snap "explore.schedules" with
      | Some (Xobs.Snapshot.Counter c) -> c
      | _ -> 0);
    print_obs_table merged;
    (match obs_json with
    | None -> ()
    | Some file ->
        let lines =
          Xobs.Snapshot.to_json run_snap
          ::
          (if Xobs.Snapshot.is_empty explore_snap then []
           else [ Xobs.Snapshot.to_json explore_snap ])
        in
        if file = "-" then List.iter print_endline lines
        else begin
          let oc = open_out_gen [ Open_append; Open_creat ] 0o644 file in
          List.iter (fun l -> output_string oc (l ^ "\n")) lines;
          close_out oc
        end);
    Format.printf "@.run verdict: %s@."
      (if Runner.ok r then "OK" else "FAILED");
    if Runner.ok r then 0 else 1
  in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(
      const stats $ seed_arg $ replicas_arg $ crashes_arg $ noise_arg
      $ fail_prob_arg $ substrate_arg $ detector_arg $ requests_arg $ mix_arg
      $ client_crash_arg $ explore_trials_arg $ obs_json_arg $ loss_arg
      $ dup_arg $ jitter_arg $ partitions_arg $ batch_arg $ pipeline_arg
      $ clients_arg $ inflight_arg $ lease_arg)

(* ------------------------------------------------------------------ *)
(* bench --compare: diff two bench JSON reports (bench/main.exe --json),
   numeric path by numeric path, and call out the regressions. *)

let bench_cmd =
  let doc = "Compare two bench JSON reports (bench/main.exe --json)." in
  let compare_arg =
    Arg.(
      value & flag
      & info [ "compare" ]
          ~doc:
            "Diff the two FILE arguments numeric-path by numeric-path \
             (currently the only mode, and therefore required).")
  in
  let file_a =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"A.json")
  in
  let file_b =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"B.json")
  in
  let threshold_arg =
    Arg.(
      value & opt float 2.0
      & info [ "threshold" ] ~docv:"PCT"
          ~doc:"Relative change (percent) below which a delta is noise.")
  in
  let bench compare a b threshold =
    if not compare then begin
      prerr_endline "xrepl bench: only --compare is implemented; pass it.";
      2
    end
    else
      let module B = Xworkload.Bench_compare in
      let load path =
        let ic = open_in_bin path in
        let len = in_channel_length ic in
        let s = really_input_string ic len in
        close_in ic;
        B.Json.parse s
      in
      match (load a, load b) with
      | exception Sys_error e ->
          prerr_endline ("xrepl bench: " ^ e);
          2
      | exception B.Json.Parse_error e ->
          prerr_endline ("xrepl bench: parse error: " ^ e);
          2
      | ja, jb ->
          let _ : B.summary =
            B.diff ~ppf:Format.std_formatter ~threshold
              ~name_a:(Filename.basename a) ~name_b:(Filename.basename b) ja
              jb
          in
          0
  in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(const bench $ compare_arg $ file_a $ file_b $ threshold_arg)

let () =
  let doc = "x-ability replication simulator (Frolund & Guerraoui, 2000)" in
  let info = Cmd.info "xrepl" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            run_cmd;
            sweep_cmd;
            trace_cmd;
            explore_cmd;
            replay_cmd;
            stats_cmd;
            bench_cmd;
          ]))
