(* Benchmark and experiment harness.

   The paper (PODC 2000) is a theory paper: Figures 1-4 are definitions,
   Figures 5-7 are pseudo-code, and there is no empirical evaluation
   section.  This harness therefore regenerates, as tables, the paper's
   *claims* (see DESIGN.md "Per-experiment index" and EXPERIMENTS.md):

     E1  x-ability of the protocol under crashes/suspicions/failures
     E2  behaviour spectrum: primary-backup-like -> active-like
     E3  baseline comparison: exactly-once violations
     E4  failure-free latency vs replica count, per scheme
     E5  liveness (R2) under adversarial schedules
     E6  three-tier composition (locality of x-ability)
     E7  reduction-engine behaviour and cost
     E8  consensus substrate (Paxos) behaviour and cost
     E9  ablations of design choices

   plus Bechamel microbenchmarks of the hot paths.

   Seed sweeps fan out over an Xpar.Pool sized from JOBS / --jobs /
   Domain.recommended_domain_count; results are collected in seed order,
   so the tables are byte-identical whatever the pool size.

   Run with: dune exec bench/main.exe            (full, a few minutes)
             QUICK=1 dune exec bench/main.exe    (reduced seed counts)
             JOBS=4 dune exec bench/main.exe     (pool size; also --jobs 4)
             dune exec bench/main.exe -- --json  (machine-readable output,
                                                  also BENCH_JSON=path)
             BENCH_ONLY=e11 dune exec bench/main.exe   (subset of
                                                  experiments, comma-sep) *)

open Xability
module Runner = Xworkload.Runner
module Workloads = Xworkload.Workloads
module Stats = Xworkload.Stats
module Service = Xreplication.Service
module Client = Xreplication.Client
module Pool = Xpar.Pool

let quick = Sys.getenv_opt "QUICK" <> None
let seeds n = if quick then max 2 (n / 5) else n

(* ------------------------------------------------------------------ *)
(* Command line: --jobs N / -j N, --json [PATH] *)

let jobs_arg = ref None
let json_arg = ref (Sys.getenv_opt "BENCH_JSON")

(* A bare [--json] names the file after the experiment subset when
   BENCH_ONLY selects exactly one (BENCH_E15.json, BENCH_E16.json, ...);
   whole-suite runs keep the historical name. *)
let default_json_path =
  match Sys.getenv_opt "BENCH_ONLY" with
  | Some s -> (
      match String.split_on_char ',' s with
      | [ one ] when one <> "" ->
          "BENCH_" ^ String.uppercase_ascii one ^ ".json"
      | _ -> "BENCH_verdict_pipeline.json")
  | None -> "BENCH_verdict_pipeline.json"

let () =
  let argv = Array.to_list Sys.argv in
  let rec parse = function
    | [] -> ()
    | ("--jobs" | "-j") :: v :: rest ->
        (match int_of_string_opt v with
        | Some n when n > 0 -> jobs_arg := Some n
        | _ -> prerr_endline ("bench: ignoring bad --jobs value " ^ v));
        parse rest
    | "--json" :: v :: rest when String.length v > 0 && v.[0] <> '-' ->
        json_arg := Some v;
        parse rest
    | "--json" :: rest ->
        json_arg := Some default_json_path;
        parse rest
    | _ :: rest -> parse rest
  in
  parse (List.tl argv)

let pool = Pool.create ?domains:!jobs_arg ()

(* Fan a seed sweep [1..n] over the pool, results in seed order. *)
let psweep n f = Pool.map pool f (List.init n (fun i -> i + 1))

let header title =
  Format.printf
    "@.==============================================================@.";
  Format.printf "%s@." title;
  Format.printf
    "==============================================================@."

let row fmt = Format.printf fmt

(* ------------------------------------------------------------------ *)
(* JSON output (hand-rolled; stdlib only) *)

type json =
  | J_bool of bool
  | J_int of int
  | J_float of float
  | J_str of string
  | J_list of json list
  | J_obj of (string * json) list
  | J_raw of string  (* pre-rendered JSON, embedded verbatim *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec json_emit b = function
  | J_raw s -> Buffer.add_string b s
  | J_bool v -> Buffer.add_string b (string_of_bool v)
  | J_int i -> Buffer.add_string b (string_of_int i)
  | J_float f ->
      Buffer.add_string b
        (if Float.is_finite f then Printf.sprintf "%.6g" f else "null")
  | J_str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (json_escape s);
      Buffer.add_char b '"'
  | J_list xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          json_emit b x)
        xs;
      Buffer.add_char b ']'
  | J_obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          json_emit b (J_str k);
          Buffer.add_char b ':';
          json_emit b v)
        fields;
      Buffer.add_char b '}'

let json_to_string j =
  let b = Buffer.create 4096 in
  json_emit b j;
  Buffer.contents b

(* Accumulators for the JSON report. *)
let exp_times : (string * float) list ref = ref []
let e7_rows : json list ref = ref []
let micro_rows : json list ref = ref []
let explore_rows : json list ref = ref []
let calibration : json ref = ref (J_obj [])
let e11_obs : json ref = ref (J_obj [])
let e12_net : json ref = ref (J_obj [])
let e13_batch : json ref = ref (J_obj [])

(* BENCH_ONLY=e11 (comma-separated names) runs a subset of experiments;
   unset runs everything. *)
let only =
  match Sys.getenv_opt "BENCH_ONLY" with
  | None | Some "" -> None
  | Some s -> Some (String.split_on_char ',' s)

let timed_exp name f =
  match only with
  | Some names when not (List.mem name names) -> ()
  | _ ->
      let t0 = Unix.gettimeofday () in
      let r = f () in
      exp_times := (name, Unix.gettimeofday () -. t0) :: !exp_times;
      r

(* ------------------------------------------------------------------ *)
(* Shared runners *)

let protocol_run ?(n_requests = 5) ?(mix = Workloads.Mixed) ?(crashes = [])
    ?noise ?(fail_prob = 0.0) ?(n_replicas = 3) ?(substrate = `Register 25)
    ~seed () =
  let spec =
    {
      Runner.default_spec with
      seed;
      crashes;
      noise;
      env_config = { Xsm.Environment.default_config with fail_prob };
      service_config = { Service.default_config with n_replicas; substrate };
      time_limit = 5_000_000;
      quiesce_grace = 20_000;
    }
  in
  Runner.run ~spec ~setup:Workloads.setup_all
    ~workload:(fun _ c s -> Workloads.sequence mix ~n:n_requests c s)
    ()

(* ------------------------------------------------------------------ *)
(* E1: X-ability under faults *)

let e1 () =
  header
    "E1  X-ability verdicts (R3+R4) under fault schedules  [paper: section 5 \
     correctness claim]";
  row "%-34s %-8s %-10s %-12s@." "fault schedule" "runs" "x-able" "dup-effects";
  let n = seeds 25 in
  let configs =
    [
      ("none (failure-free)", [], None, 0.0);
      ("owner crash", [ (150, 0) ], None, 0.0);
      ("two crashes of three", [ (150, 0); (700, 1) ], None, 0.0);
      ("false-suspicion noise", [], Some (0.08, 150, 8_000), 0.0);
      ("crash + noise", [ (150, 0) ], Some (0.08, 150, 8_000), 0.0);
      ("action failures (p=.3)", [], None, 0.3);
      ("crash + noise + failures", [ (150, 0) ], Some (0.06, 150, 8_000), 0.2);
    ]
  in
  List.iter
    (fun (name, crashes, noise, fail_prob) ->
      let results =
        psweep n (fun seed ->
            let r, _ =
              protocol_run ~crashes ?noise ~fail_prob ~seed:(seed * 7919) ()
            in
            (Runner.ok r, r.Runner.duplicate_effects))
      in
      let ok = List.length (List.filter fst results) in
      let dups = List.fold_left (fun acc (_, d) -> acc + d) 0 results in
      row "%-34s %-8d %-10s %-12d@." name n
        (Printf.sprintf "%d/%d" ok n)
        dups)
    configs;
  row
    "expected shape: x-able = runs and dup-effects = 0 everywhere (the \
     theorem)@."

(* ------------------------------------------------------------------ *)
(* E2: behaviour spectrum *)

let e2 () =
  header
    "E2  Behaviour spectrum vs suspicion rate  [paper: sections 1 and 5.1, \
     'asynchronous flavor']";
  row "%-12s %-12s %-12s %-14s %-12s %-10s@." "noise-prob" "rounds/req"
    "execs/req" "cleanups/req" "takeovers" "x-able";
  let n = seeds 10 and n_requests = 6 in
  List.iter
    (fun prob ->
      let results =
        psweep n (fun seed ->
            let noise = if prob > 0.0 then Some (prob, 150, 10_000) else None in
            let r, _ =
              protocol_run ~n_requests ?noise
                ~seed:(seed + int_of_float (prob *. 1000.))
                ()
            in
            ( Runner.ok r,
              r.Runner.rounds_per_request,
              Stats.ratio r.Runner.totals.Service.executions n_requests,
              Stats.ratio r.Runner.totals.Service.cleanups n_requests,
              Stats.ratio r.Runner.totals.Service.takeovers n_requests ))
      in
      let all_ok = List.for_all (fun (ok, _, _, _, _) -> ok) results in
      let rounds = List.map (fun (_, r, _, _, _) -> r) results in
      let execs = List.map (fun (_, _, e, _, _) -> e) results in
      let cleanups = List.map (fun (_, _, _, c, _) -> c) results in
      let takeovers = List.map (fun (_, _, _, _, t) -> t) results in
      row "%-12.2f %-12.2f %-12.2f %-14.2f %-12.2f %-10b@." prob
        (Stats.mean rounds) (Stats.mean execs) (Stats.mean cleanups)
        (Stats.mean takeovers) all_ok)
    [ 0.0; 0.02; 0.05; 0.08; 0.12; 0.16; 0.20 ];
  row
    "expected shape: rounds/req ~1 at zero noise (primary-backup-like); \
     rounds/cleanups grow with noise (active-like); x-able stays true@."

(* ------------------------------------------------------------------ *)
(* E3: baseline comparison *)

let mail_req i =
  Xsm.Request.make ~rid:i ~action:"send_raw" ~kind:Action.Idempotent
    ~input:(Value.str (Printf.sprintf "m%d" i))

let run_pb ~seed ~crash ~n =
  let eng = Xsim.Engine.create ~seed ~trace_enabled:false () in
  let env = Xsm.Environment.create eng () in
  let mailer = Xsm.Services.Mailer.register env () in
  let pb =
    Xbaselines.Primary_backup.create eng env
      Xbaselines.Primary_backup.default_config
  in
  let done_iv = Xsim.Ivar.create () in
  Xsim.Engine.spawn eng
    ~proc:(Xbaselines.Primary_backup.client_proc pb)
    ~name:"client"
    (fun () ->
      for i = 1 to n do
        ignore (Xbaselines.Primary_backup.submit_until_success pb (mail_req i))
      done;
      Xsim.Ivar.fill done_iv ());
  (match crash with
  | Some at ->
      Xsim.Engine.schedule eng ~delay:at (fun () ->
          Xbaselines.Primary_backup.kill_replica pb 0)
  | None -> ());
  Xsim.Ivar.watch done_iv (fun () ->
      Xsim.Engine.request_stop eng;
      true);
  Xsim.Engine.run ~limit:3_000_000 eng;
  Xsim.Engine.run ~limit:(Xsim.Engine.now eng + 10_000) eng;
  let distinct =
    Xsm.Services.Mailer.delivery_count mailer
    - Xsm.Services.Mailer.duplicate_count mailer
  in
  ( Xsim.Ivar.is_full done_iv,
    Xsm.Services.Mailer.duplicate_count mailer,
    max 0 (n - distinct) )

let run_active ~seed ~crash ~n =
  let eng = Xsim.Engine.create ~seed ~trace_enabled:false () in
  let env = Xsm.Environment.create eng () in
  let mailer = Xsm.Services.Mailer.register env () in
  let active =
    Xbaselines.Active.create eng env Xbaselines.Active.default_config
  in
  let done_iv = Xsim.Ivar.create () in
  Xsim.Engine.spawn eng
    ~proc:(Xbaselines.Active.client_proc active)
    ~name:"client"
    (fun () ->
      for i = 1 to n do
        ignore (Xbaselines.Active.submit_until_success active (mail_req i))
      done;
      Xsim.Ivar.fill done_iv ());
  (match crash with
  | Some at ->
      Xsim.Engine.schedule eng ~delay:at (fun () ->
          Xbaselines.Active.kill_replica active 0)
  | None -> ());
  Xsim.Ivar.watch done_iv (fun () ->
      Xsim.Engine.request_stop eng;
      true);
  Xsim.Engine.run ~limit:3_000_000 eng;
  Xsim.Engine.run ~limit:(Xsim.Engine.now eng + 10_000) eng;
  let distinct =
    Xsm.Services.Mailer.delivery_count mailer
    - Xsm.Services.Mailer.duplicate_count mailer
  in
  ( Xsim.Ivar.is_full done_iv,
    Xsm.Services.Mailer.duplicate_count mailer,
    max 0 (n - distinct) )


let run_sp ~seed ~crash ~n =
  let eng = Xsim.Engine.create ~seed ~trace_enabled:false () in
  let env = Xsm.Environment.create eng () in
  let mailer = Xsm.Services.Mailer.register env () in
  let sp =
    Xbaselines.Semi_passive.create eng env
      Xbaselines.Semi_passive.default_config
  in
  let done_iv = Xsim.Ivar.create () in
  Xsim.Engine.spawn eng
    ~proc:(Xbaselines.Semi_passive.client_proc sp)
    ~name:"client"
    (fun () ->
      for i = 1 to n do
        ignore (Xbaselines.Semi_passive.submit_until_success sp (mail_req i))
      done;
      Xsim.Ivar.fill done_iv ());
  (match crash with
  | Some at ->
      Xsim.Engine.schedule eng ~delay:at (fun () ->
          Xbaselines.Semi_passive.kill_replica sp 0)
  | None -> ());
  Xsim.Ivar.watch done_iv (fun () ->
      Xsim.Engine.request_stop eng;
      true);
  Xsim.Engine.run ~limit:3_000_000 eng;
  Xsim.Engine.run ~limit:(Xsim.Engine.now eng + 10_000) eng;
  let distinct =
    Xsm.Services.Mailer.delivery_count mailer
    - Xsm.Services.Mailer.duplicate_count mailer
  in
  ( Xsim.Ivar.is_full done_iv,
    Xsm.Services.Mailer.duplicate_count mailer,
    max 0 (n - distinct) )

let run_xrepl_mail ~seed ~crash ~n =
  let crashes = match crash with Some at -> [ (at, 0) ] | None -> [] in
  let r, srv =
    protocol_run ~n_requests:n ~mix:Workloads.Idempotent_only ~crashes ~seed ()
  in
  let distinct =
    Xsm.Services.Mailer.delivery_count srv.Workloads.mailer
    - Xsm.Services.Mailer.duplicate_count srv.Workloads.mailer
  in
  ( r.Runner.completed && r.Runner.report.Checker.ok,
    Xsm.Services.Mailer.duplicate_count srv.Workloads.mailer,
    max 0 (n - distinct) )

let e3 () =
  header
    "E3  Exactly-once violations per scheme  [paper: section 1 motivation, \
     section 6]";
  row "%-18s %-18s %-10s %-16s %-10s@." "scheme" "fault" "completed"
    "dup-deliveries" "lost";
  let n = seeds 15 and n_requests = 5 in
  let faults =
    [
      ("none", fun _ -> None);
      ("primary crash", fun seed -> Some (80 + (seed * 17 mod 200)));
    ]
  in
  List.iter
    (fun (name, runner) ->
      List.iter
        (fun (fault_name, crash_of_seed) ->
          let results =
            psweep n (fun seed -> runner ~seed ~crash:(crash_of_seed seed))
          in
          let completed =
            List.length (List.filter (fun (ok, _, _) -> ok) results)
          in
          let dups = List.fold_left (fun a (_, d, _) -> a + d) 0 results in
          let lost = List.fold_left (fun a (_, _, l) -> a + l) 0 results in
          row "%-18s %-18s %-10s %-16d %-10d@." name fault_name
            (Printf.sprintf "%d/%d" completed n)
            dups lost)
        faults)
    [
      ( "primary-backup",
        fun ~seed ~crash -> run_pb ~seed ~crash ~n:n_requests );
      ("active", fun ~seed ~crash -> run_active ~seed ~crash ~n:n_requests);
      ( "semi-passive",
        fun ~seed ~crash -> run_sp ~seed ~crash ~n:n_requests );
      ( "x-ability",
        fun ~seed ~crash -> run_xrepl_mail ~seed ~crash ~n:n_requests );
    ];
  row
    "expected shape: active duplicates (n_replicas-1) per request even \
     fault-free; primary-backup duplicates on some failovers; x-ability: 0 \
     duplicates, 0 lost@."

(* ------------------------------------------------------------------ *)
(* E4: failure-free latency vs replica count *)

let e4 () =
  header
    "E4  Failure-free request latency vs replica count  [cost of the \
     exactly-once machinery]";
  row "%-24s %-6s %-10s %-10s %-10s %-10s %-12s@." "scheme" "n" "mean" "p50"
    "p95" "p99" "msgs/req";
  let n_runs = seeds 10 and n_requests = 5 in
  let latency_row name n_replicas lats msgs =
    let s = Stats.summarize lats in
    row "%-24s %-6d %-10.0f %-10.0f %-10.0f %-10.0f %-12s@." name n_replicas
      s.Stats.mean s.Stats.p50 s.Stats.p95 s.Stats.p99 msgs
  in
  let protocol_row name substrate n_replicas =
    let results =
      psweep n_runs (fun seed ->
          let r, _ =
            protocol_run ~n_requests ~n_replicas ~substrate ~seed:(seed * 31) ()
          in
          ( List.map
              (fun s -> float_of_int s.Runner.latency)
              r.Runner.submissions,
            Stats.ratio
              (r.Runner.totals.Service.service_messages
              + r.Runner.totals.Service.consensus_messages)
              n_requests ))
    in
    let lats = List.concat_map fst results in
    let msgs = List.map snd results in
    latency_row name n_replicas lats (Printf.sprintf "%.1f" (Stats.mean msgs))
  in
  List.iter (protocol_row "x-ability (register)" (`Register 25)) [ 1; 3; 5; 7 ];
  List.iter
    (protocol_row "x-ability (paxos)" (`Paxos (Xnet.Latency.Uniform (10, 40))))
    [ 1; 3; 5; 7 ];
  (* Baselines, same workload size. *)
  let baseline_row name submit_run =
    let lats = List.concat (psweep n_runs (fun seed -> submit_run ~seed ~n:n_requests)) in
    latency_row name 3 lats "-"
  in
  baseline_row "primary-backup" (fun ~seed ~n ->
      let lats = ref [] in
      let record l = lats := float_of_int l :: !lats in
      let eng = Xsim.Engine.create ~seed ~trace_enabled:false () in
      let env = Xsm.Environment.create eng () in
      ignore (Xsm.Services.Mailer.register env ());
      let pb =
        Xbaselines.Primary_backup.create eng env
          Xbaselines.Primary_backup.default_config
      in
      Xsim.Engine.spawn eng
        ~proc:(Xbaselines.Primary_backup.client_proc pb)
        ~name:"client"
        (fun () ->
          for i = 1 to n do
            let t0 = Xsim.Engine.now eng in
            ignore
              (Xbaselines.Primary_backup.submit_until_success pb (mail_req i));
            record (Xsim.Engine.now eng - t0)
          done;
          Xsim.Engine.request_stop eng);
      Xsim.Engine.run ~limit:3_000_000 eng;
      List.rev !lats);
  baseline_row "semi-passive" (fun ~seed ~n ->
      let lats = ref [] in
      let record l = lats := float_of_int l :: !lats in
      let eng = Xsim.Engine.create ~seed ~trace_enabled:false () in
      let env = Xsm.Environment.create eng () in
      ignore (Xsm.Services.Mailer.register env ());
      let sp =
        Xbaselines.Semi_passive.create eng env
          Xbaselines.Semi_passive.default_config
      in
      Xsim.Engine.spawn eng
        ~proc:(Xbaselines.Semi_passive.client_proc sp)
        ~name:"client"
        (fun () ->
          for i = 1 to n do
            let t0 = Xsim.Engine.now eng in
            ignore
              (Xbaselines.Semi_passive.submit_until_success sp (mail_req i));
            record (Xsim.Engine.now eng - t0)
          done;
          Xsim.Engine.request_stop eng);
      Xsim.Engine.run ~limit:3_000_000 eng;
      List.rev !lats);
  baseline_row "active" (fun ~seed ~n ->
      let lats = ref [] in
      let record l = lats := float_of_int l :: !lats in
      let eng = Xsim.Engine.create ~seed ~trace_enabled:false () in
      let env = Xsm.Environment.create eng () in
      ignore (Xsm.Services.Mailer.register env ());
      let active =
        Xbaselines.Active.create eng env Xbaselines.Active.default_config
      in
      Xsim.Engine.spawn eng
        ~proc:(Xbaselines.Active.client_proc active)
        ~name:"client"
        (fun () ->
          for i = 1 to n do
            let t0 = Xsim.Engine.now eng in
            ignore (Xbaselines.Active.submit_until_success active (mail_req i));
            record (Xsim.Engine.now eng - t0)
          done;
          Xsim.Engine.request_stop eng);
      Xsim.Engine.run ~limit:3_000_000 eng;
      List.rev !lats);
  row
    "expected shape: x-ability costs one consensus round over \
     primary-backup; paxos backend costs more than the register and grows \
     with n; active is fastest per-request but duplicates effects (E3)@."

(* ------------------------------------------------------------------ *)
(* E5: liveness *)

let e5 () =
  header "E5  Liveness (R2): adversarial schedules  [paper: section 4, R2]";
  row "%-44s %-12s %-14s@." "scenario" "completed" "rounds/req";
  let scenarios =
    [
      ("owner crash mid-execution", [ (90, 0) ], None, 0.0);
      ("successive crashes (0 then 1)", [ (90, 0); (600, 1) ], None, 0.0);
      ("suspicion storm, then quiet", [], Some (0.25, 200, 4_000), 0.0);
      ( "storm + crash + action failures",
        [ (300, 1) ],
        Some (0.15, 150, 5_000),
        0.3 );
      ("crash during undoable retry loop", [ (120, 0) ], None, 0.5);
    ]
  in
  List.iter
    (fun (name, crashes, noise, fail_prob) ->
      let n = seeds 10 in
      let results =
        psweep n (fun seed ->
            let r, _ =
              protocol_run ~n_requests:4 ~mix:Workloads.Undoable_only ~crashes
                ?noise ~fail_prob ~seed:(seed * 131) ()
            in
            (r.Runner.completed && Runner.ok r, r.Runner.rounds_per_request))
      in
      let completed = List.length (List.filter fst results) in
      let rounds = List.map snd results in
      row "%-44s %-12s %-14.2f@." name
        (Printf.sprintf "%d/%d" completed n)
        (Stats.mean rounds))
    scenarios;
  row "expected shape: completed = runs everywhere@."

(* ------------------------------------------------------------------ *)
(* E6: three-tier composition *)

let run_three_tier ~seed ~middle_crash ~backend_crash ~orders =
  let eng = Xsim.Engine.create ~seed ~trace_enabled:false () in
  let backend_env = Xsm.Environment.create eng () in
  let bank =
    Xsm.Services.Bank.register backend_env
      ~accounts:[ ("store", 0); ("alice", 1_000_000) ]
      ()
  in
  let backend = Service.create eng backend_env Service.default_config in
  let gateway = Service.client backend 0 in
  let middle_env = Xsm.Environment.create eng () in
  let backend_requests = Hashtbl.create 16 in
  Xsm.Environment.register_raw middle_env "place_order"
    (fun ~rid ~payload ~rng:_ ->
      let amount = Option.value ~default:1 (Value.as_int payload) in
      let backend_req =
        Xsm.Request.make ~rid:(1_000_000 + rid) ~action:"transfer"
          ~kind:Action.Undoable
          ~input:
            (Value.pair
               (Value.pair (Value.str "alice") (Value.str "store"))
               (Value.int amount))
      in
      if not (Hashtbl.mem backend_requests backend_req.Xsm.Request.rid) then
        Hashtbl.replace backend_requests backend_req.Xsm.Request.rid
          backend_req;
      Xreplication.Client.submit_until_success gateway backend_req);
  let middle = Service.create eng middle_env Service.default_config in
  let client = Service.client middle 0 in
  let completed = ref 0 in
  Xsim.Engine.spawn eng
    ~proc:(Xreplication.Client.proc client)
    ~name:"shopper"
    (fun () ->
      for i = 1 to orders do
        let req =
          Xreplication.Client.request client ~action:"place_order"
            ~kind:Action.Idempotent ~input:(Value.int (10 * i))
        in
        ignore (Xreplication.Client.submit_until_success client req);
        incr completed
      done;
      Xsim.Engine.request_stop eng);
  (match middle_crash with
  | Some at ->
      Xsim.Engine.schedule eng ~delay:at (fun () ->
          Service.kill_replica middle 0)
  | None -> ());
  (match backend_crash with
  | Some at ->
      Xsim.Engine.schedule eng ~delay:at (fun () ->
          Service.kill_replica backend 0)
  | None -> ());
  Xsim.Engine.run ~limit:5_000_000 eng;
  Xsim.Engine.run ~limit:(Xsim.Engine.now eng + 20_000) eng;
  let expected =
    Hashtbl.fold
      (fun _ req acc -> Xsm.Environment.checker_expected backend_env req :: acc)
      backend_requests []
  in
  let report =
    Checker.check
      ~kinds:(Xsm.Environment.kind_of backend_env)
      ~logical_of:Xsm.Request.logical_of_env_iv ~check_order:false ~expected
      (Xsm.Environment.history backend_env)
  in
  let middle_execs =
    List.fold_left
      (fun acc (s : Xsm.Environment.key_stats) -> acc + s.applied)
      0
      (Xsm.Environment.stats middle_env)
  in
  ( !completed = orders && report.Checker.ok
    && Xsm.Services.Bank.posted_transfers bank = orders,
    middle_execs - orders )

let e6 () =
  header
    "E6  Three-tier composition: locality of x-ability  [paper: sections 1 \
     and 4, composition]";
  row "%-34s %-8s %-16s %-22s@." "fault schedule" "runs" "end-to-end ok"
    "extra mid-tier execs";
  let n = seeds 8 and orders = 3 in
  List.iter
    (fun (name, middle_crash, backend_crash) ->
      let results =
        psweep n (fun seed ->
            run_three_tier ~seed:(seed * 977) ~middle_crash ~backend_crash
              ~orders)
      in
      let ok = List.length (List.filter fst results) in
      let extra = List.fold_left (fun a (_, s) -> a + s) 0 results in
      row "%-34s %-8d %-16s %-22d@." name n
        (Printf.sprintf "%d/%d" ok n)
        extra)
    [
      ("none", None, None);
      ("middle-tier crash", Some 150, None);
      ("back-end crash", None, Some 150);
      ("both tiers crash", Some 150, Some 400);
    ];
  row
    "expected shape: end-to-end ok = runs; extra mid-tier executions appear \
     under middle crashes and are absorbed by the back end@."

(* ------------------------------------------------------------------ *)
(* E7: reduction engine *)

let e7_kinds = function
  | "a" -> Some Action.Idempotent
  | "u" -> Some Action.Undoable
  | _ -> None

let idem_history ~attempts =
  let iv = Value.int 1 and ov = Value.int 9 in
  List.concat (List.init attempts (fun _ -> [ Event.S ("a", iv) ]))
  @ [ Event.S ("a", iv); Event.C ("a", iv, ov) ]

let undo_history ~rounds =
  let ov = Value.int 9 in
  let riv r =
    Value.pair (Value.str "round") (Value.pair (Value.int r) (Value.int 1))
  in
  let cn = Action.cancel_name "u" and cm = Action.commit_name "u" in
  List.concat
    (List.init rounds (fun r ->
         [
           Event.S ("u", riv (r + 1));
           Event.C ("u", riv (r + 1), ov);
           Event.S (cn, riv (r + 1));
           Event.C (cn, riv (r + 1), Value.nil);
         ]))
  @ [
      Event.S ("u", riv (rounds + 1));
      Event.C ("u", riv (rounds + 1), ov);
      Event.S (cm, riv (rounds + 1));
      Event.C (cm, riv (rounds + 1), Value.nil);
    ]

let e7 () =
  header
    "E7  Reduction engine: verdicts and cost vs history length  [paper: \
     Figure 4]";
  row "%-32s %-8s %-10s %-14s %-10s@." "history shape" "events" "x-able"
    "cpu time (us)" "visited";
  let time f =
    let t0 = Sys.time () in
    let r = f () in
    (r, (Sys.time () -. t0) *. 1e6)
  in
  let search_row shape ~kind ~action ~iv h =
    let visited = ref 0 in
    let (ok : bool), us =
      time (fun () ->
          Option.is_some
            (Reduction.reduces_to ~kinds:e7_kinds ~visited_count:visited h
               ~goal:(fun h' -> Xable.failure_free kind action ~iv h')))
    in
    row "%-32s %-8d %-10b %-14.1f %-10d@." shape (History.length h) ok us
      !visited;
    e7_rows :=
      J_obj
        [
          ("shape", J_str shape);
          ("engine", J_str "search");
          ("events", J_int (History.length h));
          ("x_able", J_bool ok);
          ("us_per_op", J_float us);
          ("visited_states", J_int !visited);
        ]
      :: !e7_rows
  in
  List.iter
    (fun attempts ->
      search_row
        (Printf.sprintf "idempotent, %d retries" attempts)
        ~kind:Action.Idempotent ~action:"a" ~iv:(Value.int 1)
        (idem_history ~attempts))
    [ 0; 2; 4; 6; 8 ];
  List.iter
    (fun rounds ->
      let riv =
        Value.pair (Value.str "round")
          (Value.pair (Value.int (rounds + 1)) (Value.int 1))
      in
      search_row
        (Printf.sprintf "undoable, %d aborted rounds" rounds)
        ~kind:Action.Undoable ~action:"u" ~iv:riv (undo_history ~rounds))
    [ 0; 1; 2; 3 ];
  (* Fast engine on the same histories. *)
  row "-- linear analyzer on the same histories --@.";
  row "%-32s %-8s %-10s %-14s@." "history shape" "events" "x-able"
    "cpu time (us)";
  let logical_of = Xsm.Request.logical_of_env_iv in
  let round_of = Xsm.Request.round_of_env_iv in
  let fast_row shape events ok us =
    row "%-32s %-8d %-10b %-14.1f@." shape events ok us;
    e7_rows :=
      J_obj
        [
          ("shape", J_str shape);
          ("engine", J_str "analyzer");
          ("events", J_int events);
          ("x_able", J_bool ok);
          ("us_per_op", J_float us);
        ]
      :: !e7_rows
  in
  List.iter
    (fun attempts ->
      let h = idem_history ~attempts in
      let ok, us =
        time (fun () ->
            match Analyzer.analyze_idempotent ~action:"a" ~iv:(Value.int 1) h with
            | Analyzer.Xable _ -> true
            | Analyzer.Not_xable _ -> false)
      in
      fast_row
        (Printf.sprintf "idempotent, %d retries (fast)" attempts)
        (History.length h) ok us)
    [ 0; 4; 8; 16; 32 ];
  List.iter
    (fun rounds ->
      let h = undo_history ~rounds in
      let ok, us =
        time (fun () ->
            match
              Analyzer.analyze_undoable ~action:"u" ~logical_of ~round_of
                ~logical:(Value.int 1) h
            with
            | Analyzer.Xable _ -> true
            | Analyzer.Not_xable _ -> false)
      in
      fast_row
        (Printf.sprintf "undoable, %d aborted rounds (fast)" rounds)
        (History.length h) ok us)
    [ 0; 2; 4; 8 ];
  row "(fast verdicts are cross-validated against the search by qcheck)@.";
  (* Negative control: truncated histories must be rejected. *)
  let truncate h = List.filteri (fun i _ -> i <> List.length h - 1) h in
  let rejected = ref 0 and total = ref 0 in
  List.iter
    (fun attempts ->
      incr total;
      let h = truncate (idem_history ~attempts) in
      if
        not
          (Xable.x_able ~kinds:e7_kinds ~kind:Action.Idempotent ~action:"a"
             ~iv:(Value.int 1) h)
      then incr rejected)
    [ 0; 2; 4 ];
  row "truncated histories rejected: %d/%d (expected all)@." !rejected !total;
  row
    "expected shape: all well-formed histories x-able; verdict cost grows \
     with history length but stays interactive@."

(* ------------------------------------------------------------------ *)
(* E8: consensus substrate *)

let e8 () =
  header "E8  Consensus substrate (Paxos)  [paper: section 5.2 assumption]";
  row "%-6s %-11s %-10s %-11s %-13s %-14s@." "n" "proposers" "decided"
    "agreement" "ticks (mean)" "msgs/decision";
  let n_runs = seeds 20 in
  List.iter
    (fun (n, n_proposers) ->
      let results =
        psweep n_runs (fun seed ->
            let eng =
              Xsim.Engine.create ~seed:(seed * 53) ~trace_enabled:false ()
            in
            let members =
              List.init n (fun i ->
                  let a = Xnet.Address.make ~role:"px" ~index:i in
                  (a, Xsim.Proc.create ~name:(Xnet.Address.to_string a)))
            in
            let g =
              Xconsensus.Paxos.create_group eng
                ~latency:(Xnet.Latency.Uniform (5, 40))
                ~members ()
            in
            let results = Array.make n_proposers (-1) in
            List.iteri
              (fun i (m, p) ->
                if i < n_proposers then
                  Xsim.Engine.spawn eng ~proc:p ~name:(Printf.sprintf "p%d" i)
                    (fun () ->
                      results.(i) <-
                        Xconsensus.Paxos.propose
                          (Xconsensus.Paxos.handle g ~member:m ~inst:"i")
                          i))
              members;
            Xsim.Engine.run ~limit:1_000_000 eng;
            if Array.for_all (fun v -> v >= 0) results then
              Some
                ( Array.for_all (fun v -> v = results.(0)) results,
                  float_of_int (Xsim.Engine.now eng),
                  float_of_int
                    (Xconsensus.Paxos.stats g).Xconsensus.Paxos.messages_sent
                )
            else None)
      in
      let decided_runs = List.filter_map Fun.id results in
      let decided = List.length decided_runs in
      let agreed =
        List.length (List.filter (fun (a, _, _) -> a) decided_runs)
      in
      let ticks = List.map (fun (_, t, _) -> t) decided_runs in
      let msgs = List.map (fun (_, _, m) -> m) decided_runs in
      row "%-6d %-11d %-10s %-11s %-13.0f %-14.0f@." n n_proposers
        (Printf.sprintf "%d/%d" decided n_runs)
        (Printf.sprintf "%d/%d" agreed decided)
        (Stats.mean ticks) (Stats.mean msgs))
    [ (3, 1); (3, 3); (5, 1); (5, 5); (7, 3) ];
  row
    "expected shape: decided = runs, agreement = decided; ticks/messages \
     grow with n and with proposer contention@."


(* ------------------------------------------------------------------ *)
(* E9: ablations of the design choices DESIGN.md calls out *)

let e9 () =
  header
    "E9  Ablations: protocol completions and detector tuning  [DESIGN.md \
     design choices]";
  (* (a) veto_check: abandoning vetoed rounds vs the pseudo-code's pure
     execute-until-success.  Both must stay x-able; veto_check reduces
     wasted executions under suspicion storms. *)
  row "-- (a) veto_check (abandon vetoed rounds) --@.";
  row "%-14s %-10s %-12s %-12s@." "veto_check" "x-able" "execs/req"
    "rounds/req";
  List.iter
    (fun veto ->
      let n = seeds 10 in
      let results =
        psweep n (fun seed ->
            let spec =
              {
                Runner.default_spec with
                seed = 100 + seed;
                noise = Some (0.12, 180, 8_000);
                env_config =
                  { Xsm.Environment.default_config with fail_prob = 0.2 };
                service_config =
                  {
                    Service.default_config with
                    replica = { Xreplication.Replica.default_config with veto_check = veto };
                  };
                time_limit = 5_000_000;
                quiesce_grace = 20_000;
              }
            in
            let r, _ =
              Runner.run ~spec ~setup:Workloads.setup_all
                ~workload:(fun _ c s -> Workloads.sequence Mixed ~n:5 c s)
                ()
            in
            ( Runner.ok r,
              Stats.ratio r.Runner.totals.Service.executions 5,
              r.Runner.rounds_per_request ))
      in
      let ok = List.length (List.filter (fun (ok, _, _) -> ok) results) in
      let execs = List.map (fun (_, e, _) -> e) results in
      let rounds = List.map (fun (_, _, r) -> r) results in
      row "%-14b %-10s %-12.2f %-12.2f@." veto
        (Printf.sprintf "%d/%d" ok n)
        (Stats.mean execs) (Stats.mean rounds))
    [ true; false ];
  (* (b) cleaner poll period: takeover latency vs background cost. *)
  row "-- (b) cleaner poll period (owner crash takeover) --@.";
  row "%-14s %-10s %-16s@." "poll (ticks)" "x-able" "completion time";
  List.iter
    (fun poll ->
      let n = seeds 8 in
      let results =
        psweep n (fun seed ->
            let spec =
              {
                Runner.default_spec with
                seed = 200 + seed;
                crashes = [ (120, 0) ];
                service_config =
                  {
                    Service.default_config with
                    replica =
                      { Xreplication.Replica.default_config with cleaner_poll = poll };
                  };
                time_limit = 5_000_000;
              }
            in
            let r, _ =
              Runner.run ~spec ~setup:Workloads.setup_all
                ~workload:(fun _ c s -> Workloads.sequence Mixed ~n:4 c s)
                ()
            in
            ( Runner.ok r,
              Stats.mean
                (List.map
                   (fun s -> float_of_int s.Runner.latency)
                   r.Runner.submissions) ))
      in
      let ok = List.length (List.filter fst results) in
      let times = List.map snd results in
      row "%-14d %-10s %-16.0f@." poll
        (Printf.sprintf "%d/%d" ok n)
        (Stats.mean times))
    [ 100; 400; 1600 ];
  (* (c) detector aggressiveness: detection delay trades takeover speed
     against false-suspicion churn (here with injected noise fixed). *)
  row "-- (c) oracle detection delay (crash at t=120) --@.";
  row "%-18s %-10s %-16s@." "delay (ticks)" "x-able" "mean latency";
  List.iter
    (fun delay ->
      let n = seeds 8 in
      let results =
        psweep n (fun seed ->
            let spec =
              {
                Runner.default_spec with
                seed = 300 + seed;
                crashes = [ (120, 0) ];
                service_config =
                  {
                    Service.default_config with
                    detector =
                      Service.Oracle
                        { detection_delay = delay; poll_interval = 25 };
                  };
                time_limit = 5_000_000;
              }
            in
            let r, _ =
              Runner.run ~spec ~setup:Workloads.setup_all
                ~workload:(fun _ c s -> Workloads.sequence Mixed ~n:4 c s)
                ()
            in
            ( Runner.ok r,
              Stats.mean
                (List.map
                   (fun s -> float_of_int s.Runner.latency)
                   r.Runner.submissions) ))
      in
      let ok = List.length (List.filter fst results) in
      let times = List.map snd results in
      row "%-18d %-10s %-16.0f@." delay
        (Printf.sprintf "%d/%d" ok n)
        (Stats.mean times))
    [ 25; 100; 400; 1600 ];
  row
    "expected shape: x-able everywhere; veto_check=false costs extra \
     executions; larger cleaner polls and detection delays slow \
     crash-path latency only@."

(* ------------------------------------------------------------------ *)
(* E10: adversarial schedule search — explorer throughput on the real
   protocol, plus detection of each planted protocol mutation. *)

let e10 () =
  header
    "E10 Adversarial schedule search (lib/explore)  [paper: section 5 \
     requirements as monitored properties]";
  let open Xexplore in
  let scenario = Explorer.booking () in
  let scenario =
    {
      scenario with
      Explorer.spec =
        { scenario.Explorer.spec with noise = Some (0.25, 150, 10_000) };
    }
  in
  let push_row ~strategy ~mutation ~(v : Explorer.verdict) wall =
    let rate = if wall > 0.0 then float_of_int v.Explorer.explored /. wall else 0.0 in
    explore_rows :=
      J_obj
        [
          ("strategy", J_str strategy);
          ("mutation", J_str (Xreplication.Mutation.to_string mutation));
          ("explored", J_int v.Explorer.explored);
          ("violating", J_int (List.length v.Explorer.violating));
          ("choice_points", J_int v.Explorer.choice_points);
          ("wall_s", J_float wall);
          ("schedules_per_s", J_float rate);
        ]
      :: !explore_rows;
    rate
  in
  row "%-14s %-12s %-10s %-11s %-10s %-16s@." "strategy" "mutation" "explored"
    "violating" "wall (s)" "schedules/s";
  let sweep strategy_name strategy mutation =
    let t0 = Unix.gettimeofday () in
    let v = Explorer.explore ~mutation scenario strategy in
    let wall = Unix.gettimeofday () -. t0 in
    let rate = push_row ~strategy:strategy_name ~mutation ~v wall in
    row "%-14s %-12s %-10d %-11d %-10.2f %-16.0f@." strategy_name
      (Xreplication.Mutation.to_string mutation)
      v.Explorer.explored
      (List.length v.Explorer.violating)
      wall rate;
    v
  in
  let trials = if quick then 300 else 2_000 in
  ignore
    (sweep "random-walk"
       (Strategy.random_walk ~trials ())
       Xreplication.Mutation.Faithful);
  ignore
    (sweep "delay-dfs"
       (Strategy.delay_dfs ~budget:(if quick then 150 else 600) ())
       Xreplication.Mutation.Faithful);
  List.iter
    (fun m ->
      ignore (sweep "random-walk" (Strategy.random_walk ~trials:64 ()) m))
    Xreplication.Mutation.all;
  row
    "expected shape: faithful protocol survives every explored schedule; \
     every mutation yields violating schedules within a 64-trial walk@."

(* ------------------------------------------------------------------ *)
(* E11: observability overhead (Xobs off vs on) and the merged snapshot *)

let e11 () =
  header
    "E11 Observability overhead (Xobs off vs on)  [instrumentation must be \
     free when disabled]";
  (* Fixed sequential workload, identical both ways: protocol runs under
     crash+noise plus a reduction search (the two hottest instrumented
     paths).  Sequential so the timing is not pool-scheduling noise. *)
  let nruns = seeds 60 in
  let workload () =
    let ok = ref 0 in
    for seed = 1 to nruns do
      let r, _ =
        protocol_run
          ~crashes:[ (150, 0) ]
          ~noise:(0.06, 150, 8_000)
          ~seed:(seed * 7919) ()
      in
      if Runner.ok r then incr ok
    done;
    let h = idem_history ~attempts:6 in
    let w =
      Reduction.reduces_to ~kinds:e7_kinds h ~goal:(fun h' ->
          Xable.failure_free Action.Idempotent "a" ~iv:(Value.int 1) h')
    in
    (!ok, Option.is_some w)
  in
  (* Best of 3 timed repetitions: the workload is pure (virtual time), so
     the minimum is the least-noise estimate. *)
  let time f =
    let best = ref infinity in
    let r = ref (f ()) in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      r := f ();
      let d = Unix.gettimeofday () -. t0 in
      if d < !best then best := d
    done;
    (!r, !best)
  in
  Xobs.set_enabled false;
  let base, off_s = time workload in
  Xobs.set_enabled true;
  Xobs.reset ();
  let inst, on_s = time workload in
  let run_snap = Xobs.snapshot () in
  (* A small explore sweep so the merged snapshot covers the explorer
     subsystem too (per-run snapshots merged in schedule order). *)
  let explore_snap =
    let open Xexplore in
    let v =
      Explorer.explore ~chunk:8 (Explorer.booking ~requests:3 ())
        (Strategy.random_walk ~trials:8 ())
    in
    v.Explorer.v_obs
  in
  Xobs.set_enabled false;
  let snap = Xobs.Snapshot.merge run_snap explore_snap in
  let ratio = if off_s > 0.0 then on_s /. off_s else 1.0 in
  row "%-22s %-10s %-10s %-10s@." "" "runs" "wall (s)" "identical";
  row "%-22s %-10d %-10.3f %-10s@." "obs disabled" nruns off_s "-";
  row "%-22s %-10d %-10.3f %-10b@." "obs enabled" nruns on_s (base = inst);
  row "enabled/disabled ratio %.3f   metrics in snapshot: %d@." ratio
    (List.length snap);
  row
    "expected shape: identical verdicts both ways; enabled cost a few \
     percent; disabled cost unmeasurable (compare E7 vs pre-obs records)@.";
  e11_obs :=
    J_obj
      [
        ("runs", J_int nruns);
        ("disabled_s", J_float off_s);
        ("enabled_s", J_float on_s);
        ("enabled_over_disabled", J_float ratio);
        ("verdicts_identical", J_bool (base = inst));
        ("metrics", J_int (List.length snap));
        ("obs_snapshot", J_raw (Xobs.Snapshot.to_json snap));
      ]

(* ------------------------------------------------------------------ *)
(* E12: lossy wire under the reliable (ARQ) channel *)

(* The paper assumes quasi-reliable channels (section 5.2) and never
   revisits the wire.  E12 discharges the assumption: the same protocol
   rides the ARQ channel over a wire that drops, duplicates and
   partitions, and the R1-R4 verdicts must not move. *)

let e12_spec ?(partitions = []) ~drop ~dup ~seed () =
  {
    Runner.default_spec with
    seed;
    time_limit = 5_000_000;
    quiesce_grace = 20_000;
    service_config =
      {
        Service.default_config with
        faults =
          Xnet.Fault.make
            ~default:(Xnet.Fault.link ~drop ~dup ())
            ~partitions ();
        channel = Service.Arq Xnet.Reliable.default_arq;
      };
  }

let e12_protocol_run ?partitions ~drop ~dup ~seed () =
  Runner.run
    ~spec:(e12_spec ?partitions ~drop ~dup ~seed ())
    ~setup:Workloads.setup_all
    ~workload:(fun _ c s -> Workloads.sequence Workloads.Mixed ~n:5 c s)
    ()

(* The Runner does not expose the service, so ARQ wire counters come
   from a separate direct-service run over the same fault plane. *)
let e12_wire ?(partitions = []) ~drop ~dup ~seed () =
  let eng = Xsim.Engine.create ~seed ~trace_enabled:false () in
  let env = Xsm.Environment.create eng () in
  ignore (Xsm.Services.Mailer.register env ());
  let svc =
    Service.create eng env
      {
        Service.default_config with
        faults =
          Xnet.Fault.make
            ~default:(Xnet.Fault.link ~drop ~dup ())
            ~partitions ();
        channel = Service.Arq Xnet.Reliable.default_arq;
      }
  in
  let client = Service.client svc 0 in
  Xsim.Engine.spawn eng ~proc:(Client.proc client) ~name:"workload" (fun () ->
      for i = 1 to 5 do
        let req =
          Client.request client ~action:"send" ~kind:Action.Idempotent
            ~input:(Value.str (Printf.sprintf "m%d" i))
        in
        ignore (Client.submit client req)
      done);
  Xsim.Engine.run ~limit:5_000_000 eng;
  match Service.reliable_stats svc with
  | None -> (0, 0, 0)
  | Some st ->
      Xnet.Reliable.(st.retransmits, st.acks_sent, st.dedup_dropped)

let e12 () =
  header
    "E12 Lossy wire under the reliable (ARQ) channel  [paper: section 5.2 \
     channel assumption, discharged by implementation]";
  row "%-28s %-6s %-8s %-10s %-10s %-11s %-12s@." "wire" "runs" "x-able"
    "lat mean" "lat p95" "rounds/req" "retransmits";
  let n = seeds 10 in
  let replica i = Xnet.Address.make ~role:"replica" ~index:i in
  (* Partition the owner itself: in failure-free runs the register
     backend keeps consensus off the wire, so only the client<->owner
     link carries traffic.  Severing it forces the ARQ layer to carry
     requests across the heal. *)
  let churn =
    [
      { Xnet.Fault.from_t = 400; until_t = 1_600; group = [ replica 0 ] };
      { Xnet.Fault.from_t = 2_000; until_t = 3_200; group = [ replica 1 ] };
    ]
  in
  let configs =
    [
      ("loss=0.00 dup=0.10", 0.0, 0.1, []);
      ("loss=0.05 dup=0.10", 0.05, 0.1, []);
      ("loss=0.10 dup=0.10", 0.1, 0.1, []);
      ("loss=0.20 dup=0.10", 0.2, 0.1, []);
      ("loss=0.30 dup=0.10", 0.3, 0.1, []);
      ("loss=0.10 + partition churn", 0.1, 0.1, churn);
    ]
  in
  let rows = ref [] in
  List.iter
    (fun (name, drop, dup, partitions) ->
      let results =
        psweep n (fun seed ->
            let r, _ =
              e12_protocol_run ~partitions ~drop ~dup ~seed:(seed * 7919) ()
            in
            ( Runner.ok r,
              List.map
                (fun s -> float_of_int s.Runner.latency)
                r.Runner.submissions,
              r.Runner.rounds_per_request ))
      in
      let ok = List.length (List.filter (fun (o, _, _) -> o) results) in
      let lats = List.concat_map (fun (_, l, _) -> l) results in
      let rounds = Stats.mean (List.map (fun (_, _, x) -> x) results) in
      let retr, acks, dedup =
        let per_seed =
          List.init 3 (fun i -> e12_wire ~partitions ~drop ~dup ~seed:(1_000 + i) ())
        in
        ( Stats.mean (List.map (fun (r, _, _) -> float_of_int r) per_seed),
          Stats.mean (List.map (fun (_, a, _) -> float_of_int a) per_seed),
          Stats.mean (List.map (fun (_, _, d) -> float_of_int d) per_seed) )
      in
      row "%-28s %-6d %-8s %-10.0f %-10.0f %-11.2f %-12.1f@." name n
        (Printf.sprintf "%d/%d" ok n)
        (Stats.mean lats) (Stats.p95 lats) rounds retr;
      rows :=
        J_obj
          [
            ("wire", J_str name);
            ("drop", J_float drop);
            ("dup", J_float dup);
            ("partitions", J_int (List.length partitions));
            ("runs", J_int n);
            ("ok", J_int ok);
            ("latency_mean", J_float (Stats.mean lats));
            ("latency_p95", J_float (Stats.p95 lats));
            ("rounds_per_request", J_float rounds);
            ("retransmits_mean", J_float retr);
            ("acks_mean", J_float acks);
            ("dedup_dropped_mean", J_float dedup);
          ]
        :: !rows)
    configs;
  (* The fault plane samples from the schedule RNG, never the wall clock,
     so exploration verdicts must be byte-identical whatever the pool
     size.  Same check the explorer test does, over the lossy strategy. *)
  let open Xexplore in
  let scenario = Explorer.booking ~requests:3 () in
  let strategy =
    Strategy.net_fault ~dup:0.1 ~loss_levels:[ 0.2 ] ~seeds:(seeds 6) ()
  in
  let v1 = Explorer.explore ~jobs:1 scenario strategy in
  let v4 = Explorer.explore ~jobs:4 scenario strategy in
  let identical = Explorer.verdict_to_json v1 = Explorer.verdict_to_json v4 in
  row
    "explore --strategy net: %d schedules, %d violating; jobs=1 vs jobs=4 \
     verdicts byte-identical: %b@."
    v1.Explorer.explored
    (List.length v1.Explorer.violating)
    identical;
  row
    "expected shape: x-able = runs at every loss level (the channel \
     discharges the assumption); latency and retransmits grow with loss; \
     verdicts independent of pool size@.";
  e12_net :=
    J_obj
      [
        ("rows", J_list (List.rev !rows));
        ("explored", J_int v1.Explorer.explored);
        ("violating", J_int (List.length v1.Explorer.violating));
        ("jobs_verdicts_identical", J_bool identical);
      ]

(* ------------------------------------------------------------------ *)
(* E13: the batched, pipelined hot path.  Batching amortizes consensus
   (one slot + one outcome instance per batch, whatever the batch holds)
   and the ARQ wire (acks piggyback on data frames, one retransmit timer
   per link); pipelining overlaps batches.  The sweep measures req/s,
   latency percentiles, consensus instances per request and wire messages
   per request across batch × pipeline × loss — and re-checks R1-R4 on
   every cell, because a hot path that trades correctness for throughput
   would be worthless here.  The whole table is computed twice, on a
   1-domain and a 4-domain pool, and must agree byte-for-byte. *)

let e13_spec ~batch ~pipeline ~loss ~seed () =
  {
    Runner.default_spec with
    seed;
    time_limit = 5_000_000;
    quiesce_grace = 20_000;
    (* Closed loop: 4 clients x 8 lanes = 32 outstanding requests, enough
       concurrently-pending work for batches to actually fill. *)
    clients = 4;
    inflight = 8;
    service_config =
      {
        Service.default_config with
        (* The serial consensus substrate (Multi-Paxos-style sequenced
           log) is the contended resource batching amortizes; the same
           setting applies to every cell, so the comparison is fair.
           Without it the simulator's consensus is infinitely parallel
           and no batching scheme could honestly win a closed loop. *)
        consensus_service_time = 30;
        faults =
          (if loss > 0.0 then
             Xnet.Fault.make ~default:(Xnet.Fault.link ~drop:loss ()) ()
           else Xnet.Fault.none);
        channel =
          (if loss > 0.0 then Service.Arq Xnet.Reliable.default_arq
           else Service.Assumed_reliable);
        replica =
          {
            Xreplication.Replica.default_config with
            batching =
              (if batch > 1 || pipeline > 1 then
                 Some
                   {
                     Xreplication.Batcher.default_config with
                     size = batch;
                     depth = pipeline;
                   }
               else None);
          };
      };
  }

let e13_run ~batch ~pipeline ~loss ~seed () =
  Runner.run
    ~spec:(e13_spec ~batch ~pipeline ~loss ~seed ())
    ~setup:Workloads.setup_all
    ~workload:(fun _ c s -> Workloads.sequence Workloads.Mixed ~n:4 c s)
    ()

(* One cell of the sweep, aggregated over [n] seeds on [pool].  Plain
   data out (no formatting), so two pools' tables compare structurally. *)
let e13_cell ~pool ~n ~batch ~pipeline ~loss =
  let results =
    Pool.map pool
      (fun seed ->
        let r, _ = e13_run ~batch ~pipeline ~loss ~seed:(seed * 7919) () in
        let requests = max 1 (List.length r.Runner.submissions) in
        ( Runner.ok r,
          Stats.ratio (1000 * requests) (max 1 r.Runner.work_end_time),
          List.map
            (fun s -> float_of_int s.Runner.latency)
            r.Runner.submissions,
          Stats.ratio r.Runner.totals.Service.consensus_proposals requests,
          Stats.ratio r.Runner.totals.Service.service_messages requests ))
      (List.init n (fun i -> i + 1))
  in
  let ok = List.length (List.filter (fun (o, _, _, _, _) -> o) results) in
  let lats = List.concat_map (fun (_, _, l, _, _) -> l) results in
  ( batch,
    pipeline,
    loss,
    ok,
    Stats.mean (List.map (fun (_, t, _, _, _) -> t) results),
    Stats.p50 lats,
    Stats.p95 lats,
    Stats.p99 lats,
    Stats.mean (List.map (fun (_, _, _, c, _) -> c) results),
    Stats.mean (List.map (fun (_, _, _, _, w) -> w) results) )

let e13 () =
  header
    "E13 Batched, pipelined hot path  [amortize consensus + wire across \
     requests; R1-R4 re-checked per cell]";
  let n = seeds 3 in
  let cells =
    List.concat_map
      (fun loss ->
        List.concat_map
          (fun batch ->
            List.map (fun pipeline -> (batch, pipeline, loss)) [ 1; 2; 4; 8 ])
          [ 1; 4; 16; 64 ])
      [ 0.0; 0.1 ]
  in
  let table pool =
    List.map
      (fun (batch, pipeline, loss) -> e13_cell ~pool ~n ~batch ~pipeline ~loss)
      cells
  in
  let pool1 = Pool.create ~domains:1 () in
  let pool4 = Pool.create ~domains:4 () in
  let rows1 = table pool1 in
  let rows4 = table pool4 in
  Pool.shutdown pool1;
  Pool.shutdown pool4;
  let identical = rows1 = rows4 in
  row "%-6s %-9s %-6s %-6s %-9s %-8s %-8s %-8s %-10s %-9s@." "batch" "pipeline"
    "loss" "ok" "req/s" "p50" "p95" "p99" "cons/req" "wire/req";
  List.iter
    (fun (b, p, loss, ok, rps, p50, p95, p99, cons, wire) ->
      row "%-6d %-9d %-6.2f %-6s %-9.1f %-8.0f %-8.0f %-8.0f %-10.3f %-9.1f@." b
        p loss
        (Printf.sprintf "%d/%d" ok n)
        rps p50 p95 p99 cons wire)
    rows4;
  let find b p loss =
    List.find (fun (b', p', l', _, _, _, _, _, _, _) -> b' = b && p' = p && l' = loss) rows4
  in
  let rps_of (_, _, _, _, rps, _, _, _, _, _) = rps in
  let cons_of (_, _, _, _, _, _, _, _, c, _) = c in
  let baseline = find 1 1 0.0 in
  let hot = find 16 4 0.0 in
  let speedup = rps_of hot /. rps_of baseline in
  let all_ok =
    List.for_all (fun (_, _, _, ok, _, _, _, _, _, _) -> ok = n) rows4
  in
  row "e13 speedup batch=16 pipeline=4 vs batch=1 pipeline=1 (loss=0): %.2fx@."
    speedup;
  row "e13 consensus instances/request at batch=16 pipeline=4: %.3f@."
    (cons_of hot);
  row "e13 all cells x-able: %b   jobs=1 vs jobs=4 tables identical: %b@."
    all_ok identical;
  row
    "expected shape: req/s grows and cons/req + wire/req fall with batch \
     size; pipelining hides tick latency; every cell stays x-able@.";
  e13_batch :=
    J_obj
      [
        ( "rows",
          J_list
            (List.map
               (fun (b, p, loss, ok, rps, p50, p95, p99, cons, wire) ->
                 J_obj
                   [
                     ("batch", J_int b);
                     ("pipeline", J_int p);
                     ("loss", J_float loss);
                     ("runs", J_int n);
                     ("ok", J_int ok);
                     ("req_per_s", J_float rps);
                     ("latency_p50", J_float p50);
                     ("latency_p95", J_float p95);
                     ("latency_p99", J_float p99);
                     ("consensus_per_request", J_float cons);
                     ("wire_messages_per_request", J_float wire);
                   ])
               rows4) );
        ("speedup_16x4_vs_1x1", J_float speedup);
        ("all_ok", J_bool all_ok);
        ("jobs_tables_identical", J_bool identical);
      ]

(* ------------------------------------------------------------------ *)
(* E15: sharded scale-out.  N independent replica groups over one shared
   wire, keys hash-partitioned with a router/directory tier in front
   (lib/shard).  Weak scaling: the per-shard closed loop is constant
   (2 sessions x 2 lanes x 5 requests, one cross-shard pair among them),
   so total offered load grows with the shard count, and with each
   group's serial consensus substrate being the bottleneck resource,
   aggregate req/s should grow near-linearly.  Every cell re-verifies
   R1-R4 through the section-4 composition checker (per-shard
   projections conjoined), and the whole table is computed on 1-domain
   and 4-domain pools, which must agree byte-for-byte.  The scaling
   gate (shards=4 at >= 3x shards=1) is greppable as "e15 gate". *)

let e15_shard : json ref = ref (J_obj [])

let e15_spec ~shards ~seed () =
  {
    Runner.default_spec with
    seed;
    time_limit = 20_000_000;
    quiesce_grace = 20_000;
    (* Per-shard closed loop: 2 sessions x 2 lanes.  Constant per shard —
       the sweep is weak scaling, offered load grows with the count. *)
    clients = 2;
    inflight = 2;
    shards;
    service_config =
      {
        Service.default_config with
        (* Same serial consensus substrate as E13: each group's sequenced
           log is the contended resource, so extra shards add capacity
           instead of sharing one infinitely-parallel substrate. *)
        consensus_service_time = 30;
        n_clients = 2;
        replica =
          {
            Xreplication.Replica.default_config with
            batching =
              Some
                {
                  Xreplication.Batcher.default_config with
                  size = 16;
                  depth = 4;
                };
          };
      };
  }

let e15_run ~shards ~seed () =
  Runner.run_deployment
    ~spec:(e15_spec ~shards ~seed ())
    ~setup:Workloads.setup_all
    ~workload:(fun _ d sess ->
      (* kv-only (undoable off): 64 shards x 20 lanes would exhaust the
         stock booking service's 64 seats and measure sell-outs, not
         scaling.  Every 4th request is a cross-shard pair. *)
      Workloads.sharded_mix ~undoable:false ~n:4 ~cross_every:4 d sess)
    ()

(* One cell, aggregated over [n] seeds on [pool]; plain data out so two
   pools' tables compare structurally. *)
let e15_cell ~pool ~n ~shards =
  let results =
    Pool.map pool
      (fun seed ->
        let r, _, d = e15_run ~shards ~seed:(seed * 7919) () in
        let requests = max 1 (List.length r.Runner.submissions) in
        let totals = Xshard.Deployment.totals d in
        ( Runner.ok r,
          List.for_all (fun (_, rep) -> rep.Checker.ok) r.Runner.shard_reports,
          Stats.ratio (1000 * requests) (max 1 r.Runner.work_end_time),
          List.map
            (fun s -> float_of_int s.Runner.latency)
            r.Runner.submissions,
          float_of_int totals.Xshard.Deployment.cross_requests,
          float_of_int totals.Xshard.Deployment.router.Xshard.Router.lookups ))
      (List.init n (fun i -> i + 1))
  in
  let ok = List.length (List.filter (fun (o, _, _, _, _, _) -> o) results) in
  let shards_ok =
    List.for_all (fun (_, so, _, _, _, _) -> so) results
  in
  let lats = List.concat_map (fun (_, _, _, l, _, _) -> l) results in
  ( shards,
    ok,
    shards_ok,
    Stats.mean (List.map (fun (_, _, t, _, _, _) -> t) results),
    Stats.p50 lats,
    Stats.p95 lats,
    Stats.mean (List.map (fun (_, _, _, _, c, _) -> c) results),
    Stats.mean (List.map (fun (_, _, _, _, _, lk) -> lk) results) )

let e15 () =
  header
    "E15 Sharded scale-out  [N replica groups, hash partition + router \
     tier; weak scaling; verdict composed per section 4]";
  let n = seeds 3 in
  let counts = [ 1; 4; 16; 64 ] in
  let table pool = List.map (fun shards -> e15_cell ~pool ~n ~shards) counts in
  let pool1 = Pool.create ~domains:1 () in
  let pool4 = Pool.create ~domains:4 () in
  let rows1 = table pool1 in
  let rows4 = table pool4 in
  Pool.shutdown pool1;
  Pool.shutdown pool4;
  let identical = rows1 = rows4 in
  let rps_of (_, _, _, rps, _, _, _, _) = rps in
  let base = rps_of (List.hd rows4) in
  row "%-8s %-6s %-10s %-10s %-9s %-8s %-8s %-11s %-11s@." "shards" "ok"
    "composed" "req/s" "speedup" "p50" "p95" "cross/run" "lookups/run";
  List.iter
    (fun ((shards, ok, shards_ok, rps, p50, p95, cross, lookups) as _row) ->
      row "%-8d %-6s %-10b %-10.1f %-9.2f %-8.0f %-8.0f %-11.1f %-11.1f@."
        shards
        (Printf.sprintf "%d/%d" ok n)
        shards_ok rps
        (if base > 0.0 then rps /. base else 0.0)
        p50 p95 cross lookups)
    rows4;
  let find shards = List.find (fun (s, _, _, _, _, _, _, _) -> s = shards) rows4 in
  let speedup4 = rps_of (find 4) /. base in
  let speedup16 = rps_of (find 16) /. base in
  let speedup64 = rps_of (find 64) /. base in
  let all_ok =
    List.for_all (fun (_, ok, so, _, _, _, _, _) -> ok = n && so) rows4
  in
  let gate_ok = speedup4 >= 3.0 in
  row "e15 gate shards=4 vs shards=1 speedup (must be >= 3): %.2fx pass=%b@."
    speedup4 gate_ok;
  row "e15 speedup shards=16: %.2fx  shards=64: %.2fx@." speedup16 speedup64;
  row "e15 all cells x-able (composed): %b   jobs=1 vs jobs=4 tables \
       identical: %b@."
    all_ok identical;
  row
    "expected shape: req/s grows near-linearly with the shard count (each \
     group brings its own serial consensus substrate); latency stays flat; \
     every cell composes to x-able@.";
  e15_shard :=
    J_obj
      [
        ( "rows",
          J_list
            (List.map
               (fun (shards, ok, shards_ok, rps, p50, p95, cross, lookups) ->
                 J_obj
                   [
                     ("shards", J_int shards);
                     ("runs", J_int n);
                     ("ok", J_int ok);
                     ("composed_ok", J_bool shards_ok);
                     ("req_per_s", J_float rps);
                     ("speedup", J_float (if base > 0.0 then rps /. base else 0.0));
                     ("latency_p50", J_float p50);
                     ("latency_p95", J_float p95);
                     ("cross_requests_per_run", J_float cross);
                     ("router_lookups_per_run", J_float lookups);
                   ])
               rows4) );
        ("speedup_4_vs_1", J_float speedup4);
        ("speedup_16_vs_1", J_float speedup16);
        ("speedup_64_vs_1", J_float speedup64);
        ("gate_4x_ge_3", J_bool gate_ok);
        ("all_ok", J_bool all_ok);
        ("jobs_tables_identical", J_bool identical);
      ]

(* ------------------------------------------------------------------ *)
(* E16: leased-owner fast path across consensus substrates.  The E13 hot
   point (batch=16 x pipeline=4, 4 clients x 8 lanes, serial consensus
   substrate) re-run on every substrate x lease setting, fault-free and
   under the E12 lossy wire (loss=0.1 dup=0.1 over ARQ).  While the
   lease is held the owner skips owner agreement entirely, so
   msgs/request must drop (>= 2x on the register substrate, whose every
   owner decision is otherwise a round trip) with p50 no worse; verdicts
   must stay x-able in every cell and identical across substrates.
   Gates are greppable as "e16 gate" / "e16 substrate". *)

let e16_lease : json ref = ref (J_obj [])

let e16_spec ~substrate ~lease ~loss ~seed () =
  {
    Runner.default_spec with
    seed;
    time_limit = 5_000_000;
    quiesce_grace = 20_000;
    (* E13's closed loop: enough outstanding work for batches to fill. *)
    clients = 4;
    inflight = 8;
    service_config =
      {
        Service.default_config with
        consensus_service_time = 30;
        substrate;
        lease =
          (if lease then Some Xreplication.Lease.default_config else None);
        faults =
          (if loss > 0.0 then
             Xnet.Fault.make ~default:(Xnet.Fault.link ~drop:loss ~dup:0.1 ()) ()
           else Xnet.Fault.none);
        channel =
          (if loss > 0.0 then Service.Arq Xnet.Reliable.default_arq
           else Service.Assumed_reliable);
        replica =
          {
            Xreplication.Replica.default_config with
            batching =
              Some
                {
                  Xreplication.Batcher.default_config with
                  size = 16;
                  depth = 4;
                };
          };
      };
  }

let e16_run ~substrate ~lease ~loss ~seed () =
  Runner.run
    ~spec:(e16_spec ~substrate ~lease ~loss ~seed ())
    ~setup:Workloads.setup_all
    ~workload:(fun _ c s -> Workloads.sequence Workloads.Mixed ~n:4 c s)
    ()

(* One cell over [n] seeds on [pool]; plain data out so two pools'
   tables compare structurally.  [oks] keeps the per-seed verdicts so
   substrate identity can be checked seed-by-seed, not just in count. *)
let e16_cell ~pool ~n ~sub_name ~substrate ~lease ~loss =
  let results =
    Pool.map pool
      (fun seed ->
        let r, _ = e16_run ~substrate ~lease ~loss ~seed:(seed * 7919) () in
        let requests = max 1 (List.length r.Runner.submissions) in
        ( Runner.ok r,
          Stats.ratio (1000 * requests) (max 1 r.Runner.work_end_time),
          List.map
            (fun s -> float_of_int s.Runner.latency)
            r.Runner.submissions,
          Stats.ratio r.Runner.totals.Service.coord_msgs requests ))
      (List.init n (fun i -> i + 1))
  in
  let oks = List.map (fun (o, _, _, _) -> o) results in
  let lats = List.concat_map (fun (_, _, l, _) -> l) results in
  ( sub_name,
    lease,
    loss,
    List.length (List.filter Fun.id oks),
    oks,
    Stats.mean (List.map (fun (_, t, _, _) -> t) results),
    Stats.p50 lats,
    Stats.p95 lats,
    Stats.mean (List.map (fun (_, _, _, m) -> m) results) )

let e16 () =
  header
    "E16 Leased-owner fast path x consensus substrates  [owner agreement \
     skipped while the lease holds; fenced by the epoch in Pval.Leased]";
  let n = seeds 3 in
  let cells =
    List.concat_map
      (fun loss ->
        List.concat_map
          (fun (sub_name, substrate) ->
            List.map
              (fun lease -> (sub_name, substrate, lease, loss))
              [ false; true ])
          Xreplication.Coord.substrates)
      [ 0.0; 0.1 ]
  in
  let table pool =
    List.map
      (fun (sub_name, substrate, lease, loss) ->
        e16_cell ~pool ~n ~sub_name ~substrate ~lease ~loss)
      cells
  in
  let pool1 = Pool.create ~domains:1 () in
  let pool4 = Pool.create ~domains:4 () in
  let rows1 = table pool1 in
  let rows4 = table pool4 in
  Pool.shutdown pool1;
  Pool.shutdown pool4;
  let identical = rows1 = rows4 in
  row "%-10s %-6s %-6s %-6s %-9s %-8s %-8s %-9s@." "substrate" "lease" "loss"
    "ok" "req/s" "p50" "p95" "msgs/req";
  List.iter
    (fun (sub, lease, loss, ok, _, rps, p50, p95, msgs) ->
      row "%-10s %-6b %-6.2f %-6s %-9.1f %-8.0f %-8.0f %-9.2f@." sub lease loss
        (Printf.sprintf "%d/%d" ok n)
        rps p50 p95 msgs)
    rows4;
  let find sub lease loss =
    List.find
      (fun (s, l, f, _, _, _, _, _, _) -> s = sub && l = lease && f = loss)
      rows4
  in
  let msgs_of (_, _, _, _, _, _, _, _, m) = m in
  let p50_of (_, _, _, _, _, _, p, _, _) = p in
  let oks_of (_, _, _, _, oks, _, _, _, _) = oks in
  let off = find "register" false 0.0 and on = find "register" true 0.0 in
  let ratio =
    if msgs_of off > 0.0 then msgs_of on /. msgs_of off else infinity
  in
  let ratio_ok = ratio <= 0.60 in
  let p50_ok = p50_of on <= p50_of off in
  let all_ok =
    List.for_all (fun (_, _, _, ok, _, _, _, _, _) -> ok = n) rows4
  in
  (* Same workload + seed must reach the same verdict whichever substrate
     (and lease setting) backs agreement — checked seed-by-seed. *)
  let substrate_identical =
    List.for_all
      (fun loss ->
        List.for_all
          (fun lease ->
            let reg = oks_of (find "register" lease loss) in
            oks_of (find "paxos" lease loss) = reg
            && oks_of (find "seqlog" lease loss) = reg)
          [ false; true ])
      [ 0.0; 0.1 ]
  in
  row
    "e16 gate lease msgs/request ratio (register, loss=0, must be <= 0.60): \
     %.2f pass=%b@."
    ratio ratio_ok;
  row "e16 p50 lease-on vs lease-off (register, loss=0): %.0f vs %.0f \
       pass=%b@."
    (p50_of on) (p50_of off) p50_ok;
  row "e16 substrate verdicts identical: %b@." substrate_identical;
  row "e16 all cells x-able: %b   jobs=1 vs jobs=4 tables identical: %b@."
    all_ok identical;
  row
    "expected shape: msgs/request halves (register) or falls (paxos/seqlog) \
     with the lease held, p50 no worse, every cell x-able on every \
     substrate@.";
  e16_lease :=
    J_obj
      [
        ( "rows",
          J_list
            (List.map
               (fun (sub, lease, loss, ok, _, rps, p50, p95, msgs) ->
                 J_obj
                   [
                     ("substrate", J_str sub);
                     ("lease", J_bool lease);
                     ("loss", J_float loss);
                     ("runs", J_int n);
                     ("ok", J_int ok);
                     ("req_per_s", J_float rps);
                     ("latency_p50", J_float p50);
                     ("latency_p95", J_float p95);
                     ("msgs_per_request", J_float msgs);
                   ])
               rows4) );
        ("lease_msgs_ratio_register", J_float ratio);
        ("gate_ratio_le_0_6", J_bool ratio_ok);
        ("p50_no_worse", J_bool p50_ok);
        ("substrate_verdicts_identical", J_bool substrate_identical);
        ("all_ok", J_bool all_ok);
        ("jobs_tables_identical", J_bool identical);
      ]

(* ------------------------------------------------------------------ *)
(* Parallel speedup calibration: one fixed sweep, sequential vs pool. *)

let calibrate () =
  header "Parallel calibration (same sweep, sequential vs pool)";
  let n = seeds 10 in
  let work seed =
    let r, _ = protocol_run ~crashes:[ (150, 0) ] ~seed:(seed * 7919) () in
    Runner.ok r
  in
  let items = List.init n (fun i -> i + 1) in
  let t0 = Unix.gettimeofday () in
  let seq = List.map work items in
  let seq_s = Unix.gettimeofday () -. t0 in
  let t1 = Unix.gettimeofday () in
  let par = Pool.map pool work items in
  let par_s = Unix.gettimeofday () -. t1 in
  let speedup = if par_s > 0.0 then seq_s /. par_s else 1.0 in
  row "jobs=%d  sequential %.3fs  pool %.3fs  speedup %.2fx  identical=%b@."
    (Pool.size pool) seq_s par_s speedup (seq = par);
  calibration :=
    J_obj
      [
        ("runs", J_int n);
        ("jobs", J_int (Pool.size pool));
        ("sequential_s", J_float seq_s);
        ("pool_s", J_float par_s);
        ("speedup", J_float speedup);
        ("results_identical", J_bool (seq = par));
      ]

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks *)

let microbench () =
  header "Microbenchmarks (Bechamel, monotonic clock, ns/run)";
  let open Bechamel in
  let open Bechamel.Toolkit in
  let engine_events () =
    let eng = Xsim.Engine.create ~trace_enabled:false () in
    for _ = 1 to 1000 do
      Xsim.Engine.schedule eng ~delay:1 ignore
    done;
    Xsim.Engine.run eng
  in
  let env_execute () =
    let eng = Xsim.Engine.create ~trace_enabled:false () in
    let env =
      Xsm.Environment.create eng
        ~config:
          { Xsm.Environment.default_config with exec_min = 1; exec_mean = 1.0 }
        ()
    in
    Xsm.Environment.register_idempotent env "a"
      (fun ~rid:_ ~payload:_ ~rng:_ -> Value.unit);
    Xsim.Engine.spawn eng ~name:"f" (fun () ->
        for i = 1 to 50 do
          ignore
            (Xsm.Environment.execute env
               (Xsm.Request.make ~rid:i ~action:"a" ~kind:Action.Idempotent
                  ~input:Value.unit))
        done);
    Xsim.Engine.run eng
  in
  let paxos_round () =
    let eng = Xsim.Engine.create ~trace_enabled:false () in
    let members =
      List.init 3 (fun i ->
          let a = Xnet.Address.make ~role:"px" ~index:i in
          (a, Xsim.Proc.create ~name:(Xnet.Address.to_string a)))
    in
    let g =
      Xconsensus.Paxos.create_group eng ~latency:(Xnet.Latency.Constant 10)
        ~members ()
    in
    let m0 = fst (List.hd members) in
    Xsim.Engine.spawn eng ~name:"p" (fun () ->
        ignore
          (Xconsensus.Paxos.propose
             (Xconsensus.Paxos.handle g ~member:m0 ~inst:"i")
             1));
    Xsim.Engine.run ~limit:1_000_000 eng
  in
  let e2e_request () =
    let r, _ = protocol_run ~n_requests:1 ~seed:7 () in
    ignore r
  in
  let h2 = idem_history ~attempts:2 in
  let h6 = idem_history ~attempts:6 in
  let hu = undo_history ~rounds:2 in
  let tests =
    Test.make_grouped ~name:"xability"
      [
        Test.make ~name:"reduce: idem 2 retries"
          (Staged.stage (fun () ->
               ignore (Reduction.reduce_greedy ~kinds:e7_kinds h2)));
        Test.make ~name:"reduce: idem 6 retries"
          (Staged.stage (fun () ->
               ignore (Reduction.reduce_greedy ~kinds:e7_kinds h6)));
        Test.make ~name:"reduce: undo 2 rounds"
          (Staged.stage (fun () ->
               ignore (Reduction.reduce_greedy ~kinds:e7_kinds hu)));
        Test.make ~name:"sim: 1000 events" (Staged.stage engine_events);
        Test.make ~name:"env: 50 executions" (Staged.stage env_execute);
        Test.make ~name:"paxos: 1 decision (n=3)" (Staged.stage paxos_round);
        Test.make ~name:"protocol: 1 request e2e" (Staged.stage e2e_request);
      ]
  in
  let benchmark () =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000
        ~quota:(Time.second (if quick then 0.25 else 1.0))
        ~kde:(Some 1000) ()
    in
    let raw_results = Benchmark.all cfg instances tests in
    let results =
      List.map (fun instance -> Analyze.all ols instance raw_results) instances
    in
    Analyze.merge ols instances results
  in
  let results = benchmark () in
  (match Hashtbl.find_opt results (Measure.label Instance.monotonic_clock) with
  | Some tbl ->
      let rows =
        Hashtbl.fold
          (fun name ols acc ->
            match Analyze.OLS.estimates ols with
            | Some [ est ] -> (name, est) :: acc
            | _ -> acc)
          tbl []
      in
      List.iter
        (fun (name, est) ->
          row "%-40s %14.0f ns/run@." name est;
          micro_rows :=
            J_obj [ ("name", J_str name); ("ns_per_run", J_float est) ]
            :: !micro_rows)
        (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)
  | None -> row "no results?!@.")

(* ------------------------------------------------------------------ *)

let write_json path =
  let experiments =
    List.rev_map
      (fun (name, s) ->
        J_obj [ ("name", J_str name); ("wall_s", J_float s) ])
      !exp_times
  in
  let doc =
    J_obj
      [
        ("bench", J_str "verdict_pipeline");
        ("quick", J_bool quick);
        ("jobs", J_int (Pool.size pool));
        ("experiments", J_list experiments);
        ("e7_reduction", J_list (List.rev !e7_rows));
        ("e10_explore", J_list (List.rev !explore_rows));
        ("e11_obs", !e11_obs);
        ("e12_net", !e12_net);
        ("e13_batch", !e13_batch);
        ("e15_shard", !e15_shard);
        ("e16_lease", !e16_lease);
        ("calibration", !calibration);
        ("microbench", J_list (List.rev !micro_rows));
      ]
  in
  let oc = open_out path in
  output_string oc (json_to_string doc);
  output_string oc "\n";
  close_out oc;
  Format.printf "@.wrote %s@." path

let () =
  Format.printf "X-Ability reproduction benchmark harness%s  (jobs=%d)@."
    (if quick then " (QUICK mode)" else "")
    (Pool.size pool);
  timed_exp "e1" e1;
  timed_exp "e2" e2;
  timed_exp "e3" e3;
  timed_exp "e4" e4;
  timed_exp "e5" e5;
  timed_exp "e6" e6;
  timed_exp "e7" e7;
  timed_exp "e8" e8;
  timed_exp "e9" e9;
  timed_exp "e10" e10;
  timed_exp "e11" e11;
  timed_exp "e12" e12;
  timed_exp "e13" e13;
  timed_exp "e15" e15;
  timed_exp "e16" e16;
  timed_exp "calibration" calibrate;
  timed_exp "microbench" microbench;
  (match !json_arg with Some path -> write_json path | None -> ());
  Format.printf "@.done.@."
