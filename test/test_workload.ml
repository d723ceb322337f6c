(* Tests for the workload library (xworkload): statistics helpers and
   runner mechanics. *)

module Stats = Xworkload.Stats
module Runner = Xworkload.Runner
module Workloads = Xworkload.Workloads
module Bench_compare = Xworkload.Bench_compare

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

let test_mean () =
  checkf "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  checkf "empty" 0.0 (Stats.mean []);
  checkf "mean_int" 2.5 (Stats.mean_int [ 2; 3 ])

let test_stddev () =
  checkf "constant" 0.0 (Stats.stddev [ 5.0; 5.0; 5.0 ]);
  checkf "singleton" 0.0 (Stats.stddev [ 5.0 ]);
  checkb "spread > 0" true (Stats.stddev [ 1.0; 9.0 ] > 0.0)

let test_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  checkf "median" 50.0 (Stats.percentile 0.5 xs);
  checkf "p99" 99.0 (Stats.percentile 0.99 xs);
  checkf "p100" 100.0 (Stats.percentile 1.0 xs);
  (* The empty distribution has no percentiles (nan, not a fake 0.0)... *)
  checkb "empty is nan" true (Float.is_nan (Stats.percentile 0.5 []));
  checkb "empty summarize p50 nan" true
    (Float.is_nan (Stats.summarize []).Stats.p50);
  (* ...and every percentile of a singleton is its only element. *)
  checkf "singleton p1" 7.0 (Stats.percentile 0.01 [ 7.0 ]);
  checkf "singleton p50" 7.0 (Stats.percentile 0.5 [ 7.0 ]);
  checkf "singleton p100" 7.0 (Stats.percentile 1.0 [ 7.0 ])

let test_min_max () =
  let lo, hi = Stats.min_max [ 3.0; 1.0; 2.0 ] in
  checkf "min" 1.0 lo;
  checkf "max" 3.0 hi

let test_ratio () =
  checkf "ratio" 0.5 (Stats.ratio 1 2);
  checkf "zero denominator" 0.0 (Stats.ratio 1 0)

(* ------------------------------------------------------------------ *)

let test_runner_determinism () =
  let go () =
    let r, _ =
      Runner.run
        ~spec:{ Runner.default_spec with seed = 55 }
        ~setup:Workloads.setup_all
        ~workload:(fun _ c s -> Workloads.sequence Mixed ~n:4 c s)
        ()
    in
    ( r.Runner.end_time,
      r.Runner.history_length,
      List.map (fun s -> s.Runner.latency) r.Runner.submissions )
  in
  let a = go () and b = go () in
  checkb "identical runs from identical seeds" true (a = b)

let test_runner_seed_changes_timings () =
  let go seed =
    let r, _ =
      Runner.run
        ~spec:{ Runner.default_spec with seed }
        ~setup:Workloads.setup_all
        ~workload:(fun _ c s -> Workloads.sequence Mixed ~n:4 c s)
        ()
    in
    List.map (fun s -> s.Runner.latency) r.Runner.submissions
  in
  checkb "different seeds give different latencies" true (go 1 <> go 2)

let test_runner_records_submissions () =
  let r, _ =
    Runner.run ~spec:Runner.default_spec ~setup:Workloads.setup_all
      ~workload:(fun _ c s -> Workloads.sequence Idempotent_only ~n:3 c s)
      ()
  in
  checki "three submissions" 3 (List.length r.Runner.submissions);
  List.iter
    (fun s -> checkb "positive latency" true (s.Runner.latency > 0))
    r.Runner.submissions;
  checkb "ok" true (Runner.ok r);
  checkb "no failures listed" true (Runner.failures r = [])

let test_runner_failures_listing () =
  (* An uncompleted run must produce a readable failure list. *)
  let r, _ =
    Runner.run
      ~spec:{ Runner.default_spec with client_crash_at = Some 10; time_limit = 50_000 }
      ~setup:Workloads.setup_all
      ~workload:(fun _ c s -> Workloads.sequence Idempotent_only ~n:3 c s)
      ()
  in
  checkb "not ok" false (Runner.ok r);
  checkb "mentions completion" true
    (List.exists
       (fun f -> f = "workload did not complete")
       (Runner.failures r))

let test_workload_constructors () =
  (* Constructors produce well-formed requests with distinct ids. *)
  let r1, _ =
    Runner.run ~spec:Runner.default_spec ~setup:Workloads.setup_all
      ~workload:(fun _ client submit ->
        let a = Workloads.send client ~body:"x" in
        let b = Workloads.kv_put client ~key:"k" ~value:(Xability.Value.int 1) in
        let c = Workloads.kv_get client ~key:"k" in
        checkb "distinct rids" true (a.Xsm.Request.rid <> b.Xsm.Request.rid);
        ignore (submit a);
        ignore (submit b);
        ignore (submit c))
      ()
  in
  checkb "ok" true (Runner.ok r1)

(* ------------------------------------------------------------------ *)
(* Bench_compare: one-sided paths, zero baselines, metric directions *)

let diff_to_string ?threshold a b =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let summary =
    Bench_compare.diff ~ppf ?threshold ~name_a:"a" ~name_b:"b"
      (Bench_compare.Json.parse a) (Bench_compare.Json.parse b)
  in
  Format.pp_print_flush ppf ();
  (summary, Buffer.contents buf)

let contains s sub =
  let ls = String.length sub and ln = String.length s in
  let rec at i = i + ls <= ln && (String.sub s i ls = sub || at (i + 1)) in
  at 0

let test_compare_missing_paths () =
  let summary, out =
    diff_to_string {|{"kept":1,"gone":5}|} {|{"kept":1,"fresh":7}|}
  in
  checki "compared" 1 summary.Bench_compare.compared;
  checki "only in a" 1 summary.Bench_compare.only_a;
  checki "only in b" 1 summary.Bench_compare.only_b;
  checkb "gone renders n/a" true (contains out "gone");
  checkb "n/a marker present" true (contains out "n/a")

let test_compare_zero_baseline () =
  (* 0 -> nonzero used to mean an infinite delta; it must render, not
     raise, and count as shown. *)
  let summary, _ = diff_to_string {|{"x":0}|} {|{"x":3}|} in
  checki "compared" 1 summary.Bench_compare.compared;
  checki "shown" 1 summary.Bench_compare.shown

let test_compare_regression_direction () =
  let summary, out =
    diff_to_string {|{"req_per_s":100,"latency_p95":10}|}
      {|{"req_per_s":50,"latency_p95":20}|}
  in
  checki "both regress" 2 summary.Bench_compare.regressions;
  checkb "marked" true (contains out "REGRESSION")

let test_compare_msgs_per_request_direction () =
  (* Message-economy metrics are lower-better: a rising msgs/request (or
     lease miss/expiry count) is a regression, a falling one an
     improvement — not unjudged noise. *)
  List.iter
    (fun leaf ->
      checkb (leaf ^ " is lower-better") true
        (Bench_compare.metric_direction ("e16_lease.rows[0]." ^ leaf)
        = `Lower_better))
    [
      "msgs_per_request";
      "messages_per_request";
      "msgs_per_req";
      "lease_misses";
      "lease_expiries";
    ];
  let summary, out =
    diff_to_string {|{"msgs_per_request":2.0}|} {|{"msgs_per_request":4.0}|}
  in
  checki "increase regresses" 1 summary.Bench_compare.regressions;
  checkb "marked" true (contains out "REGRESSION");
  let summary, out =
    diff_to_string {|{"msgs_per_request":4.0}|} {|{"msgs_per_request":2.0}|}
  in
  checki "decrease is not a regression" 0 summary.Bench_compare.regressions;
  checkb "improved" true (contains out "improved")

let test_compare_parse_error () =
  checkb "trailing garbage rejected" true
    (try
       ignore (Bench_compare.Json.parse "{} junk");
       false
     with Bench_compare.Json.Parse_error _ -> true)

let tc name f = Alcotest.test_case name `Quick f

(* [Runner.settled_outputs] indexes the groups by key; it must answer
   exactly what scanning the group list in order answers: the first group
   for the pair whose output is known.  Few actions and logical values
   make duplicate keys common, and outputs are often unknown. *)
let prop_settled_outputs_match_scan =
  let open QCheck.Gen in
  let action = oneofl [ "send"; "transfer"; "put" ] in
  let logical =
    oneofl
      Xability.Value.[ int 1; int 2; str "1"; pair (int 1) (str "k"); nil ]
  in
  let group =
    map
      (fun ((action, logical), output) ->
        {
          Xability.Checker.expected =
            { Xability.Checker.action; kind = Xability.Action.Idempotent; logical };
          events = 0;
          ok = output <> None;
          reduced = None;
          output = Option.map Xability.Value.int output;
          first_completion = None;
          detail = "";
        })
      (pair (pair action logical) (opt (int_bound 3)))
  in
  let arb =
    QCheck.make
      ~print:(fun (gs, _) -> Printf.sprintf "%d groups" (List.length gs))
      (pair (list_size (int_bound 12) group) (list_size (int_range 1 6) group))
  in
  QCheck.Test.make ~name:"settled outputs: table lookup = list scan"
    ~count:500 arb (fun (groups, probes) ->
      let lookup = Runner.settled_outputs groups in
      let scan (exp : Xability.Checker.expected) =
        List.find_map
          (fun (g : Xability.Checker.group_result) ->
            if
              g.expected.action = exp.action
              && Xability.Value.equal g.expected.logical exp.logical
            then g.output
            else None)
          groups
      in
      List.for_all
        (fun (p : Xability.Checker.group_result) ->
          Option.equal Xability.Value.equal (lookup p.expected)
            (scan p.expected))
        (probes @ groups))

let () =
  Alcotest.run "xworkload"
    [
      ( "stats",
        [
          tc "mean" test_mean;
          tc "stddev" test_stddev;
          tc "percentile" test_percentile;
          tc "min_max" test_min_max;
          tc "ratio" test_ratio;
        ] );
      ( "runner",
        [
          tc "determinism" test_runner_determinism;
          tc "seed sensitivity" test_runner_seed_changes_timings;
          tc "records submissions" test_runner_records_submissions;
          tc "failure listing" test_runner_failures_listing;
          tc "workload constructors" test_workload_constructors;
          QCheck_alcotest.to_alcotest prop_settled_outputs_match_scan;
        ] );
      ( "bench compare",
        [
          tc "missing paths render n/a" test_compare_missing_paths;
          tc "zero baseline" test_compare_zero_baseline;
          tc "regression direction" test_compare_regression_direction;
          tc "msgs/request direction" test_compare_msgs_per_request_direction;
          tc "parse error" test_compare_parse_error;
        ] );
    ]
