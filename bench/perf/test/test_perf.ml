open Xperf
module Json = Xworkload.Bench_compare.Json

(* Small instances of every workload: same protocol, knobs and checks,
   a fraction of the work. *)
let shrink w =
  let small = function
    | Perf.Closed _ -> Perf.Closed { clients = 2; lanes = 2; per_lane = 3 }
    | Perf.Open { rate_per_kt; _ } ->
        Perf.Open { lanes = 2; per_lane = 10; rate_per_kt = rate_per_kt /. 2.0 }
    | Perf.Walk _ -> Perf.Walk { trials = 2 }
  in
  let c = Perf.config w in
  { c with Perf.load = small c.Perf.load; warmup = (small (fst c.Perf.warmup), 1); min_units = 1 }

let inputs_are_seeded () =
  List.iter
    (fun w ->
      let c = Perf.config w in
      let gen seed index = Perf.gen_input ~seed ~index ~faulty:c.Perf.faulty c.Perf.load in
      Alcotest.(check bool) (Perf.name w ^ " same seed") true (gen 7 3 = gen 7 3);
      Alcotest.(check bool) (Perf.name w ^ " other seed") false (gen 7 3 = gen 8 3);
      Alcotest.(check bool) (Perf.name w ^ " other unit") false (gen 7 3 = gen 7 4))
    Perf.workloads

let faulty_rate () =
  let c = Perf.config Perf.Faulty in
  let spans = ref 0 and sent = ref 0 in
  for seed = 1 to 20 do
    for index = 0 to 4 do
      let inp = Perf.gen_input ~seed ~index ~faulty:true c.Perf.load in
      Array.iter
        (fun dues ->
          spans := !spans + dues.(Array.length dues - 1);
          sent := !sent + Array.length dues)
        inp.Perf.dues
    done
  done;
  (* Lanes send side by side: the total rate is lanes times one lane's. *)
  let lanes = match c.Perf.load with Perf.Open { lanes; _ } -> lanes | _ -> 0 in
  let rate = float_of_int (lanes * !sent) *. 1000.0 /. float_of_int !spans in
  if Float.abs (rate -. 20.0) > 1.0 then
    Alcotest.failf "faulty arrival rate %.2f req/kt, want 20 +- 5%%" rate

let traced_matches_untraced () =
  List.iter
    (fun w ->
      let c = shrink w in
      let inp = Perf.gen_input ~seed:5 ~index:0 ~faulty:c.Perf.faulty c.Perf.load in
      let prints outs = List.map Perf.fingerprint outs in
      let plain = Perf.run_unit c c.Perf.load inp in
      let tr = Layer.create () in
      let traced = Perf.run_unit ~tracer:tr c c.Perf.load inp in
      Xobs.set_enabled true;
      let counted = Perf.run_unit c c.Perf.load inp in
      Xobs.set_enabled false;
      List.iter
        (fun (o : Perf.outcome) ->
          Alcotest.(check (list string)) (Perf.name w ^ " run ok") [] o.Perf.failures)
        plain;
      Alcotest.(check bool) (Perf.name w ^ " traced") true (prints plain = prints traced);
      Alcotest.(check bool) (Perf.name w ^ " counted") true (prints plain = prints counted);
      Alcotest.(check bool) (Perf.name w ^ " decisions seen") true (tr.Layer.decisions > 0);
      Alcotest.(check (list string)) (Perf.name w ^ " labels without a layer") []
        (Layer.unknown_labels tr))
    Perf.workloads

let labels_map_to_layers () =
  let layer = Alcotest.testable (fun ppf l -> Fmt.int ppf (Layer.index l)) ( = ) in
  List.iter
    (fun (label, want) ->
      Alcotest.(check (option layer)) label want (Layer.of_label label))
    [
      ("net:replica.1", Some Layer.Net);
      ("netdup:client", Some Layer.Net);
      ("timer", Some Layer.Timer);
      ("cb", Some Layer.Detect);
      ("resume:replica:main#1", Some Layer.Replication);
      ("spawn:replica.2:batch3#7", Some Layer.Replication);
      ("resume:seqlog:replica.1", Some Layer.Consensus);
      ("spawn:paxos:replica", Some Layer.Consensus);
      ("resume:env-worker:kv_put", Some Layer.Sm);
      ("resume:client-demux:client.3", Some Layer.Client);
      ("spawn:workload2.7", Some Layer.Client);
      ("resume:hb-check:replica", Some Layer.Detect);
      ("resume:pb:replica", None);
      ("resume:", None);
      ("network", None);
    ]

(* The names BENCHMARK.json lists under [key]. *)
let spec_names key =
  let j = Json.parse (In_channel.with_open_bin "../../../BENCHMARK.json" In_channel.input_all) in
  match Compare.field key j with
  | Some (Json.List ms) ->
      List.filter_map
        (fun m -> match Compare.field "name" m with Some (Json.Str s) -> Some s | _ -> None)
        ms
  | _ -> Alcotest.failf "BENCHMARK.json has no %s list" key

let output_names_every_metric () =
  List.iter
    (fun (traced, key) ->
      let want = spec_names key in
      List.iter
        (fun w ->
          let r = Perf.run ~cfg:(shrink w) w ~seed:3 ~seconds:0.01 ~traced in
          let j = Json.parse (Perf.to_json r) in
          Alcotest.(check bool) (Perf.name w ^ " correct") true
            (Compare.field "correct" j = Some (Json.Bool true));
          List.iter
            (fun k ->
              if Compare.field k j = None then Alcotest.failf "%s: no %s" (Perf.name w) k)
            [ "attempted"; "failed" ];
          let metrics = Option.get (Compare.field "metrics" j) in
          List.iter
            (fun name ->
              match Option.bind (Compare.field name metrics) (Compare.field "value") with
              | Some (Json.Num _) -> ()
              | _ -> Alcotest.failf "%s (%s): metric %s missing" (Perf.name w) key name)
            want)
        Perf.workloads)
    [ (false, "end_to_end"); (true, "per_layer") ]

let quartiles_match_python () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q3 = Compare.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (float 1e-9)) "q1" 2.75 q1;
  Alcotest.(check (float 1e-9)) "q3" 8.25 q3

let judge_uses_direction_and_bound () =
  let lower = { Compare.name = "m"; higher_better = false; bound = Some 0.1 } in
  let judge spec b n = Compare.verdict_name (Compare.judge spec b n) in
  Alcotest.(check string) "within bound" "same" (judge lower [ 100.; 101.; 99. ] [ 105.; 104.; 106. ]);
  Alcotest.(check string) "worse" "REGRESSED" (judge lower [ 100.; 101.; 99. ] [ 120.; 121.; 119. ]);
  Alcotest.(check string) "better" "improved"
    (judge { lower with higher_better = true } [ 100.; 101.; 99. ] [ 120.; 121.; 119. ]);
  Alcotest.(check string) "noisy" "unresolved" (judge lower [ 50.; 100.; 150. ] [ 60.; 120.; 180. ])

let () =
  Alcotest.run "perf"
    [
      ( "inputs",
        [
          Alcotest.test_case "pure function of the seed" `Quick inputs_are_seeded;
          Alcotest.test_case "faulty arrival rate" `Quick faulty_rate;
        ] );
      ( "trace",
        [
          Alcotest.test_case "labels map to layers" `Quick labels_map_to_layers;
          Alcotest.test_case "traced runs match untraced" `Quick traced_matches_untraced;
        ] );
      ( "output",
        [
          Alcotest.test_case "every BENCHMARK.json metric" `Quick output_names_every_metric;
          Alcotest.test_case "quartiles match Python" `Quick quartiles_match_python;
          Alcotest.test_case "compare verdicts" `Quick judge_uses_direction_and_bound;
        ] );
    ]
