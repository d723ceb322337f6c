(* Tests for the schedule-space explorer (lib/explore): schedule
   serialization, the bounded trace, the incremental checker, replay
   determinism (including across pool sizes), and the self-test that the
   explorer actually finds and shrinks each deliberately buggy protocol
   variant while leaving the faithful protocol clean. *)

open Xability
open Xexplore
module Mutation = Xreplication.Mutation

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let quick = Sys.getenv_opt "QUICK" <> None

(* ------------------------------------------------------------------ *)
(* Schedule: serialization round-trip *)

let sched_testable = Alcotest.testable Schedule.pp Schedule.equal

let test_schedule_roundtrip_basic () =
  let s = Schedule.make ~seed:42 () in
  Alcotest.(check (option sched_testable))
    "plain" (Some s)
    (Schedule.of_string (Schedule.to_string s))

let test_schedule_roundtrip_full () =
  let s =
    Schedule.make ~window:6 ~mutation:Mutation.Skip_undo_on_takeover
      ~crashes:[ (150, 0); (900, 2) ] ~client_crash_at:400
      ~noise:(0.25, 150, 10_000)
      ~shifts:[ (31, 2); (7, 1) ]
      ~seed:1337 ()
  in
  Alcotest.(check (option sched_testable))
    "all fields" (Some s)
    (Schedule.of_string (Schedule.to_string s));
  (* shifts are kept sorted by step *)
  checkb "shifts sorted" true (s.Schedule.shifts = [ (7, 1); (31, 2) ])

let test_schedule_roundtrip_faults () =
  let faults =
    {
      Schedule.loss = 0.2;
      dup_prob = 0.1;
      jitter = 5;
      partitions = [ (400, 1200, [ 0; 2 ]) ];
      forced = [ (3, 0); (7, 1) ];
    }
  in
  let s = Schedule.make ~faults ~seed:7 () in
  Alcotest.(check (option sched_testable))
    "fault plan round-trips" (Some s)
    (Schedule.of_string (Schedule.to_string s));
  (* pre-fault-plane lines (no net=/parts=/netf= tokens) still parse *)
  match Schedule.of_string "v1 seed=9 win=4 mut=faithful crashes=- ccrash=- noise=- shifts=-" with
  | None -> Alcotest.fail "legacy line rejected"
  | Some legacy ->
      checkb "legacy line defaults to no faults" true
        (Schedule.faults_are_none legacy.Schedule.faults)

let test_schedule_roundtrip_awkward_float () =
  (* %h serialization must round-trip floats that have no short decimal
     form. *)
  let s = Schedule.make ~noise:(0.1 +. 0.2, 1, 2) ~seed:0 () in
  Alcotest.(check (option sched_testable))
    "0.1 +. 0.2" (Some s)
    (Schedule.of_string (Schedule.to_string s))

let test_schedule_of_string_garbage () =
  checkb "empty" true (Schedule.of_string "" = None);
  checkb "wrong version" true (Schedule.of_string "v9 seed=1" = None);
  checkb "word salad" true (Schedule.of_string "not a schedule" = None)

let test_schedule_chooser () =
  let s = Schedule.make ~shifts:[ (3, 2); (5, 1) ] ~seed:0 () in
  let ch = Schedule.chooser s in
  let ready = [| "a"; "b"; "c"; "d" |] in
  checki "default front" 0 (ch ~step:0 ~ready);
  checki "shift at 3" 2 (ch ~step:3 ~ready);
  checki "shift at 5" 1 (ch ~step:5 ~ready);
  checki "past shifts default" 0 (ch ~step:6 ~ready)

let gen_schedule =
  let open QCheck.Gen in
  let pair_nat b = pair (int_bound 5_000) (int_bound b) in
  let mutation =
    oneofl
      [ Mutation.Faithful; Mutation.Skip_undo_on_takeover;
        Mutation.Unguarded_duplicate_execution; Mutation.Reply_before_consensus ]
  in
  int_bound 6 >>= fun w ->
  let window = w + 2 in
  list_size (int_bound 4) (pair_nat 2) >>= fun crashes ->
  opt (int_bound 5_000) >>= fun client_crash_at ->
  opt
    (triple
       (map (fun n -> float_of_int n /. 16.) (int_bound 16))
       (int_bound 1_000) (int_bound 50_000))
  >>= fun noise ->
  list_size (int_bound 6)
    (pair (int_bound 500) (map (fun k -> 1 + k) (int_bound (window - 2))))
  >>= fun shifts ->
  map (fun n -> float_of_int n /. 16.) (int_bound 15) >>= fun loss ->
  map (fun n -> float_of_int n /. 32.) (int_bound 15) >>= fun dup_prob ->
  int_bound 10 >>= fun jitter ->
  list_size (int_bound 2)
    (triple (int_bound 5_000) (int_bound 5_000)
       (list_size (map (fun n -> n + 1) (int_bound 2)) (int_bound 4)))
  >>= fun partitions ->
  list_size (int_bound 4) (pair (int_bound 200) (int_bound 1))
  >>= fun forced ->
  let faults = { Schedule.loss; dup_prob; jitter; partitions; forced } in
  mutation >>= fun mutation ->
  int_bound 1_000_000 >>= fun seed ->
  return
    (Schedule.make ~window ~mutation ~crashes ?client_crash_at ?noise ~faults
       ~shifts ~seed ())

let arb_schedule =
  QCheck.make ~print:(fun s -> Schedule.to_string s) gen_schedule

let prop_schedule_roundtrip =
  QCheck.Test.make ~name:"schedule to_string/of_string round-trip" ~count:300
    arb_schedule (fun s ->
      match Schedule.of_string (Schedule.to_string s) with
      | Some s' -> Schedule.equal s s'
      | None -> false)

let test_mutation_roundtrip () =
  List.iter
    (fun m ->
      checkb
        (Printf.sprintf "mutation %s round-trips" (Mutation.to_string m))
        true
        (Mutation.of_string (Mutation.to_string m) = Some m))
    (Mutation.Faithful :: Mutation.all);
  checkb "none aliases faithful" true
    (Mutation.of_string "none" = Some Mutation.Faithful);
  checkb "unknown rejected" true (Mutation.of_string "quantum" = None)

(* ------------------------------------------------------------------ *)
(* Trace: bounded ring buffer and JSONL *)

let record_n tr n =
  for i = 1 to n do
    Xsim.Trace.record tr ~time:(i * 10) ~source:"t" (Printf.sprintf "e%d" i)
  done

let test_trace_capacity () =
  let tr = Xsim.Trace.create ~capacity:3 () in
  record_n tr 5;
  checki "length counts all" 5 (Xsim.Trace.length tr);
  checki "retained bounded" 3 (Xsim.Trace.retained tr);
  checki "dropped" 2 (Xsim.Trace.dropped tr);
  Alcotest.(check (list string))
    "oldest evicted first" [ "e3"; "e4"; "e5" ]
    (List.map (fun e -> e.Xsim.Trace.text) (Xsim.Trace.entries tr))

let test_trace_unbounded () =
  let tr = Xsim.Trace.create () in
  record_n tr 5;
  checki "retained = length" (Xsim.Trace.length tr) (Xsim.Trace.retained tr);
  checki "nothing dropped" 0 (Xsim.Trace.dropped tr)

let test_trace_capacity_invalid () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Trace.create: capacity must be positive") (fun () ->
      ignore (Xsim.Trace.create ~capacity:0 ()))

let test_trace_fingerprint_covers_dropped () =
  let bounded = Xsim.Trace.create ~capacity:2 () in
  let unbounded = Xsim.Trace.create () in
  record_n bounded 6;
  record_n unbounded 6;
  checki "fingerprint ignores the capacity bound"
    (Xsim.Trace.fingerprint unbounded)
    (Xsim.Trace.fingerprint bounded);
  let other = Xsim.Trace.create ~capacity:2 () in
  record_n other 5;
  checkb "different history, different fingerprint" false
    (Xsim.Trace.fingerprint other = Xsim.Trace.fingerprint bounded)

let test_trace_jsonl () =
  let tr = Xsim.Trace.create () in
  Xsim.Trace.record tr ~time:7 ~source:"net" {|say "hi"|};
  (match Xsim.Trace.to_jsonl tr with
  | [ line ] ->
      checks "escaped json line"
        {|{"time":7,"source":"net","text":"say \"hi\""}|} line
  | lines -> Alcotest.failf "expected 1 line, got %d" (List.length lines));
  Xsim.Trace.set_enabled tr false;
  Xsim.Trace.record tr ~time:8 ~source:"net" "dropped";
  checki "disabled trace records nothing" 1 (Xsim.Trace.length tr)

(* ------------------------------------------------------------------ *)
(* Checker.Incremental: irrevocable-violation detection *)

let kinds = function
  | "get" -> Some Action.Idempotent
  | "book" -> Some Action.Undoable
  | _ -> None

let iv = Value.int 1
let riv r = Value.pair (Value.str "round") (Value.pair (Value.int r) iv)

let logical_of _ v =
  match Value.as_pair v with
  | Some (tag, rest) when Value.equal tag (Value.str "round") -> (
      match Value.as_pair rest with Some (_, l) -> l | None -> v)
  | _ -> v

let round_of v =
  match Value.as_pair v with
  | Some (_, rest) -> (
      match Value.as_pair rest with
      | Some (r, _) -> Value.as_int r
      | None -> None)
  | None -> None

let incr_create () = Checker.Incremental.create ~kinds ~logical_of ~round_of ()

let feed_all inc evs = List.iter (Checker.Incremental.feed inc) evs

let test_incremental_clean () =
  let inc = incr_create () in
  feed_all inc
    [ Event.S ("get", iv); Event.C ("get", iv, Value.int 42);
      Event.S ("get", iv); Event.C ("get", iv, Value.int 42) ];
  checkb "no violation on equal outputs" true
    (Checker.Incremental.violation inc = None);
  checkb "settled output" true
    (Checker.Incremental.settled_output inc ~action:"get" ~logical:iv
    = Some (Value.int 42))

let test_incremental_conflicting_idempotent () =
  let inc = incr_create () in
  feed_all inc
    [ Event.S ("get", iv); Event.C ("get", iv, Value.int 42);
      Event.S ("get", iv); Event.C ("get", iv, Value.int 7) ];
  checkb "conflicting outputs flagged" true
    (Checker.Incremental.violation inc <> None)

let test_incremental_double_commit () =
  let cm = Action.commit_name "book" in
  let inc = incr_create () in
  let round r out =
    [ Event.S ("book", riv r); Event.C ("book", riv r, Value.int out);
      Event.S (cm, riv r); Event.C (cm, riv r, Value.nil) ]
  in
  feed_all inc (round 1 42);
  checkb "one commit is fine" true (Checker.Incremental.violation inc = None);
  checkb "settled after commit" true
    (Checker.Incremental.settled_output inc ~action:"book" ~logical:iv
    = Some (Value.int 42));
  feed_all inc (round 2 57);
  checkb "second committed round flagged" true
    (Checker.Incremental.violation inc <> None)

(* ------------------------------------------------------------------ *)
(* Explorer: replay determinism *)

(* The canonical noisy booking scenario: false-suspicion noise provokes
   takeovers, which is where all three mutations do their damage. *)
let noisy_booking () =
  let sc = Explorer.booking () in
  { sc with
    Explorer.spec = { sc.Explorer.spec with noise = Some (0.25, 150, 10_000) }
  }

let test_replay_deterministic () =
  let sc = noisy_booking () in
  let s = Schedule.make ~shifts:[ (5, 2); (11, 1); (23, 3) ] ~seed:97 () in
  let o1, _, t1 = Explorer.replay ~with_trace:true sc s in
  let o2, _, t2 = Explorer.replay ~with_trace:true sc s in
  Alcotest.(check (list string)) "violations" o1.violations o2.violations;
  checki "steps" o1.steps o2.steps;
  checki "events" o1.events o2.events;
  checki "end_time" o1.end_time o2.end_time;
  checki "trace fingerprint" (Xsim.Trace.fingerprint t1)
    (Xsim.Trace.fingerprint t2);
  checkb "trace nonempty" true (Xsim.Trace.length t1 > 0)

let test_shifts_change_behaviour () =
  (* The chooser must actually steer the run: some single-shift schedule
     must produce a trace different from the default schedule's.  (Not
     every step has more than one ready entry, so we scan.) *)
  let sc = noisy_booking () in
  let base = Schedule.make ~seed:97 () in
  let o, _, t1 = Explorer.replay ~with_trace:true sc base in
  let fp1 = Xsim.Trace.fingerprint t1 in
  let steered = ref false in
  let step = ref 0 in
  while (not !steered) && !step < min o.Explorer.steps 60 do
    let shifted = Schedule.make ~shifts:[ (!step, 1) ] ~seed:97 () in
    let _, _, t2 = Explorer.replay ~with_trace:true sc shifted in
    if Xsim.Trace.fingerprint t2 <> fp1 then steered := true;
    incr step
  done;
  checkb "some shift changes the trace" true !steered

let test_explore_pool_size_independent () =
  (* Byte-identical verdicts regardless of domain count: chunk layout is
     fixed, not derived from the pool size.  Use a buggy mutation so the
     compared verdicts contain violations, not just counters. *)
  let sc = noisy_booking () in
  let strat = Strategy.random_walk ~trials:(if quick then 16 else 32) () in
  let v1 =
    Explorer.explore ~jobs:1 ~mutation:Mutation.Skip_undo_on_takeover sc strat
  in
  let v4 =
    Explorer.explore ~jobs:4 ~mutation:Mutation.Skip_undo_on_takeover sc strat
  in
  checks "verdict JSON byte-identical across JOBS"
    (Explorer.verdict_to_json v1)
    (Explorer.verdict_to_json v4)

(* ------------------------------------------------------------------ *)
(* Pinned runs: five schedule lines and what they replay to *)

(* Each line's trace fingerprint, choice points and verdict, as recorded
   when these lines were written: a random-walk trial (shifts deep into
   the run), a two-delay delay-DFS line, a lease-edge line on the seqlog
   substrate, a batched seqlog line with a crash and false suspicions,
   and a Paxos line with a crash and false suspicions, all on the booking
   scenario of [xrepl explore]'s defaults.  A change to how the engine
   offers or applies choices, or to how the cleaner finds its work, must
   leave all five runs as they are. *)
let pinned_walk =
  String.concat ""
    [
      "v1 seed=42 win=4 mut=faithful crashes=- ccrash=- ";
      "noise=0x1p-2:150:10000 net=- parts=- netf=- bat=- load=- shifts=";
      "19:1,23:3,36:1,48:1,58:2,64:1,65:2,82:1,96:1,98:2,121:2";
      ",122:3,123:3,128:2,133:1,134:2,142:3,149:2,153:3,158:1,161:2";
      ",172:1,184:2,185:3,190:3,196:3,198:3,200:2,214:2,215:1,220:2";
      ",229:3,233:2,238:3,247:2,253:1,254:3,278:3,285:3,309:3,319:3";
      ",326:2,330:1,337:1,347:1,350:1,359:2,367:3,369:3,370:2,374:3";
      ",376:3,386:2,387:3,397:2,400:2,411:2,413:3,419:3,421:2,422:3";
      ",433:2,440:3,442:1,446:2,450:1,452:1,457:3,462:2,463:2,467:1";
      ",471:2,474:1,475:2,489:3,500:3,508:1,514:3,516:2,517:2,529:3";
      ",540:3,544:1,560:2,573:1,577:2,599:2,600:1,603:2,606:3,612:2";
      ",620:1,622:2,627:3,628:2,633:1,657:3,658:2,675:1,692:3,697:1";
      ",701:1,703:1,726:1,727:1,733:1,734:1,736:1,740:3,746:2,772:1";
      ",774:2,783:2,785:2,786:3,787:1,789:1,791:3,804:2,815:1,821:1";
      ",824:1,827:1,830:1,834:3,837:1,849:3,860:2,890:2,893:1,906:2";
      ",915:3,929:1,937:1,951:1,952:1,964:2,966:2,978:3,981:2,985:2";
      ",996:3,1008:3,1011:1,1012:1,1029:2,1045:2,1049:2,1053:1";
      ",1056:2,1059:2,1066:3,1079:1,1088:2,1092:2,1094:1,1095:3";
      ",1098:3,1108:1,1117:2,1136:3,1137:2,1138:3,1143:3,1147:1";
      ",1174:2,1178:1,1192:3,1197:2,1198:2,1217:2,1222:3,1224:1";
      ",1230:2,1239:2,1249:3,1254:1,1260:2,1265:1,1266:3,1285:3";
      ",1287:2,1289:1,1310:2,1317:3,1324:1,1334:1,1344:3,1351:1";
      ",1369:3,1384:1,1392:1,1393:2,1395:1,1397:3,1413:2,1425:3";
      ",1432:3,1447:1,1449:1,1455:3,1458:1,1461:2,1477:2,1480:1";
      ",1481:1,1488:1,1489:1,1495:1,1530:3,1531:3,1534:3,1535:1";
      ",1538:1,1550:3,1554:3";
    ]

let pinned_runs =
  [
    ("random walk", pinned_walk, -1270338496146070356, 1562, []);
    ( "delay-dfs",
      "v1 seed=42 win=4 mut=faithful crashes=- ccrash=- \
       noise=0x1p-2:150:10000 net=- parts=- netf=- bat=- load=- \
       shifts=12:3,30:1",
      2594777429501630789,
      1543,
      [] );
    ( "lease-edge seqlog",
      "v1 seed=42 win=1 mut=faithful crashes=200:0 ccrash=- noise=- net=- \
       parts=- netf=- bat=- load=2:4 shifts=- lease=1 sub=seqlog",
      1231406449010249509,
      0,
      [] );
    (* Batched on the sequenced log, with an owner crash and false
       suspicions: reaches the cleaner's slot-abort, slot-repair and
       takeover arms as well as per-request cleaning. *)
    ( "batched seqlog crash+noise",
      "v1 seed=1 win=4 mut=faithful crashes=500:0 ccrash=- \
       noise=0x1p-2:150:10000 net=- parts=- netf=- bat=4:2:20 load=2:4 \
       shifts=- sub=seqlog",
      -787805542890823341,
      6315,
      [] );
    (* Paxos under false suspicions with a backup crash: a cleaner pass
       there blocks in consensus and meets suspicions that start, and
       owner decisions that arrive, in the middle of the pass. *)
    ( "paxos crash+noise",
      "v1 seed=253 win=1 mut=faithful crashes=314:2 ccrash=- \
       noise=0x1p-2:150:10000 net=- parts=- netf=- bat=- load=1:2 shifts=- \
       lease=1 sub=paxos",
      1266765114325123376,
      0,
      [] );
    (* Two groups behind the router: an owner crash in shard 1 while its
       directory entry is blocked, so routed and cross-shard parts stall
       and retry across the takeover. *)
    ( "shards=2 owner crash+router block",
      "v1 seed=11 win=4 mut=faithful crashes=150:3 ccrash=- noise=- net=- \
       parts=- netf=- bat=- load=- shifts=5:1,40:2,77:3 shards=2 \
       rblk=100:3000:1",
      3013100414397141973,
      2122,
      [] );
    (* One group, 2 clients x 4 lanes, client 0 crashed over a lossy wire
       under false suspicions: two of its requests never reach a replica,
       so the run reaches the client-crash fallback, which rejects. *)
    ( "lanes+client crash+noise",
      "v1 seed=1 win=4 mut=faithful crashes=- ccrash=100 \
       noise=0x1p-2:150:10000 net=0x1p-2:0x0p+0:0 parts=- netf=- bat=- \
       load=2:4 shifts=-",
      -776445929171979377,
      83150,
      [
        "workload did not complete";
        "R3: reserve: no events for this request";
        "R3: reserve: no events for this request";
      ] );
  ]

let test_pinned_runs () =
  let sc = Explorer.booking ~requests:6 () in
  List.iter
    (fun (what, line, fp, steps, verdict) ->
      match Schedule.of_string line with
      | None -> Alcotest.failf "%s: line does not parse" what
      | Some sch ->
          checks (what ^ ": line round-trips") line (Schedule.to_string sch);
          let o, _, trace = Explorer.replay ~with_trace:true sc sch in
          checki (what ^ ": trace fingerprint") fp
            (Xsim.Trace.fingerprint trace);
          checki (what ^ ": choice points") steps o.Explorer.steps;
          Alcotest.(check (list string))
            (what ^ ": verdict") verdict o.violations)
    pinned_runs

(* ------------------------------------------------------------------ *)
(* Explorer: the self-test — every planted bug is found and shrunk *)

let test_mutation_found m () =
  let sc = noisy_booking () in
  let trials = if quick then 48 else 64 in
  let _, cx =
    Explorer.hunt ~mutation:m sc [ Strategy.random_walk ~trials () ]
  in
  match cx with
  | None ->
      Alcotest.failf "%s: no violation in %d schedules" (Mutation.to_string m)
        trials
  | Some cx ->
      checkb "original violating" true (cx.Explorer.cx_original_violations <> []);
      checkb "shrunk still violating" true (cx.Explorer.cx_violations <> []);
      let weight (s : Schedule.t) =
        List.length s.crashes
        + (match s.client_crash_at with Some _ -> 1 | None -> 0)
        + (match s.noise with Some _ -> 1 | None -> 0)
        + List.length s.shifts
      in
      checkb "shrunk no heavier than original" true
        (weight cx.Explorer.cx_shrunk <= weight cx.Explorer.cx_original);
      checkb "mutation preserved by shrinking" true
        (Mutation.equal cx.Explorer.cx_shrunk.Schedule.mutation m);
      (* the dumped schedule line replays to the same verdict *)
      (match Schedule.of_string (Schedule.to_string cx.Explorer.cx_shrunk) with
      | None -> Alcotest.fail "shrunk schedule does not parse back"
      | Some s ->
          let o = Explorer.run_schedule sc s in
          checkb "parsed shrunk schedule still violating" true
            (Explorer.violating o))

let test_faithful_clean () =
  let sc = noisy_booking () in
  let trials = if quick then 24 else 40 in
  let v = Explorer.explore sc (Strategy.random_walk ~trials ()) in
  checki "walk: no violations on the faithful protocol" 0
    (List.length v.Explorer.violating);
  checki "walk explored all trials" trials v.Explorer.explored;
  let budget = if quick then 24 else 40 in
  let v = Explorer.explore sc (Strategy.delay_dfs ~budget ()) in
  checki "dfs: no violations on the faithful protocol" 0
    (List.length v.Explorer.violating)

let test_fault_enum_covers_plan () =
  let sc = Explorer.booking () in
  let strat =
    Strategy.fault_enum ~times:[ 100; 300 ] ~replicas:[ 0; 1 ] ()
  in
  let v = Explorer.explore sc strat in
  checki "explored = |times|*|replicas|" 4 v.Explorer.explored;
  checki "faithful survives crash enumeration" 0
    (List.length v.Explorer.violating);
  let strat =
    Strategy.fault_enum ~pair_crashes:true ~times:[ 100; 300 ]
      ~replicas:[ 0; 1 ] ()
  in
  let v = Explorer.explore sc strat in
  (* 4 singles + C(4,2) = 6 ordered pairs *)
  checki "pairs add C(n,2) schedules" 10 v.Explorer.explored;
  checki "faithful survives crash pairs" 0 (List.length v.Explorer.violating)

let test_net_fault_covers_plan_and_stays_clean () =
  (* loss levels × (no partition + windows × groups) × seeds, and the
     faithful protocol stays x-able on every lossy schedule because the
     ARQ channel is installed under it. *)
  let sc = Explorer.booking ~requests:2 () in
  let strat =
    Strategy.net_fault ~dup:0.1
      ~partition_windows:[ (200, 800) ]
      ~groups:[ [ 0 ] ] ~seeds:3
      ~loss_levels:[ 0.1; 0.2 ]
      ()
  in
  let v = Explorer.explore sc strat in
  checki "explored = 2 * (1 + 1*1) * 3" 12 v.Explorer.explored;
  checki "faithful survives the lossy wire" 0
    (List.length v.Explorer.violating)

let test_net_fault_pool_size_independent () =
  (* Fault sampling rides the transport's split RNG keyed by the engine
     seed, so lossy sweeps are byte-identical across pool sizes too. *)
  let sc = Explorer.booking ~requests:2 () in
  let strat =
    Strategy.net_fault ~dup:0.1 ~seeds:(if quick then 4 else 8)
      ~loss_levels:[ 0.15 ] ()
  in
  let v1 = Explorer.explore ~jobs:1 sc strat in
  let v4 = Explorer.explore ~jobs:4 sc strat in
  checks "lossy verdict JSON byte-identical across JOBS"
    (Explorer.verdict_to_json v1)
    (Explorer.verdict_to_json v4)

let test_lossy_schedule_replays () =
  (* A schedule line carrying a fault plan replays byte-identically, like
     any other schedule: the plan is part of the run's identity. *)
  let sc = Explorer.booking ~requests:2 () in
  let faults =
    { Schedule.no_faults with Schedule.loss = 0.2; dup_prob = 0.1 }
  in
  let s = Schedule.make ~window:1 ~faults ~seed:11 () in
  let line = Schedule.to_string s in
  match Schedule.of_string line with
  | None -> Alcotest.fail "lossy schedule line does not parse"
  | Some s' ->
      let o1 = Explorer.run_schedule sc s in
      let o2 = Explorer.run_schedule sc s' in
      Alcotest.(check (list string)) "violations" o1.Explorer.violations
        o2.Explorer.violations;
      checki "events" o1.Explorer.events o2.Explorer.events;
      checki "end_time" o1.Explorer.end_time o2.Explorer.end_time;
      checkb "clean under ARQ" false (Explorer.violating o1)

let contains s sub =
  let ls = String.length sub and ln = String.length s in
  let rec at i = i + ls <= ln && (String.sub s i ls = sub || at (i + 1)) in
  at 0

let test_schedule_lease_tokens () =
  (* lease=/sub= tokens append only when non-default, so pre-lease lines
     (and their byte-identical replays) are untouched. *)
  let leased = Schedule.make ~lease:true ~substrate:"seqlog" ~seed:5 () in
  let line = Schedule.to_string leased in
  checkb "lease token" true (contains line "lease=1");
  checkb "substrate token" true (contains line "sub=seqlog");
  checkb "round-trips" true (Schedule.of_string line = Some leased);
  let plain = Schedule.make ~seed:5 () in
  let pline = Schedule.to_string plain in
  checkb "no lease token by default" false (contains pline "lease=");
  checkb "no sub token by default" false (contains pline "sub=");
  checkb "pre-lease line parses unleased" true
    (Schedule.of_string pline = Some plain);
  checkb "json lease tagged" true
    (contains (Schedule.to_json leased) {|"lease":true|});
  checkb "json substrate tagged" true
    (contains (Schedule.to_json leased) {|"substrate":"seqlog"|});
  checkb "plain json untagged" false (contains (Schedule.to_json plain) "lease")

(* ------------------------------------------------------------------ *)
(* Untrusted schedule lines: out-of-range values are rejected with the
   offending token named, before a run starts. *)

let legacy_line =
  "v1 seed=1 win=4 mut=faithful crashes=- ccrash=- noise=- shifts=-"

(* [line] with [tok] ("key=value") in place of the token with the same
   key, or appended when the key is absent. *)
let set_token line tok =
  let key = String.sub tok 0 (String.index tok '=' + 1) in
  let toks = String.split_on_char ' ' line in
  let has_key t = String.starts_with ~prefix:key t in
  String.concat " "
    (if List.exists has_key toks then
       List.map (fun t -> if has_key t then tok else t) toks
     else toks @ [ tok ])

(* [parse] then the deployment-dependent [Explorer.check]. *)
let accept scenario line =
  Result.bind (Schedule.parse line) (fun sch ->
      Result.map (fun () -> sch) (Explorer.check scenario sch))

let test_schedule_rejects_out_of_range () =
  let sc = Explorer.booking () in
  List.iter
    (fun (base, token) ->
      let line = set_token base token in
      match accept sc line with
      | Ok _ -> Alcotest.failf "accepted %S" line
      | Error why ->
          checkb (Printf.sprintf "%S names %s" why token) true
            (contains why token))
    (List.map
       (fun tok -> (legacy_line, tok))
       [
         "crashes=0:99"; "crashes=-5:0"; "noise=1.5:-1:10"; "net=2.0:0:0";
         "net=0:0:-5"; "net=nan:0:0"; "win=0"; "shards=0"; "bat=0:4:100";
         "bat=16:0:100"; "load=0:1";
       ]
    @ [ (set_token legacy_line "shards=2", "crashes=0:6") ]);
  (* The last replica of a sharded run is in range. *)
  checkb "flat crash index within shards * n_replicas" true
    (Result.is_ok
       (accept sc (set_token (set_token legacy_line "shards=2") "crashes=0:5")))

let test_codec_token_backcompat () =
  (* Lines written while a second wire representation existed carry a
     codec= token; it is ignored, and the run is the one the line names
     without it. *)
  let sc = noisy_booking () in
  let faults = { Schedule.no_faults with Schedule.loss = 0.1 } in
  let line =
    Schedule.to_string
      (Schedule.make ~faults ~crashes:[ (300, 0) ] ~shifts:[ (4, 1) ] ~seed:23 ())
  in
  let fingerprint line =
    match Schedule.of_string line with
    | None -> Alcotest.failf "%S does not parse" line
    | Some sch ->
        let _, _, trace = Explorer.replay ~with_trace:true sc sch in
        Xsim.Trace.fingerprint trace
  in
  let fp = fingerprint line in
  checki "codec=- replays the same run" fp (fingerprint (line ^ " codec=-"));
  checki "codec=flat replays the same run" fp
    (fingerprint (line ^ " codec=flat"))

(* [line] as it was written while every schedule line carried a codec=
   token, with [tok] just before shifts=. *)
let with_codec_token line tok =
  let i =
    let rec find i =
      if i + 8 > String.length line then
        Alcotest.failf "no shifts= token in %S" line
      else if String.sub line i 8 = " shifts=" then i
      else find (i + 1)
    in
    find 0
  in
  String.sub line 0 i ^ " " ^ tok
  ^ String.sub line i (String.length line - i)

let test_codec_token_roundtrip () =
  (* A line carrying either old codec token parses to the schedule the
     line names without it, and prints back without the token. *)
  let s = Schedule.make ~crashes:[ (150, 0) ] ~seed:42 () in
  let line = Schedule.to_string s in
  checkb "no codec token written" false (contains line "codec=");
  List.iter
    (fun tok ->
      let old = with_codec_token line tok in
      match Schedule.of_string old with
      | None -> Alcotest.failf "%S no longer parses" old
      | Some parsed ->
          Alcotest.check sched_testable (tok ^ " parses token-free") s parsed;
          checks (tok ^ " prints token-free") line (Schedule.to_string parsed))
    [ "codec=-"; "codec=flat" ]

let test_pre_codec_line_backcompat () =
  (* The oldest line shape (no net=, bat= or codec= tokens) names the
     schedule it always did, and so does the full line as it was written
     while every line carried codec=-. *)
  let s = Schedule.make ~seed:1 () in
  Alcotest.(check (option sched_testable))
    "pre-codec line" (Some s)
    (Schedule.of_string legacy_line);
  Alcotest.(check (option sched_testable))
    "codec=- line" (Some s)
    (Schedule.of_string (with_codec_token (Schedule.to_string s) "codec=-"))

let test_schedule_json_tagging () =
  (* JSON carries no codec field, whichever codec token the line had. *)
  let s = Schedule.make ~seed:1 () in
  let json = Schedule.to_json s in
  checkb "json untagged" false (contains json "codec");
  List.iter
    (fun tok ->
      match
        Schedule.of_string (with_codec_token (Schedule.to_string s) tok)
      with
      | None -> Alcotest.failf "%s line does not parse" tok
      | Some parsed -> checks (tok ^ " line, same JSON") json (Schedule.to_json parsed))
    [ "codec=-"; "codec=flat" ]

(* Fuzz: random token soup, valid lines with one mutated token, and
   well-shaped lines with out-of-range numbers.
   [of_string] must never raise, and a line that passes [parse] and
   [Explorer.check] must replay without raising. *)
let fuzz_keys =
  [ "seed"; "win"; "mut"; "crashes"; "ccrash"; "noise"; "shifts"; "net";
    "parts"; "netf"; "bat"; "load"; "codec"; "shards"; "rblk"; "lease";
    "sub"; "zz" ]

let gen_fuzz_value =
  let open QCheck.Gen in
  let atom =
    oneof
      [
        map string_of_int
          (oneofl [ -5; -1; 0; 1; 2; 3; 4; 5; 7; 99; 150; 1000; 5000 ]);
        oneofl
          [ "-"; ""; "nan"; "inf"; "-inf"; "0.5"; "1.5"; "-0.1"; "1.0";
            "0x1p-1"; "1e9"; "flat"; "paxos"; "seqlog"; "faithful";
            "skip-undo"; "x"; "::" ];
      ]
  in
  let joined sep n = map (String.concat sep) (list_size (int_range 1 n) atom) in
  (* Mostly well-formed small numbers, so that many lines parse and
     replay. *)
  let plausible =
    map (String.concat ":")
      (list_size (int_range 1 3)
         (oneof [ map string_of_int (int_range 0 9); oneofl [ "0.5"; "1.0" ] ]))
  in
  frequency
    [
      (2, atom);
      (1, joined ":" 4);
      (1, map (String.concat ",") (list_size (int_range 1 3) (joined ":" 3)));
      (1, map2 (fun a b -> a ^ ":" ^ b) (joined ":" 2) (joined "." 3));
      (4, plausible);
      (2, map (String.concat ",") (list_size (int_range 1 3) plausible));
    ]

(* Shard counts and loads stay small: a large deployment is valid input,
   only slow to replay. *)
let gen_fuzz_token =
  let open QCheck.Gen in
  let small =
    map (String.concat ":")
      (list_size (int_range 1 3) (map string_of_int (int_range (-1) 4)))
  in
  oneofl fuzz_keys >>= fun key ->
  map
    (fun v -> key ^ "=" ^ v)
    (if key = "shards" || key = "load" then small else gen_fuzz_value)

let gen_soup =
  QCheck.Gen.(
    map2
      (fun v1 toks -> String.concat " " (if v1 then "v1" :: toks else toks))
      (frequency [ (9, return true); (1, return false) ])
      (list_size (int_range 0 20) gen_fuzz_token))

(* A valid line with one token replaced, or appended when its key is
   absent. *)
let gen_mutated =
  QCheck.Gen.map2
    (fun sch tok -> set_token (Schedule.to_string sch) tok)
    gen_schedule gen_fuzz_token

(* Every token well-shaped, its numbers drawn in and out of range: most
   lines get past the syntax, so the range checks and replay are what is
   exercised. *)
let gen_shaped =
  let open QCheck.Gen in
  let n =
    map string_of_int
      (frequency
         [ (1, int_range (-2) (-1)); (40, int_range 0 9);
           (4, oneofl [ 150; 1000; 5000 ]) ])
  in
  let small = map string_of_int (int_range (-1) 4) in
  let idx = map string_of_int (int_range 0 3) in
  let p =
    frequency
      [ (12, oneofl [ "0"; "0.1"; "0.5"; "1" ]);
        (1, oneofl [ "1.5"; "-0.1"; "nan" ]) ]
  in
  let colon gs = map (String.concat ":") (flatten_l gs) in
  let list_of g =
    frequency
      [ (1, return "-");
        (3, map (String.concat ",") (list_size (int_range 1 3) g)) ]
  in
  let opt_of g = frequency [ (1, return "-"); (2, g) ] in
  let group = map (String.concat ".") (list_size (int_range 1 3) n) in
  let required =
    [
      ("seed", n);
      ("win", n);
      ("mut", oneofl [ "faithful"; "skip-undo"; "dup-exec"; "early-reply" ]);
      ("crashes", list_of (colon [ n; idx ]));
      ("ccrash", opt_of n);
      ("noise", opt_of (colon [ p; n; n ]));
      ("shifts", list_of (colon [ n; n ]));
    ]
  and optional =
    [
      ("net", opt_of (colon [ p; p; n ]));
      ("parts", list_of (colon [ n; n; group ]));
      ("netf", list_of (colon [ n; n ]));
      ("bat", opt_of (colon [ n; n; n ]));
      ("load", opt_of (colon [ small; small ]));
      ("shards", opt_of small);
      ("rblk", list_of (colon [ n; n; n ]));
      ("lease", frequency [ (8, oneofl [ "0"; "1" ]); (1, return "2") ]);
      ( "sub",
        frequency
          [ (8, oneofl [ "-"; "register"; "paxos"; "seqlog" ]);
            (1, return "raft") ] );
      ("codec", oneofl [ "-"; "flat"; "bytes" ]);
    ]
  in
  let token keep (key, g) =
    map2 (fun keep v -> if keep then [ key ^ "=" ^ v ] else []) keep g
  in
  map2
    (fun req opt -> String.concat " " ("v1" :: List.concat (req @ opt)))
    (flatten_l
       (List.map (token (frequency [ (19, return true); (1, return false) ]))
          required))
    (flatten_l (List.map (token bool) optional))

let prop_schedule_fuzz =
  let sc = Explorer.booking ~requests:2 () in
  QCheck.Test.make ~name:"schedule fuzz: parse never raises, accepted lines replay"
    ~count:(if quick then 150 else 400)
    (QCheck.make ~print:Fun.id
       QCheck.Gen.(
         frequency [ (1, gen_soup); (1, gen_mutated); (4, gen_shaped) ]))
    (fun line ->
      match Schedule.of_string line with
      | exception e ->
          QCheck.Test.fail_reportf "of_string raised %s" (Printexc.to_string e)
      | None -> true
      | Some sch -> (
          match Explorer.check sc sch with
          | exception e ->
              QCheck.Test.fail_reportf "check raised %s" (Printexc.to_string e)
          | Error _ -> true
          | Ok () -> (
              match Explorer.run_schedule sc sch with
              | exception e ->
                  QCheck.Test.fail_reportf "replay raised %s"
                    (Printexc.to_string e)
              | _ -> true)))

(* ------------------------------------------------------------------ *)
(* Sweep generators *)

(* The schedules a sweep plans for the booking scenario, whose base
   schedule carries no crashes, noise or fault plan. *)
let sweep_schedules strategy =
  let base ~seed ~window = Schedule.make ~window ~seed () in
  let seed = (Explorer.booking ()).Explorer.spec.Xworkload.Runner.seed in
  List.map
    (function
      | Strategy.Run s -> s
      | Strategy.Walk _ -> Alcotest.fail "a sweep planned a random-walk trial")
    (Strategy.plan strategy ~base ~seed).Strategy.frontier

(* Each sweep as [xrepl explore] builds it by default, with its size. *)
let default_sweeps =
  [
    ( Strategy.fault_enum
        ~times:(List.init 12 (fun i -> 50 + (100 * i)))
        ~replicas:[ 0; 1; 2 ] (),
      36 );
    (Strategy.net_fault ~loss_levels:[ 0.05; 0.1; 0.2 ] (), 30);
    (Strategy.batch_boundary (), 500);
    (Strategy.cross_shard (), 530);
    (Strategy.lease_edge (), 27 * 3 * 7);
  ]

let test_sweeps_roundtrip_and_check () =
  let sc = Explorer.booking () in
  List.iter
    (fun (strategy, size) ->
      let name = Strategy.name strategy in
      let schedules = sweep_schedules strategy in
      checki (name ^ ": size") size (List.length schedules);
      List.iter
        (fun s ->
          let line = Schedule.to_string s in
          (match Schedule.of_string line with
          | Some s' when Schedule.equal s s' -> ()
          | _ -> Alcotest.failf "%s: %s does not round-trip" name line);
          match Explorer.check sc s with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s: %s: %s" name line e)
        schedules)
    default_sweeps

(* Every shrunk counterexample line in the golden explorer file (one per
   caught strategy-and-mutant hunt) parses, passes the deployment checks
   and replays as violating on [xrepl explore]'s default scenario. *)
let test_golden_counterexamples_replay () =
  let file =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      "golden/explore.expected"
  in
  let lines =
    In_channel.with_open_text file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.starts_with ~prefix:"  v1 " l)
  in
  checkb "golden file holds counterexample lines" true (lines <> []);
  let sc = Explorer.booking ~requests:6 () in
  List.iter
    (fun l ->
      let line = String.trim l in
      match Schedule.parse line with
      | Error e -> Alcotest.failf "%s: %s" line e
      | Ok s ->
          (match Explorer.check sc s with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s: %s" line e);
          checkb (line ^ " replays violating") true
            (Explorer.violating (Explorer.run_schedule sc s)))
    lines

(* ------------------------------------------------------------------ *)
(* Cross-shard strategy: sharded deployments under owner crashes and
   router partitions, verdicts composed per section 4 *)

let test_cross_shard_covers_plan_and_stays_clean () =
  (* Per seed: baseline + shards*|crash_times| crashes +
     shards*|block_windows| router blocks; the faithful protocol
     survives all of them (composed verdict). *)
  let sc = Explorer.booking ~requests:3 () in
  let strat =
    Strategy.cross_shard ~shards:2 ~crash_times:[ 150 ]
      ~block_windows:[ (0, 1_500) ]
      ~seeds:2 ()
  in
  let v = Explorer.explore sc strat in
  checki "explored = (1 + 2*1 + 2*1) * 2" 10 v.Explorer.explored;
  checki "faithful survives sharded adversity" 0
    (List.length v.Explorer.violating)

let test_cross_shard_finds_skip_undo () =
  (* The sharded mix carries undoable reserves, so a protocol that skips
     undo on takeover is caught by the composed checker too — with the
     shard named in the violation. *)
  let sc = Explorer.booking ~requests:4 () in
  let strat =
    Strategy.cross_shard ~shards:2 ~block_windows:[] ~seeds:3 ()
  in
  let verdicts, cx =
    Explorer.hunt ~mutation:Mutation.Skip_undo_on_takeover sc [ strat ]
  in
  match cx with
  | None ->
      Alcotest.failf "skip-undo under sharding: clean in %d"
        (List.hd verdicts).Explorer.explored
  | Some cx ->
      checkb "shrunk still violating" true (cx.Explorer.cx_violations <> []);
      checkb "violation names a shard" true
        (List.exists
           (fun v ->
             let re = "shard " in
             let n = String.length re in
             let rec find i =
               i + n <= String.length v && (String.sub v i n = re || find (i + 1))
             in
             find 0)
           cx.Explorer.cx_violations);
      checkb "shards override survives shrinking" true
        (cx.Explorer.cx_shrunk.Schedule.shards <> None)

let test_cross_shard_schedule_line_replays () =
  (* shards= and rblk= tokens are part of the run's identity: the line
     round-trips and replays byte-identically. *)
  let sc = Explorer.booking ~requests:3 () in
  let s =
    Schedule.make ~window:1 ~shards:2
      ~router_blocks:[ (0, 1_500, 1) ]
      ~seed:7 ()
  in
  let line = Schedule.to_string s in
  match Schedule.of_string line with
  | None -> Alcotest.fail "sharded schedule line does not parse"
  | Some s' ->
      checkb "round-trips" true (Schedule.equal s s');
      let o1 = Explorer.run_schedule sc s in
      let o2 = Explorer.run_schedule sc s' in
      checki "events" o1.Explorer.events o2.Explorer.events;
      checki "end_time" o1.Explorer.end_time o2.Explorer.end_time;
      checkb "clean" false (Explorer.violating o1)

let test_cross_shard_pool_size_independent () =
  let sc = Explorer.booking ~requests:3 () in
  let strat =
    Strategy.cross_shard ~shards:2 ~crash_times:[ 150 ]
      ~block_windows:[ (0, 1_500) ]
      ~seeds:2 ()
  in
  let v1 = Explorer.explore ~jobs:1 sc strat in
  let v4 = Explorer.explore ~jobs:4 sc strat in
  checks "sharded verdict JSON byte-identical across JOBS"
    (Explorer.verdict_to_json v1)
    (Explorer.verdict_to_json v4)

(* ------------------------------------------------------------------ *)
(* Lease-edge strategy *)

let test_lease_edge_covers_plan_and_stays_clean () =
  (* One seed, one substrate: 1 baseline + 11 crashes + 11 suspicion
     bursts + 4 holder partitions = 27 schedules; the faithful protocol
     survives every lease boundary. *)
  let sc = Explorer.booking ~requests:3 () in
  let strat = Strategy.lease_edge ~substrates:[ "register" ] ~seeds:1 () in
  let v = Explorer.explore sc strat in
  checki "explored = 1 + 11 + 11 + 4" 27 v.Explorer.explored;
  checki "faithful survives lease edges" 0 (List.length v.Explorer.violating)

let test_lease_edge_default_is_full_sweep () =
  (* The default parameters must keep the CI sweep's >= 500 schedules. *)
  checkb ">= 500 schedules" true
    (List.length (sweep_schedules (Strategy.lease_edge ())) >= 500)

let test_leased_schedule_line_replays () =
  (* A leased schedule's line round-trips and replays clean on every
     substrate (the lease=1 / sub= tokens drive Explorer.apply). *)
  let sc = Explorer.booking ~requests:3 () in
  List.iter
    (fun sub ->
      let s =
        Schedule.make ~window:1 ~lease:true ~substrate:sub
          ~crashes:[ (200, 0) ] ~seed:5 ()
      in
      match Schedule.of_string (Schedule.to_string s) with
      | None -> Alcotest.fail "leased schedule line does not parse back"
      | Some s' ->
          checkb "parses back equal" true (Schedule.equal s s');
          let o = Explorer.run_schedule sc s' in
          checkb (sub ^ " replay clean") false (Explorer.violating o))
    [ "register"; "paxos"; "seqlog" ]

let test_lease_edge_pool_size_independent () =
  let sc = Explorer.booking ~requests:3 () in
  let strat =
    Strategy.lease_edge ~substrates:[ "register"; "seqlog" ] ~seeds:1 ()
  in
  let v1 = Explorer.explore ~jobs:1 sc strat in
  let v4 = Explorer.explore ~jobs:4 sc strat in
  checks "leased verdict JSON byte-identical across JOBS"
    (Explorer.verdict_to_json v1)
    (Explorer.verdict_to_json v4)

let () =
  Alcotest.run "xexplore"
    [
      ( "schedule",
        [
          Alcotest.test_case "round-trip basic" `Quick
            test_schedule_roundtrip_basic;
          Alcotest.test_case "round-trip full" `Quick
            test_schedule_roundtrip_full;
          Alcotest.test_case "round-trip awkward float" `Quick
            test_schedule_roundtrip_awkward_float;
          Alcotest.test_case "round-trip fault plan" `Quick
            test_schedule_roundtrip_faults;
          Alcotest.test_case "of_string rejects garbage" `Quick
            test_schedule_of_string_garbage;
          Alcotest.test_case "chooser replays shifts" `Quick
            test_schedule_chooser;
          QCheck_alcotest.to_alcotest prop_schedule_roundtrip;
          Alcotest.test_case "mutation names round-trip" `Quick
            test_mutation_roundtrip;
          Alcotest.test_case "lease/substrate tokens" `Quick
            test_schedule_lease_tokens;
          Alcotest.test_case "rejects out-of-range values" `Quick
            test_schedule_rejects_out_of_range;
          Alcotest.test_case "codec token back-compat" `Quick
            test_codec_token_backcompat;
          Alcotest.test_case "codec token round-trip" `Quick
            test_codec_token_roundtrip;
          Alcotest.test_case "pre-codec line back-compat" `Quick
            test_pre_codec_line_backcompat;
          Alcotest.test_case "json tagging" `Quick test_schedule_json_tagging;
          QCheck_alcotest.to_alcotest prop_schedule_fuzz;
        ] );
      ( "trace",
        [
          Alcotest.test_case "capacity ring buffer" `Quick test_trace_capacity;
          Alcotest.test_case "unbounded" `Quick test_trace_unbounded;
          Alcotest.test_case "invalid capacity" `Quick
            test_trace_capacity_invalid;
          Alcotest.test_case "fingerprint covers dropped" `Quick
            test_trace_fingerprint_covers_dropped;
          Alcotest.test_case "jsonl" `Quick test_trace_jsonl;
        ] );
      ( "incremental checker",
        [
          Alcotest.test_case "clean duplicates" `Quick test_incremental_clean;
          Alcotest.test_case "conflicting idempotent outputs" `Quick
            test_incremental_conflicting_idempotent;
          Alcotest.test_case "double commit" `Quick
            test_incremental_double_commit;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "replay reproduces trace+verdict" `Quick
            test_replay_deterministic;
          Alcotest.test_case "shifts steer the run" `Quick
            test_shifts_change_behaviour;
          Alcotest.test_case "verdict independent of pool size" `Quick
            test_explore_pool_size_independent;
          Alcotest.test_case "pinned lines keep their runs" `Quick
            test_pinned_runs;
        ] );
      ( "hunt",
        [
          Alcotest.test_case "finds skip-undo" `Quick
            (test_mutation_found Mutation.Skip_undo_on_takeover);
          Alcotest.test_case "finds dup-exec" `Quick
            (test_mutation_found Mutation.Unguarded_duplicate_execution);
          Alcotest.test_case "finds early-reply" `Quick
            (test_mutation_found Mutation.Reply_before_consensus);
          Alcotest.test_case "faithful protocol clean" `Quick
            test_faithful_clean;
          Alcotest.test_case "fault enumeration" `Quick
            test_fault_enum_covers_plan;
        ] );
      ( "network faults",
        [
          Alcotest.test_case "net-fault sweep covers plan, faithful clean"
            `Quick test_net_fault_covers_plan_and_stays_clean;
          Alcotest.test_case "lossy verdict independent of pool size" `Quick
            test_net_fault_pool_size_independent;
          Alcotest.test_case "lossy schedule line replays" `Quick
            test_lossy_schedule_replays;
        ] );
      ( "generators",
        [
          Alcotest.test_case "sweeps round-trip, pass check, keep sizes"
            `Quick test_sweeps_roundtrip_and_check;
          Alcotest.test_case "golden counterexample lines replay" `Quick
            test_golden_counterexamples_replay;
        ] );
      ( "cross-shard",
        [
          Alcotest.test_case "sweep covers plan, faithful clean" `Quick
            test_cross_shard_covers_plan_and_stays_clean;
          Alcotest.test_case "finds skip-undo, names the shard" `Quick
            test_cross_shard_finds_skip_undo;
          Alcotest.test_case "sharded schedule line replays" `Quick
            test_cross_shard_schedule_line_replays;
          Alcotest.test_case "sharded verdict independent of pool size"
            `Quick test_cross_shard_pool_size_independent;
        ] );
      ( "lease-edge",
        [
          Alcotest.test_case "sweep covers plan, faithful clean" `Quick
            test_lease_edge_covers_plan_and_stays_clean;
          Alcotest.test_case "default sweep >= 500 schedules" `Quick
            test_lease_edge_default_is_full_sweep;
          Alcotest.test_case "leased schedule line replays" `Quick
            test_leased_schedule_line_replays;
          Alcotest.test_case "leased verdict independent of pool size" `Quick
            test_lease_edge_pool_size_independent;
        ] );
    ]
