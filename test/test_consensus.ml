(* Tests for the consensus substrate (xconsensus): register objects and
   the message-passing Paxos implementation. *)

module Engine = Xsim.Engine
module Proc = Xsim.Proc
module Address = Xnet.Address
module Register = Xconsensus.Register
module Paxos = Xconsensus.Paxos
module Seqlog = Xconsensus.Seqlog

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Register *)

let test_register_first_proposal_wins () =
  let eng = Engine.create ~seed:1 () in
  let r = Register.create eng ~latency:10 ~name:"o" () in
  let a = ref 0 and b = ref 0 in
  Engine.spawn eng ~name:"p1" (fun () -> a := Register.propose r 1);
  Engine.spawn eng ~name:"p2" (fun () ->
      Engine.sleep eng 5;
      b := Register.propose r 2);
  Engine.run eng;
  checki "p1 decided its own" 1 !a;
  checki "p2 adopted p1's" 1 !b;
  checkb "peek agrees" true (Register.peek r = Some 1);
  checki "both proposals counted" 2 (Register.propose_count r)

let test_register_read () =
  let eng = Engine.create ~seed:2 () in
  let r = Register.create eng ~latency:10 ~name:"o" () in
  let before = ref (Some 99) and after = ref None in
  Engine.spawn eng ~name:"reader" (fun () ->
      before := Register.read r;
      Engine.sleep eng 100;
      after := Register.read r);
  Engine.spawn eng ~name:"proposer" (fun () ->
      Engine.sleep eng 50;
      ignore (Register.propose r 7));
  Engine.run eng;
  checkb "read before decision = None" true (!before = None);
  checkb "read after decision" true (!after = Some 7)

let test_register_propose_costs_round_trip () =
  let eng = Engine.create ~seed:3 () in
  let r = Register.create eng ~latency:25 ~name:"o" () in
  let t = ref 0 in
  Engine.spawn eng ~name:"p" (fun () ->
      ignore (Register.propose r 1);
      t := Engine.now eng);
  Engine.run eng;
  checki "two one-way trips" 50 !t

(* ------------------------------------------------------------------ *)
(* Paxos *)

let make_group ?(n = 3) ?(seed = 7) ?(latency = Xnet.Latency.Uniform (5, 25)) ()
    =
  let eng = Engine.create ~seed () in
  let members =
    List.init n (fun i ->
        let a = Address.make ~role:"px" ~index:i in
        (a, Proc.create ~name:(Address.to_string a)))
  in
  let g = Paxos.create_group eng ~latency ~members () in
  (eng, members, g)

let test_paxos_single_proposer () =
  let eng, members, g = make_group () in
  let m0 = fst (List.nth members 0) in
  let got = ref 0 in
  Engine.spawn eng ~name:"p" (fun () ->
      got := Paxos.propose (Paxos.handle g ~member:m0 ~inst:"i1") 42);
  Engine.run ~limit:100_000 eng;
  checki "decides own value (validity)" 42 !got;
  checkb "decision visible locally" true
    (Paxos.decided_at g ~member:m0 ~inst:"i1" = Some 42)

let test_paxos_agreement_concurrent_proposers () =
  let eng, members, g = make_group ~seed:11 () in
  let results = Array.make 3 (-1) in
  List.iteri
    (fun i (m, p) ->
      Engine.spawn eng ~proc:p ~name:(Printf.sprintf "p%d" i) (fun () ->
          results.(i) <-
            Paxos.propose (Paxos.handle g ~member:m ~inst:"race") (100 + i)))
    members;
  Engine.run ~limit:200_000 eng;
  checkb "all decided" true (Array.for_all (fun v -> v >= 0) results);
  checkb "agreement" true
    (results.(0) = results.(1) && results.(1) = results.(2));
  checkb "validity" true (List.mem results.(0) [ 100; 101; 102 ])

let test_paxos_independent_instances () =
  let eng, members, g = make_group ~seed:13 () in
  let m0 = fst (List.nth members 0) and m1 = fst (List.nth members 1) in
  let a = ref 0 and b = ref 0 in
  Engine.spawn eng ~name:"pa" (fun () ->
      a := Paxos.propose (Paxos.handle g ~member:m0 ~inst:"x") 1);
  Engine.spawn eng ~name:"pb" (fun () ->
      b := Paxos.propose (Paxos.handle g ~member:m1 ~inst:"y") 2);
  Engine.run ~limit:200_000 eng;
  checki "instance x" 1 !a;
  checki "instance y" 2 !b

let test_paxos_read_is_local () =
  let eng, members, g = make_group ~seed:17 () in
  let m0 = fst (List.nth members 0) and m1 = fst (List.nth members 1) in
  checkb "no decision yet" true
    (Paxos.read (Paxos.handle g ~member:m1 ~inst:"z") = None);
  Engine.spawn eng ~name:"p" (fun () ->
      ignore (Paxos.propose (Paxos.handle g ~member:m0 ~inst:"z") 5));
  Engine.run ~limit:200_000 eng;
  (* Decided broadcast reached every live member. *)
  checkb "peer learned decision" true
    (Paxos.read (Paxos.handle g ~member:m1 ~inst:"z") = Some 5)

let test_paxos_tolerates_minority_crash () =
  let eng, members, g = make_group ~seed:19 () in
  let m0 = fst (List.nth members 0) in
  let _, p2 = List.nth members 2 in
  Proc.kill p2;
  let got = ref 0 in
  Engine.spawn eng ~name:"p" (fun () ->
      got := Paxos.propose (Paxos.handle g ~member:m0 ~inst:"crash") 9);
  Engine.run ~limit:500_000 eng;
  checki "decides with majority" 9 !got

let test_paxos_proposer_crash_then_other_decides () =
  let eng, members, g = make_group ~seed:23 () in
  let m0, p0 = List.nth members 0 in
  let m1, _ = List.nth members 1 in
  Engine.spawn eng ~proc:p0 ~name:"doomed" (fun () ->
      ignore (Paxos.propose (Paxos.handle g ~member:m0 ~inst:"c") 1));
  (* Kill the first proposer mid-protocol, then propose from another
     member: it must still decide (possibly adopting value 1). *)
  Engine.schedule eng ~delay:8 (fun () -> Proc.kill p0);
  let got = ref (-1) in
  Engine.spawn eng ~name:"survivor" (fun () ->
      Engine.sleep eng 200;
      got := Paxos.propose (Paxos.handle g ~member:m1 ~inst:"c") 2);
  Engine.run ~limit:500_000 eng;
  checkb "survivor decided" true (List.mem !got [ 1; 2 ])

let test_paxos_n1 () =
  let eng, members, g = make_group ~n:1 ~seed:29 () in
  let m0 = fst (List.nth members 0) in
  let got = ref 0 in
  Engine.spawn eng ~name:"p" (fun () ->
      got := Paxos.propose (Paxos.handle g ~member:m0 ~inst:"solo") 3);
  Engine.run ~limit:100_000 eng;
  checki "single member decides" 3 !got

let test_paxos_n5_concurrent () =
  let eng, members, g = make_group ~n:5 ~seed:31 () in
  let results = Array.make 5 (-1) in
  List.iteri
    (fun i (m, p) ->
      Engine.spawn eng ~proc:p ~name:(Printf.sprintf "p%d" i) (fun () ->
          results.(i) <-
            Paxos.propose (Paxos.handle g ~member:m ~inst:"n5") (200 + i)))
    members;
  Engine.run ~limit:500_000 eng;
  checkb "all decided" true (Array.for_all (fun v -> v >= 0) results);
  let v = results.(0) in
  checkb "agreement among 5" true (Array.for_all (fun x -> x = v) results)

let test_paxos_stats () =
  let eng, members, g = make_group ~seed:37 () in
  let m0 = fst (List.nth members 0) in
  Engine.spawn eng ~name:"p" (fun () ->
      ignore (Paxos.propose (Paxos.handle g ~member:m0 ~inst:"s") 1));
  Engine.run ~limit:100_000 eng;
  let st = Paxos.stats g in
  checki "one proposal" 1 st.Paxos.proposals;
  checkb "some messages" true (st.Paxos.messages_sent > 0);
  checki "one decision" 1 st.Paxos.decisions

(* ------------------------------------------------------------------ *)
(* Seqlog *)

let make_seqlog ?(n = 3) ?(seed = 41) ?(latency = Xnet.Latency.Uniform (5, 25))
    ?forward_timeout () =
  let eng = Engine.create ~seed () in
  let members =
    List.init n (fun i ->
        let a = Address.make ~role:"sl" ~index:i in
        (a, Proc.create ~name:(Address.to_string a)))
  in
  let g = Seqlog.create_group eng ~latency ~members ?forward_timeout () in
  (eng, members, g)

let test_seqlog_agreement_concurrent () =
  let eng, members, g = make_seqlog ~seed:43 () in
  let results = Array.make 3 (-1) in
  List.iteri
    (fun i (m, p) ->
      Engine.spawn eng ~proc:p ~name:(Printf.sprintf "p%d" i) (fun () ->
          results.(i) <-
            Seqlog.propose (Seqlog.handle g ~member:m ~inst:"race") (300 + i)))
    members;
  Engine.run ~limit:200_000 eng;
  checkb "all decided" true (Array.for_all (fun v -> v >= 0) results);
  checkb "agreement" true
    (results.(0) = results.(1) && results.(1) = results.(2));
  checkb "validity" true (List.mem results.(0) [ 300; 301; 302 ])

let test_seqlog_read_is_local () =
  let eng, members, g = make_seqlog ~seed:47 () in
  let m0 = fst (List.nth members 0) and m1 = fst (List.nth members 1) in
  checkb "no decision yet" true
    (Seqlog.read (Seqlog.handle g ~member:m1 ~inst:"z") = None);
  Engine.spawn eng ~name:"p" (fun () ->
      ignore (Seqlog.propose (Seqlog.handle g ~member:m0 ~inst:"z") 5));
  Engine.run ~limit:200_000 eng;
  (* Commit fan-out reached every live member. *)
  checkb "peer learned decision" true
    (Seqlog.read (Seqlog.handle g ~member:m1 ~inst:"z") = Some 5)

let test_seqlog_leader_crash_view_change () =
  let eng, members, g = make_seqlog ~seed:53 ~forward_timeout:300 () in
  (* The view-0 sequencer is member 0: kill it before anything is
     forwarded, so the proposer must time out and rotate the view. *)
  let _, p0 = List.nth members 0 in
  Proc.kill p0;
  let m1 = fst (List.nth members 1) in
  let got = ref (-1) in
  Engine.spawn eng ~name:"p" (fun () ->
      got := Seqlog.propose (Seqlog.handle g ~member:m1 ~inst:"vc") 7);
  Engine.run ~limit:500_000 eng;
  checki "decides after view change" 7 !got;
  checkb "view changed" true ((Seqlog.stats g).Seqlog.view_changes >= 1)

let test_seqlog_fast_decide () =
  let eng, members, g = make_seqlog ~seed:59 () in
  let m0 = fst (List.nth members 0) in
  let before = (Seqlog.stats g).Seqlog.messages_sent in
  let d1 = Seqlog.fast_decide g ~member:m0 ~inst:"f" 1 in
  let d2 = Seqlog.fast_decide g ~member:m0 ~inst:"f" 2 in
  ignore eng;
  checki "first value wins" 1 d1;
  checki "second call adopts" 1 d2;
  checki "zero messages" before (Seqlog.stats g).Seqlog.messages_sent;
  checkb "recovery read sees it" true
    (Seqlog.decided_at g ~member:m0 ~inst:"f" = Some 1)

let test_seqlog_stats () =
  let eng, members, g = make_seqlog ~seed:61 () in
  let m0 = fst (List.nth members 0) in
  Engine.spawn eng ~name:"p" (fun () ->
      ignore (Seqlog.propose (Seqlog.handle g ~member:m0 ~inst:"s") 1));
  Engine.run ~limit:100_000 eng;
  let st = Seqlog.stats g in
  checki "one proposal" 1 st.Seqlog.proposals;
  checki "one decision" 1 st.Seqlog.decisions;
  checkb "some messages" true (st.Seqlog.messages_sent > 0)

(* Property: agreement and validity hold across random seeds, latencies,
   and proposer subsets. *)
let prop_paxos_agreement =
  QCheck.Test.make ~name:"paxos agreement+validity over random runs" ~count:40
    QCheck.(triple small_int (int_range 1 3) (int_range 0 2))
    (fun (seed, n_proposers, crash_idx) ->
      let eng, members, g =
        make_group ~seed:(seed + 1000) ~latency:(Xnet.Latency.Uniform (5, 60))
          ()
      in
      let results = Array.make n_proposers (-1) in
      List.iteri
        (fun i (m, p) ->
          if i < n_proposers then
            Engine.spawn eng ~proc:p ~name:(Printf.sprintf "p%d" i) (fun () ->
                results.(i) <-
                  Paxos.propose (Paxos.handle g ~member:m ~inst:"prop") (500 + i)))
        members;
      (* Crash one non-proposing member when possible (keeps majority). *)
      if crash_idx >= n_proposers && crash_idx < 3 then
        Proc.kill (snd (List.nth members crash_idx));
      Engine.run ~limit:1_000_000 eng;
      let decided = Array.to_list results in
      List.for_all (fun v -> v >= 500 && v < 500 + n_proposers) decided
      && List.for_all (fun v -> v = List.hd decided) decided)

let tc name f = Alcotest.test_case name `Quick f
let qcheck t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "xconsensus"
    [
      ( "register",
        [
          tc "first proposal wins" test_register_first_proposal_wins;
          tc "read" test_register_read;
          tc "round-trip cost" test_register_propose_costs_round_trip;
        ] );
      ( "paxos",
        [
          tc "single proposer" test_paxos_single_proposer;
          tc "agreement (concurrent)" test_paxos_agreement_concurrent_proposers;
          tc "independent instances" test_paxos_independent_instances;
          tc "read is local" test_paxos_read_is_local;
          tc "minority crash" test_paxos_tolerates_minority_crash;
          tc "proposer crash" test_paxos_proposer_crash_then_other_decides;
          tc "n=1" test_paxos_n1;
          tc "n=5 concurrent" test_paxos_n5_concurrent;
          tc "stats" test_paxos_stats;
        ] );
      ( "seqlog",
        [
          tc "agreement (concurrent)" test_seqlog_agreement_concurrent;
          tc "read is local" test_seqlog_read_is_local;
          tc "leader crash -> view change" test_seqlog_leader_crash_view_change;
          tc "fast decide" test_seqlog_fast_decide;
          tc "stats" test_seqlog_stats;
        ] );
      ("properties", [ qcheck prop_paxos_agreement ]);
    ]
