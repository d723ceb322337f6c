(* Tests for the leased-owner fast path: the Lease cell's grant/renew/
   expiry/fence mechanics, the safety property (at most one unexpired
   lease per epoch under any fault interleaving, via the grant ledger),
   and the substrate cross-check (the same workload and seed must reach
   identical verdicts and replies whichever consensus substrate backs
   agreement, lease on or off, on a 1-domain and a 4-domain pool). *)

module Engine = Xsim.Engine
module Timer = Xsim.Timer
module Address = Xnet.Address
module Lease = Xreplication.Lease
module Service = Xreplication.Service
module Runner = Xworkload.Runner
module Workloads = Xworkload.Workloads
module Pool = Xpar.Pool

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let addr i = Address.make ~role:"replica" ~index:i

(* Small lease so unit tests cross boundaries quickly. *)
let small = { Lease.duration = 60; renew_interval = 20 }

(* ------------------------------------------------------------------ *)
(* Unit: grant / renew / expiry / break / fence *)

let test_grant_and_already () =
  let eng = Engine.create ~seed:1 () in
  let l = Lease.create eng ~config:small () in
  checkb "no holder initially" true (Lease.holder l = None);
  checkb "grant epoch 1" true (Lease.try_acquire l (addr 0) = `Granted 1);
  checkb "holder is 0" true (Lease.holder l = Some (addr 0, 1));
  checkb "re-acquire = already" true (Lease.try_acquire l (addr 0) = `Already 1);
  checkb "challenger held off" true (Lease.try_acquire l (addr 1) = `Held);
  checki "epoch" 1 (Lease.epoch l)

let test_renew_extends () =
  let eng = Engine.create ~seed:2 () in
  let l = Lease.create eng ~config:small () in
  Engine.spawn eng ~name:"t" (fun () ->
      ignore (Lease.try_acquire l (addr 0));
      Timer.sleep eng 50;
      checkb "renew before expiry" true (Lease.renew l (addr 0));
      Timer.sleep eng 50;
      (* 100 > duration 60, but the renewal at t=50 extends to 110. *)
      checkb "still held after renewal" true
        (Lease.holder l = Some (addr 0, 1)));
  Engine.run eng

let test_expiry_lapses_and_reissues () =
  let eng = Engine.create ~seed:3 () in
  let l = Lease.create eng ~config:small () in
  Engine.spawn eng ~name:"t" (fun () ->
      ignore (Lease.try_acquire l (addr 0));
      Timer.sleep eng 100;
      checkb "lapsed" true (Lease.holder l = None);
      checkb "stale renew refused" false (Lease.renew l (addr 0));
      checkb "challenger granted epoch 2" true
        (Lease.try_acquire l (addr 1) = `Granted 2));
  Engine.run eng;
  checkb "an expiry counted" true ((Lease.stats l).Lease.expiries >= 1)

let test_break_suspect () =
  let eng = Engine.create ~seed:4 () in
  let l = Lease.create eng ~config:small () in
  ignore (Lease.try_acquire l (addr 0));
  Lease.break_suspect l ~suspect:(addr 1);
  checkb "wrong suspect is a no-op" true (Lease.holder l = Some (addr 0, 1));
  Lease.break_suspect l ~suspect:(addr 0);
  checkb "broken" true (Lease.holder l = None);
  checkb "challenger granted" true (Lease.try_acquire l (addr 1) = `Granted 2)

let test_valid_fence () =
  let eng = Engine.create ~seed:5 () in
  let l = Lease.create eng ~config:small () in
  ignore (Lease.try_acquire l (addr 0));
  checkb "current epoch valid" true (Lease.valid l ~holder:(addr 0) ~epoch:1);
  checkb "wrong holder invalid" false (Lease.valid l ~holder:(addr 1) ~epoch:1);
  checkb "wrong epoch invalid" false (Lease.valid l ~holder:(addr 0) ~epoch:2);
  Lease.break_suspect l ~suspect:(addr 0);
  ignore (Lease.try_acquire l (addr 1));
  (* The old holder's fence must stay dead even after a re-grant. *)
  checkb "stale epoch fenced" false (Lease.valid l ~holder:(addr 0) ~epoch:1);
  checkb "new epoch valid" true (Lease.valid l ~holder:(addr 1) ~epoch:2)

(* ------------------------------------------------------------------ *)
(* Property: lease safety under random fault interleavings.

   Three replicas run concurrent fibers, each executing a generated
   script of (sleep, action) steps — acquire attempts, renewals, and
   ◇P-style break_suspect calls against arbitrary replicas (false
   suspicions included).  Whatever the interleaving, the grant ledger
   must show strictly increasing epochs and non-overlapping validity
   intervals: at most one unexpired lease per epoch at any instant. *)

type action = Acquire | Renew | Break of int

let gen_script =
  QCheck.Gen.(
    list_size (int_range 1 12)
      (pair (int_range 1 80)
         (frequency
            [
              (4, return Acquire);
              (3, return Renew);
              (2, map (fun i -> Break i) (int_range 0 2));
            ])))

let arb_scripts =
  QCheck.make
    QCheck.Gen.(triple gen_script gen_script gen_script)

let prop_lease_safety =
  QCheck.Test.make ~name:"at most one unexpired lease per epoch" ~count:200
    QCheck.(pair small_int arb_scripts)
    (fun (seed, (s0, s1, s2)) ->
      let eng = Engine.create ~seed:(seed + 1) () in
      let l = Lease.create eng ~config:small () in
      List.iteri
        (fun i script ->
          Engine.spawn eng ~name:(Printf.sprintf "r%d" i) (fun () ->
              List.iter
                (fun (d, a) ->
                  Timer.sleep eng d;
                  match a with
                  | Acquire -> ignore (Lease.try_acquire l (addr i))
                  | Renew -> ignore (Lease.renew l (addr i))
                  | Break j -> Lease.break_suspect l ~suspect:(addr j))
                script))
        [ s0; s1; s2 ];
      Engine.run ~limit:10_000 eng;
      let ledger = Lease.history l in
      let epochs_increasing =
        let rec go = function
          | (e1, _, _, _) :: ((e2, _, _, _) :: _ as rest) ->
              e1 < e2 && go rest
          | _ -> true
        in
        go ledger
      in
      let intervals_disjoint =
        let rec go = function
          | (_, _, _, end1) :: ((_, _, start2, _) :: _ as rest) ->
              end1 <= start2 && go rest
          | _ -> true
        in
        go ledger
      in
      let well_formed =
        List.for_all (fun (_, _, s, e) -> s <= e) ledger
      in
      epochs_increasing && intervals_disjoint && well_formed)

(* ------------------------------------------------------------------ *)
(* Substrate cross-check: same workload + seed => identical verdicts
   and replies across register/paxos/seqlog, lease on and off, and the
   whole table must agree between a 1-domain and a 4-domain pool. *)

let cross_run ~substrate ~lease ~seed =
  let spec =
    {
      Runner.default_spec with
      seed;
      time_limit = 5_000_000;
      quiesce_grace = 20_000;
      service_config =
        {
          Service.default_config with
          substrate;
          lease = (if lease then Some Lease.default_config else None);
        };
    }
  in
  let r, _ =
    Runner.run ~spec ~setup:Workloads.setup_all
      ~workload:(fun _ c s -> Workloads.sequence Workloads.Mixed ~n:4 c s)
      ()
  in
  (* Latency is substrate-dependent by design; the verdict and the
     replies (action, output) are what must not move. *)
  ( Runner.ok r,
    List.map
      (fun s -> (s.Runner.req.Xsm.Request.action, s.Runner.reply))
      r.Runner.submissions )

let test_substrate_cross_check () =
  let cells =
    List.concat_map
      (fun lease ->
        List.concat_map
          (fun seed ->
            List.map (fun (n, s) -> (n, s, lease, seed))
              Xreplication.Coord.substrates)
          [ 3; 14 ])
      [ false; true ]
  in
  let table pool =
    Pool.map pool
      (fun (_, substrate, lease, seed) -> cross_run ~substrate ~lease ~seed)
      cells
  in
  let pool1 = Pool.create ~domains:1 () in
  let pool4 = Pool.create ~domains:4 () in
  let rows1 = table pool1 in
  let rows4 = table pool4 in
  Pool.shutdown pool1;
  Pool.shutdown pool4;
  checkb "jobs=1 vs jobs=4 identical" true (rows1 = rows4);
  List.iter2
    (fun (name, _, lease, seed) (ok, _) ->
      checkb (Printf.sprintf "%s lease=%b seed=%d x-able" name lease seed) true
        ok)
    cells rows4;
  (* Group by (lease, seed): the three substrates' replies must agree. *)
  List.iter
    (fun lease ->
      List.iter
        (fun seed ->
          let replies =
            List.filter_map
              (fun ((_, _, l, s), (_, rs)) ->
                if l = lease && s = seed then Some rs else None)
              (List.combine cells rows4)
          in
          match replies with
          | reg :: rest ->
              List.iter
                (fun other ->
                  checkb
                    (Printf.sprintf "replies agree lease=%b seed=%d" lease seed)
                    true (other = reg))
                rest
          | [] -> ())
        [ 3; 14 ])
    [ false; true ]

(* The fast path must actually engage: a leased register run uses
   strictly fewer modelled substrate messages than the unleased run. *)
let test_lease_cuts_messages () =
  let run lease =
    let spec =
      {
        Runner.default_spec with
        seed = 9;
        time_limit = 5_000_000;
        quiesce_grace = 20_000;
        service_config =
          {
            Service.default_config with
            substrate = `Register 25;
            lease = (if lease then Some Lease.default_config else None);
          };
      }
    in
    let r, _ =
      Runner.run ~spec ~setup:Workloads.setup_all
        ~workload:(fun _ c s -> Workloads.sequence Workloads.Mixed ~n:4 c s)
        ()
    in
    checkb "x-able" true (Runner.ok r);
    r.Runner.totals.Service.coord_msgs
  in
  let off = run false and on = run true in
  checkb
    (Printf.sprintf "leased msgs (%d) <= half of unleased (%d)" on off)
    true (2 * on <= off)

let tc name f = Alcotest.test_case name `Quick f
let qcheck t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "xlease"
    [
      ( "lease",
        [
          tc "grant / already / held" test_grant_and_already;
          tc "renew extends" test_renew_extends;
          tc "expiry lapses, reissues" test_expiry_lapses_and_reissues;
          tc "break on suspicion" test_break_suspect;
          tc "fence validity" test_valid_fence;
        ] );
      ("safety", [ qcheck prop_lease_safety ]);
      ( "substrates",
        [
          tc "cross-check verdicts+replies" test_substrate_cross_check;
          tc "lease cuts messages >= 2x" test_lease_cuts_messages;
        ] );
    ]
