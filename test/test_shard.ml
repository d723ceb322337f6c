(* Tests for the sharding subsystem (xshard): the key-space partitioner,
   the router/directory tier, multi-group deployments over one shared
   wire, cross-shard requests, and the section-4 composition checker. *)

open Xability
module Partition = Xshard.Partition
module Router = Xshard.Router
module Deployment = Xshard.Deployment
module Service = Xreplication.Service
module Runner = Xworkload.Runner
module Workloads = Xworkload.Workloads

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Partitioner *)

let test_partition_hash () =
  let p = Partition.hash ~shards:8 in
  checki "shards" 8 (Partition.shards p);
  (* Deterministic and in range. *)
  for i = 0 to 199 do
    let k = Printf.sprintf "key-%d" i in
    let s = Partition.shard_of p k in
    checkb "in range" true (s >= 0 && s < 8);
    checki "stable" s (Partition.shard_of p k)
  done;
  (* Spread: 200 distinct keys over 8 shards should touch every shard. *)
  let hit = Array.make 8 false in
  for i = 0 to 199 do
    hit.(Partition.shard_of p (Printf.sprintf "key-%d" i)) <- true
  done;
  checkb "all shards hit" true (Array.for_all Fun.id hit)

let test_partition_range () =
  let p = Partition.range ~bounds:[ "g"; "p" ] in
  checki "shards" 3 (Partition.shards p);
  checki "below first bound" 0 (Partition.shard_of p "apple");
  checki "middle" 1 (Partition.shard_of p "mango");
  checki "top" 2 (Partition.shard_of p "zebra");
  checki "bound itself goes up" 1 (Partition.shard_of p "g");
  (match Partition.range ~bounds:[ "p"; "g" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "descending bounds accepted")

let test_partition_keys () =
  (* Key extraction by input shape: the single source of truth shared by
     router and checker. *)
  checks "kv pair" "k1"
    (Partition.key_of_input (Value.pair (Value.str "k1") (Value.int 7)));
  checks "plain string" "alice" (Partition.key_of_input (Value.str "alice"));
  checks "nested pair (transfer source)" "acct"
    (Partition.key_of_input
       (Value.pair
          (Value.pair (Value.str "acct") (Value.str "other"))
          (Value.int 3)));
  (* Logical identity peels the rid. *)
  checks "logical" "k9"
    (Partition.key_of_logical
       (Value.pair (Value.int 123)
          (Value.pair (Value.str "k9") (Value.int 0))));
  (* key_for really lands on the requested shard. *)
  let p = Partition.hash ~shards:16 in
  for s = 0 to 15 do
    let k = Partition.key_for p ~shard:s ~salt:7 in
    checki "pinned" s (Partition.shard_of p k)
  done

(* ------------------------------------------------------------------ *)
(* Sharded runs *)

let sharded_spec ?(shards = 4) ?(seed = 42) ?(crashes = [])
    ?(blocked = []) () =
  {
    Runner.default_spec with
    seed;
    crashes;
    clients = 2;
    inflight = 2;
    shards;
    router = { Deployment.default_router with Deployment.blocked };
    service_config = { Service.default_config with Service.n_clients = 2 };
  }

let run_mix ?(n = 4) ?(cross_every = 2) spec =
  Runner.run_deployment ~spec ~setup:Workloads.setup_all
    ~workload:(fun _srv d sess ->
      Workloads.sharded_mix ~n ~cross_every d sess)
    ()

let test_sharded_run_xable () =
  let r, _, d = run_mix (sharded_spec ()) in
  checkb "completed" true r.Runner.completed;
  checkb "x-able" true (Runner.ok r);
  checki "per-shard verdicts" 4 (List.length r.Runner.shard_reports);
  List.iter
    (fun (_, rep) -> checkb "shard ok" true rep.Checker.ok)
    r.Runner.shard_reports;
  let totals = Deployment.totals d in
  checkb "cross requests happened" true
    (totals.Deployment.cross_requests > 0);
  checkb "local traffic happened" true (totals.Deployment.local_submits > 0);
  checkb "router consulted" true (totals.Deployment.router.Router.lookups > 0)

let test_sharded_determinism () =
  let go () =
    let r, _, _ = run_mix (sharded_spec ~seed:55 ()) in
    ( r.Runner.end_time,
      r.Runner.history_length,
      List.map (fun s -> s.Runner.latency) r.Runner.submissions )
  in
  let a = go () and b = go () in
  checkb "two identical sharded runs" true (a = b)

let test_owner_crash_mid_run () =
  (* Crash shard 0's initial owner early: its group must take over while
     the other shards keep serving; the composed verdict stays green. *)
  let spec = sharded_spec ~crashes:[ (150, 0) ] () in
  let r, _, _ = run_mix spec in
  checkb "completed despite owner crash" true r.Runner.completed;
  checkb "x-able despite owner crash" true (Runner.ok r)

(* By the section-4 theorem one group is the one-shard deployment, and
   Deployment builds it as the classic group: plain replica addresses,
   no router tier, so no router proxy among the detector's observers
   (an extra observer would change the oracle's noise draws). *)
let crash_seen ~shards ~observer =
  let eng = Xsim.Engine.create ~seed:1 () in
  let env = Xsm.Environment.create eng () in
  let d = Deployment.create ~shards eng env Service.default_config in
  let g = Deployment.group d 0 in
  let target = List.hd (Service.replica_addrs g) in
  Service.kill_replica g 0;
  Xsim.Engine.run ~limit:500 eng;
  (d, Xdetect.Detector.suspects (Service.detector g) ~observer ~target)

let test_one_shard_is_classic_group () =
  let router0 = Xnet.Address.make ~role:"router" ~index:0 in
  let client0 = Xnet.Address.make ~role:"client" ~index:0 in
  let d, client_sees = crash_seen ~shards:1 ~observer:client0 in
  checki "one group" 1 (Deployment.shards d);
  Alcotest.(check (list (pair string int)))
    "replica addresses"
    [ ("replica", 0); ("replica", 1); ("replica", 2) ]
    (List.map
       (fun a -> (Xnet.Address.role a, Xnet.Address.index a))
       (Service.replica_addrs (Deployment.group d 0)));
  checkb "client observes the crash" true client_sees;
  let _, router_sees = crash_seen ~shards:1 ~observer:router0 in
  checkb "no router0 observer" false router_sees;
  let _, proxy_sees = crash_seen ~shards:2 ~observer:router0 in
  checkb "two shards: router0 observes shard 0" true proxy_sees

let test_one_shard_run () =
  let r, _, d = run_mix (sharded_spec ~shards:1 ()) in
  checkb "x-able" true (Runner.ok r);
  checki "no per-shard verdicts" 0 (List.length r.Runner.shard_reports);
  let totals = Deployment.totals d in
  checkb "cross requests happened" true
    (totals.Deployment.cross_requests > 0);
  checki "no router lookups" 0 totals.Deployment.router.Router.lookups;
  let r, _ =
    Runner.run ~spec:Runner.default_spec ~setup:Workloads.setup_all
      ~workload:(fun _ c s -> Workloads.sequence Workloads.Mixed ~n:3 c s)
      ()
  in
  checkb "Runner.run x-able" true (Runner.ok r);
  checki "Runner.run: no per-shard verdicts" 0
    (List.length r.Runner.shard_reports)

let test_router_partition_heals () =
  (* Block the directory entry for shard 1 for a while: routed traffic
     stalls and retries; after the window heals everything completes. *)
  let spec = sharded_spec ~blocked:[ (0, 4_000, 1) ] () in
  let r, _, d = run_mix spec in
  checkb "completed despite router partition" true r.Runner.completed;
  checkb "x-able despite router partition" true (Runner.ok r);
  checkb "router actually stalled" true
    ((Deployment.totals d).Deployment.router.Router.blocked_waits > 0)

(* ------------------------------------------------------------------ *)
(* Section-4 composition property (satellite): [Checker.compose] on a
   random interleaved multi-shard history agrees with independently
   checking each shard's projection and conjoining the verdicts — and
   the per-shard verdicts are byte-identical whether the projections are
   judged on a 1-domain or a 4-domain pool. *)

let kinds = function
  | "get" -> Some Action.Idempotent
  | "book" -> Some Action.Undoable
  | _ -> None

let logical_of = Xsm.Request.logical_of_env_iv
let round_of = Xsm.Request.round_of_env_iv

(* The shard is embedded in the logical identity, so projection needs no
   online state — the same purity the deployment's partitioner has. *)
let shard_of _action logical =
  match logical with Value.Pair (Value.Int s, _) -> s | _ -> 0

(* One request's event trace: legal by default, or seeded with one of the
   checker's irreducible bugs (conflicting idempotent outputs; two
   committed rounds of one undoable request). *)
let trace ~shard ~rid ~undoable ~bug =
  let l = Value.pair (Value.int shard) (Value.int rid) in
  let out = Value.int (100 + rid) in
  if not undoable then
    let good = [ Event.S ("get", l); Event.C ("get", l, out) ] in
    ( { Checker.action = "get"; kind = Action.Idempotent; logical = l },
      if bug then
        good @ [ Event.S ("get", l); Event.C ("get", l, Value.int 999) ]
      else good )
  else begin
    let riv r = Value.pair (Value.str "round") (Value.pair (Value.int r) l) in
    let cn = Action.cancel_name "book" in
    let cm = Action.commit_name "book" in
    let round r closer =
      [
        Event.S ("book", riv r);
        Event.C ("book", riv r, out);
        Event.S (closer, riv r);
        Event.C (closer, riv r, Value.nil);
      ]
    in
    ( { Checker.action = "book"; kind = Action.Undoable; logical = l },
      if bug then round 1 cm @ round 2 cm else round 1 cn @ round 2 cm )
  end

(* Random order-preserving merge of the per-request traces: cross-shard
   interleaving without reordering any single request's events. *)
let interleave rng traces =
  let queues = Array.of_list (List.map ref traces) in
  let out = ref [] in
  let rec go () =
    let nonempty =
      Array.to_list queues |> List.filter (fun q -> !q <> [])
    in
    match nonempty with
    | [] -> ()
    | qs ->
        let q = List.nth qs (Random.State.int rng (List.length qs)) in
        (match !q with
        | e :: rest ->
            out := e :: !out;
            q := rest
        | [] -> ());
        go ()
  in
  go ();
  List.rev !out

let prop_compose_agrees =
  QCheck.Test.make
    ~name:"compose = per-shard conjunction; pools 1 and 4 byte-identical"
    ~count:40
    QCheck.(
      pair (int_bound 10_000)
        (list_of_size Gen.(1 -- 6) (triple (int_bound 2) bool bool)))
    (fun (seed, reqs) ->
      let rng = Random.State.make [| seed |] in
      let parts =
        List.mapi
          (fun rid (shard, undoable, bug) -> trace ~shard ~rid ~undoable ~bug)
          reqs
      in
      let expected = List.map fst parts in
      let h = interleave rng (List.map snd parts) in
      let composed =
        Checker.compose ~kinds ~logical_of ~round_of ~shard_of ~expected h
      in
      (* Independent per-shard verdicts: project by the same shard_of and
         judge each projection alone. *)
      let shards =
        List.sort_uniq compare
          (List.map (fun e -> shard_of e.Checker.action e.Checker.logical)
             expected)
      in
      let judge s =
        let exp_s =
          List.filter
            (fun e -> shard_of e.Checker.action e.Checker.logical = s)
            expected
        in
        let h_s =
          List.filter
            (fun e ->
              let base = Action.base (Event.action e) in
              shard_of base (logical_of base (Event.input e)) = s)
            h
        in
        ( s,
          Checker.check ~kinds ~logical_of ~round_of ~check_order:false
            ~expected:exp_s h_s )
      in
      let on_pool domains =
        Xpar.Pool.with_pool ~domains (fun pool ->
            Xpar.Pool.map pool judge shards)
      in
      let p1 = on_pool 1 in
      let p4 = on_pool 4 in
      let render ps =
        String.concat "\n"
          (List.map
             (fun (s, r) ->
               Format.asprintf "shard %d: %a" s Checker.pp_report r)
             ps)
      in
      (* Byte-identical across pool sizes, and equal to what compose
         reported; combined verdict is exactly the conjunction. *)
      render p1 = render p4
      && composed.Checker.per_shard = p1
      && composed.Checker.combined.Checker.ok
         = List.for_all (fun (_, r) -> r.Checker.ok) p1)

let () =
  Alcotest.run "shard"
    [
      ( "partition",
        [
          Alcotest.test_case "hash" `Quick test_partition_hash;
          Alcotest.test_case "range" `Quick test_partition_range;
          Alcotest.test_case "keys" `Quick test_partition_keys;
        ] );
      ( "deployment",
        [
          Alcotest.test_case "sharded run x-able" `Quick
            test_sharded_run_xable;
          Alcotest.test_case "deterministic" `Quick test_sharded_determinism;
          Alcotest.test_case "owner crash mid-run" `Quick
            test_owner_crash_mid_run;
          Alcotest.test_case "router partition heals" `Quick
            test_router_partition_heals;
          Alcotest.test_case "one shard is the classic group" `Quick
            test_one_shard_is_classic_group;
          Alcotest.test_case "one-shard run" `Quick test_one_shard_run;
        ] );
      ("compose", [ QCheck_alcotest.to_alcotest prop_compose_agrees ]);
    ]
