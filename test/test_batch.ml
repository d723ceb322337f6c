(* Batching/pipelining equivalence property.

   The batch path is an optimization, not a semantic change: for any
   batch size, pipeline depth, and fault plan with drop < 1, every
   per-request verdict — the R1-R4 checks and the reply value each
   request settled on — must be identical to the batch=1 faithful run.
   And it must be so on a 1-domain pool and a 4-domain pool alike
   (JOBS=1 vs JOBS=4), i.e. domain-parallel verification does not
   observe anything the sequential run would not.

   Replies are made schedule-independent by giving every client lane its
   own key space, so the two runs' submission multisets are comparable
   even though the engines interleave lanes differently. *)

module Runner = Xworkload.Runner
module Workloads = Xworkload.Workloads
module Service = Xreplication.Service
module Value = Xability.Value

let spec_of ~batching ~seed ~fault =
  let crash = fault land 1 = 1 in
  let noise = fault land 2 = 2 in
  let lossy = fault land 4 = 4 in
  {
    Runner.default_spec with
    seed = seed + 1;
    clients = 2;
    inflight = 2;
    crashes = (if crash then [ (400 + (seed mod 300), 0) ] else []);
    noise = (if noise then Some (0.1, 150, 5_000) else None);
    time_limit = 3_000_000;
    quiesce_grace = 20_000;
    service_config =
      {
        Service.default_config with
        (* Exercise the serial consensus substrate too: it must delay,
           never change, what is decided. *)
        consensus_service_time = 30;
        faults =
          (if lossy then Xnet.Fault.make ~default:(Xnet.Fault.link ~drop:0.15 ()) ()
           else Xnet.Fault.none);
        channel =
          (if lossy then Service.Arq Xnet.Reliable.default_arq
           else Service.Assumed_reliable);
        replica = { Xreplication.Replica.default_config with batching };
      };
  }

(* One run's per-request verdicts: the global ok flag (R2/R3/R4, env
   accounting, fiber hygiene) plus the sorted multiset of
   (input, reply) pairs.  Inputs carry lane-private keys, so the sorted
   multiset is the same for every schedule that serves every request
   correctly. *)
let verdict ~batching ~seed ~fault =
  let lane_ctr = ref 0 in
  let r, _ =
    Runner.run
      ~spec:(spec_of ~batching ~seed ~fault)
      ~setup:Workloads.setup_all
      ~workload:(fun _srv client submit ->
        let lane = !lane_ctr in
        incr lane_ctr;
        for i = 0 to 2 do
          let key = Printf.sprintf "lane%d.k%d" lane i in
          ignore
            (submit
               (Workloads.kv_put client ~key
                  ~value:(Value.int ((100 * lane) + i))));
          ignore (submit (Workloads.kv_get client ~key))
        done)
      ()
  in
  ( Runner.ok r,
    Runner.failures r,
    List.sort compare
      (List.map
         (fun s ->
           ( Value.to_string s.Runner.req.Xsm.Request.input,
             Value.to_string s.Runner.reply ))
         r.Runner.submissions) )

let pool1 = lazy (Xpar.Pool.create ~domains:1 ())
let pool4 = lazy (Xpar.Pool.create ~domains:4 ())

let prop_batch_equivalence =
  QCheck.Test.make
    ~name:"batching: per-request verdicts match the batch=1 run (JOBS=1/4)"
    ~count:4
    QCheck.(triple (int_bound 10_000) (int_bound 11) (int_bound 7))
    (fun (seed, cfg, fault) ->
      let batch = [| 2; 4; 16; 64 |].(cfg mod 4) in
      let pipeline = [| 1; 2; 4 |].(cfg / 4) in
      let configs =
        [
          None;
          Some { Xreplication.Batcher.size = batch; tick = 100; depth = pipeline };
        ]
      in
      let run_pair pool =
        Xpar.Pool.map pool (fun batching -> verdict ~batching ~seed ~fault) configs
      in
      let jobs1 = run_pair (Lazy.force pool1) in
      let jobs4 = run_pair (Lazy.force pool4) in
      (match jobs1 with
      | [ (ok_base, fails_base, _); _ ] ->
          if not ok_base then
            QCheck.Test.fail_reportf
              "seed=%d fault=%d: baseline batch=1 run not ok:\n%s" seed fault
              (String.concat "\n" fails_base)
      | _ -> assert false);
      (match jobs1 with
      | [ base; batched ] ->
          if base <> batched then
            QCheck.Test.fail_reportf
              "seed=%d batch=%d pipeline=%d fault=%d: batched verdicts \
               differ from batch=1 run"
              seed batch pipeline fault
      | _ -> assert false);
      if jobs1 <> jobs4 then
        QCheck.Test.fail_reportf
          "seed=%d batch=%d pipeline=%d fault=%d: JOBS=1 and JOBS=4 \
           verdicts differ"
          seed batch pipeline fault;
      true)

let qcheck t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "xbatch"
    [ ("equivalence", [ qcheck prop_batch_equivalence ]) ]
