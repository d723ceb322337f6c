(* Tests for the state-machine layer (xsm): requests, the environment's
   execution semantics, and the stock services. *)

open Xability
module Engine = Xsim.Engine
module Env = Xsm.Environment
module Request = Xsm.Request
module Services = Xsm.Services

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Request *)

let mk_idem () =
  Request.make ~rid:7 ~action:"send" ~kind:Action.Idempotent
    ~input:(Value.str "x")

let mk_undo () =
  Request.make ~rid:8 ~action:"book" ~kind:Action.Undoable
    ~input:(Value.str "y")

let test_request_round_encoding () =
  let r = mk_undo () in
  let r2 = Request.with_round r 3 in
  checkb "round in env_iv" true
    (Request.round_of_env_iv (Request.env_iv r2) = Some 3);
  checkb "logical unchanged across rounds" true
    (Value.equal
       (Request.logical_of_env_iv "book" (Request.env_iv r2))
       (Request.logical_iv r))

let test_request_idem_ignores_round () =
  let r = mk_idem () in
  let r2 = Request.with_round r 5 in
  checkb "same env_iv across rounds" true
    (Value.equal (Request.env_iv r) (Request.env_iv r2));
  checkb "no round tag" true (Request.round_of_env_iv (Request.env_iv r2) = None)

let test_request_variants () =
  let r = mk_undo () in
  let c = Request.cancel_of r and m = Request.commit_of r in
  checkb "cancel variant" true (Request.variant c = Action.Cancel);
  checkb "commit variant" true (Request.variant m = Action.Commit);
  Alcotest.(check string) "base preserved" "book" (Request.base_action c);
  checkb "exec variant" true (Request.variant r = Action.Exec)

let test_request_keys () =
  let r = mk_undo () in
  Alcotest.(check string) "key" "book#8" (Request.key r);
  Alcotest.(check string) "key of a variant" "book#8"
    (Request.key (Request.cancel_of r));
  Alcotest.(check string) "negative rid" "book#-3"
    (Request.key { r with Request.rid = -3 });
  Alcotest.(check string) "pp_key" "book#8"
    (Format.asprintf "%a" Request.pp_key r);
  Alcotest.(check string) "round key" "book#8@1" (Request.round_key r);
  Alcotest.(check string) "round key 2" "book#8@2"
    (Request.round_key (Request.with_round r 2))

let test_request_rejects_derived_action () =
  checkb "raises" true
    (try
       ignore
         (Request.make ~rid:1 ~action:"book!cancel" ~kind:Action.Undoable
            ~input:Value.unit);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Environment *)

let quick_env ?config ?(seed = 5) () =
  let eng = Engine.create ~seed () in
  let env = Env.create eng ?config () in
  (eng, env)

let run_fiber eng f =
  let result = ref None in
  Engine.spawn eng ~name:"test-fiber" (fun () -> result := Some (f ()));
  Engine.run ~limit:10_000_000 eng;
  match !result with Some v -> v | None -> Alcotest.fail "fiber did not finish"

let test_env_idempotent_fixes_result () =
  let eng, env = quick_env () in
  Env.register_idempotent env "roll" (fun ~rid:_ ~payload:_ ~rng ->
      Value.int (Xsim.Rng.int rng 1_000_000));
  let req = Request.make ~rid:1 ~action:"roll" ~kind:Action.Idempotent ~input:Value.unit in
  let v1, v2, v3 =
    run_fiber eng (fun () ->
        let v1 = Env.execute env req in
        let v2 = Env.execute env req in
        let v3 = Env.execute env (Request.with_round req 9) in
        (v1, v2, v3))
  in
  checkb "all equal (result fixed at first completion)" true
    (v1 = v2 && v2 = v3);
  let st = Option.get (Env.stats_of env req) in
  checki "applied once" 1 st.Env.applied;
  checki "three attempts" 3 st.Env.attempts;
  checki "net exactly-once" 1 st.Env.net_effects

let test_env_raw_duplicates () =
  let eng, env = quick_env () in
  let count = ref 0 in
  Env.register_raw env "fire" (fun ~rid:_ ~payload:_ ~rng:_ ->
      incr count;
      Value.int !count);
  let req = Request.make ~rid:2 ~action:"fire" ~kind:Action.Idempotent ~input:Value.unit in
  let v1, v2 =
    run_fiber eng (fun () -> (Env.execute env req, Env.execute env req))
  in
  checkb "distinct results" true (v1 <> v2);
  checki "effect applied twice" 2 !count;
  checki "duplicate effects counted" 1 (Env.duplicate_effects env)

let test_env_undoable_lifecycle () =
  let eng, env = quick_env () in
  let state = ref `Init in
  Env.register_undoable env "op"
    ~attempt:(fun ~rid:_ ~payload:_ ~round:_ ~rng:_ ->
      state := `Tentative;
      Value.int 1)
    ~cancel:(fun ~rid:_ ~payload:_ ~round:_ -> state := `Cancelled)
    ~commit:(fun ~rid:_ ~payload:_ ~round:_ -> state := `Committed);
  let req = Request.make ~rid:3 ~action:"op" ~kind:Action.Undoable ~input:Value.unit in
  let () =
    run_fiber eng (fun () ->
        ignore (Env.execute env req);
        ignore (Env.execute env (Request.cancel_of req));
        (* round 2: attempt + commit *)
        let r2 = Request.with_round req 2 in
        ignore (Env.execute env r2);
        ignore (Env.execute env (Request.commit_of r2)))
  in
  checkb "final committed" true (!state = `Committed);
  let st = Option.get (Env.stats_of env req) in
  checki "one committed round" 1 st.Env.committed_rounds;
  checki "one cancelled round" 1 st.Env.cancelled_rounds;
  checki "net exactly-once" 1 st.Env.net_effects;
  checkb "no violations" true (Env.violations env = [])

let test_env_duplicate_commit_is_noop () =
  let eng, env = quick_env () in
  let commits = ref 0 in
  Env.register_undoable env "op"
    ~attempt:(fun ~rid:_ ~payload:_ ~round:_ ~rng:_ -> Value.int 1)
    ~cancel:(fun ~rid:_ ~payload:_ ~round:_ -> ())
    ~commit:(fun ~rid:_ ~payload:_ ~round:_ -> incr commits);
  let req = Request.make ~rid:4 ~action:"op" ~kind:Action.Undoable ~input:Value.unit in
  run_fiber eng (fun () ->
      ignore (Env.execute env req);
      ignore (Env.execute env (Request.commit_of req));
      ignore (Env.execute env (Request.commit_of req)));
  checki "handler committed once" 1 !commits;
  checkb "no violations" true (Env.violations env = [])

let test_env_cancel_of_nothing_is_noop () =
  let eng, env = quick_env () in
  Env.register_undoable env "op"
    ~attempt:(fun ~rid:_ ~payload:_ ~round:_ ~rng:_ -> Value.int 1)
    ~cancel:(fun ~rid:_ ~payload:_ ~round:_ -> ())
    ~commit:(fun ~rid:_ ~payload:_ ~round:_ -> ());
  let req = Request.make ~rid:5 ~action:"op" ~kind:Action.Undoable ~input:Value.unit in
  run_fiber eng (fun () -> ignore (Env.execute env (Request.cancel_of req)));
  checkb "no violations" true (Env.violations env = []);
  let h = Env.history env in
  checki "cancel events recorded" 2 (History.length h)

let test_env_commit_without_tentative_is_violation () =
  let eng, env = quick_env () in
  Env.register_undoable env "op"
    ~attempt:(fun ~rid:_ ~payload:_ ~round:_ ~rng:_ -> Value.int 1)
    ~cancel:(fun ~rid:_ ~payload:_ ~round:_ -> ())
    ~commit:(fun ~rid:_ ~payload:_ ~round:_ -> ());
  let req = Request.make ~rid:6 ~action:"op" ~kind:Action.Undoable ~input:Value.unit in
  run_fiber eng (fun () -> ignore (Env.execute env (Request.commit_of req)));
  checkb "violation recorded" true (Env.violations env <> [])

let test_env_failure_injection () =
  let config =
    { Env.default_config with fail_prob = 0.5; fail_after_prob = 0.0 }
  in
  let eng, env = quick_env ~config ~seed:21 () in
  Env.register_idempotent env "act" (fun ~rid:_ ~payload:_ ~rng:_ -> Value.int 1);
  let req = Request.make ~rid:7 ~action:"act" ~kind:Action.Idempotent ~input:Value.unit in
  let failures, successes =
    run_fiber eng (fun () ->
        let f = ref 0 and s = ref 0 in
        for _ = 1 to 40 do
          match Env.execute env req with Ok _ -> incr s | Error _ -> incr f
        done;
        (!f, !s))
  in
  checkb "some failures" true (failures > 0);
  checkb "some successes" true (successes > 0);
  let h = Env.history env in
  let starts = List.length (List.filter Event.is_start h) in
  let comps = List.length (List.filter Event.is_completion h) in
  checki "starts = attempts" 40 starts;
  checki "completions = successes" successes comps

let test_env_failure_cap_forces_success () =
  let config =
    {
      Env.default_config with
      fail_prob = 1.0;
      (* always fail... *)
      max_consecutive_failures = 3 (* ...but capped *);
    }
  in
  let eng, env = quick_env ~config () in
  Env.register_idempotent env "act" (fun ~rid:_ ~payload:_ ~rng:_ -> Value.int 1);
  let req = Request.make ~rid:8 ~action:"act" ~kind:Action.Idempotent ~input:Value.unit in
  let outcomes =
    run_fiber eng (fun () -> List.init 4 (fun _ -> Env.execute env req))
  in
  checkb "fourth attempt succeeds (eventual success assumption)" true
    (match List.nth outcomes 3 with Ok _ -> true | Error _ -> false)

let test_env_fail_after_applies_effect () =
  let config =
    {
      Env.default_config with
      fail_prob = 1.0;
      fail_after_prob = 1.0;
      max_consecutive_failures = 1;
    }
  in
  let eng, env = quick_env ~config () in
  let applied = ref 0 in
  Env.register_idempotent env "act" (fun ~rid:_ ~payload:_ ~rng:_ ->
      incr applied;
      Value.int 1);
  let req = Request.make ~rid:9 ~action:"act" ~kind:Action.Idempotent ~input:Value.unit in
  let first = run_fiber eng (fun () -> Env.execute env req) in
  checkb "reported failure" true (Result.is_error first);
  checki "effect applied anyway" 1 !applied

let test_env_serializes_per_key () =
  let eng, env = quick_env () in
  let active = ref 0 and max_active = ref 0 in
  Env.register_idempotent env "slow" (fun ~rid:_ ~payload:_ ~rng:_ -> Value.unit);
  (* Run two concurrent executions of the same logical request from two
     fibers; the environment worker must serialize them. *)
  let req = Request.make ~rid:10 ~action:"slow" ~kind:Action.Idempotent ~input:Value.unit in
  ignore active;
  ignore max_active;
  let h_before = History.length (Env.history env) in
  Engine.spawn eng ~name:"f1" (fun () -> ignore (Env.execute env req));
  Engine.spawn eng ~name:"f2" (fun () -> ignore (Env.execute env req));
  Engine.run ~limit:1_000_000 eng;
  let h = Env.history env in
  checki "before empty" 0 h_before;
  (* Serialized: S C S C, never S S. *)
  let rec well_formed = function
    | [] -> true
    | Event.S _ :: Event.C _ :: rest -> well_formed rest
    | _ -> false
  in
  checkb "no overlapping executions in history" true (well_formed h)

let test_env_in_flight () =
  let eng, env = quick_env () in
  Env.register_idempotent env "act" (fun ~rid:_ ~payload:_ ~rng:_ -> Value.unit);
  let req = Request.make ~rid:11 ~action:"act" ~kind:Action.Idempotent ~input:Value.unit in
  checki "quiescent" 0 (Env.in_flight env);
  Engine.spawn eng ~name:"f" (fun () -> ignore (Env.execute env req));
  Engine.run ~limit:1 eng;
  checkb "in flight during execution" true (Env.in_flight env > 0);
  Engine.run ~limit:1_000_000 eng;
  checki "quiescent after" 0 (Env.in_flight env)

let test_env_kind_of () =
  let _, env = quick_env () in
  Env.register_idempotent env "i" (fun ~rid:_ ~payload:_ ~rng:_ -> Value.unit);
  Env.register_undoable env "u"
    ~attempt:(fun ~rid:_ ~payload:_ ~round:_ ~rng:_ -> Value.unit)
    ~cancel:(fun ~rid:_ ~payload:_ ~round:_ -> ())
    ~commit:(fun ~rid:_ ~payload:_ ~round:_ -> ());
  Env.register_raw env "r" (fun ~rid:_ ~payload:_ ~rng:_ -> Value.unit);
  checkb "idempotent" true (Env.kind_of env "i" = Some Action.Idempotent);
  checkb "undoable" true (Env.kind_of env "u" = Some Action.Undoable);
  checkb "undoable via cancel name" true
    (Env.kind_of env "u!cancel" = Some Action.Undoable);
  checkb "raw unclassified" true (Env.kind_of env "r" = None);
  checkb "unknown" true (Env.kind_of env "nope" = None)

let test_env_possible_replies () =
  let eng, env = quick_env () in
  Env.register_idempotent env "roll" (fun ~rid:_ ~payload:_ ~rng ->
      Value.int (Xsim.Rng.int rng 100));
  let req = Request.make ~rid:12 ~action:"roll" ~kind:Action.Idempotent ~input:Value.unit in
  let v = run_fiber eng (fun () -> Result.get_ok (Env.execute env req)) in
  checkb "reply in PossibleReply" true
    (List.exists (Value.equal v) (Env.possible_replies env req))

let test_env_duplicate_registration_rejected () =
  let _, env = quick_env () in
  Env.register_raw env "a" (fun ~rid:_ ~payload:_ ~rng:_ -> Value.unit);
  checkb "raises" true
    (try
       Env.register_raw env "a" (fun ~rid:_ ~payload:_ ~rng:_ -> Value.unit);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Services *)

let submit_fiber eng env req =
  let result = ref None in
  Engine.spawn eng ~name:"submit" (fun () -> result := Some (Env.execute env req));
  Engine.run ~limit:1_000_000 eng;
  Option.get !result

let test_kv_service () =
  let eng, env = quick_env () in
  let kv = Services.Kv.register env () in
  let put =
    Request.make ~rid:1 ~action:"kv_put" ~kind:Action.Idempotent
      ~input:(Value.pair (Value.str "k") (Value.int 5))
  in
  ignore (submit_fiber eng env put);
  (* Duplicate execution of the same put must not count as a new write. *)
  ignore (submit_fiber eng env put);
  checkb "value stored" true (Services.Kv.get kv "k" = Some (Value.int 5));
  checki "one write applied" 1 (Services.Kv.put_count kv);
  let get =
    Request.make ~rid:2 ~action:"kv_get" ~kind:Action.Idempotent
      ~input:(Value.str "k")
  in
  checkb "get returns stored" true (submit_fiber eng env get = Ok (Value.int 5));
  let get_missing =
    Request.make ~rid:3 ~action:"kv_get" ~kind:Action.Idempotent
      ~input:(Value.str "missing")
  in
  checkb "missing is nil" true (submit_fiber eng env get_missing = Ok Value.nil)

let test_bank_service () =
  let eng, env = quick_env () in
  let bank = Services.Bank.register env ~accounts:[ ("a", 100); ("b", 50) ] () in
  let xfer =
    Request.make ~rid:1 ~action:"transfer" ~kind:Action.Undoable
      ~input:(Value.pair (Value.pair (Value.str "a") (Value.str "b")) (Value.int 30))
  in
  ignore (submit_fiber eng env xfer);
  checki "hold placed" 30 (Services.Bank.held bank "a");
  checki "not yet posted" 100 (Services.Bank.posted_balance bank "a");
  ignore (submit_fiber eng env (Request.commit_of xfer));
  checki "posted from" 70 (Services.Bank.posted_balance bank "a");
  checki "posted to" 80 (Services.Bank.posted_balance bank "b");
  checki "no outstanding hold" 0 (Services.Bank.held bank "a");
  checki "money conserved" 150 (Services.Bank.total_money bank);
  checki "one transfer" 1 (Services.Bank.posted_transfers bank)

let test_bank_cancel_releases_hold () =
  let eng, env = quick_env () in
  let bank = Services.Bank.register env ~accounts:[ ("a", 100); ("b", 0) ] () in
  let xfer =
    Request.make ~rid:1 ~action:"transfer" ~kind:Action.Undoable
      ~input:(Value.pair (Value.pair (Value.str "a") (Value.str "b")) (Value.int 30))
  in
  ignore (submit_fiber eng env xfer);
  ignore (submit_fiber eng env (Request.cancel_of xfer));
  checki "hold released" 0 (Services.Bank.held bank "a");
  checki "balance untouched" 100 (Services.Bank.posted_balance bank "a");
  checki "no transfer posted" 0 (Services.Bank.posted_transfers bank)

let test_booking_service () =
  let eng, env = quick_env () in
  let booking = Services.Booking.register env ~seats:4 () in
  let reserve rid =
    Request.make ~rid ~action:"reserve" ~kind:Action.Undoable
      ~input:(Value.str (Printf.sprintf "pax%d" rid))
  in
  let r1 = reserve 1 in
  let seat = submit_fiber eng env r1 in
  checkb "got a seat" true (Result.is_ok seat);
  checki "one hold" 1 (Services.Booking.held_seats booking);
  ignore (submit_fiber eng env (Request.commit_of r1));
  checki "confirmed" 1 (List.length (Services.Booking.confirmed booking));
  checki "no holds" 0 (Services.Booking.held_seats booking);
  checki "free seats" 3 (Services.Booking.free_seats booking);
  let r2 = reserve 2 in
  ignore (submit_fiber eng env r2);
  ignore (submit_fiber eng env (Request.cancel_of r2));
  checki "cancelled frees the seat" 3 (Services.Booking.free_seats booking)

let test_mailer_dedup_vs_raw () =
  let eng, env = quick_env () in
  let mailer = Services.Mailer.register env () in
  let send =
    Request.make ~rid:1 ~action:"send" ~kind:Action.Idempotent
      ~input:(Value.str "hi")
  in
  ignore (submit_fiber eng env send);
  ignore (submit_fiber eng env send);
  checki "idempotent send delivered once" 1 (Services.Mailer.delivery_count mailer);
  let raw =
    Request.make ~rid:2 ~action:"send_raw" ~kind:Action.Idempotent
      ~input:(Value.str "hi2")
  in
  ignore (submit_fiber eng env raw);
  ignore (submit_fiber eng env raw);
  checki "raw send delivered twice" 3 (Services.Mailer.delivery_count mailer);
  checki "one duplicate" 1 (Services.Mailer.duplicate_count mailer)


(* ------------------------------------------------------------------ *)
(* Statemachine (the paper's S) *)

let test_statemachine_dispatch () =
  let eng, env = quick_env () in
  Env.register_idempotent env "i" (fun ~rid:_ ~payload:_ ~rng:_ -> Value.int 1);
  Env.register_undoable env "u"
    ~attempt:(fun ~rid:_ ~payload:_ ~round:_ ~rng:_ -> Value.int 2)
    ~cancel:(fun ~rid:_ ~payload:_ ~round:_ -> ())
    ~commit:(fun ~rid:_ ~payload:_ ~round:_ -> ());
  Env.register_raw env "r" (fun ~rid:_ ~payload:_ ~rng:_ -> Value.int 3);
  let sm = Xsm.Statemachine.create env in
  let ri = Request.make ~rid:1 ~action:"i" ~kind:Action.Idempotent ~input:Value.unit in
  let ru = Request.make ~rid:2 ~action:"u" ~kind:Action.Undoable ~input:Value.unit in
  let rr = Request.make ~rid:3 ~action:"r" ~kind:Action.Idempotent ~input:Value.unit in
  checkb "is_idempotent i" true (Xsm.Statemachine.is_idempotent sm ri);
  checkb "not undoable i" false (Xsm.Statemachine.is_undoable sm ri);
  checkb "is_undoable u" true (Xsm.Statemachine.is_undoable sm ru);
  checkb "undoable via cancel request" true
    (Xsm.Statemachine.is_undoable sm (Request.cancel_of ru));
  checkb "raw is neither" false
    (Xsm.Statemachine.is_idempotent sm rr || Xsm.Statemachine.is_undoable sm rr);
  checkb "knows raw" true (Xsm.Statemachine.knows sm "r");
  checkb "does not know ghost" false (Xsm.Statemachine.knows sm "ghost");
  let out = run_fiber eng (fun () -> Xsm.Statemachine.execute sm ri) in
  checkb "execute dispatches" true (out = Ok (Value.int 1));
  checkb "possible replies visible" true
    (List.mem (Value.int 1) (Xsm.Statemachine.possible_replies sm ri));
  checkb "environment accessor" true (Xsm.Statemachine.environment sm == env)

let test_statemachine_kind_of () =
  let _, env = quick_env () in
  Env.register_undoable env "u"
    ~attempt:(fun ~rid:_ ~payload:_ ~round:_ ~rng:_ -> Value.unit)
    ~cancel:(fun ~rid:_ ~payload:_ ~round:_ -> ())
    ~commit:(fun ~rid:_ ~payload:_ ~round:_ -> ());
  let sm = Xsm.Statemachine.create env in
  checkb "kind via commit name" true
    (Xsm.Statemachine.kind_of sm "u!commit" = Some Action.Undoable)


(* ------------------------------------------------------------------ *)
(* Composite actions (sagas) *)

let trip_env ?config ?(seed = 5) () =
  let eng, env = quick_env ?config ~seed () in
  let bank = Services.Bank.register env ~accounts:[ ("acct", 1000); ("vendor", 0) ] () in
  let booking = Services.Booking.register env ~seats:8 () in
  let comp =
    Xsm.Composite.register env "trip"
      ~steps:(fun ~rid:_ ~payload ~rng:_ ->
        let amount =
          match payload with Value.Int a -> a | _ -> 10
        in
        [
          {
            Xsm.Composite.step_action = "reserve";
            step_kind = Action.Undoable;
            step_input = Value.str "traveller";
          };
          {
            Xsm.Composite.step_action = "transfer";
            step_kind = Action.Undoable;
            step_input =
              Value.pair
                (Value.pair (Value.str "acct") (Value.str "vendor"))
                (Value.int amount);
          };
        ])
  in
  (eng, env, bank, booking, comp)

let trip_req rid = Request.make ~rid ~action:"trip" ~kind:Action.Undoable ~input:(Value.int 50)

let test_composite_commit_cascades () =
  let eng, env, bank, booking, comp = trip_env () in
  let req = trip_req 1 in
  run_fiber eng (fun () ->
      ignore (Env.execute env req);
      ignore (Env.execute env (Request.commit_of req)));
  checki "seat confirmed" 1 (List.length (Services.Booking.confirmed booking));
  checki "money moved" 50 (Services.Bank.posted_balance bank "vendor");
  checki "two step instances" 2 (List.length (Xsm.Composite.sub_requests comp ~rid:1));
  checkb "no env violations" true (Env.violations env = [])

let test_composite_cancel_rolls_back () =
  let eng, env, bank, booking, _comp = trip_env () in
  let req = trip_req 1 in
  run_fiber eng (fun () ->
      ignore (Env.execute env req);
      ignore (Env.execute env (Request.cancel_of req)));
  checki "no confirmed seats" 0 (List.length (Services.Booking.confirmed booking));
  checki "no held seats after rollback" 0 (Services.Booking.held_seats booking);
  checki "no money moved" 0 (Services.Bank.posted_balance bank "vendor");
  checkb "no env violations" true (Env.violations env = [])

let test_composite_round_retry () =
  (* Round 1 cancelled, round 2 committed: step effects land exactly once. *)
  let eng, env, bank, booking, _comp = trip_env () in
  let req = trip_req 1 in
  run_fiber eng (fun () ->
      ignore (Env.execute env req);
      ignore (Env.execute env (Request.cancel_of req));
      let r2 = Request.with_round req 2 in
      ignore (Env.execute env r2);
      ignore (Env.execute env (Request.commit_of r2)));
  checki "exactly one confirmed seat" 1
    (List.length (Services.Booking.confirmed booking));
  checki "money moved once" 50 (Services.Bank.posted_balance bank "vendor");
  checkb "no env violations" true (Env.violations env = [])

let test_composite_program_cached_across_rounds () =
  let calls = ref 0 in
  let eng, env = quick_env () in
  Env.register_idempotent env "ping" (fun ~rid:_ ~payload:_ ~rng:_ -> Value.unit);
  let _comp =
    Xsm.Composite.register env "cached"
      ~steps:(fun ~rid:_ ~payload:_ ~rng:_ ->
        incr calls;
        [ { Xsm.Composite.step_action = "ping"; step_kind = Action.Idempotent;
            step_input = Value.unit } ])
  in
  let req = Request.make ~rid:1 ~action:"cached" ~kind:Action.Undoable ~input:Value.unit in
  run_fiber eng (fun () ->
      ignore (Env.execute env req);
      ignore (Env.execute env (Request.cancel_of req));
      let r2 = Request.with_round req 2 in
      ignore (Env.execute env r2);
      ignore (Env.execute env (Request.commit_of r2)));
  checki "program generated once" 1 !calls

let test_composite_end_to_end_protocol () =
  (* Drive a composite through the replicated service with an owner crash:
     the trip and every step must be exactly-once, and the history
     (composite + steps) must be x-able. *)
  let spec =
    {
      Xworkload.Runner.default_spec with
      seed = 901;
      crashes = [ (180, 0) ];
    }
  in
  let issued = ref None in
  let r, (env, bank, booking, comp) =
    Xworkload.Runner.run ~spec
      ~setup:(fun env ->
        let bank =
          Services.Bank.register env ~accounts:[ ("acct", 1000); ("vendor", 0) ] ()
        in
        let booking = Services.Booking.register env ~seats:8 () in
        let comp =
          Xsm.Composite.register env "trip"
            ~steps:(fun ~rid:_ ~payload:_ ~rng:_ ->
              [
                { Xsm.Composite.step_action = "reserve";
                  step_kind = Action.Undoable;
                  step_input = Value.str "traveller" };
                { Xsm.Composite.step_action = "transfer";
                  step_kind = Action.Undoable;
                  step_input =
                    Value.pair
                      (Value.pair (Value.str "acct") (Value.str "vendor"))
                      (Value.int 50) };
              ])
        in
        (env, bank, booking, comp))
      ~workload:(fun (_env, _bank, _booking, _comp) client submit ->
        let req =
          Xreplication.Client.request client ~action:"trip"
            ~kind:Action.Undoable ~input:(Value.int 50)
        in
        issued := Some req;
        ignore (submit req))
      ()
  in
  checkb "completed" true r.Xworkload.Runner.completed;
  checkb "no env violations" true (Env.violations env = []);
  (* The runner's own R3 check covers the composite; extend the
     expectation with the step groups and re-check. *)
  let req = Option.get !issued in
  let expected =
    Env.checker_expected env req
    :: List.map (Env.checker_expected env)
         (Xsm.Composite.sub_requests comp ~rid:req.Request.rid)
  in
  let report =
    Checker.check ~kinds:(Env.kind_of env)
      ~logical_of:Request.logical_of_env_iv ~check_order:false ~expected
      (Env.history env)
  in
  checkb
    (Printf.sprintf "composite + steps x-able: %s"
       (String.concat "; " report.Checker.violations))
    true report.Checker.ok;
  checki "seat exactly once" 1 (List.length (Services.Booking.confirmed booking));
  checki "payment exactly once" 50 (Services.Bank.posted_balance bank "vendor")


(* Property: random composite programs under action failures — the
   committed round's steps take effect exactly once and the combined
   history (composite + steps) is x-able. *)
let prop_composite_random_programs =
  QCheck.Test.make ~name:"composite: random programs stay exactly-once"
    ~count:40
    QCheck.(triple small_int (int_range 1 3) bool)
    (fun (seed, n_steps, with_failures) ->
      let config =
        if with_failures then
          { Env.default_config with fail_prob = 0.3; fail_after_prob = 0.5 }
        else Env.default_config
      in
      let eng, env = quick_env ~config ~seed:(seed + 50) () in
      Env.register_idempotent env "ping" (fun ~rid:_ ~payload:_ ~rng:_ ->
          Value.unit);
      let undo_applied = ref 0 in
      Env.register_undoable env "task"
        ~attempt:(fun ~rid:_ ~payload:_ ~round:_ ~rng:_ -> Value.int 1)
        ~cancel:(fun ~rid:_ ~payload:_ ~round:_ -> ())
        ~commit:(fun ~rid:_ ~payload:_ ~round:_ -> incr undo_applied);
      let comp =
        Xsm.Composite.register env "combo"
          ~steps:(fun ~rid:_ ~payload:_ ~rng ->
            List.init n_steps (fun i ->
                if Xsim.Rng.bool rng then
                  { Xsm.Composite.step_action = "ping";
                    step_kind = Action.Idempotent;
                    step_input = Value.int i }
                else
                  { Xsm.Composite.step_action = "task";
                    step_kind = Action.Undoable;
                    step_input = Value.int i }))
      in
      let req =
        Request.make ~rid:1 ~action:"combo" ~kind:Action.Undoable
          ~input:Value.unit
      in
      (* Round 1 aborted, round 2 committed — the protocol's hard path. *)
      run_fiber eng (fun () ->
          (* Figure 7's execute-until-success: a failed undoable attempt is
             cancelled before it is retried. *)
          let rec finalize_ok r =
            match Env.execute env r with
            | Ok _ -> ()
            | Error _ -> finalize_ok r
          in
          let rec exec_ok r =
            match Env.execute env r with
            | Ok _ -> ()
            | Error _ ->
                finalize_ok (Request.cancel_of r);
                exec_ok r
          in
          exec_ok req;
          finalize_ok (Request.cancel_of req);
          let r2 = Request.with_round req 2 in
          exec_ok r2;
          finalize_ok (Request.commit_of r2));
      let expected =
        Env.checker_expected env req
        :: List.map (Env.checker_expected env)
             (Xsm.Composite.sub_requests comp ~rid:1)
      in
      let report =
        Checker.check ~kinds:(Env.kind_of env)
          ~logical_of:Request.logical_of_env_iv
          ~round_of:Request.round_of_env_iv ~check_order:false ~expected
          (Env.history env)
      in
      if not report.Checker.ok then
        QCheck.Test.fail_reportf "not x-able: %s"
          (String.concat "; " report.Checker.violations);
      if Env.violations env <> [] then
        QCheck.Test.fail_reportf "env violations: %s"
          (String.concat "; " (Env.violations env));
      true)

let tc name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "xsm"
    [
      ( "request",
        [
          tc "round encoding" test_request_round_encoding;
          tc "idempotent ignores round" test_request_idem_ignores_round;
          tc "variants" test_request_variants;
          tc "keys" test_request_keys;
          tc "rejects derived action" test_request_rejects_derived_action;
        ] );
      ( "environment",
        [
          tc "idempotent fixes result" test_env_idempotent_fixes_result;
          tc "raw duplicates" test_env_raw_duplicates;
          tc "undoable lifecycle" test_env_undoable_lifecycle;
          tc "duplicate commit noop" test_env_duplicate_commit_is_noop;
          tc "cancel of nothing" test_env_cancel_of_nothing_is_noop;
          tc "commit without tentative" test_env_commit_without_tentative_is_violation;
          tc "failure injection" test_env_failure_injection;
          tc "failure cap" test_env_failure_cap_forces_success;
          tc "fail-after applies effect" test_env_fail_after_applies_effect;
          tc "serializes per key" test_env_serializes_per_key;
          tc "in_flight" test_env_in_flight;
          tc "kind_of" test_env_kind_of;
          tc "possible replies" test_env_possible_replies;
          tc "duplicate registration" test_env_duplicate_registration_rejected;
        ] );
      ( "statemachine",
        [
          tc "dispatch" test_statemachine_dispatch;
          tc "kind via derived names" test_statemachine_kind_of;
        ] );
      ( "composite",
        [
          tc "commit cascades" test_composite_commit_cascades;
          tc "cancel rolls back" test_composite_cancel_rolls_back;
          tc "round retry exactly-once" test_composite_round_retry;
          tc "program cached" test_composite_program_cached_across_rounds;
          tc "end-to-end via protocol + crash" test_composite_end_to_end_protocol;
          QCheck_alcotest.to_alcotest prop_composite_random_programs;
        ] );
      ( "services",
        [
          tc "kv" test_kv_service;
          tc "bank transfer" test_bank_service;
          tc "bank cancel" test_bank_cancel_releases_hold;
          tc "booking" test_booking_service;
          tc "mailer dedup vs raw" test_mailer_dedup_vs_raw;
        ] );
    ]
