(* Tests for the x-ability theory (lib/core): patterns, reduction,
   x-able predicate, signatures, and the multi-request checker. *)

open Xability

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let kinds = function
  | "get" | "roll" -> Some Action.Idempotent
  | "book" | "pay" -> Some Action.Undoable
  | _ -> None

let iv = Value.int 1
let iv2 = Value.int 2
let v42 = Value.int 42
let v7 = Value.int 7
let s ?(iv = iv) a = Event.S (a, iv)
let c ?(iv = iv) a ov = Event.C (a, iv, ov)
let cn = Action.cancel_name "book"
let cm = Action.commit_name "book"

let history = Alcotest.testable History.pp History.equal

(* ------------------------------------------------------------------ *)
(* Value *)

let test_value_roundtrip () =
  let v =
    Value.pair (Value.str "round") (Value.pair (Value.int 2) (Value.list [ Value.bool true; Value.nil ]))
  in
  checkb "equal to itself" true (Value.equal v v);
  checkb "to_string nonempty" true (String.length (Value.to_string v) > 0);
  Alcotest.(check string) "to_string" {|("round",(2,[true;nil]))|}
    (Value.to_string v);
  Alcotest.(check string) "escapes" {|[(-3,"a\"b\n\200");()]|}
    (Value.to_string
       (Value.list [ Value.pair (Value.int (-3)) (Value.str "a\"b\n\200"); Value.unit ]));
  checkb "distinct values differ" false (Value.equal v Value.unit)

let test_value_projections () =
  checkb "as_int" true (Value.as_int (Value.int 3) = Some 3);
  checkb "as_int mismatch" true (Value.as_int Value.nil = None);
  checkb "as_pair" true
    (Value.as_pair (Value.pair Value.unit Value.nil) = Some (Value.unit, Value.nil));
  checkb "as_str" true (Value.as_str (Value.str "x") = Some "x");
  checkb "as_bool" true (Value.as_bool (Value.bool true) = Some true);
  checkb "as_list" true (Value.as_list (Value.list []) = Some [])

let test_value_ordering_total () =
  let vs =
    [ Value.nil; Value.unit; Value.bool false; Value.int 0; Value.str "";
      Value.pair Value.nil Value.nil; Value.list [] ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let ab = Value.compare a b and ba = Value.compare b a in
          checkb "antisymmetric" true ((ab = 0 && ba = 0) || ab * ba < 0 || (ab = 0) = (ba = 0)))
        vs)
    vs

(* [Value.to_string] as it was first written, through [Format]: the
   Buffer printer must give the same bytes, since group keys, history
   action keys and violation messages are built from it. *)
module Reference_printer = struct
  let rec pp ppf = function
    | Value.Nil -> Format.pp_print_string ppf "nil"
    | Value.Unit -> Format.pp_print_string ppf "()"
    | Value.Bool b -> Format.pp_print_bool ppf b
    | Value.Int i -> Format.pp_print_int ppf i
    | Value.Str s -> Format.fprintf ppf "%S" s
    | Value.Pair (a, b) -> Format.fprintf ppf "(%a,%a)" pp a pp b
    | Value.List xs ->
        Format.fprintf ppf "[%a]"
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ";")
             pp)
          xs

  let to_string v = Format.asprintf "%a" pp v
end

(* Strings that need escaping (quote, backslash, control and high bytes),
   negative ints, nested pairs, empty and nested lists. *)
let gen_value =
  let open QCheck.Gen in
  let chars = oneof [ oneofl [ '"'; '\\'; '\n'; '\t'; '\000'; '\127'; '\200'; '\255' ]; printable ] in
  let leaf =
    oneof
      [
        return Value.nil;
        return Value.unit;
        map Value.bool bool;
        map Value.int (oneof [ int; int_range (-1000) 1000; oneofl [ min_int; max_int ] ]);
        map Value.str (string_size ~gen:chars (0 -- 8));
      ]
  in
  sized_size (0 -- 6)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (3, map2 Value.pair (self (n / 2)) (self (n / 2)));
               (2, map Value.list (list_size (0 -- 3) (self (n / 2))));
             ])

let prop_value_to_string_reference =
  QCheck.Test.make ~name:"to_string = Format reference printer" ~count:500
    (QCheck.make ~print:Reference_printer.to_string gen_value)
    (fun v ->
      let s = Value.to_string v in
      String.equal s (Reference_printer.to_string v)
      && String.equal s (Format.asprintf "%a" Value.pp_compact v))

(* ------------------------------------------------------------------ *)
(* Action *)

let test_action_names () =
  Alcotest.(check string) "cancel" "book!cancel" (Action.cancel_name "book");
  Alcotest.(check string) "commit" "book!commit" (Action.commit_name "book");
  checkb "split cancel" true (Action.split "book!cancel" = ("book", Action.Cancel));
  checkb "split commit" true (Action.split "book!commit" = ("book", Action.Commit));
  checkb "split base" true (Action.split "book" = ("book", Action.Exec));
  Alcotest.(check string) "base of cancel" "book" (Action.base "book!cancel");
  checkb "is_base" true (Action.is_base "book");
  checkb "not base" false (Action.is_base "book!commit")

let test_action_invalid_base () =
  checkb "reserved char" false (Action.valid_base "a!b");
  checkb "empty" false (Action.valid_base "");
  Alcotest.check_raises "cancel of derived"
    (Invalid_argument "Action: invalid base name \"a!b\"") (fun () ->
      ignore (Action.cancel_name "a!b"))

(* ------------------------------------------------------------------ *)
(* History *)

let test_history_mem () =
  let h = [ s "get"; c "get" v42 ] in
  checkb "start present" true (History.mem "get" iv h);
  checkb "wrong input" false (History.mem "get" iv2 h);
  checkb "completions don't count" false (History.mem "get" iv [ c "get" v42 ])

let test_history_concat () =
  Alcotest.check history "concat" [ s "get"; c "get" v42 ]
    (History.concat [ s "get" ] [ c "get" v42 ]);
  Alcotest.check history "empty left" [ s "get" ]
    (History.concat History.empty [ s "get" ])

let test_history_project () =
  let h = [ s "get"; s ~iv:iv2 "get"; c "get" v42 ] in
  Alcotest.check history "projection keeps instance" [ s "get"; c "get" v42 ]
    (History.project h ~action:"get" ~input:iv)

let test_history_actions () =
  let h = [ s "get"; s "get"; s ~iv:iv2 "get"; s "book" ] in
  checki "distinct instances" 3 (List.length (History.actions h))

(* ------------------------------------------------------------------ *)
(* Pattern (rules 5-11) *)

let test_pattern_complete () =
  let p = Pattern.Complete ("get", iv, v42) in
  checkb "rule 5" true (Pattern.matches_simple [ s "get"; c "get" v42 ] p);
  checkb "wrong output" false (Pattern.matches_simple [ s "get"; c "get" v7 ] p);
  checkb "start only" false (Pattern.matches_simple [ s "get" ] p);
  checkb "empty" false (Pattern.matches_simple [] p)

let test_pattern_maybe () =
  let p = Pattern.Maybe ("get", iv, v42) in
  checkb "rule 6: empty" true (Pattern.matches_simple [] p);
  checkb "rule 7: start only" true (Pattern.matches_simple [ s "get" ] p);
  checkb "rule 8: complete" true
    (Pattern.matches_simple [ s "get"; c "get" v42 ] p);
  checkb "wrong action" false (Pattern.matches_simple [ s "book" ] p)

let test_pattern_first_second () =
  Alcotest.check history "first of pair" [ s "get" ]
    (Pattern.first [ s "get"; c "get" v42 ]);
  Alcotest.check history "second of pair" [ c "get" v42 ]
    (Pattern.second [ s "get"; c "get" v42 ]);
  Alcotest.check history "first of single" [ s "get" ] (Pattern.first [ s "get" ]);
  Alcotest.check history "second of single" [ s "get" ]
    (Pattern.second [ s "get" ]);
  Alcotest.check history "first of empty" [] (Pattern.first []);
  Alcotest.check history "second of empty" [] (Pattern.second [])

let test_pattern_interleaved_rule9 () =
  (* h1 • h • h2 with h1 = attempt, h = junk, h2 = success. *)
  let seg = [ s "get"; s ~iv:iv2 "roll"; s "get"; c "get" v42 ] in
  let p =
    Pattern.Interleaved
      (Pattern.Maybe ("get", iv, v42), [ s ~iv:iv2 "roll" ],
       Pattern.Complete ("get", iv, v42))
  in
  checkb "rule 9 shape" true (Pattern.matches seg p)

let test_pattern_interleaved_rule11_crossing () =
  (* Crossing overlap: S1 S2 C1 C2 (the attempt completes mid-success). *)
  let seg = [ s "get"; s "get"; c "get" v42; c "get" v42 ] in
  let p =
    Pattern.Interleaved
      (Pattern.Maybe ("get", iv, v42), [], Pattern.Complete ("get", iv, v42))
  in
  checkb "crossing overlap matches" true (Pattern.matches seg p)

let test_pattern_interleaved_boundaries () =
  (* The sp2 completion must be the last event of the match. *)
  let seg = [ s "get"; s "get"; c "get" v42; c "get" v7 ] in
  let p =
    Pattern.Interleaved
      (Pattern.Maybe ("get", iv, v42), [ c "get" v7 ],
       Pattern.Complete ("get", iv, v42))
  in
  (* The leftover C(get)=7 sits after the success completion: violates the
     boundary constraint of rules 9-11. *)
  checkb "trailing leftover rejected" false (Pattern.matches seg p)

let test_pattern_decompositions_count () =
  let seg = [ s "get"; s "get"; c "get" v42 ] in
  let ds =
    Pattern.decompositions seg (Pattern.Maybe ("get", iv, v42))
      (Pattern.Complete ("get", iv, v42))
  in
  checkb "at least one decomposition" true (List.length ds > 0);
  List.iter
    (fun (d : Pattern.decomposition) ->
      (match d.Pattern.part1 with [] -> () | i :: _ -> checki "sp1 starts region" 0 i);
      match List.rev d.Pattern.part2 with
      | [] -> ()
      | j :: _ -> checki "sp2 ends region" 2 j)
    ds

(* ------------------------------------------------------------------ *)
(* Reduction: rule 18 *)

let test_r18_retry_absorbed () =
  let h = [ s "get"; s "get"; c "get" v42 ] in
  checkb "x-able" true
    (Xable.x_able ~kinds ~kind:Action.Idempotent ~action:"get" ~iv h)

let test_r18_duplicate_completion_absorbed () =
  let h = [ s "get"; c "get" v42; s "get"; c "get" v42 ] in
  checkb "x-able" true
    (Xable.x_able ~kinds ~kind:Action.Idempotent ~action:"get" ~iv h)

let test_r18_conflicting_outputs_rejected () =
  let h = [ s "get"; c "get" v42; s "get"; c "get" v7 ] in
  checkb "not x-able for either output" false
    (Xable.x_able ~kinds ~kind:Action.Idempotent ~action:"get" ~iv h)

let test_r18_trailing_start_rejected () =
  (* A dangling attempt after the last success cannot be absorbed. *)
  let h = [ s "get"; c "get" v42; s "get" ] in
  checkb "not x-able" false
    (Xable.x_able ~kinds ~kind:Action.Idempotent ~action:"get" ~iv h)

let test_r18_crossing_overlap_ok () =
  let h = [ s "get"; s "get"; c "get" v42; c "get" v42 ] in
  checkb "x-able (rule 11 shape)" true
    (Xable.x_able ~kinds ~kind:Action.Idempotent ~action:"get" ~iv h)

let test_r18_nested_overlap_rejected () =
  (* S1 S2 C2 C1: the first-started attempt completes last; none of the
     rules 9-11 shapes cover it (see DESIGN.md discussion). *)
  let h = [ s "get"; s "get"; c "get" v42; c "get" v42 ] in
  ignore h;
  let nested = [ s "get"; s "get"; c "get" v42; c "get" v42 ] in
  (* With identical events the shapes are indistinguishable; build a truly
     nested case via distinct outputs on the inner pair to pin pairing. *)
  ignore nested;
  let h' = [ s "get"; s "get"; c "get" v7; c "get" v42 ] in
  (* inner pair completes with 7, outer with 42: outputs conflict anyway;
     expect rejection. *)
  checkb "not x-able" false
    (Xable.x_able ~kinds ~kind:Action.Idempotent ~action:"get" ~iv h')

let test_r18_five_attempts () =
  let h =
    [ s "get"; s "get"; s "get"; s "get"; s "get"; c "get" v42 ]
  in
  checkb "many retries absorbed" true
    (Xable.x_able ~kinds ~kind:Action.Idempotent ~action:"get" ~iv h)

let test_r18_interleaved_other_actions () =
  let h =
    [ s "get"; s ~iv:iv2 "roll"; c ~iv:iv2 "roll" v7; s "get"; c "get" v42 ]
  in
  (* The roll events are leftover; reducing get leaves them in place. *)
  let nf =
    Reduction.reduces_to ~kinds h ~goal:(fun h' ->
        History.equal h'
          [ s ~iv:iv2 "roll"; c ~iv:iv2 "roll" v7; s "get"; c "get" v42 ])
  in
  checkb "leftover preserved" true (Option.is_some nf)

(* ------------------------------------------------------------------ *)
(* Reduction: rule 19 (cancellation) *)

let test_r19_cancelled_attempt_erased () =
  let h = [ s "book"; c "book" v42; s cn; c cn Value.nil ] in
  let nf = Reduction.reduces_to ~kinds h ~goal:(fun h' -> h' = []) in
  checkb "erased entirely" true (Option.is_some nf)

let test_r19_failed_attempt_then_cancel () =
  let h = [ s "book"; s cn; c cn Value.nil ] in
  checkb "start-only attempt erased" true
    (Option.is_some (Reduction.reduces_to ~kinds h ~goal:(fun h' -> h' = [])))

let test_r19_lone_cancel_erased () =
  let h = [ s cn; c cn Value.nil ] in
  checkb "cancel of nothing erased" true
    (Option.is_some (Reduction.reduces_to ~kinds h ~goal:(fun h' -> h' = [])))

let test_r19_lone_cancel_guard () =
  (* The Λ case must not fire when the action has earlier events: removing
     just the cancel pair would leave the attempt uncancelled. *)
  let h = [ s "book"; s cn; c cn Value.nil ] in
  let bad = [ s "book" ] in
  let reachable =
    Reduction.reduces_to ~kinds h ~goal:(fun h' -> History.equal h' bad)
  in
  checkb "guarded" true (reachable = None)

let test_r19_commit_in_leftover_blocks () =
  (* An interleaved commit of the same action blocks cancellation. *)
  let h = [ s "book"; s cm; c cm Value.nil; s cn; c cn Value.nil ] in
  let erased =
    Reduction.reduces_to ~kinds h ~goal:(fun h' ->
        not (History.mem "book" iv h') && h' <> h
        && not (List.exists (fun e -> Event.action e = "book") h'))
  in
  checkb "cannot erase around a commit" true (erased = None)

let test_r19_retry_rounds () =
  (* Round 1 cancelled, round 2 committed: the paper's main scenario. *)
  let riv r = Value.pair (Value.str "round") (Value.pair (Value.int r) iv) in
  let h =
    [
      Event.S ("book", riv 1);
      Event.C ("book", riv 1, v42);
      Event.S (cn, riv 1);
      Event.C (cn, riv 1, Value.nil);
      Event.S ("book", riv 2);
      Event.C ("book", riv 2, v42);
      Event.S (cm, riv 2);
      Event.C (cm, riv 2, Value.nil);
    ]
  in
  checkb "round 2 survives" true
    (Xable.x_able ~kinds ~kind:Action.Undoable ~action:"book" ~iv:(riv 2) h)

(* ------------------------------------------------------------------ *)
(* Reduction: rule 20 (commit dedup) *)

let test_r20_duplicate_commit () =
  let h =
    [ s "book"; c "book" v42; s cm; c cm Value.nil; s cm; c cm Value.nil ]
  in
  checkb "x-able" true
    (Xable.x_able ~kinds ~kind:Action.Undoable ~action:"book" ~iv h)

let test_r20_incomplete_commit_attempt () =
  let h =
    [ s "book"; c "book" v42; s cm; s cm; c cm Value.nil ]
  in
  checkb "failed commit attempt absorbed" true
    (Xable.x_able ~kinds ~kind:Action.Undoable ~action:"book" ~iv h)

let test_r20_overlap_with_action_blocks () =
  (* (au,iv) in the leftover blocks commit dedup: the commit pair region
     may not overlap a fresh execution of the action. *)
  let h = [ s cm; s "book"; c cm Value.nil; s cm; c cm Value.nil ] in
  let deduped =
    Reduction.reduces_to ~kinds h ~goal:(fun h' -> History.length h' < 4)
  in
  checkb "blocked" true (deduped = None)

(* ------------------------------------------------------------------ *)
(* eventsof / failure-free / x-able *)

let test_eventsof_shapes () =
  Alcotest.check history "idempotent" [ s "get"; c "get" v42 ]
    (Xable.eventsof Action.Idempotent "get" ~iv ~ov:v42);
  Alcotest.check history "undoable"
    [ s "book"; c "book" v42; s cm; c cm Value.nil ]
    (Xable.eventsof Action.Undoable "book" ~iv ~ov:v42)

let test_failure_free_membership () =
  checkb "idempotent yes" true
    (Xable.failure_free Action.Idempotent "get" ~iv [ s "get"; c "get" v42 ]);
  checkb "any output ok" true
    (Xable.failure_free Action.Idempotent "get" ~iv [ s "get"; c "get" v7 ]);
  checkb "wrong action" false
    (Xable.failure_free Action.Idempotent "get" ~iv [ s "book"; c "book" v42 ]);
  checkb "undoable needs commit" false
    (Xable.failure_free Action.Undoable "book" ~iv [ s "book"; c "book" v42 ])

let test_xable_already_failure_free () =
  (* Reflexivity: a failure-free history is x-able. *)
  checkb "reflexive" true
    (Xable.x_able ~kinds ~kind:Action.Idempotent ~action:"get" ~iv
       [ s "get"; c "get" v42 ])

let test_xable_empty_not () =
  checkb "empty history is not a failure-free execution" false
    (Xable.x_able ~kinds ~kind:Action.Idempotent ~action:"get" ~iv [])

let test_xable_full_undoable_storm () =
  (* failed attempt, cancel, attempt, cancel fails (start only), cancel,
     successful attempt, duplicate commits. *)
  let h =
    [
      s "book"; s cn; c cn Value.nil;
      s "book"; c "book" v42; s cn; s cn; c cn Value.nil;
      s "book"; c "book" v42;
      s cm; c cm Value.nil; s cm; c cm Value.nil;
    ]
  in
  checkb "storm reduces" true
    (Xable.x_able ~kinds ~kind:Action.Undoable ~action:"book" ~iv h)

(* ------------------------------------------------------------------ *)
(* Signatures *)

let test_signature_simple () =
  let h = [ s "get"; s "get"; c "get" v42 ] in
  let sigs = Signature.signatures ~kinds h in
  checkb "contains (get,42)" true
    (List.exists
       (fun (a, i, o) -> a = "get" && Value.equal i iv && Value.equal o v42)
       sigs)

let test_signature_admits () =
  let h = [ s "book"; c "book" v42; s cm; c cm Value.nil ] in
  checkb "admits commit result" true
    (Signature.admits ~kinds ~action:"book" ~iv ~ov:v42 h);
  checkb "rejects wrong output" false
    (Signature.admits ~kinds ~action:"book" ~iv ~ov:v7 h)

let test_signature_empty_history () =
  checki "no signatures" 0 (List.length (Signature.signatures ~kinds []))

(* ------------------------------------------------------------------ *)
(* Checker *)

let logical_of = Xsm.Request.logical_of_env_iv

let test_checker_two_requests () =
  let riv r rid = Value.pair (Value.str "round") (Value.pair (Value.int r) (Value.int rid)) in
  let h =
    [
      Event.S ("get", Value.int 1);
      Event.C ("get", Value.int 1, v42);
      Event.S ("book", riv 1 2);
      Event.C ("book", riv 1 2, v7);
      Event.S (cm, riv 1 2);
      Event.C (cm, riv 1 2, Value.nil);
    ]
  in
  let expected =
    [
      { Checker.action = "get"; kind = Action.Idempotent; logical = Value.int 1 };
      { Checker.action = "book"; kind = Action.Undoable; logical = Value.int 2 };
    ]
  in
  let r = Checker.check ~kinds ~logical_of ~expected h in
  checkb "ok" true r.Checker.ok

let test_checker_missing_request () =
  let expected =
    [ { Checker.action = "get"; kind = Action.Idempotent; logical = iv } ]
  in
  let r = Checker.check ~kinds ~logical_of ~expected [] in
  checkb "missing detected" false r.Checker.ok

let test_checker_unexpected_group () =
  let h = [ s "get"; c "get" v42 ] in
  let r = Checker.check ~kinds ~logical_of ~expected:[] h in
  checkb "unexpected detected" false r.Checker.ok;
  checki "one unexpected" 1 (List.length r.Checker.unexpected)

let test_checker_order_violation () =
  (* Request 2 starts before request 1 completes. *)
  let h =
    [
      Event.S ("get", Value.int 1);
      Event.S ("get", Value.int 2);
      Event.C ("get", Value.int 2, v7);
      Event.C ("get", Value.int 1, v42);
    ]
  in
  let expected =
    [
      { Checker.action = "get"; kind = Action.Idempotent; logical = Value.int 1 };
      { Checker.action = "get"; kind = Action.Idempotent; logical = Value.int 2 };
    ]
  in
  let r = Checker.check ~kinds ~logical_of ~expected h in
  checkb "order violated" false r.Checker.order_ok;
  let r' = Checker.check ~kinds ~logical_of ~check_order:false ~expected h in
  checkb "order check can be disabled" true r'.Checker.ok

let test_checker_duplicate_exec_rejected () =
  (* Two committed rounds of the same undoable request: not exactly-once. *)
  let riv r = Value.pair (Value.str "round") (Value.pair (Value.int r) iv) in
  let h =
    [
      Event.S ("book", riv 1); Event.C ("book", riv 1, v42);
      Event.S (cm, riv 1); Event.C (cm, riv 1, Value.nil);
      Event.S ("book", riv 2); Event.C ("book", riv 2, v42);
      Event.S (cm, riv 2); Event.C (cm, riv 2, Value.nil);
    ]
  in
  let expected =
    [ { Checker.action = "book"; kind = Action.Undoable; logical = iv } ]
  in
  let r = Checker.check ~kinds ~logical_of ~expected h in
  checkb "double commit across rounds rejected" false r.Checker.ok

(* ------------------------------------------------------------------ *)
(* Property tests: generated protocol-shaped histories reduce; mangled
   ones are rejected. *)

(* Generate a legal attempt trace for one idempotent action and check
   x-ability; the trace has 0..4 failed attempts and one final success,
   with all completions carrying the fixed output. *)
let prop_idempotent_traces =
  QCheck.Test.make ~name:"generated idempotent traces are x-able" ~count:200
    QCheck.(pair (int_bound 4) (int_bound 100))
    (fun (failures, out) ->
      let ov = Value.int out in
      let attempts =
        List.concat
          (List.init failures (fun i ->
               if i mod 2 = 0 then [ s "get" ] else [ s "get"; c "get" ov ]))
      in
      let h = attempts @ [ s "get"; c "get" ov ] in
      Xable.x_able ~kinds ~kind:Action.Idempotent ~action:"get" ~iv h)

let prop_undoable_traces =
  QCheck.Test.make ~name:"generated undoable traces are x-able" ~count:200
    QCheck.(pair (int_bound 3) (int_bound 100))
    (fun (cancelled_rounds, out) ->
      let ov = Value.int out in
      let riv r = Value.pair (Value.str "round") (Value.pair (Value.int r) iv) in
      let round r committed =
        let sr = Event.S ("book", riv r) and cr = Event.C ("book", riv r, ov) in
        if committed then
          [ sr; cr; Event.S (cm, riv r); Event.C (cm, riv r, Value.nil) ]
        else [ sr; cr; Event.S (cn, riv r); Event.C (cn, riv r, Value.nil) ]
      in
      let h =
        List.concat (List.init cancelled_rounds (fun r -> round (r + 1) false))
        @ round (cancelled_rounds + 1) true
      in
      Xable.x_able ~kinds ~kind:Action.Undoable ~action:"book"
        ~iv:(riv (cancelled_rounds + 1))
        h)

let prop_reduction_shrinks =
  QCheck.Test.make ~name:"every reduction step removes events" ~count:100
    QCheck.(int_bound 4)
    (fun n ->
      let h =
        List.concat (List.init (n + 1) (fun _ -> [ s "get" ]))
        @ [ s "get"; c "get" v42 ]
      in
      List.for_all
        (fun (_, h') -> History.length h' < History.length h)
        (Reduction.step ~kinds h))

let prop_normal_forms_irreducible =
  QCheck.Test.make ~name:"normal forms admit no further step" ~count:50
    QCheck.(int_bound 3)
    (fun n ->
      let h =
        List.concat (List.init (n + 1) (fun _ -> [ s "get"; c "get" v42 ]))
      in
      List.for_all
        (fun nf -> Reduction.step ~kinds nf = [])
        (Reduction.normal_forms ~kinds h))

let prop_greedy_reaches_normal_form =
  QCheck.Test.make ~name:"greedy reduction reaches an irreducible history"
    ~count:100
    QCheck.(int_bound 4)
    (fun n ->
      let h =
        List.concat (List.init (n + 1) (fun _ -> [ s "get" ]))
        @ [ s "get"; c "get" v42 ]
      in
      Reduction.step ~kinds (Reduction.reduce_greedy ~kinds h) = [])


(* Random event soup: structural invariants of the reduction relation
   itself, independent of protocol shape. *)
let soup_gen =
  let open QCheck.Gen in
  let event =
    let* which = int_bound 5 in
    let* instance = int_bound 1 in
    let iv = Value.int instance in
    let* out = int_bound 2 in
    let ov = Value.int out in
    return
      (match which with
      | 0 -> Event.S ("get", iv)
      | 1 -> Event.C ("get", iv, ov)
      | 2 -> Event.S ("book", iv)
      | 3 -> Event.C ("book", iv, ov)
      | 4 -> Event.S (cn, iv)
      | _ -> Event.C (cn, iv, Value.nil))
  in
  list_size (int_bound 7) event

let soup_arb = QCheck.make ~print:History.to_string soup_gen

let prop_soup_steps_shrink =
  QCheck.Test.make ~name:"soup: steps strictly shrink histories" ~count:300
    soup_arb
    (fun h ->
      List.for_all
        (fun (_, h') -> History.length h' < History.length h)
        (Reduction.step ~kinds h))

let prop_soup_no_invented_actions =
  QCheck.Test.make ~name:"soup: reduction never invents action instances"
    ~count:300 soup_arb
    (fun h ->
      let instances hist =
        List.sort_uniq compare
          (List.map (fun e -> (Event.action e, Event.input e)) hist)
      in
      let base = instances h in
      List.for_all
        (fun (_, h') ->
          List.for_all (fun i -> List.mem i base) (instances h'))
        (Reduction.step ~kinds h))

let prop_soup_normal_forms_terminate =
  QCheck.Test.make ~name:"soup: normal-form search terminates" ~count:200
    soup_arb
    (fun h ->
      let nfs = Reduction.normal_forms ~kinds ~max_visited:20_000 h in
      List.for_all (fun nf -> Reduction.step ~kinds nf = []) nfs)

(* Projection independence: the per-group decomposition the Checker relies
   on.  For histories over two disjoint instances, a group's reducibility
   to its failure-free form is unaffected by the other group's events. *)
let prop_projection_independence =
  QCheck.Test.make
    ~name:"projection: per-instance reducibility is interleaving-invariant"
    ~count:150
    QCheck.(pair (int_bound 2) (int_bound 3))
    (fun (retries_a, shift) ->
      let iva = Value.int 10 and ivb = Value.int 20 in
      let group_a =
        List.concat (List.init retries_a (fun _ -> [ Event.S ("get", iva) ]))
        @ [ Event.S ("get", iva); Event.C ("get", iva, v42) ]
      in
      let group_b = [ Event.S ("get", ivb); Event.C ("get", ivb, v7) ] in
      (* Interleave group_b into group_a at position [shift]. *)
      let prefix, suffix =
        History.split_at group_a (min shift (History.length group_a))
      in
      let interleaved = prefix @ group_b @ suffix in
      let ok_project =
        Xable.x_able ~kinds ~kind:Action.Idempotent ~action:"get" ~iv:iva
          (History.project interleaved ~action:"get" ~input:iva)
      in
      let ok_direct =
        Xable.x_able ~kinds ~kind:Action.Idempotent ~action:"get" ~iv:iva
          group_a
      in
      ok_project = ok_direct && ok_project)

let prop_xable_implies_signature =
  QCheck.Test.make ~name:"x-able single-action history has a signature"
    ~count:100
    QCheck.(int_bound 3)
    (fun retries ->
      let h =
        List.concat (List.init retries (fun _ -> [ s "get" ]))
        @ [ s "get"; c "get" v42 ]
      in
      Signature.signatures ~kinds h <> [])


(* ------------------------------------------------------------------ *)
(* Analyzer: the linear-time engine, cross-validated against the search *)

let round_of = Xsm.Request.round_of_env_iv
let riv r = Value.pair (Value.str "round") (Value.pair (Value.int r) iv)

let test_analyzer_idem_accepts () =
  (match Analyzer.analyze_idempotent ~action:"get" ~iv [ s "get"; s "get"; c "get" v42 ] with
  | Analyzer.Xable v -> checkb "output" true (Value.equal v v42)
  | Analyzer.Not_xable r -> Alcotest.failf "rejected: %s" r);
  match
    Analyzer.analyze_idempotent ~action:"get" ~iv
      [ s "get"; c "get" v42; s "get"; c "get" v42 ]
  with
  | Analyzer.Xable _ -> ()
  | Analyzer.Not_xable r -> Alcotest.failf "dup completion rejected: %s" r

let test_analyzer_idem_rejects () =
  let reject h =
    match Analyzer.analyze_idempotent ~action:"get" ~iv h with
    | Analyzer.Xable _ -> Alcotest.failf "accepted %s" (History.to_string h)
    | Analyzer.Not_xable _ -> ()
  in
  reject [];
  reject [ s "get" ];
  reject [ s "get"; c "get" v42; s "get" ] (* trailing attempt *);
  reject [ s "get"; c "get" v42; s "get"; c "get" v7 ] (* conflict *);
  reject [ c "get" v42 ] (* completion without start *)

let test_analyzer_undo_accepts () =
  let cn1 r = Event.S (cn, riv r) and cn2 r = Event.C (cn, riv r, Value.nil) in
  let cm1 r = Event.S (cm, riv r) and cm2 r = Event.C (cm, riv r, Value.nil) in
  let se r = Event.S ("book", riv r) and ce r = Event.C ("book", riv r, v42) in
  let h =
    [ se 1; cn1 1; cn2 1;            (* failed attempt, cancelled *)
      se 1; ce 1; cn1 1; cn2 1;      (* round 1 finally aborted *)
      se 2; ce 2; cm1 2; cm2 2;      (* round 2 committed *)
      cm1 2; cm2 2 ]                 (* duplicate commit (cleaner) *)
  in
  match
    Analyzer.analyze_undoable ~action:"book" ~logical_of ~round_of
      ~logical:iv h
  with
  | Analyzer.Xable v -> checkb "output" true (Value.equal v v42)
  | Analyzer.Not_xable r -> Alcotest.failf "rejected: %s" r

let test_analyzer_undo_rejects () =
  let se r = Event.S ("book", riv r) and ce r = Event.C ("book", riv r, v42) in
  let cm1 r = Event.S (cm, riv r) and cm2 r = Event.C (cm, riv r, Value.nil) in
  let reject name h =
    match
      Analyzer.analyze_undoable ~action:"book" ~logical_of ~round_of
        ~logical:iv h
    with
    | Analyzer.Xable _ -> Alcotest.failf "%s accepted" name
    | Analyzer.Not_xable _ -> ()
  in
  reject "no commit" [ se 1; ce 1 ];
  reject "two committed rounds"
    [ se 1; ce 1; cm1 1; cm2 1; se 2; ce 2; cm1 2; cm2 2 ];
  reject "commit of nothing" [ cm1 1; cm2 1 ];
  reject "exec after commit" [ se 1; ce 1; cm1 1; cm2 1; se 1 ];
  reject "trailing failed commit" [ se 1; ce 1; cm1 1; cm2 1; cm1 1 ]

(* Soundness: analyzer accepts => faithful search accepts (over soups of
   events of ONE instance, which is the analyzer's domain). *)
let instance_soup_gen =
  let open QCheck.Gen in
  let event =
    let* which = int_bound 5 in
    let* round = int_range 1 2 in
    let rv = Value.pair (Value.str "round") (Value.pair (Value.int round) iv) in
    let* out = int_bound 1 in
    let ov = Value.int out in
    return
      (match which with
      | 0 -> Event.S ("book", rv)
      | 1 -> Event.C ("book", rv, ov)
      | 2 -> Event.S (cn, rv)
      | 3 -> Event.C (cn, rv, Value.nil)
      | 4 -> Event.S (cm, rv)
      | _ -> Event.C (cm, rv, Value.nil))
  in
  list_size (int_bound 8) event

let prop_analyzer_sound =
  QCheck.Test.make ~name:"analyzer accepts => search accepts" ~count:120
    (QCheck.make ~print:History.to_string instance_soup_gen)
    (fun h ->
      match
        Analyzer.analyze_undoable ~action:"book" ~logical_of ~round_of
          ~logical:iv h
      with
      | Analyzer.Not_xable _ -> true
      | Analyzer.Xable _ ->
          (* The search goal: some round's failure-free form survives. *)
          Option.is_some
            (Reduction.reduces_to ~kinds h ~goal:(fun h' ->
                 match h' with
                 | [ Event.S (a, ivr); Event.C (a', ivr', _);
                     Event.S (c', civ); Event.C (c'', civ', nilv) ] ->
                     a = "book" && a' = "book" && c' = cm && c'' = cm
                     && Value.equal ivr ivr' && Value.equal civ ivr
                     && Value.equal civ' ivr && Value.equal nilv Value.nil
                 | _ -> false)))

(* Completeness on the protocol domain: generated serialized streams get
   the same verdict from both engines. *)
let prop_analyzer_complete_on_protocol =
  QCheck.Test.make
    ~name:"analyzer = search on generated protocol streams" ~count:60
    QCheck.(pair (int_bound 2) (int_bound 2))
    (fun (aborted_rounds, failed_attempts) ->
      let round r committed =
        let se = Event.S ("book", riv r) and ce = Event.C ("book", riv r, v42) in
        let cn1 = Event.S (cn, riv r) and cn2 = Event.C (cn, riv r, Value.nil) in
        let cm1 = Event.S (cm, riv r) and cm2 = Event.C (cm, riv r, Value.nil) in
        let attempts =
          List.concat (List.init failed_attempts (fun _ -> [ se; cn1; cn2 ]))
        in
        attempts @ [ se; ce ] @ if committed then [ cm1; cm2 ] else [ cn1; cn2 ]
      in
      let h =
        List.concat (List.init aborted_rounds (fun r -> round (r + 1) false))
        @ round (aborted_rounds + 1) true
      in
      let fast =
        match
          Analyzer.analyze_undoable ~action:"book" ~logical_of ~round_of
            ~logical:iv h
        with
        | Analyzer.Xable _ -> true
        | Analyzer.Not_xable _ -> false
      in
      let slow =
        Xable.x_able ~kinds ~kind:Action.Undoable ~action:"book"
          ~iv:(riv (aborted_rounds + 1))
          h
      in
      fast && slow)

(* ------------------------------------------------------------------ *)
(* Reference reducer: a verbatim copy of the pre-optimization
   implementation of lib/core/reduction.ml (string-keyed dedup, full
   array scans per rule).  The optimized engine must agree with it
   exactly — same successor sets, same verdicts. *)

module Reference = struct
  type rule = R_idempotent | R_cancel | R_commit

  let starts_of arr name iv =
    let acc = ref [] in
    Array.iteri
      (fun i e ->
        match e with
        | Event.S (a, iv') when Action.equal_name a name && Value.equal iv iv'
          ->
            acc := i :: !acc
        | _ -> ())
      arr;
    List.rev !acc

  let completions_of arr name iv =
    let acc = ref [] in
    Array.iteri
      (fun i e ->
        match e with
        | Event.C (a, iv', ov)
          when Action.equal_name a name && Value.equal iv iv' ->
            acc := (i, ov) :: !acc
        | _ -> ())
      arr;
    List.rev !acc

  let instances arr =
    let seen = Hashtbl.create 16 in
    let acc = ref [] in
    Array.iter
      (fun e ->
        match e with
        | Event.S (a, iv) ->
            let key = (a, Value.to_string iv) in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.replace seen key ();
              acc := (a, iv) :: !acc
            end
        | Event.C _ -> ())
      arr;
    List.rev !acc

  let any_start_before arr name iv bound =
    let found = ref false in
    for i = 0 to bound - 1 do
      (match arr.(i) with
      | Event.S (a, iv') when Action.equal_name a name && Value.equal iv iv' ->
          found := true
      | _ -> ())
    done;
    !found

  let any_start_in_leftover arr name iv ~lo ~hi removed =
    let found = ref false in
    for i = lo to hi do
      if not (List.mem i removed) then
        match arr.(i) with
        | Event.S (a, iv') when Action.equal_name a name && Value.equal iv iv'
          ->
            found := true
        | _ -> ()
    done;
    !found

  let rebuild arr removed insert_pair =
    let n = Array.length arr in
    let out = ref [] in
    for i = n - 1 downto 0 do
      (match insert_pair with
      | Some (pos, events) when pos = i -> out := events @ !out
      | _ -> ());
      if not (List.mem i removed) then out := arr.(i) :: !out
    done;
    !out

  let rule18_for arr name iv =
    let starts = starts_of arr name iv in
    let comps = completions_of arr name iv in
    let results = ref [] in
    List.iter
      (fun is2 ->
        List.iter
          (fun (jc2, ov) ->
            if jc2 > is2 then
              List.iter
                (fun i1 ->
                  if i1 <> is2 && i1 < is2 && i1 < jc2 then begin
                    let removed = [ i1 ] in
                    results :=
                      rebuild arr (is2 :: jc2 :: removed)
                        (Some
                           ( jc2,
                             [ Event.S (name, iv); Event.C (name, iv, ov) ] ))
                      :: !results;
                    List.iter
                      (fun (ic1, ov1) ->
                        if
                          ic1 > i1 && ic1 <> is2 && ic1 <> jc2 && ic1 < jc2
                          && Value.equal ov1 ov
                        then
                          results :=
                            rebuild arr [ i1; ic1; is2; jc2 ]
                              (Some
                                 ( jc2,
                                   [
                                     Event.S (name, iv); Event.C (name, iv, ov);
                                   ] ))
                            :: !results)
                      comps
                  end)
                starts)
          comps)
      starts;
    !results

  let rule19_for arr name iv =
    let cancel = Action.cancel_name name in
    let commit = Action.commit_name name in
    let a_starts = starts_of arr name iv in
    let a_comps = completions_of arr name iv in
    let c_starts = starts_of arr cancel iv in
    let c_comps = completions_of arr cancel iv in
    let results = ref [] in
    let leftover_ok ~lo ~hi removed =
      not (any_start_in_leftover arr commit iv ~lo ~hi removed)
    in
    List.iter
      (fun is2 ->
        List.iter
          (fun (jc2, ov) ->
            if jc2 > is2 && Value.equal ov Value.nil then begin
              if not (any_start_before arr name iv jc2) then begin
                let removed = [ is2; jc2 ] in
                if leftover_ok ~lo:is2 ~hi:jc2 removed then
                  results := rebuild arr removed None :: !results
              end;
              List.iter
                (fun i1 ->
                  if i1 < is2 && not (any_start_before arr name iv i1) then begin
                    let removed = [ i1; is2; jc2 ] in
                    if leftover_ok ~lo:i1 ~hi:jc2 removed then
                      results := rebuild arr removed None :: !results
                  end)
                a_starts;
              List.iter
                (fun i1 ->
                  List.iter
                    (fun (ic1, _ov1) ->
                      if
                        i1 < is2 && ic1 > i1 && ic1 < jc2 && ic1 <> is2
                        && not (any_start_before arr name iv i1)
                      then begin
                        let removed = [ i1; ic1; is2; jc2 ] in
                        if leftover_ok ~lo:i1 ~hi:jc2 removed then
                          results := rebuild arr removed None :: !results
                      end)
                    a_comps)
                a_starts
            end)
          c_comps)
      c_starts;
    !results

  let rule20_for arr name iv =
    let commit = Action.commit_name name in
    let m_starts = starts_of arr commit iv in
    let m_comps = completions_of arr commit iv in
    let results = ref [] in
    List.iter
      (fun is2 ->
        List.iter
          (fun (jc2, ov) ->
            if jc2 > is2 && Value.equal ov Value.nil then
              List.iter
                (fun i1 ->
                  if i1 < is2 then begin
                    let removed = [ i1; is2; jc2 ] in
                    if
                      not
                        (any_start_in_leftover arr name iv ~lo:i1 ~hi:jc2
                           removed)
                    then
                      results :=
                        rebuild arr removed
                          (Some
                             ( jc2,
                               [
                                 Event.S (commit, iv);
                                 Event.C (commit, iv, Value.nil);
                               ] ))
                        :: !results;
                    List.iter
                      (fun (ic1, ov1) ->
                        if
                          ic1 > i1 && ic1 < jc2 && ic1 <> is2
                          && Value.equal ov1 Value.nil
                        then begin
                          let removed = [ i1; ic1; is2; jc2 ] in
                          if
                            not
                              (any_start_in_leftover arr name iv ~lo:i1 ~hi:jc2
                                 removed)
                          then
                            results :=
                              rebuild arr removed
                                (Some
                                   ( jc2,
                                     [
                                       Event.S (commit, iv);
                                       Event.C (commit, iv, Value.nil);
                                     ] ))
                              :: !results
                        end)
                      m_comps
                  end)
                m_starts)
          m_comps)
      m_starts;
    !results

  let step ~kinds h =
    let arr = Array.of_list h in
    let out = ref [] in
    let add rule hs = List.iter (fun h' -> out := (rule, h') :: !out) hs in
    List.iter
      (fun (name, iv) ->
        let base, variant = Action.split name in
        match (variant, kinds base) with
        | Action.Exec, Some Action.Idempotent ->
            add R_idempotent (rule18_for arr name iv)
        | Action.Exec, Some Action.Undoable ->
            add R_cancel (rule19_for arr base iv);
            add R_commit (rule20_for arr base iv)
        | Action.Cancel, Some Action.Undoable ->
            add R_idempotent (rule18_for arr name iv);
            add R_cancel (rule19_for arr base iv)
        | Action.Commit, Some Action.Undoable ->
            add R_commit (rule20_for arr base iv)
        | _ -> ())
      (instances arr);
    let seen = Hashtbl.create 16 in
    List.filter
      (fun (_, h') ->
        let key = History.to_string h' in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.replace seen key ();
          true
        end)
      (List.rev !out)

  let reduces_to ~kinds ?(max_visited = 200_000) h ~goal =
    let visited = Hashtbl.create 256 in
    let budget = ref max_visited in
    let exception Found of History.t in
    let rec dfs h =
      if !budget <= 0 then ()
      else begin
        let key = History.to_string h in
        if not (Hashtbl.mem visited key) then begin
          Hashtbl.replace visited key ();
          decr budget;
          if goal h then raise (Found h);
          List.iter (fun (_, h') -> dfs h') (step ~kinds h)
        end
      end
    in
    try
      dfs h;
      None
    with Found w -> Some w
end

(* The optimized step must produce the same successor set as the
   reference — compared as sorted (rule, history) lists, i.e. as
   multisets (both engines deduplicate, so sets). *)
let norm_new succs =
  List.sort compare
    (List.map
       (fun (r, h') ->
         ( (match r with
           | Reduction.R_idempotent -> 0
           | Reduction.R_cancel -> 1
           | Reduction.R_commit -> 2),
           h' ))
       succs)

let norm_ref succs =
  List.sort compare
    (List.map
       (fun (r, h') ->
         ( (match r with
           | Reference.R_idempotent -> 0
           | Reference.R_cancel -> 1
           | Reference.R_commit -> 2),
           h' ))
       succs)

let prop_fastpath_step_soups =
  QCheck.Test.make ~name:"optimized step = reference step (event soups)"
    ~count:400 soup_arb
    (fun h -> norm_new (Reduction.step ~kinds h) = norm_ref (Reference.step ~kinds h))

let prop_fastpath_step_instance_soups =
  QCheck.Test.make
    ~name:"optimized step = reference step (one-instance soups)" ~count:250
    (QCheck.make ~print:History.to_string instance_soup_gen)
    (fun h -> norm_new (Reduction.step ~kinds h) = norm_ref (Reference.step ~kinds h))

let prop_fastpath_verdicts_undoable =
  QCheck.Test.make
    ~name:"optimized reduces_to = reference = analyzer (undoable streams)"
    ~count:60
    QCheck.(triple (int_bound 2) (int_bound 2) bool)
    (fun (aborted_rounds, failed_attempts, truncated) ->
      let round r committed =
        let se = Event.S ("book", riv r) and ce = Event.C ("book", riv r, v42) in
        let cn1 = Event.S (cn, riv r) and cn2 = Event.C (cn, riv r, Value.nil) in
        let cm1 = Event.S (cm, riv r) and cm2 = Event.C (cm, riv r, Value.nil) in
        let attempts =
          List.concat (List.init failed_attempts (fun _ -> [ se; cn1; cn2 ]))
        in
        attempts @ [ se; ce ] @ if committed then [ cm1; cm2 ] else [ cn1; cn2 ]
      in
      let full =
        List.concat (List.init aborted_rounds (fun r -> round (r + 1) false))
        @ round (aborted_rounds + 1) true
      in
      let h =
        if truncated then List.filteri (fun i _ -> i <> List.length full - 1) full
        else full
      in
      let goal h' =
        Xable.failure_free Action.Undoable "book"
          ~iv:(riv (aborted_rounds + 1))
          h'
      in
      let optimized = Option.is_some (Reduction.reduces_to ~kinds h ~goal) in
      let reference = Option.is_some (Reference.reduces_to ~kinds h ~goal) in
      let analyzer =
        match
          Analyzer.analyze_undoable ~action:"book" ~logical_of ~round_of
            ~logical:iv h
        with
        | Analyzer.Xable _ -> true
        | Analyzer.Not_xable _ -> false
      in
      optimized = reference && optimized = analyzer
      && optimized = not truncated)

let prop_fastpath_verdicts_idempotent =
  QCheck.Test.make
    ~name:"optimized reduces_to = reference = analyzer (idempotent streams)"
    ~count:60
    QCheck.(pair (int_bound 4) bool)
    (fun (retries, truncated) ->
      let full =
        List.concat (List.init retries (fun _ -> [ s "get" ]))
        @ [ s "get"; c "get" v42 ]
      in
      let h =
        if truncated then List.filteri (fun i _ -> i <> List.length full - 1) full
        else full
      in
      let goal h' = Xable.failure_free Action.Idempotent "get" ~iv h' in
      let optimized = Option.is_some (Reduction.reduces_to ~kinds h ~goal) in
      let reference = Option.is_some (Reference.reduces_to ~kinds h ~goal) in
      let analyzer =
        match Analyzer.analyze_idempotent ~action:"get" ~iv h with
        | Analyzer.Xable _ -> true
        | Analyzer.Not_xable _ -> false
      in
      optimized = reference && optimized = analyzer
      && optimized = not truncated)

let test_checker_engines_agree () =
  let h =
    [ Event.S ("get", Value.int 1); Event.S ("get", Value.int 1);
      Event.C ("get", Value.int 1, v42) ]
  in
  let expected =
    [ { Checker.action = "get"; kind = Action.Idempotent; logical = Value.int 1 } ]
  in
  List.iter
    (fun engine ->
      let r = Checker.check ~kinds ~logical_of ~round_of ~engine ~expected h in
      checkb "engine accepts" true r.Checker.ok)
    [ `Search; `Fast; `Hybrid ]

let qcheck t = QCheck_alcotest.to_alcotest t
let tc name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "xability-core"
    [
      ( "value",
        [
          tc "roundtrip" test_value_roundtrip;
          tc "projections" test_value_projections;
          tc "ordering total" test_value_ordering_total;
          qcheck prop_value_to_string_reference;
        ] );
      ( "action",
        [ tc "names" test_action_names; tc "invalid base" test_action_invalid_base ]
      );
      ( "history",
        [
          tc "mem" test_history_mem;
          tc "concat" test_history_concat;
          tc "project" test_history_project;
          tc "actions" test_history_actions;
        ] );
      ( "pattern",
        [
          tc "complete (rule 5)" test_pattern_complete;
          tc "maybe (rules 6-8)" test_pattern_maybe;
          tc "first/second (fig 3)" test_pattern_first_second;
          tc "interleaved rule 9" test_pattern_interleaved_rule9;
          tc "interleaved rule 11 crossing" test_pattern_interleaved_rule11_crossing;
          tc "boundary constraints" test_pattern_interleaved_boundaries;
          tc "decomposition boundaries" test_pattern_decompositions_count;
        ] );
      ( "rule18",
        [
          tc "retry absorbed" test_r18_retry_absorbed;
          tc "duplicate completion" test_r18_duplicate_completion_absorbed;
          tc "conflicting outputs rejected" test_r18_conflicting_outputs_rejected;
          tc "trailing start rejected" test_r18_trailing_start_rejected;
          tc "crossing overlap ok" test_r18_crossing_overlap_ok;
          tc "nested overlap rejected" test_r18_nested_overlap_rejected;
          tc "five attempts" test_r18_five_attempts;
          tc "interleaved other actions" test_r18_interleaved_other_actions;
        ] );
      ( "rule19",
        [
          tc "cancelled attempt erased" test_r19_cancelled_attempt_erased;
          tc "failed attempt then cancel" test_r19_failed_attempt_then_cancel;
          tc "lone cancel erased" test_r19_lone_cancel_erased;
          tc "lone cancel guard" test_r19_lone_cancel_guard;
          tc "commit in leftover blocks" test_r19_commit_in_leftover_blocks;
          tc "retry rounds" test_r19_retry_rounds;
        ] );
      ( "rule20",
        [
          tc "duplicate commit" test_r20_duplicate_commit;
          tc "incomplete commit attempt" test_r20_incomplete_commit_attempt;
          tc "overlap blocks" test_r20_overlap_with_action_blocks;
        ] );
      ( "xable",
        [
          tc "eventsof shapes" test_eventsof_shapes;
          tc "failure-free membership" test_failure_free_membership;
          tc "reflexive" test_xable_already_failure_free;
          tc "empty not x-able" test_xable_empty_not;
          tc "undoable storm" test_xable_full_undoable_storm;
        ] );
      ( "signature",
        [
          tc "simple" test_signature_simple;
          tc "admits" test_signature_admits;
          tc "empty" test_signature_empty_history;
        ] );
      ( "checker",
        [
          tc "two requests" test_checker_two_requests;
          tc "missing request" test_checker_missing_request;
          tc "unexpected group" test_checker_unexpected_group;
          tc "order violation" test_checker_order_violation;
          tc "duplicate exec rejected" test_checker_duplicate_exec_rejected;
        ] );
      ( "properties",
        [
          qcheck prop_idempotent_traces;
          qcheck prop_undoable_traces;
          qcheck prop_reduction_shrinks;
          qcheck prop_normal_forms_irreducible;
          qcheck prop_greedy_reaches_normal_form;
          qcheck prop_soup_steps_shrink;
          qcheck prop_soup_no_invented_actions;
          qcheck prop_soup_normal_forms_terminate;
          qcheck prop_projection_independence;
          qcheck prop_xable_implies_signature;
        ] );
      ( "analyzer",
        [
          tc "idempotent accepts" test_analyzer_idem_accepts;
          tc "idempotent rejects" test_analyzer_idem_rejects;
          tc "undoable accepts" test_analyzer_undo_accepts;
          tc "undoable rejects" test_analyzer_undo_rejects;
          tc "checker engines agree" test_checker_engines_agree;
          qcheck prop_analyzer_sound;
          qcheck prop_analyzer_complete_on_protocol;
        ] );
      ( "reduction-fastpath",
        [
          qcheck prop_fastpath_step_soups;
          qcheck prop_fastpath_step_instance_soups;
          qcheck prop_fastpath_verdicts_undoable;
          qcheck prop_fastpath_verdicts_idempotent;
        ] );
    ]
