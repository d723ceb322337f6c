(* Tests for the deterministic simulation kernel (xsim). *)

module Rng = Xsim.Rng
module Heap = Xsim.Heap
module Engine = Xsim.Engine
module Proc = Xsim.Proc
module Ivar = Xsim.Ivar
module Mailbox = Xsim.Mailbox
module Timer = Xsim.Timer
module Trace = Xsim.Trace

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 7 and b = Rng.create 8 in
  let different = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Rng.int64 a) (Rng.int64 b)) then different := true
  done;
  checkb "different seeds differ" true !different

let test_rng_int_range () =
  let rng = Rng.create 11 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    checkb "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_bound_one () =
  let rng = Rng.create 1 in
  for _ = 1 to 100 do
    checki "bound 1 gives 0" 0 (Rng.int rng 1)
  done

let test_rng_int_rejects_nonpositive () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_float_range () =
  let rng = Rng.create 13 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 1.0 in
    checkb "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_exponential_nonnegative () =
  let rng = Rng.create 17 in
  for _ = 1 to 10_000 do
    checkb "nonnegative" true (Rng.exponential rng ~mean:40.0 >= 0.0)
  done

let test_rng_exponential_mean () =
  let rng = Rng.create 19 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~mean:100.0
  done;
  let mean = !sum /. float_of_int n in
  checkb
    (Printf.sprintf "mean %f within 5%% of 100" mean)
    true
    (mean > 95.0 && mean < 105.0)

let test_rng_split_independence () =
  let parent = Rng.create 23 in
  let child = Rng.split parent in
  (* Drawing from the child must not change what the parent produces
     relative to a parent that splits and ignores the child. *)
  let parent2 = Rng.create 23 in
  let _child2 = Rng.split parent2 in
  for _ = 1 to 10 do
    ignore (Rng.int64 child)
  done;
  check Alcotest.int64 "parent unaffected by child draws" (Rng.int64 parent2)
    (Rng.int64 parent)

let test_rng_chance_extremes () =
  let rng = Rng.create 29 in
  checkb "p=0 never" false (Rng.chance rng 0.0);
  checkb "p=1 always" true (Rng.chance rng 1.0)

let test_rng_pick () =
  let rng = Rng.create 31 in
  for _ = 1 to 100 do
    let v = Rng.pick rng [ 1; 2; 3 ] in
    checkb "picked member" true (List.mem v [ 1; 2; 3 ])
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty list")
    (fun () -> ignore (Rng.pick rng []))

let test_rng_shuffle_permutation () =
  let rng = Rng.create 37 in
  let xs = List.init 20 Fun.id in
  let shuffled = Rng.shuffle rng xs in
  check
    Alcotest.(list int)
    "same multiset" xs
    (List.sort Int.compare shuffled)

let test_rng_copy () =
  let a = Rng.create 41 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  check Alcotest.int64 "copy continues identically" (Rng.int64 a) (Rng.int64 b)

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_ordering () =
  let h = Heap.create () in
  let keys = [ 5; 1; 9; 3; 7; 2; 8; 0; 6; 4 ] in
  List.iter (fun k -> Heap.add h (k, 0) k) keys;
  let popped = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some (_, v) ->
        popped := v :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  check Alcotest.(list int) "sorted" (List.init 10 Fun.id) (List.rev !popped)

let test_heap_tie_break_by_seq () =
  let h = Heap.create () in
  Heap.add h (5, 2) "second";
  Heap.add h (5, 1) "first";
  Heap.add h (5, 3) "third";
  let p1 = Heap.pop h in
  let p2 = Heap.pop h in
  let p3 = Heap.pop h in
  let order =
    List.map (function Some (_, v) -> v | None -> "?") [ p1; p2; p3 ]
  in
  check Alcotest.(list string) "seq order" [ "first"; "second"; "third" ] order

let test_heap_peek () =
  let h = Heap.create () in
  checkb "empty peek" true (Heap.peek h = None);
  Heap.add h (3, 0) "x";
  Heap.add h (1, 0) "y";
  (match Heap.peek h with
  | Some ((1, 0), "y") -> ()
  | _ -> Alcotest.fail "peek should see minimum");
  checki "peek does not remove" 2 (Heap.size h)

let test_heap_random_property =
  QCheck.Test.make ~name:"heap sorts any input" ~count:200
    QCheck.(list (pair small_int small_int))
    (fun pairs ->
      let h = Heap.create () in
      List.iter (fun (k, s) -> Heap.add h (k, s) (k, s)) pairs;
      let rec drain acc =
        match Heap.pop h with Some (k, _) -> drain (k :: acc) | None -> List.rev acc
      in
      let out = drain [] in
      out = List.sort compare (List.map (fun (k, s) -> (k, s)) pairs))

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_time_advances () =
  let eng = Engine.create () in
  let seen = ref [] in
  Engine.schedule eng ~delay:30 (fun () -> seen := 30 :: !seen);
  Engine.schedule eng ~delay:10 (fun () -> seen := 10 :: !seen);
  Engine.schedule eng ~delay:20 (fun () -> seen := 20 :: !seen);
  Engine.run eng;
  check Alcotest.(list int) "events in time order" [ 10; 20; 30 ]
    (List.rev !seen);
  checki "clock at last event" 30 (Engine.now eng)

let test_engine_sleep () =
  let eng = Engine.create () in
  let t = ref (-1) in
  Engine.spawn eng ~name:"sleeper" (fun () ->
      Engine.sleep eng 100;
      Engine.sleep eng 50;
      t := Engine.now eng);
  Engine.run eng;
  checki "slept 150" 150 !t

let test_engine_same_seed_same_trace () =
  let run seed =
    let eng = Engine.create ~seed () in
    let log = ref [] in
    for i = 1 to 5 do
      Engine.spawn eng ~name:(Printf.sprintf "f%d" i) (fun () ->
          let d = Rng.int (Engine.rng eng) 100 in
          Engine.sleep eng d;
          log := (i, Engine.now eng) :: !log)
    done;
    Engine.run eng;
    !log
  in
  check
    Alcotest.(list (pair int int))
    "identical runs" (run 99) (run 99)

let test_engine_kill_prevents_resume () =
  let eng = Engine.create () in
  let p = Proc.create ~name:"victim" in
  let ran = ref false in
  Engine.spawn eng ~proc:p ~name:"victim-fiber" (fun () ->
      Engine.sleep eng 100;
      ran := true);
  Engine.schedule eng ~delay:50 (fun () -> Proc.kill p);
  Engine.run eng;
  checkb "killed fiber never resumed" false !ran;
  checkb "proc dead" false (Proc.alive p)

let test_engine_kill_prevents_start () =
  let eng = Engine.create () in
  let p = Proc.create ~name:"victim" in
  Proc.kill p;
  let ran = ref false in
  Engine.spawn eng ~proc:p ~name:"fiber" (fun () -> ran := true);
  Engine.run eng;
  checkb "fiber of dead proc never starts" false !ran

let test_engine_errors_recorded () =
  let eng = Engine.create () in
  Engine.spawn eng ~name:"crasher" (fun () -> failwith "boom");
  Engine.run eng;
  match Engine.errors eng with
  | [ (0, "crasher", e) ] ->
      Alcotest.(check string) "exn" "Failure(\"boom\")" (Printexc.to_string e)
  | other ->
      Alcotest.failf "unexpected errors: %d entries" (List.length other)

let test_engine_run_limit () =
  let eng = Engine.create () in
  let ran = ref false in
  Engine.schedule eng ~delay:1000 (fun () -> ran := true);
  Engine.run ~limit:500 eng;
  checkb "event beyond limit not run" false !ran;
  checki "clock clamped to limit" 500 (Engine.now eng);
  (* The event is still queued: a later run executes it. *)
  Engine.run ~limit:2000 eng;
  checkb "event runs when limit extended" true !ran

let test_engine_request_stop () =
  let eng = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count = 5 then Engine.request_stop eng;
    Engine.schedule eng ~delay:10 tick
  in
  Engine.schedule eng ~delay:0 tick;
  Engine.run eng;
  checki "stopped after 5 ticks" 5 !count

let test_engine_negative_delay_rejected () =
  let eng = Engine.create () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Engine.schedule: negative delay -1") (fun () ->
      Engine.schedule eng ~delay:(-1) ignore)

let test_engine_yield_interleaving () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.spawn eng ~name:"a" (fun () ->
      log := "a1" :: !log;
      Engine.yield eng;
      log := "a2" :: !log);
  Engine.spawn eng ~name:"b" (fun () ->
      log := "b1" :: !log;
      Engine.yield eng;
      log := "b2" :: !log);
  Engine.run eng;
  check
    Alcotest.(list string)
    "round-robin at same instant" [ "a1"; "b1"; "a2"; "b2" ]
    (List.rev !log)

(* ------------------------------------------------------------------ *)
(* Ivar *)

let test_ivar_fill_read () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  let got = ref 0 in
  Engine.spawn eng ~name:"reader" (fun () -> got := Ivar.read eng iv);
  Engine.schedule eng ~delay:10 (fun () -> Ivar.fill iv 42);
  Engine.run eng;
  checki "read filled value" 42 !got

let test_ivar_read_after_fill () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  Ivar.fill iv 7;
  let got = ref 0 in
  Engine.spawn eng ~name:"reader" (fun () -> got := Ivar.read eng iv);
  Engine.run eng;
  checki "immediate read" 7 !got

let test_ivar_double_fill () =
  let iv = Ivar.create () in
  Ivar.fill iv 1;
  checkb "try_fill loses" false (Ivar.try_fill iv 2);
  Alcotest.check_raises "fill raises" (Invalid_argument "Ivar.fill: already full")
    (fun () -> Ivar.fill iv 3);
  checki "value unchanged" 1 (Option.get (Ivar.peek iv))

let test_ivar_race () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  Engine.schedule eng ~delay:10 (fun () -> ignore (Ivar.try_fill iv "first"));
  Engine.schedule eng ~delay:20 (fun () -> ignore (Ivar.try_fill iv "second"));
  Engine.run eng;
  check Alcotest.(option string) "first wins" (Some "first") (Ivar.peek iv)

let test_ivar_multiple_readers () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  let sum = ref 0 in
  for _ = 1 to 3 do
    Engine.spawn eng ~name:"reader" (fun () -> sum := !sum + Ivar.read eng iv)
  done;
  Engine.schedule eng ~delay:5 (fun () -> Ivar.fill iv 10);
  Engine.run eng;
  checki "all readers woke" 30 !sum

(* ------------------------------------------------------------------ *)
(* Mailbox *)

let test_mailbox_fifo () =
  let eng = Engine.create () in
  let mb = Mailbox.create () in
  let got = ref [] in
  Engine.spawn eng ~name:"consumer" (fun () ->
      for _ = 1 to 3 do
        got := Mailbox.take eng mb :: !got
      done);
  Engine.spawn eng ~name:"producer" (fun () ->
      Mailbox.put mb 1;
      Mailbox.put mb 2;
      Mailbox.put mb 3);
  Engine.run eng;
  check Alcotest.(list int) "fifo" [ 1; 2; 3 ] (List.rev !got)

let test_mailbox_declined_message_not_lost () =
  let eng = Engine.create () in
  let mb = Mailbox.create () in
  (* A racing sink that already lost: declines the message. *)
  let cell = Ivar.create () in
  Ivar.fill cell "other-winner";
  Mailbox.take_into mb (fun _v -> Ivar.try_fill cell "msg");
  Mailbox.put mb 42;
  checki "message stays queued" 1 (Mailbox.length mb);
  let got = ref 0 in
  Engine.spawn eng ~name:"late" (fun () -> got := Mailbox.take eng mb);
  Engine.run eng;
  checki "later take gets it" 42 !got

let test_mailbox_take_into_immediate () =
  let mb = Mailbox.create () in
  Mailbox.put mb "queued";
  let got = ref None in
  Mailbox.take_into mb (fun v ->
      got := Some v;
      true);
  check Alcotest.(option string) "immediate delivery" (Some "queued") !got;
  checki "dequeued" 0 (Mailbox.length mb)

let test_mailbox_poll () =
  let mb = Mailbox.create () in
  checkb "poll empty" true (Mailbox.poll mb = None);
  Mailbox.put mb 9;
  check Alcotest.(option int) "poll full" (Some 9) (Mailbox.poll mb);
  checkb "poll drains" true (Mailbox.poll mb = None)

(* ------------------------------------------------------------------ *)
(* Timer *)

let test_timer_with_timeout_expires () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  let got = ref (Some 1) in
  Engine.spawn eng ~name:"waiter" (fun () ->
      got := Timer.with_timeout eng 50 iv);
  Engine.run eng;
  checkb "timed out" true (!got = None)

let test_timer_with_timeout_wins () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  let got = ref None in
  Engine.spawn eng ~name:"waiter" (fun () ->
      got := Timer.with_timeout eng 50 iv);
  Engine.schedule eng ~delay:10 (fun () -> Ivar.fill iv 5);
  Engine.run eng;
  check Alcotest.(option int) "value before timeout" (Some 5) !got

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace_records_in_order () =
  let tr = Trace.create () in
  Trace.record tr ~time:1 ~source:"a" "one";
  Trace.record tr ~time:2 ~source:"b" "two";
  checki "two entries" 2 (Trace.length tr);
  (match Trace.entries tr with
  | [ e1; e2 ] ->
      checki "order" 1 e1.Trace.time;
      checki "order" 2 e2.Trace.time
  | _ -> Alcotest.fail "expected 2 entries");
  checki "by_source" 1 (List.length (Trace.by_source tr "a"))

let test_trace_disabled () =
  let tr = Trace.create ~enabled:false () in
  Trace.record tr ~time:1 ~source:"a" "ignored";
  checki "nothing recorded" 0 (Trace.length tr)

(* ------------------------------------------------------------------ *)


let test_engine_await_error_raises_in_fiber () =
  let eng = Engine.create () in
  let caught = ref None in
  Engine.spawn eng ~name:"awaiter" (fun () ->
      try
        Engine.await eng (fun resume ->
            Engine.schedule eng ~delay:10 (fun () ->
                ignore (resume (Error (Failure "delivery failed")))))
      with Failure msg -> caught := Some msg);
  Engine.run eng;
  check Alcotest.(option string) "error surfaced as exception"
    (Some "delivery failed") !caught

let test_engine_resumer_one_shot () =
  let eng = Engine.create () in
  let resumptions = ref 0 in
  Engine.spawn eng ~name:"fiber" (fun () ->
      Engine.await eng (fun resume ->
          Engine.schedule eng ~delay:5 (fun () ->
              if resume (Ok ()) then incr resumptions;
              (* Second call must be refused. *)
              if resume (Ok ()) then incr resumptions)));
  Engine.run eng;
  checki "resumed exactly once" 1 !resumptions

let test_engine_resumer_refused_after_kill () =
  let eng = Engine.create () in
  let p = Proc.create ~name:"victim" in
  let accepted = ref None in
  Engine.spawn eng ~proc:p ~name:"fiber" (fun () ->
      Engine.await eng (fun resume ->
          Engine.schedule eng ~delay:20 (fun () ->
              accepted := Some (resume (Ok ())))));
  Engine.schedule eng ~delay:10 (fun () -> Proc.kill p);
  Engine.run eng;
  check Alcotest.(option bool) "resumer reports rejection" (Some false)
    !accepted

let test_engine_current_fiber_name () =
  let eng = Engine.create () in
  let name = ref "" in
  Engine.spawn eng ~name:"who-am-i" (fun () ->
      name := Engine.current_fiber_name eng);
  Engine.run eng;
  Alcotest.(check string) "inside" "who-am-i" !name;
  Alcotest.(check string) "outside" "-" (Engine.current_fiber_name eng)

(* ------------------------------------------------------------------ *)
(* Engine: choosers *)

(* An event of a random run: [delay] after it is scheduled it runs, and
   schedules its [kids] in order.  Labels are unique, so the executed
   sequence names every event. *)
type ev = { lbl : string; delay : int; kids : ev list }

let rec pp_ev fmt e =
  Format.fprintf fmt "%s+%d[%a]" e.lbl e.delay
    (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_ev)
    e.kids

(* Delays are mostly 0..3, so most events tie with another. *)
let gen_events =
  let open QCheck.Gen in
  let delay = frequency [ (3, return 0); (3, int_bound 3); (1, int_bound 40) ] in
  let shape =
    fix
      (fun self depth ->
        map2
          (fun delay kids -> { lbl = ""; delay; kids })
          delay
          (if depth = 0 then return []
           else list_size (int_bound 3) (self (depth - 1))))
      2
  in
  map
    (fun shapes ->
      let n = ref 0 in
      let rec label e =
        incr n;
        let lbl = "e" ^ string_of_int !n in
        { e with lbl; kids = List.map label e.kids }
      in
      List.map label shapes)
    (list_size (int_range 1 12) shape)

(* The chooser's semantics on a sorted list: the window is the first
   [window] keys with time within [limit], in key order; a single ready
   event runs without a decision; picks are clamped into the window. *)
let model_run ~limit ~window ~pick roots =
  let queue = ref [] and seq = ref 0 and now = ref 0 in
  let add e =
    incr seq;
    queue :=
      List.sort
        (fun (a, _) (b, _) -> compare a b)
        (((!now + e.delay, !seq), e) :: !queue)
  in
  List.iter add roots;
  let ran = ref [] and offered = ref [] and points = ref 0 in
  let rec loop () =
    match !queue with
    | ((time, _), _) :: _ when time <= limit ->
        let ready =
          List.filteri
            (fun i _ -> i < window)
            (List.filter (fun ((t, _), _) -> t <= limit) !queue)
        in
        let k =
          if List.length ready = 1 then 0
          else begin
            let step = !points in
            incr points;
            offered := List.map (fun (_, e) -> e.lbl) ready :: !offered;
            max 0 (min (pick step) (List.length ready - 1))
          end
        in
        let ((time, _) as key), e = List.nth ready k in
        queue := List.filter (fun (key', _) -> key' <> key) !queue;
        now := max !now time;
        ran := (e.lbl, !now) :: !ran;
        List.iter add e.kids;
        loop ()
    | _ -> ()
  in
  loop ();
  (List.rev !ran, List.rev !offered, !points, List.length !queue)

let engine_run ~limit ~window ~pick roots =
  let eng = Engine.create ~trace_enabled:false () in
  let ran = ref [] and offered = ref [] in
  let rec add e =
    Engine.schedule eng ~label:e.lbl ~delay:e.delay (fun () ->
        ran := (e.lbl, Engine.now eng) :: !ran;
        List.iter add e.kids)
  in
  List.iter add roots;
  Engine.set_chooser eng ~window
    (Some
       (fun ~step ~ready ->
         offered := Array.to_list ready :: !offered;
         pick step));
  Engine.run ~limit eng;
  ( List.rev !ran,
    List.rev !offered,
    Engine.choice_points eng,
    Engine.pending_events eng )

let test_chooser_matches_model =
  let arb =
    QCheck.make
      ~print:(fun (roots, limit, window, picks) ->
        Format.asprintf "limit=%d window=%d picks=[%s]@ %a" limit window
          (String.concat ";" (List.map string_of_int picks))
          (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_ev)
          roots)
      QCheck.Gen.(
        quad gen_events
          (frequency [ (1, return max_int); (3, int_bound 60) ])
          (int_range 1 8)
          (list_size (int_bound 24) (int_range (-3) 10)))
  in
  QCheck.Test.make ~name:"chooser window = first keys within limit"
    ~count:500 arb (fun (roots, limit, window, picks) ->
      let pick step =
        match picks with
        | [] -> 0
        | _ -> List.nth picks (step mod List.length picks)
      in
      model_run ~limit ~window ~pick roots
      = engine_run ~limit ~window ~pick roots)

(* Minor words per event of a chain of trivial events over [queued] idle
   ones, which fill the rest of every ready window. *)
let chooser_words_per_step ~queued ~window =
  let steps = 4_000 in
  let eng = Engine.create ~trace_enabled:false () in
  for _ = 1 to queued do
    Engine.schedule eng ~delay:(steps + 10) ignore
  done;
  let left = ref steps in
  let rec step () =
    decr left;
    if !left > 0 then Engine.schedule eng ~delay:1 step
    else Engine.request_stop eng
  in
  Engine.schedule eng ~delay:1 step;
  Engine.set_chooser eng ~window (Some (fun ~step:_ ~ready:_ -> 0));
  let w0 = Gc.minor_words () in
  Engine.run eng;
  let words = (Gc.minor_words () -. w0) /. float_of_int steps in
  checki "every chain event was a decision" steps (Engine.choice_points eng);
  words

let test_chooser_cost_independent_of_depth () =
  List.iter
    (fun window ->
      let shallow = chooser_words_per_step ~queued:16 ~window in
      let deep = chooser_words_per_step ~queued:1_024 ~window in
      checkb
        (Printf.sprintf "window %d: %.1f words/step over 16 queued, %.1f over 1024"
           window shallow deep)
        true
        (Float.abs (deep -. shallow) <= 0.01 *. shallow))
    [ 2; 4 ]

let qcheck t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "xsim"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int bound 1" `Quick test_rng_int_bound_one;
          Alcotest.test_case "int rejects <=0" `Quick
            test_rng_int_rejects_nonpositive;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "exponential >= 0" `Quick
            test_rng_exponential_nonnegative;
          Alcotest.test_case "exponential mean" `Slow test_rng_exponential_mean;
          Alcotest.test_case "split independence" `Quick
            test_rng_split_independence;
          Alcotest.test_case "chance extremes" `Quick test_rng_chance_extremes;
          Alcotest.test_case "pick" `Quick test_rng_pick;
          Alcotest.test_case "shuffle permutation" `Quick
            test_rng_shuffle_permutation;
          Alcotest.test_case "copy" `Quick test_rng_copy;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "tie-break by seq" `Quick test_heap_tie_break_by_seq;
          Alcotest.test_case "peek" `Quick test_heap_peek;
          qcheck test_heap_random_property;
        ] );
      ( "engine",
        [
          Alcotest.test_case "time advances" `Quick test_engine_time_advances;
          Alcotest.test_case "sleep" `Quick test_engine_sleep;
          Alcotest.test_case "determinism" `Quick test_engine_same_seed_same_trace;
          Alcotest.test_case "kill prevents resume" `Quick
            test_engine_kill_prevents_resume;
          Alcotest.test_case "kill prevents start" `Quick
            test_engine_kill_prevents_start;
          Alcotest.test_case "errors recorded" `Quick test_engine_errors_recorded;
          Alcotest.test_case "run limit" `Quick test_engine_run_limit;
          Alcotest.test_case "request stop" `Quick test_engine_request_stop;
          Alcotest.test_case "negative delay rejected" `Quick
            test_engine_negative_delay_rejected;
          Alcotest.test_case "yield interleaving" `Quick
            test_engine_yield_interleaving;
          Alcotest.test_case "await error raises" `Quick
            test_engine_await_error_raises_in_fiber;
          Alcotest.test_case "resumer one-shot" `Quick
            test_engine_resumer_one_shot;
          Alcotest.test_case "resumer refused after kill" `Quick
            test_engine_resumer_refused_after_kill;
          Alcotest.test_case "current fiber name" `Quick
            test_engine_current_fiber_name;
          qcheck test_chooser_matches_model;
          Alcotest.test_case "decision cost independent of depth" `Quick
            test_chooser_cost_independent_of_depth;
        ] );
      ( "ivar",
        [
          Alcotest.test_case "fill/read" `Quick test_ivar_fill_read;
          Alcotest.test_case "read after fill" `Quick test_ivar_read_after_fill;
          Alcotest.test_case "double fill" `Quick test_ivar_double_fill;
          Alcotest.test_case "race" `Quick test_ivar_race;
          Alcotest.test_case "multiple readers" `Quick test_ivar_multiple_readers;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "declined message not lost" `Quick
            test_mailbox_declined_message_not_lost;
          Alcotest.test_case "take_into immediate" `Quick
            test_mailbox_take_into_immediate;
          Alcotest.test_case "poll" `Quick test_mailbox_poll;
        ] );
      ( "timer",
        [
          Alcotest.test_case "timeout expires" `Quick
            test_timer_with_timeout_expires;
          Alcotest.test_case "value beats timeout" `Quick
            test_timer_with_timeout_wins;
        ] );
      ( "trace",
        [
          Alcotest.test_case "records in order" `Quick test_trace_records_in_order;
          Alcotest.test_case "disabled" `Quick test_trace_disabled;
        ] );
    ]
