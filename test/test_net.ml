(* Tests for the simulated network (xnet). *)

module Engine = Xsim.Engine
module Address = Xnet.Address
module Latency = Xnet.Latency
module Transport = Xnet.Transport

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_address_basics () =
  let a = Address.make ~role:"replica" ~index:2 in
  Alcotest.(check string) "to_string" "replica.2" (Address.to_string a);
  checkb "equal" true (Address.equal a (Address.make ~role:"replica" ~index:2));
  checkb "not equal" false (Address.equal a (Address.make ~role:"replica" ~index:3));
  Alcotest.(check string) "role" "replica" (Address.role a);
  checki "index" 2 (Address.index a);
  Alcotest.(check string) "of_string" "client"
    (Address.to_string (Address.of_string "client"))

let test_address_ordering () =
  let a = Address.make ~role:"a" ~index:1 in
  let b = Address.make ~role:"b" ~index:0 in
  checkb "role-major order" true (Address.compare a b < 0);
  checkb "index order" true
    (Address.compare
       (Address.make ~role:"a" ~index:0)
       (Address.make ~role:"a" ~index:1)
    < 0)

let test_latency_constant () =
  let rng = Xsim.Rng.create 1 in
  for _ = 1 to 100 do
    checki "constant" 30 (Latency.sample (Latency.Constant 30) rng ~now:0)
  done

let test_latency_uniform_bounds () =
  let rng = Xsim.Rng.create 2 in
  for _ = 1 to 1000 do
    let v = Latency.sample (Latency.Uniform (10, 20)) rng ~now:0 in
    checkb "in bounds" true (v >= 10 && v <= 20)
  done

let test_latency_exponential_min () =
  let rng = Xsim.Rng.create 3 in
  for _ = 1 to 1000 do
    checkb "respects min" true
      (Latency.sample (Latency.Exponential { min = 15; mean = 10.0 }) rng ~now:0
      >= 15)
  done

let test_latency_never_negative () =
  let rng = Xsim.Rng.create 4 in
  let models =
    [
      Latency.Constant (-5);
      Latency.Uniform (-10, -1);
      Latency.Exponential { min = -3; mean = 5.0 };
    ]
  in
  List.iter
    (fun m ->
      for _ = 1 to 100 do
        checkb "clamped" true (Latency.sample m rng ~now:0 >= 0)
      done)
    models

let test_latency_phases () =
  let rng = Xsim.Rng.create 5 in
  let m =
    Latency.Phases ([ (100, Latency.Constant 50); (200, Latency.Constant 30) ],
                    Latency.Constant 10)
  in
  checki "first regime" 50 (Latency.sample m rng ~now:0);
  checki "second regime" 30 (Latency.sample m rng ~now:150);
  checki "final regime" 10 (Latency.sample m rng ~now:500);
  checki "lower bound tracks regime" 10 (Latency.lower_bound m ~now:500)

let test_latency_pp_roundtrip () =
  (* Golden rendering for every constructor; the Phases regime marker
     must close its bracket. *)
  let render m = Format.asprintf "%a" Latency.pp m in
  Alcotest.(check string) "constant" "constant(30)" (render (Latency.Constant 30));
  Alcotest.(check string) "uniform" "uniform(10,20)"
    (render (Latency.Uniform (10, 20)));
  Alcotest.(check string) "exponential" "exp(min=15,mean=10.0)"
    (render (Latency.Exponential { min = 15; mean = 10.0 }));
  Alcotest.(check string) "phases"
    "phases(<100:constant(50)>; <200:uniform(1,2)>; then constant(10))"
    (render
       (Latency.Phases
          ( [ (100, Latency.Constant 50); (200, Latency.Uniform (1, 2)) ],
            Latency.Constant 10 )))

let setup () =
  let eng = Engine.create ~seed:5 () in
  let tr = Transport.create eng ~latency:(Latency.Constant 10) () in
  let a = Address.of_string "a" and b = Address.of_string "b" in
  let pa = Xsim.Proc.create ~name:"a" and pb = Xsim.Proc.create ~name:"b" in
  let mba = Transport.register tr a ~proc:pa in
  let mbb = Transport.register tr b ~proc:pb in
  (eng, tr, (a, pa, mba), (b, pb, mbb))

let test_transport_delivery () =
  let eng, tr, (a, _, _), (b, _, mbb) = setup () in
  Transport.send tr ~src:a ~dst:b "hello";
  let got = ref None in
  Engine.spawn eng ~name:"recv" (fun () ->
      let e = Xsim.Mailbox.take eng mbb in
      got := Some (e.Transport.src, e.Transport.payload));
  Engine.run eng;
  (match !got with
  | Some (src, "hello") -> checkb "src" true (Address.equal src a)
  | _ -> Alcotest.fail "no delivery");
  checki "delivered at latency" 10 (Engine.now eng)

let test_transport_duplicate_registration () =
  let _, tr, (a, pa, _), _ = setup () in
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Transport.register: a already registered") (fun () ->
      ignore (Transport.register tr a ~proc:pa))

let test_transport_unknown_destination () =
  let _, tr, (a, _, _), _ = setup () in
  checkb "raises Not_found" true
    (try
       Transport.send tr ~src:a ~dst:(Address.of_string "ghost") "x";
       false
     with Not_found -> true)

let test_transport_broadcast () =
  let eng, tr, (a, _, mba), (_, _, mbb) = setup () in
  Transport.broadcast tr ~src:a "ping";
  Engine.run eng;
  checki "self excluded" 0 (Xsim.Mailbox.length mba);
  checki "peer got it" 1 (Xsim.Mailbox.length mbb);
  Transport.broadcast tr ~src:a ~include_self:true "pong";
  Engine.run eng;
  checki "self included" 1 (Xsim.Mailbox.length mba)

let test_transport_fifo () =
  let eng = Engine.create ~seed:7 () in
  let tr = Transport.create eng ~fifo:true ~latency:(Latency.Uniform (5, 100)) () in
  let a = Address.of_string "a" and b = Address.of_string "b" in
  let _ = Transport.register tr a ~proc:(Xsim.Proc.create ~name:"a") in
  let mbb = Transport.register tr b ~proc:(Xsim.Proc.create ~name:"b") in
  for i = 1 to 20 do
    Transport.send tr ~src:a ~dst:b i
  done;
  let got = ref [] in
  Engine.spawn eng ~name:"recv" (fun () ->
      for _ = 1 to 20 do
        got := (Xsim.Mailbox.take eng mbb).Transport.payload :: !got
      done);
  Engine.run eng;
  Alcotest.(check (list int)) "in order" (List.init 20 (fun i -> i + 1))
    (List.rev !got)

let test_transport_link_override () =
  let eng, tr, (a, _, _), (b, _, mbb) = setup () in
  Transport.set_link_latency tr ~src:a ~dst:b (Latency.Constant 500);
  Transport.send tr ~src:a ~dst:b "slow";
  Engine.spawn eng ~name:"recv" (fun () ->
      ignore (Xsim.Mailbox.take eng mbb));
  Engine.run eng;
  checki "overridden latency" 500 (Engine.now eng);
  Transport.clear_link_latency tr ~src:a ~dst:b;
  Transport.send tr ~src:a ~dst:b "fast";
  Engine.spawn eng ~name:"recv2" (fun () ->
      ignore (Xsim.Mailbox.take eng mbb));
  Engine.run eng;
  checki "back to default" 510 (Engine.now eng)

let test_transport_stats () =
  let eng, tr, (a, _, _), (b, _, _) = setup () in
  for _ = 1 to 5 do
    Transport.send tr ~src:a ~dst:b "m"
  done;
  Engine.run eng;
  let st = Transport.stats tr in
  checki "sent" 5 st.Transport.sent;
  checki "delivered" 5 st.Transport.delivered;
  checki "total delay" 50 st.Transport.total_delay

let test_transport_to_dead_process () =
  let eng, tr, (a, _, _), (b, pb, mbb) = setup () in
  Xsim.Proc.kill pb;
  Transport.send tr ~src:a ~dst:b "wasted";
  Engine.run eng;
  (* Delivered into the mailbox, but no fiber of b will ever consume it. *)
  checki "queued at dead node" 1 (Xsim.Mailbox.length mbb)

let test_transport_per_link_fifo () =
  (* FIFO is per directed link, not per destination: a slow link must not
     delay an independent fast link to the same receiver (the clamp used
     to be keyed by destination only). *)
  let eng = Engine.create ~seed:9 () in
  let tr = Transport.create eng ~fifo:true ~latency:(Latency.Constant 10) () in
  let a = Address.of_string "a"
  and b = Address.of_string "b"
  and c = Address.of_string "c" in
  List.iter
    (fun n ->
      ignore
        (Transport.register tr (Address.of_string n)
           ~proc:(Xsim.Proc.create ~name:n)))
    [ "a"; "b"; "c" ];
  Transport.set_link_latency tr ~src:a ~dst:b (Latency.Constant 500);
  let mbb = Transport.mailbox tr b in
  Transport.send tr ~src:a ~dst:b "slow";
  Transport.send tr ~src:c ~dst:b "fast";
  let got = ref [] in
  Engine.spawn eng ~name:"recv" (fun () ->
      for _ = 1 to 2 do
        let e = Xsim.Mailbox.take eng mbb in
        got := (e.Transport.payload, Engine.now eng) :: !got
      done);
  Engine.run eng;
  (match List.rev !got with
  | [ ("fast", 10); ("slow", 500) ] -> ()
  | other ->
      Alcotest.failf "per-link FIFO broken: %s"
        (String.concat "; "
           (List.map (fun (p, t) -> Printf.sprintf "%s@%d" p t) other)));
  (* FIFO still clamps within one link under racing latencies. *)
  let eng = Engine.create ~seed:10 () in
  let tr =
    Transport.create eng ~fifo:true ~latency:(Latency.Uniform (5, 100)) ()
  in
  let senders = [ "a"; "c" ] in
  List.iter
    (fun n ->
      ignore
        (Transport.register tr (Address.of_string n)
           ~proc:(Xsim.Proc.create ~name:n)))
    ("b" :: senders);
  for i = 1 to 10 do
    List.iter
      (fun n ->
        Transport.send tr ~src:(Address.of_string n) ~dst:b (n, i))
      senders
  done;
  let got = ref [] in
  Engine.spawn eng ~name:"recv" (fun () ->
      for _ = 1 to 20 do
        got := (Xsim.Mailbox.take eng (Transport.mailbox tr b)).Transport.payload
               :: !got
      done);
  Engine.run eng;
  let per_link n =
    List.filter_map (fun (m, i) -> if m = n then Some i else None)
      (List.rev !got)
  in
  List.iter
    (fun n ->
      Alcotest.(check (list int))
        (Printf.sprintf "link %s->b in order" n)
        (List.init 10 (fun i -> i + 1))
        (per_link n))
    senders

(* ------------------------------------------------------------------ *)
(* Fault plane *)

module Fault = Xnet.Fault

let test_fault_validation () =
  Alcotest.check_raises "drop out of range"
    (Invalid_argument "Fault.link: drop not in [0,1]") (fun () ->
      ignore (Fault.link ~drop:1.5 ()));
  Alcotest.check_raises "negative jitter"
    (Invalid_argument "Fault.link: negative jitter") (fun () ->
      ignore (Fault.link ~jitter:(-1) ()));
  checkb "none is none" true (Fault.is_none Fault.none);
  checkb "clean link" true (Fault.link_is_clean Fault.clean);
  checkb "lossy link not clean" false
    (Fault.link_is_clean (Fault.link ~drop:0.1 ()))

let test_fault_partitioned () =
  let a = Address.of_string "a"
  and b = Address.of_string "b"
  and c = Address.of_string "c" in
  let f =
    Fault.make
      ~partitions:[ { Fault.from_t = 100; until_t = 200; group = [ a ] } ]
      ()
  in
  checkb "severed in window" true (Fault.partitioned f ~src:a ~dst:b ~now:100);
  checkb "severed both directions" true
    (Fault.partitioned f ~src:b ~dst:a ~now:150);
  checkb "not before" false (Fault.partitioned f ~src:a ~dst:b ~now:99);
  checkb "healed at until" false (Fault.partitioned f ~src:a ~dst:b ~now:200);
  checkb "outside pair unaffected" false
    (Fault.partitioned f ~src:b ~dst:c ~now:150);
  let both =
    Fault.make
      ~partitions:[ { Fault.from_t = 0; until_t = 100; group = [ a; b ] } ]
      ()
  in
  checkb "same side stays connected" false
    (Fault.partitioned both ~src:a ~dst:b ~now:50)

let faulty_setup ?fifo ~faults () =
  let eng = Engine.create ~seed:5 () in
  let tr = Transport.create eng ?fifo ~faults ~latency:(Latency.Constant 10) () in
  let a = Address.of_string "a" and b = Address.of_string "b" in
  let _ = Transport.register tr a ~proc:(Xsim.Proc.create ~name:"a") in
  let mbb = Transport.register tr b ~proc:(Xsim.Proc.create ~name:"b") in
  (eng, tr, a, b, mbb)

let test_transport_drop_all () =
  let eng, tr, a, b, mbb =
    faulty_setup ~faults:(Fault.make ~default:(Fault.link ~drop:1.0 ()) ()) ()
  in
  for _ = 1 to 5 do
    Transport.send tr ~src:a ~dst:b "lost"
  done;
  Engine.run eng;
  checki "nothing delivered" 0 (Xsim.Mailbox.length mbb);
  let st = Transport.stats tr in
  checki "sent counted" 5 st.Transport.sent;
  checki "all dropped" 5 st.Transport.dropped;
  checki "no deliveries" 0 st.Transport.delivered

let test_transport_duplicate_all () =
  let eng, tr, a, b, mbb =
    faulty_setup ~faults:(Fault.make ~default:(Fault.link ~dup:1.0 ()) ()) ()
  in
  for _ = 1 to 3 do
    Transport.send tr ~src:a ~dst:b "twice"
  done;
  Engine.run eng;
  checki "every message doubled" 6 (Xsim.Mailbox.length mbb);
  let st = Transport.stats tr in
  checki "duplicates counted" 3 st.Transport.duplicated;
  checki "deliveries include copies" 6 st.Transport.delivered

let test_transport_partition_window () =
  let faults =
    Fault.make
      ~partitions:
        [ { Fault.from_t = 0; until_t = 100; group = [ Address.of_string "a" ] } ]
      ()
  in
  let eng, tr, a, b, mbb = faulty_setup ~faults () in
  Transport.send tr ~src:a ~dst:b "severed";
  Engine.schedule eng ~delay:150 (fun () ->
      Transport.send tr ~src:a ~dst:b "healed");
  Engine.run eng;
  checki "only the post-heal message" 1 (Xsim.Mailbox.length mbb);
  checki "partition drop counted" 1
    (Transport.stats tr).Transport.partition_dropped

let test_transport_forced_faults () =
  let faults =
    Fault.make ~forced:[ (0, Fault.Drop); (1, Fault.Duplicate) ] ()
  in
  let eng, tr, a, b, mbb = faulty_setup ~faults () in
  Transport.send tr ~src:a ~dst:b "dropped";
  Transport.send tr ~src:a ~dst:b "doubled";
  Transport.send tr ~src:a ~dst:b "normal";
  Engine.run eng;
  checki "drop + dup + normal = 3 deliveries" 3 (Xsim.Mailbox.length mbb);
  let st = Transport.stats tr in
  checki "forced actions counted" 2 st.Transport.forced_faults;
  checki "forced drop counted" 1 st.Transport.dropped;
  checki "forced dup counted" 1 st.Transport.duplicated

let test_transport_faults_reproducible () =
  let run () =
    let eng, tr, a, b, mbb =
      faulty_setup
        ~faults:(Fault.make ~default:(Fault.link ~drop:0.3 ~dup:0.2 ()) ())
        ()
    in
    for _ = 1 to 50 do
      Transport.send tr ~src:a ~dst:b "m"
    done;
    Engine.run eng;
    let st = Transport.stats tr in
    (Xsim.Mailbox.length mbb, st.Transport.dropped, st.Transport.duplicated)
  in
  let d1, dr1, du1 = run () and d2, dr2, du2 = run () in
  checki "same deliveries" d1 d2;
  checki "same drops" dr1 dr2;
  checki "same dups" du1 du2;
  checkb "faults actually sampled" true (dr1 > 0 && du1 > 0)

(* ------------------------------------------------------------------ *)
(* Reliable (ARQ) channel *)

module Reliable = Xnet.Reliable

let reliable_setup ?arq ~faults () =
  let eng = Engine.create ~seed:5 () in
  let r = Reliable.create eng ~faults ?arq ~latency:(Latency.Constant 10) () in
  let a = Address.of_string "a" and b = Address.of_string "b" in
  let pa = Xsim.Proc.create ~name:"a" and pb = Xsim.Proc.create ~name:"b" in
  let _ = Reliable.register r a ~proc:pa in
  let mbb = Reliable.register r b ~proc:pb in
  (eng, r, (a, pa), (b, pb), mbb)

let test_reliable_delivers_under_loss () =
  let eng, r, (a, _), (b, _), mbb =
    reliable_setup
      ~faults:(Fault.make ~default:(Fault.link ~drop:0.4 ~dup:0.2 ()) ())
      ()
  in
  let n = 20 in
  for i = 1 to n do
    Reliable.send r ~src:a ~dst:b i
  done;
  let got = ref [] in
  Engine.spawn eng ~name:"recv" (fun () ->
      for _ = 1 to n do
        got := (Xsim.Mailbox.take eng mbb).Xnet.Transport.payload :: !got
      done);
  Engine.run eng;
  Alcotest.(check (list int))
    "exactly once, in order"
    (List.init n (fun i -> i + 1))
    (List.rev !got);
  checki "nothing extra queued" 0 (Xsim.Mailbox.length mbb);
  let st = Reliable.stats r in
  checki "app deliveries" n st.Reliable.app_delivered;
  checkb "loss forced retransmissions" true (st.Reliable.retransmits > 0);
  checkb "duplicates were deduplicated" true (st.Reliable.dedup_dropped > 0)

let test_reliable_partition_heals () =
  let faults =
    Fault.make
      ~partitions:
        [ { Fault.from_t = 0; until_t = 600; group = [ Address.of_string "a" ] } ]
      ()
  in
  let eng, r, (a, _), (b, _), mbb = reliable_setup ~faults () in
  Reliable.send r ~src:a ~dst:b "through";
  let got = ref None in
  Engine.spawn eng ~name:"recv" (fun () ->
      got := Some (Xsim.Mailbox.take eng mbb).Xnet.Transport.payload);
  Engine.run eng;
  Alcotest.(check (option string)) "delivered after heal" (Some "through") !got;
  checkb "healed past the partition" true (Engine.now eng >= 600);
  checkb "retransmitted across the window" true
    ((Reliable.stats r).Reliable.retransmits > 0)

let test_reliable_crashed_sender_stops () =
  let eng, r, (a, pa), (b, _), mbb =
    reliable_setup
      ~faults:(Fault.make ~default:(Fault.link ~drop:1.0 ()) ())
      ()
  in
  Reliable.send r ~src:a ~dst:b "doomed";
  Xsim.Proc.kill pa;
  (* Total loss + dead sender: the first armed timer fires, sees the dead
     sender, and stops.  The run must terminate on its own. *)
  Engine.run eng;
  checki "nothing delivered" 0 (Xsim.Mailbox.length mbb);
  checki "no retransmissions from the dead" 0
    (Reliable.stats r).Reliable.retransmits

let test_reliable_cap_is_metric_only () =
  let arq =
    { Reliable.rto = 20; backoff = 2; max_rto = 40; retransmit_cap = 2; ack_delay = 5 }
  in
  let faults =
    Fault.make
      ~partitions:
        [ { Fault.from_t = 0; until_t = 900; group = [ Address.of_string "a" ] } ]
      ()
  in
  let eng, r, (a, _), (b, _), mbb = reliable_setup ~arq ~faults () in
  Reliable.send r ~src:a ~dst:b "stubborn";
  Engine.spawn eng ~name:"recv" (fun () ->
      ignore (Xsim.Mailbox.take eng mbb));
  Engine.run eng;
  let st = Reliable.stats r in
  checki "delivered despite the cap" 1 st.Reliable.app_delivered;
  checkb "cap hit recorded" true (st.Reliable.cap_hits > 0)

(* The paper's section 5.2 channel contract as a property: for any fault
   plane with drop < 1 and any seed, every message sent between correct
   processes is delivered exactly once, links independently FIFO. *)
let prop_reliable_exactly_once_fifo =
  let gen =
    QCheck.Gen.(
      quad
        (map (fun n -> float_of_int n /. 20.) (int_bound 15)) (* drop <= .75 *)
        (map (fun n -> float_of_int n /. 20.) (int_bound 10)) (* dup <= .5 *)
        (int_bound 30) (* jitter *)
        (int_bound 10_000) (* seed *))
  in
  let arb =
    QCheck.make
      ~print:(fun (drop, dup, jitter, seed) ->
        Printf.sprintf "drop=%g dup=%g jitter=%d seed=%d" drop dup jitter seed)
      gen
  in
  QCheck.Test.make ~name:"Reliable: exactly-once FIFO per link (section 5.2)"
    ~count:40 arb (fun (drop, dup, jitter, seed) ->
      let eng = Engine.create ~seed () in
      let r =
        Reliable.create eng
          ~faults:(Fault.make ~default:(Fault.link ~drop ~dup ~jitter ()) ())
          ~latency:(Latency.Uniform (5, 25))
          ()
      in
      let reg n =
        let a = Address.of_string n in
        (a, Reliable.register r a ~proc:(Xsim.Proc.create ~name:n))
      in
      let a, _ = reg "a" and c, _ = reg "c" and b, mbb = reg "b" in
      let n = 8 in
      for i = 1 to n do
        Reliable.send r ~src:a ~dst:b ("a", i);
        Reliable.send r ~src:c ~dst:b ("c", i)
      done;
      let got = ref [] in
      Engine.spawn eng ~name:"recv" (fun () ->
          for _ = 1 to 2 * n do
            got := (Xsim.Mailbox.take eng mbb).Xnet.Transport.payload :: !got
          done);
      Engine.run eng;
      let per_link l =
        List.filter_map (fun (m, i) -> if m = l then Some i else None)
          (List.rev !got)
      in
      let expect = List.init n (fun i -> i + 1) in
      Xsim.Mailbox.length mbb = 0
      && per_link "a" = expect
      && per_link "c" = expect)

let test_transport_members_order () =
  let _, tr, (a, _, _), (b, _, _) = setup () in
  Alcotest.(check (list string)) "registration order" [ "a"; "b" ]
    (List.map Address.to_string (Transport.members tr));
  checkb "mailbox lookup" true (Transport.mailbox tr a != Transport.mailbox tr b)

let tc name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* [Transport.link_hash]: the inline integer mix must spread links *)

let test_link_hash_collisions () =
  let addrs =
    List.concat_map
      (fun role -> List.init 32 (fun i -> Address.make ~role ~index:i))
      [ "replica"; "client"; "px" ]
  in
  let seen = Hashtbl.create 4096 in
  let pairs = ref 0 and collisions = ref 0 in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          incr pairs;
          let h = Transport.link_hash a b in
          checkb "non-negative" true (h >= 0);
          (match Hashtbl.find_opt seen h with
          | Some (a', b') when not (Address.equal a a' && Address.equal b b') ->
              incr collisions
          | _ -> ());
          Hashtbl.replace seen h (a, b))
        addrs)
    addrs;
  checki "all ordered pairs hashed" (96 * 96) !pairs;
  (* 9216 pairs into a 62-bit space: any clustering means the mix is
     broken.  Allow a whisker of slack over zero. *)
  checkb
    (Printf.sprintf "collisions (%d) under 1%%" !collisions)
    true
    (!collisions * 100 < !pairs);
  (* Direction matters: a->b and b->a are different links. *)
  let a = Address.make ~role:"replica" ~index:0 in
  let b = Address.make ~role:"replica" ~index:1 in
  checkb "asymmetric" true (Transport.link_hash a b <> Transport.link_hash b a)

(* The address population a 64-shard deployment actually creates: role
   strings carry the shard prefix ("s17.replica"), so the mix has to
   spread structured, highly-similar strings — exactly where a weak
   string hash would cluster. *)
let shard_scale_addrs () =
  List.concat
    (List.init 64 (fun s ->
         List.init 3 (fun i ->
             Address.make ~role:(Printf.sprintf "s%d.replica" s) ~index:i)
         @ List.init 2 (fun i ->
               Address.make ~role:(Printf.sprintf "s%d.client" s) ~index:i)
         @ [ Address.make ~role:"router" ~index:s ]))

let test_link_hash_shard_scale () =
  let addrs = shard_scale_addrs () in
  checki "population" 384 (List.length addrs);
  let seen = Hashtbl.create (1 lsl 18) in
  let pairs = ref 0 and collisions = ref 0 in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          incr pairs;
          let h = Transport.link_hash a b in
          checkb "non-negative" true (h >= 0);
          (match Hashtbl.find_opt seen h with
          | Some (a', b') when not (Address.equal a a' && Address.equal b b') ->
              incr collisions
          | _ -> ());
          Hashtbl.replace seen h (a, b))
        addrs)
    addrs;
  checki "all ordered pairs hashed" (384 * 384) !pairs;
  (* 147k pairs into a 62-bit space: collisions mean the inline integer
     mix degenerates on prefixed role strings. *)
  checki
    (Printf.sprintf "collisions (%d) at shard scale" !collisions)
    0 !collisions

let () =
  Alcotest.run "xnet"
    [
      ( "address",
        [ tc "basics" test_address_basics; tc "ordering" test_address_ordering ]
      );
      ( "latency",
        [
          tc "constant" test_latency_constant;
          tc "uniform bounds" test_latency_uniform_bounds;
          tc "exponential min" test_latency_exponential_min;
          tc "never negative" test_latency_never_negative;
          tc "phases" test_latency_phases;
          tc "pp golden" test_latency_pp_roundtrip;
        ] );
      ( "transport",
        [
          tc "delivery" test_transport_delivery;
          tc "duplicate registration" test_transport_duplicate_registration;
          tc "unknown destination" test_transport_unknown_destination;
          tc "broadcast" test_transport_broadcast;
          tc "fifo" test_transport_fifo;
          tc "per-link fifo" test_transport_per_link_fifo;
          tc "link override" test_transport_link_override;
          tc "stats" test_transport_stats;
          tc "delivery to dead process" test_transport_to_dead_process;
          tc "members order" test_transport_members_order;
        ] );
      ( "faults",
        [
          tc "validation" test_fault_validation;
          tc "partition windows" test_fault_partitioned;
          tc "drop all" test_transport_drop_all;
          tc "duplicate all" test_transport_duplicate_all;
          tc "partition drops then heals" test_transport_partition_window;
          tc "forced fault actions" test_transport_forced_faults;
          tc "sampled faults reproducible" test_transport_faults_reproducible;
        ] );
      ( "reliable",
        [
          tc "delivers under loss" test_reliable_delivers_under_loss;
          tc "partition heals" test_reliable_partition_heals;
          tc "crashed sender stops" test_reliable_crashed_sender_stops;
          tc "retransmit cap is metric-only" test_reliable_cap_is_metric_only;
          QCheck_alcotest.to_alcotest prop_reliable_exactly_once_fifo;
        ] );
      ( "link hash",
        [
          tc "collision sanity" test_link_hash_collisions;
          tc "64-shard population collision-free" test_link_hash_shard_scale;
        ] );
    ]
