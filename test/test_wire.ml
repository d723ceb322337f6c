(* Tests for the one wire representation: the transport hands every
   receiver the sender's own value, by pointer, and schedule lines
   recorded while a second, byte-encoded representation existed
   (codec=flat) still replay to the run they name.  The case names are
   the ones these checks had when that second representation existed. *)

module Engine = Xsim.Engine
module Address = Xnet.Address
module Latency = Xnet.Latency
module Transport = Xnet.Transport
module Schedule = Xexplore.Schedule
module Explorer = Xexplore.Explorer

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let pointer_setup ?faults () =
  let eng = Engine.create ~seed:5 () in
  let tr = Transport.create eng ?faults ~latency:(Latency.Constant 10) () in
  let a = Address.of_string "a" and b = Address.of_string "b" in
  ignore (Transport.register tr a ~proc:(Xsim.Proc.create ~name:"a"));
  let mbb = Transport.register tr b ~proc:(Xsim.Proc.create ~name:"b") in
  (eng, tr, a, b, mbb)

let test_transport_delivers_sender_value () =
  let eng, tr, a, b, mbb = pointer_setup () in
  let msg = ref "hello" in
  Transport.send tr ~src:a ~dst:b msg;
  let got = ref None in
  Engine.spawn eng ~name:"recv" (fun () ->
      got := Some (Xsim.Mailbox.take eng mbb).Transport.payload);
  Engine.run eng;
  match !got with
  | Some m ->
      checkb "payload is the sender's value" true (m == msg);
      Alcotest.(check string) "contents intact" "hello" !m
  | None -> Alcotest.fail "payload lost"

let test_transport_duplicate_shares_value () =
  let eng, tr, a, b, mbb =
    pointer_setup
      ~faults:(Xnet.Fault.make ~forced:[ (0, Xnet.Fault.Duplicate) ] ())
      ()
  in
  let msg = ref "dup" in
  Transport.send tr ~src:a ~dst:b msg;
  let got = ref [] in
  Engine.spawn eng ~name:"recv" (fun () ->
      for _ = 1 to 2 do
        got := (Xsim.Mailbox.take eng mbb).Transport.payload :: !got
      done);
  Engine.run eng;
  checki "both copies delivered" 2 (List.length !got);
  checkb "both copies are the sender's value" true
    (List.for_all (fun m -> m == msg) !got);
  checki "one send, one duplicate" 1 (Transport.stats tr).Transport.duplicated

let identity_pool1 = lazy (Xpar.Pool.create ~domains:1 ())
let identity_pool4 = lazy (Xpar.Pool.create ~domains:4 ())

(* Schedule lines recorded while the wire had a second representation
   carry codec=flat; such a line replays to the run the line names
   without the token: same violations, same replies, same trace, at one
   and at four domains.  The fault bits pick loss, a replica crash and
   batching. *)
let prop_codec_line_identity =
  QCheck.Test.make
    ~name:"flat codec: verdicts and replies of a codec=flat line equal the token-free line (JOBS=1/4)"
    ~count:4
    QCheck.(pair (int_bound 10_000) (int_bound 15))
    (fun (seed, fault) ->
      let sc = Explorer.booking ~requests:2 () in
      let faults =
        if fault land 1 = 1 then { Schedule.no_faults with Schedule.loss = 0.15 }
        else Schedule.no_faults
      in
      let crashes =
        if fault land 2 <> 0 then [ (150 + (seed mod 300), (fault lsr 3) mod 3) ]
        else []
      in
      let batching = if fault land 4 <> 0 then Some (4, 2, 100) else None in
      let line =
        Schedule.to_string (Schedule.make ~faults ~crashes ?batching ~seed ())
      in
      let run line =
        match
          Result.bind (Schedule.parse line) (fun sch ->
              Result.map (fun () -> sch) (Explorer.check sc sch))
        with
        | Error why -> QCheck.Test.fail_reportf "%S rejected: %s" line why
        | Ok sch ->
            let o, r, trace = Explorer.replay ~with_trace:true sc sch in
            ( o.Explorer.violations,
              List.sort compare
                (List.map
                   (fun (s : Xworkload.Runner.submission) ->
                     ( Xability.Value.to_string s.req.Xsm.Request.input,
                       Xability.Value.to_string s.reply ))
                   r.Xworkload.Runner.submissions),
              Xsim.Trace.fingerprint trace )
      in
      let lines = [ line; line ^ " codec=flat" ] in
      let jobs1 = Xpar.Pool.map (Lazy.force identity_pool1) run lines in
      let jobs4 = Xpar.Pool.map (Lazy.force identity_pool4) run lines in
      (match jobs1 with
      | [ plain; flat ] ->
          if plain <> flat then
            QCheck.Test.fail_reportf "%S: codec=flat replays a different run"
              line
      | _ -> assert false);
      if jobs1 <> jobs4 then
        QCheck.Test.fail_reportf "%S: JOBS=1 and JOBS=4 disagree" line;
      true)

let tc name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "xwire"
    [
      ( "flat transport",
        [
          tc "delivers decoded payload" test_transport_delivers_sender_value;
          tc "duplicate shares encoding" test_transport_duplicate_shares_value;
        ] );
      ("identity", [ QCheck_alcotest.to_alcotest prop_codec_line_identity ]);
    ]
