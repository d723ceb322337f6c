type 'v t = {
  eng : Xsim.Engine.t;
  rname : string;
  latency : int;
  mutable decided : 'v option;
  mutable proposals : int;
}

let create eng ?(latency = 20) ~name () =
  { eng; rname = name; latency; decided = None; proposals = 0 }

let name t = t.rname

let propose t ?(weight = 1) v =
  t.proposals <- t.proposals + 1;
  let obs_on = Xobs.enabled () in
  let t0 = Xsim.Engine.now t.eng in
  if obs_on then begin
    Xobs.Counter.incr (Xobs.counter "consensus.proposals");
    (* One round-trip to the register = one round. *)
    Xobs.Counter.incr (Xobs.counter "consensus.rounds");
    (* Aggregate values (batched requests) ride one round-trip no matter
       their cardinality; make the amortization visible. *)
    if weight > 1 then begin
      Xobs.Counter.incr (Xobs.counter "consensus.aggregate_values");
      Xobs.Histogram.record (Xobs.histogram "consensus.value_weight") weight
    end
  end;
  (* Request travels to the register... *)
  Xsim.Engine.sleep t.eng t.latency;
  (* ...the decision point is atomic at the register... *)
  let decided = match t.decided with
    | Some d -> d
    | None ->
        t.decided <- Some v;
        if obs_on then Xobs.Counter.incr (Xobs.counter "consensus.decisions");
        v
  in
  (* ...and the reply travels back. *)
  Xsim.Engine.sleep t.eng t.latency;
  if obs_on then
    Xobs.Span.record (Xobs.span "consensus.propose") ~t0 ~t1:(Xsim.Engine.now t.eng);
  decided

(* Leased fast path: decide without the round trip (first value wins) —
   models the lease holder owning the register's decision right, so no
   wire exchange is needed.  Zero latency, zero modelled messages; sound
   only under a valid lease, checked atomically by the caller. *)
let decide_if_unset t v =
  match t.decided with
  | Some d -> d
  | None ->
      t.decided <- Some v;
      if Xobs.enabled () then
        Xobs.Counter.incr (Xobs.counter "consensus.decisions");
      v

let read t =
  Xsim.Engine.sleep t.eng t.latency;
  let d = t.decided in
  Xsim.Engine.sleep t.eng t.latency;
  d

let peek t = t.decided
let propose_count t = t.proposals
