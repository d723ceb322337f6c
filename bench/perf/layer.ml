(* Host-cost attribution measured from outside the program.

   The engine offers every scheduling decision to a chooser with the
   labels of the events up next.  An identity chooser that only looks at
   the clock and the allocation counter charges everything the host did
   since the previous decision to the layer of the event that ran in
   between, so the program itself carries no probes. *)

type t = Net | Timer | Detect | Replication | Consensus | Sm | Client

let all = [ Net; Timer; Detect; Replication; Consensus; Sm; Client ]

let index = function
  | Net -> 0
  | Timer -> 1
  | Detect -> 2
  | Replication -> 3
  | Consensus -> 4
  | Sm -> 5
  | Client -> 6

let prefix_at s off p =
  let n = String.length p in
  String.length s - off >= n
  &&
  let rec go i = i = n || (s.[off + i] = p.[i] && go (i + 1)) in
  go 0

(* Fiber labels are ["resume:" ^ fiber] and ["spawn:" ^ fiber]; fiber
   names start with the owning node's address ("replica" for replica 0,
   "replica.1", ...) or with the module that spawned them. *)
let of_fiber s off =
  if prefix_at s off "replica" then Some Replication
  else if prefix_at s off "seqlog:" || prefix_at s off "paxos:" then
    Some Consensus
  else if prefix_at s off "env-worker:" then Some Sm
  else if prefix_at s off "client-demux:" || prefix_at s off "workload" then
    Some Client
  else if prefix_at s off "hb-" then Some Detect
  else None

let of_label s =
  if prefix_at s 0 "net:" || prefix_at s 0 "netdup:" then Some Net
  else if String.equal s "timer" then Some Timer
  else if String.equal s "cb" then Some Detect
  else if prefix_at s 0 "resume:" then of_fiber s 7
  else if prefix_at s 0 "spawn:" then of_fiber s 6
  else None

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Slot [n_layers] collects events whose label maps to no layer; a run
   that fills it is reported as incorrect, so there is no silent
   "other" bucket. *)
let n_layers = List.length all

type tracer = {
  ns : int array;
  words : float array;
  events : int array;
  pending : int array;
      (* events queued at the decision points that closed each slot's
         intervals: the size of the scan the engine made there *)
  unknown : (string, unit) Hashtbl.t;
  mutable current : int;  (* slot of the running event; -1 while building *)
  mutable t_mark : int;
  mutable w_mark : float;
  mutable build_ns : int;
  mutable verify_ns : int;
  mutable harness_words : float;  (* allocated while building and verifying *)
  mutable decisions : int;
  mutable check_ns : int;  (* the separately timed [Checker.check] calls *)
  mutable check_words : float;
  mutable check_events : int;
}

let create () =
  {
    ns = Array.make (n_layers + 1) 0;
    words = Array.make (n_layers + 1) 0.0;
    events = Array.make (n_layers + 1) 0;
    pending = Array.make (n_layers + 1) 0;
    unknown = Hashtbl.create 4;
    current = -1;
    t_mark = 0;
    w_mark = 0.0;
    build_ns = 0;
    verify_ns = 0;
    harness_words = 0.0;
    decisions = 0;
    check_ns = 0;
    check_words = 0.0;
    check_events = 0;
  }

(* Call just before [Runner.run]: time up to the first decision point is
   the harness building the deployment. *)
let start tr =
  tr.current <- -1;
  tr.t_mark <- now_ns ();
  tr.w_mark <- Gc.minor_words ()

let note tr ~pending label =
  let t = now_ns () in
  let w = Gc.minor_words () in
  let dt = t - tr.t_mark in
  (if tr.current < 0 then begin
     tr.build_ns <- tr.build_ns + dt;
     tr.harness_words <- tr.harness_words +. (w -. tr.w_mark)
   end
   else
     let i = tr.current in
     tr.ns.(i) <- tr.ns.(i) + dt;
     tr.words.(i) <- tr.words.(i) +. (w -. tr.w_mark);
     tr.events.(i) <- tr.events.(i) + 1;
     tr.pending.(i) <- tr.pending.(i) + pending);
  tr.decisions <- tr.decisions + 1;
  tr.current <-
    (match of_label label with
    | Some l -> index l
    | None ->
        Hashtbl.replace tr.unknown label ();
        n_layers);
  tr.t_mark <- t;
  tr.w_mark <- w

(* Call just after [Runner.run] returns: time since the last decision
   point is the harness verifying the run. *)
let stop tr =
  tr.verify_ns <- tr.verify_ns + (now_ns () - tr.t_mark);
  tr.harness_words <- tr.harness_words +. (Gc.minor_words () -. tr.w_mark);
  tr.current <- -1

let chooser tr eng ~step:_ ~ready =
  note tr ~pending:(Xsim.Engine.pending_events eng) ready.(0);
  0

(* What tracing adds to the interval a decision point closes, as
   [fixed + per_pending * queued events]: before a chooser sees a
   decision the engine scans every queued event and allocates for each
   ([Heap.smallest]) where an untraced run pops the heap, and [note]
   reads the clock. *)
type cost = { fixed : float; per_pending : float }

type overhead = { ns : cost; words : cost }

(* A chain of trivial events over [queued] idle ones, run plain, with a
   chooser that only picks, or traced; host ns and minor words per event,
   the time being the fastest of five runs, as other tenants of the
   machine only ever add time. *)
let synthetic ~queued mode =
  let steps = 4_000 in
  let once () =
    let eng = Xsim.Engine.create ~trace_enabled:false () in
    for _ = 1 to queued do
      Xsim.Engine.schedule eng ~delay:(steps + 10) ignore
    done;
    let left = ref steps in
    let rec step () =
      decr left;
      if !left > 0 then Xsim.Engine.schedule eng ~label:"timer" ~delay:1 step
      else Xsim.Engine.request_stop eng
    in
    Xsim.Engine.schedule eng ~label:"timer" ~delay:1 step;
    let tr = create () in
    (match mode with
    | `Plain -> ()
    | `Pick -> Xsim.Engine.set_chooser eng ~window:2 (Some (fun ~step:_ ~ready:_ -> 0))
    | `Trace -> Xsim.Engine.set_chooser eng ~window:2 (Some (chooser tr eng)));
    start tr;
    let w0 = Gc.minor_words () and t0 = now_ns () in
    Xsim.Engine.run ~limit:(steps + 20) eng;
    ( float_of_int (now_ns () - t0) /. float_of_int steps,
      (Gc.minor_words () -. w0) /. float_of_int steps )
  in
  let runs = List.init 5 (fun _ -> once ()) in
  (List.fold_left (fun m (ns, _) -> Float.min m ns) infinity runs, snd (List.hd runs))

(* [picks]: the untraced workload installs a chooser of its own (a random
   walk), so the engine's scan is the workload's cost, not the tracer's. *)
let calibrate ~picks =
  let extra queued =
    let t_ns, t_w = synthetic ~queued `Trace in
    let b_ns, b_w = synthetic ~queued (if picks then `Pick else `Plain) in
    (t_ns -. b_ns, t_w -. b_w)
  in
  let small = 16 and large = 64 in
  let (s_ns, s_w), (l_ns, l_w) = (extra small, extra large) in
  let fit s l =
    let per_pending = (l -. s) /. float_of_int (large - small) in
    { fixed = s -. (per_pending *. float_of_int (small + 1)); per_pending }
  in
  { ns = fit s_ns l_ns; words = fit s_w l_w }

type attribution = {
  slot_ns : float array;
  slot_words : float array;
  build : float;  (** ns *)
  verify : float;  (** ns *)
  time_fit : float;
  words_fit : float;
      (** what the slots, less the calibrated overhead, add up to (with
          build and verify) as a share of the untraced pass: 1 when the
          model of the overhead is exact *)
}

(* Each slot's time and allocation less what tracing added to it, then
   scaled so that all of them add up to [host_ns] and [words], the
   untraced cost of the same runs.  The scaling takes up what the calibration misses: the
   extra minor collections tracing's allocation causes in a real heap,
   and other tenants' interference with the traced pass. *)
let attribute tr o ~host_ns ~words =
  let less (c : cost) i =
    (c.fixed *. float_of_int tr.events.(i))
    +. (c.per_pending *. float_of_int tr.pending.(i))
  in
  let ns = Array.mapi (fun i ns -> float_of_int ns -. less o.ns i) tr.ns in
  let ws = Array.mapi (fun i w -> w -. less o.words i) tr.words in
  let sum = Array.fold_left ( +. ) 0.0 in
  let time_fit =
    (sum ns +. float_of_int (tr.build_ns + tr.verify_ns)) /. host_ns
  in
  let words_fit = (sum ws +. tr.harness_words) /. words in
  {
    slot_ns = Array.map (fun x -> x /. time_fit) ns;
    slot_words = Array.map (fun x -> x /. words_fit) ws;
    build = float_of_int tr.build_ns /. time_fit;
    verify = float_of_int tr.verify_ns /. time_fit;
    time_fit;
    words_fit;
  }

let unknown_labels tr =
  List.sort compare (Hashtbl.fold (fun l () acc -> l :: acc) tr.unknown [])
