(* A schedule is everything that makes one explored run different from
   another: the RNG seed, the protocol variant, the fault plan, and the
   scheduling decisions (choice-point shifts).  Replaying a schedule on
   the same workload reproduces the run byte-for-byte — same virtual
   times, same request ids, same history, same verdict — which is what
   makes shrinking and counterexample dumps trustworthy. *)

(* The network fault plan, in explorer coordinates: probabilities and
   replica indices rather than addresses, so it serializes compactly and
   is independent of how a run names its nodes.  [Explorer.apply]
   converts it to an [Xnet.Fault.t] for the service transport. *)
type fault_plan = {
  loss : float;  (** per-message drop probability on every link *)
  dup_prob : float;  (** per-message duplication probability *)
  jitter : int;  (** extra reorder delay, uniform in [0, jitter] *)
  partitions : (int * int * int list) list;
      (** (start, heal, replica indices severed from the rest) *)
  forced : (int * int) list;
      (** (transport send index, 0 = drop | 1 = duplicate): systematic
          fault events for enumeration strategies *)
}

let no_faults =
  { loss = 0.0; dup_prob = 0.0; jitter = 0; partitions = []; forced = [] }

let faults_are_none f = f = no_faults

type t = {
  seed : int;  (** engine RNG seed *)
  window : int;  (** ready-window width offered to the chooser *)
  mutation : Xreplication.Mutation.t;
  crashes : (int * int) list;  (** (virtual time, replica index) *)
  client_crash_at : int option;
  noise : (float * int * int) option;
      (** oracle false-suspicion noise: (probability, duration, until) *)
  faults : fault_plan;
  batching : (int * int * int) option;
      (** replica-side request batching: (batch size, pipeline depth,
          epoch tick); [None] = per-request protocol *)
  load : (int * int) option;
      (** workload concurrency: (clients, inflight lanes per client);
          [None] = the scenario's own (sequential) load *)
  shards : int option;
      (** shard count override: [Some n] runs the scenario on an [n]-way
          sharded deployment; [None] = the scenario's own (single-group)
          setting *)
  router_blocks : (int * int * int) list;
      (** (from, until, shard): router-directory partitions — the
          router's entry for [shard] is unavailable during the window *)
  lease : bool;
      (** arm the leased-owner fast path; [false] = the scenario's own
          (unleased) setting (the default) *)
  substrate : string option;
      (** consensus substrate override ("register" / "paxos" / "seqlog");
          [None] = the scenario's own setting *)
  shifts : (int * int) list;
      (** sparse scheduling decisions: at choice point [step], pick ready
          entry [k] (> 0) instead of the default front of the queue;
          sorted by step, each shift in [1, window) *)
}

let make ?(window = 4) ?(mutation = Xreplication.Mutation.Faithful)
    ?(crashes = []) ?client_crash_at ?noise ?(faults = no_faults) ?batching
    ?load ?shards
    ?(router_blocks = []) ?(lease = false) ?substrate ?(shifts = []) ~seed () =
  {
    seed;
    window;
    mutation;
    crashes;
    client_crash_at;
    noise;
    faults;
    batching;
    load;
    shards;
    router_blocks;
    lease;
    substrate;
    shifts = List.sort (fun (a, _) (b, _) -> Int.compare a b) shifts;
  }

let equal a b = a = b

(* The replay chooser: look the choice point up in the shift table,
   default to the front of the queue.  Total — steps beyond the recorded
   ones take the default, so a shrunk schedule (fewer shifts) is still a
   valid schedule of the same workload. *)
let chooser t : Xsim.Engine.chooser =
  let tbl = Hashtbl.create (List.length t.shifts) in
  List.iter (fun (s, k) -> Hashtbl.replace tbl s k) t.shifts;
  fun ~step ~ready:_ ->
    match Hashtbl.find_opt tbl step with Some k -> k | None -> 0

(* ------------------------------------------------------------------ *)
(* Serialization: one line of [key=value] tokens.  Floats go through
   %h/float_of_string, which round-trips exactly.                      *)

let string_of_pairs sep pairs =
  if pairs = [] then "-"
  else
    String.concat ","
      (List.map (fun (a, b) -> Printf.sprintf "%d%c%d" a sep b) pairs)

let string_of_partitions ps =
  if ps = [] then "-"
  else
    String.concat ","
      (List.map
         (fun (s, h, idxs) ->
           Printf.sprintf "%d:%d:%s" s h
             (String.concat "." (List.map string_of_int idxs)))
         ps)

let string_of_net f =
  if f.loss = 0.0 && f.dup_prob = 0.0 && f.jitter = 0 then "-"
  else Printf.sprintf "%h:%h:%d" f.loss f.dup_prob f.jitter

(* (from, until, shard) triples, e.g. router-block windows. *)
let string_of_triples ts =
  if ts = [] then "-"
  else
    String.concat ","
      (List.map (fun (f, u, s) -> Printf.sprintf "%d:%d:%d" f u s) ts)

let to_string t =
  let noise =
    match t.noise with
    | None -> "-"
    | Some (p, dur, until) -> Printf.sprintf "%h:%d:%d" p dur until
  in
  (* The sharding tokens are appended only when non-default, keeping
     pre-sharding schedule lines byte-identical. *)
  let shard_tokens =
    (match t.shards with
    | None -> []
    | Some n -> [ Printf.sprintf "shards=%d" n ])
    @
    match t.router_blocks with
    | [] -> []
    | bs -> [ Printf.sprintf "rblk=%s" (string_of_triples bs) ]
  in
  (* Lease/substrate tokens likewise append only when non-default. *)
  let lease_tokens =
    (if t.lease then [ "lease=1" ] else [])
    @ match t.substrate with None -> [] | Some s -> [ "sub=" ^ s ]
  in
  String.concat " "
    (Printf.sprintf
       "v1 seed=%d win=%d mut=%s crashes=%s ccrash=%s noise=%s net=%s \
        parts=%s netf=%s bat=%s load=%s shifts=%s"
       t.seed t.window
    (Xreplication.Mutation.to_string t.mutation)
    (string_of_pairs ':' t.crashes)
    (match t.client_crash_at with None -> "-" | Some at -> string_of_int at)
    noise
    (string_of_net t.faults)
    (string_of_partitions t.faults.partitions)
    (string_of_pairs ':' t.faults.forced)
    (match t.batching with
    | None -> "-"
    | Some (size, depth, tick) -> Printf.sprintf "%d:%d:%d" size depth tick)
    (match t.load with
    | None -> "-"
    | Some (c, k) -> Printf.sprintf "%d:%d" c k)
       (string_of_pairs ':' t.shifts)
    :: (shard_tokens @ lease_tokens))

(* ------------------------------------------------------------------ *)
(* Parsing.  The schedule line is untrusted input, so every token is
   checked for range as well as syntax: a line that parses replays
   without tripping an assertion.  (Crash indices are the one exception;
   their range depends on the deployment, see [Explorer.check].)  A
   value parser returns the reason a value is bad; [parse] prefixes the
   offending token.                                                    *)

let ( let* ) = Result.bind

let int_ok what s =
  match int_of_string_opt s with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "%s is not an integer" what)

let nat what s =
  let* n = int_ok what s in
  if n >= 0 then Ok n else Error (Printf.sprintf "negative %s" what)

let positive what s =
  let* n = int_ok what s in
  if n >= 1 then Ok n else Error (Printf.sprintf "%s below 1" what)

(* [nan] fails both comparisons, so it is rejected too. *)
let prob what s =
  match float_of_string_opt s with
  | Some p when p >= 0.0 && p <= 1.0 -> Ok p
  | Some _ -> Error (Printf.sprintf "%s not in [0,1]" what)
  | None -> Error (Printf.sprintf "%s is not a number" what)

(* ["-"] for absent, else [v]. *)
let opt v s = if s = "-" then Ok None else Result.map Option.some (v s)

(* [sep]-separated items, each parsed by [item]. *)
let items sep item s =
  List.fold_right
    (fun tok acc ->
      let* x = item tok in
      let* xs = acc in
      Ok (x :: xs))
    (String.split_on_char sep s) (Ok [])

(* ["-"] for the empty list, else comma-separated items. *)
let list item s = if s = "-" then Ok [] else items ',' item s

let pair a b s =
  match String.split_on_char ':' s with
  | [ x; y ] ->
      let* x = a x in
      let* y = b y in
      Ok (x, y)
  | _ -> Error "expected 2 :-separated fields"

let triple a b c s =
  match String.split_on_char ':' s with
  | [ x; y; z ] ->
      let* x = a x in
      let* y = b y in
      let* z = c z in
      Ok (x, y, z)
  | _ -> Error "expected 3 :-separated fields"

let one_of what choices s =
  match List.assoc_opt s choices with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "unknown %s" what)

let tick = nat "tick"

let partition = triple tick tick (items '.' (nat "replica index"))

let parse line =
  match String.split_on_char ' ' (String.trim line) with
  | "v1" :: toks ->
      let find key =
        let prefix = key ^ "=" in
        List.find_map
          (fun tok ->
            if String.starts_with ~prefix tok then
              Some
                (String.sub tok (String.length prefix)
                   (String.length tok - String.length prefix))
            else None)
          toks
      in
      let check key v value =
        Result.map_error
          (fun why -> Printf.sprintf "bad token '%s=%s': %s" key v why)
          (value v)
      in
      let token key value =
        match find key with
        | Some v -> check key v value
        | None -> Error (Printf.sprintf "missing token '%s='" key)
      in
      (* Tokens added after the first schedule format default when
         absent, so older lines (and shrunk lines that dropped them)
         still parse.  Unknown tokens are ignored. *)
      let token_or key ~default value =
        check key (Option.value (find key) ~default) value
      in
      let* seed = token "seed" (int_ok "seed") in
      let* window = token "win" (positive "window") in
      let* mutation =
        token "mut" (fun s ->
            Option.to_result ~none:"unknown mutation"
              (Xreplication.Mutation.of_string s))
      in
      let* crashes = token "crashes" (list (pair tick (nat "replica index"))) in
      let* client_crash_at = token "ccrash" (opt tick) in
      let* noise =
        token "noise" (opt (triple (prob "probability") tick tick))
      in
      let* shifts = token "shifts" (list (pair (nat "step") (nat "choice"))) in
      let* loss, dup_prob, jitter =
        token_or "net" ~default:"-" (fun s ->
            if s = "-" then Ok (0.0, 0.0, 0)
            else triple (prob "drop") (prob "dup") (nat "jitter") s)
      in
      let* partitions = token_or "parts" ~default:"-" (list partition) in
      let* forced =
        token_or "netf" ~default:"-"
          (list
             (pair (nat "send index")
                (one_of "fault" [ ("0", 0); ("1", 1) ])))
      in
      let* batching =
        token_or "bat" ~default:"-"
          (opt (triple (positive "batch size") (positive "batch depth") tick))
      in
      let* load =
        token_or "load" ~default:"-"
          (opt (pair (positive "clients") (positive "inflight")))
      in
      let* shards = token_or "shards" ~default:"-" (opt (positive "shards")) in
      let* router_blocks =
        token_or "rblk" ~default:"-" (list (triple tick tick (nat "shard")))
      in
      let* lease =
        token_or "lease" ~default:"0"
          (one_of "lease flag" [ ("0", false); ("1", true) ])
      in
      let substrates =
        List.map (fun (n, _) -> (n, Some n)) Xreplication.Coord.substrates
      in
      let* substrate =
        token_or "sub" ~default:"-"
          (one_of "substrate" (("-", None) :: substrates))
      in
      let faults = { loss; dup_prob; jitter; partitions; forced } in
      Ok
        (make ~window ~mutation ~crashes ?client_crash_at ?noise ~faults
           ?batching ?load ?shards ~router_blocks ~lease ?substrate ~shifts
           ~seed ())
  | _ -> Error "not a v1 schedule line"

let of_string line = Result.to_option (parse line)

let pp ppf t = Format.pp_print_string ppf (to_string t)

let to_json t =
  let pairs ps =
    "["
    ^ String.concat "," (List.map (fun (a, b) -> Printf.sprintf "[%d,%d]" a b) ps)
    ^ "]"
  in
  Printf.sprintf
    "{\"seed\":%d,\"window\":%d,\"mutation\":%S,\"crashes\":%s,\"client_crash_at\":%s,\"noise\":%s,\"faults\":%s,\"shifts\":%s}"
    t.seed t.window
    (Xreplication.Mutation.to_string t.mutation)
    (pairs t.crashes)
    (match t.client_crash_at with None -> "null" | Some at -> string_of_int at)
    (match t.noise with
    | None -> "null"
    | Some (p, dur, until) ->
        Printf.sprintf "{\"probability\":%.17g,\"duration\":%d,\"until\":%d}" p
          dur until)
    (if faults_are_none t.faults then "null"
     else
       Printf.sprintf
         "{\"loss\":%.17g,\"dup\":%.17g,\"jitter\":%d,\"partitions\":%s,\"forced\":%s}"
         t.faults.loss t.faults.dup_prob t.faults.jitter
         ("["
         ^ String.concat ","
             (List.map
                (fun (s, h, idxs) ->
                  Printf.sprintf "[%d,%d,[%s]]" s h
                    (String.concat "," (List.map string_of_int idxs)))
                t.faults.partitions)
         ^ "]")
         (pairs t.faults.forced))
    (pairs t.shifts)
  |> fun base ->
  (* Extend the object with the batching/load/sharding dimensions
     when present, keeping pre-batching JSON byte-identical. *)
  let extra =
    (match t.batching with
    | None -> []
    | Some (b, d, tick) ->
        [
          Printf.sprintf
            "\"batching\":{\"size\":%d,\"depth\":%d,\"tick\":%d}" b d tick;
        ])
    @ (match t.load with
      | None -> []
      | Some (c, k) ->
          [ Printf.sprintf "\"load\":{\"clients\":%d,\"inflight\":%d}" c k ])
    @ (match t.shards with
      | None -> []
      | Some n -> [ Printf.sprintf "\"shards\":%d" n ])
    @ (match t.router_blocks with
      | [] -> []
      | bs ->
          [
            Printf.sprintf "\"router_blocks\":[%s]"
              (String.concat ","
                 (List.map
                    (fun (f, u, s) -> Printf.sprintf "[%d,%d,%d]" f u s)
                    bs));
          ])
    @ (if t.lease then [ "\"lease\":true" ] else [])
    @ match t.substrate with None -> [] | Some s -> [ Printf.sprintf "\"substrate\":%S" s ]
  in
  if extra = [] then base
  else
    String.sub base 0 (String.length base - 1)
    ^ "," ^ String.concat "," extra ^ "}"
