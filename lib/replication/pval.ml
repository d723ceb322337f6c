(** Values decided by the protocol's consensus objects, and the naming of
    consensus instances (paper section 5.4).

    The server side uses three agreement families:
    - {e owner-agreement}, one instance per (request, round): which replica
      owns the round, together with the request and the client's address
      (so a cleaner can take over and still answer the client);
    - {e result-agreement}, one instance per (request, round) of an
      idempotent action: the result the service will report for that
      round, or [None] ("empty-result") when a cleaner vetoed the round;
    - {e outcome-agreement}, one instance per (request, round) of an
      undoable action: commit-with-result or abort.

    The paper indexes these arrays by requests whose parameters include the
    round number; we flatten that indexing into string instance ids. *)

open Xability

type outcome = Commit | Abort

type t =
  | Owner of {
      owner : Xnet.Address.t;
      req : Xsm.Request.t;
      client : Xnet.Address.t;
    }
  | Result of Value.t option  (** [None] is the paper's [empty-result] *)
  | Outcome of { outcome : outcome; result : Value.t option }
  | Batch of {
      owner : Xnet.Address.t;
      bid : int;  (** the owner's local batch counter: (owner, bid) is the
                      batch's identity, used to detect losing a slot race *)
      members : (Xsm.Request.t * Xnet.Address.t) list;
    }
      (** owner-agreement over a whole batch: one slot of the global batch
          log claims round 1 of every member request at once (sound
          because x-ability is closed under composition, Section 4) *)
  | Batch_outcome of {
      outcome : outcome;
      results : (int * Value.t option) list;  (** per member rid *)
    }
      (** result/outcome-agreement for a whole slot: [Commit] carries the
          per-member results ([None] = member skipped because an earlier
          slot already claimed its rid); [Abort] vetoes every member, the
          cleaner's abort-all (all results [None]) *)
  | Leased of { epoch : int; inner : t }
      (** a decision taken on the leased fast path, fenced by the lease
          epoch it was taken under ({!Lease}); [inner] is the ordinary
          decision value and is never itself [Leased] *)

let owner_inst ~rid ~round = Printf.sprintf "o/%d/%d" rid round
let result_inst ~rid ~round = Printf.sprintf "r/%d/%d" rid round
let outcome_inst ~rid ~round = Printf.sprintf "x/%d/%d" rid round

(* The batch log: slot [n] of a single global sequence shared by all
   replicas, and its outcome instance.  Slots are proposed in order, so
   decided slots always form a contiguous prefix. *)
let batch_inst ~slot = Printf.sprintf "b/%d" slot
let batch_outcome_inst ~slot = Printf.sprintf "y/%d" slot

let parse_batch_inst s =
  match String.split_on_char '/' s with
  | [ "b"; slot ] -> int_of_string_opt slot
  | _ -> None

(** Parse an owner instance id back into (rid, round). *)
let parse_owner_inst s =
  match String.split_on_char '/' s with
  | [ "o"; rid; round ] -> (
      match (int_of_string_opt rid, int_of_string_opt round) with
      | Some rid, Some round -> Some (rid, round)
      | _ -> None)
  | _ -> None

let outcome_to_string = function Commit -> "commit" | Abort -> "abort"

(* Unwrap the lease fence: protocol logic matches on the ordinary
   constructors; the epoch is evidence, not meaning. *)
let strip = function Leased { inner; _ } -> inner | v -> v

let lease_epoch = function Leased { epoch; _ } -> Some epoch | _ -> None

let rec pp ppf = function
  | Leased { epoch; inner } -> Format.fprintf ppf "Leased(e%d,%a)" epoch pp inner
  | Owner { owner; req; _ } ->
      Format.fprintf ppf "Owner(%a,%s)" Xnet.Address.pp owner
        (Xsm.Request.show req)
  | Result None -> Format.fprintf ppf "Result(empty)"
  | Result (Some v) -> Format.fprintf ppf "Result(%a)" Value.pp_compact v
  | Outcome { outcome; result } ->
      Format.fprintf ppf "Outcome(%s,%s)"
        (outcome_to_string outcome)
        (match result with
        | None -> "empty"
        | Some v -> Value.to_string v)
  | Batch { owner; bid; members } ->
      Format.fprintf ppf "Batch(%a#%d,[%s])" Xnet.Address.pp owner bid
        (String.concat ";"
           (List.map
              (fun ((r : Xsm.Request.t), _) -> string_of_int r.rid)
              members))
  | Batch_outcome { outcome; results } ->
      Format.fprintf ppf "BatchOutcome(%s,[%s])"
        (outcome_to_string outcome)
        (String.concat ";"
           (List.map
              (fun (rid, v) ->
                Printf.sprintf "%d=%s" rid
                  (match v with
                  | None -> "empty"
                  | Some v -> Value.to_string v))
              results))
