open Xability

type t = {
  rid : int;
  action : Action.name;
  kind : Action.kind;
  round : int;
  input : Value.t;
}

let make ~rid ~action ~kind ~input =
  if not (Action.is_base action) then
    invalid_arg "Request.make: action must be a base name";
  { rid; action; kind; round = 1; input }

let with_round t round = { t with round }

let cancel_of t = { t with action = Action.cancel_name (Action.base t.action) }
let commit_of t = { t with action = Action.commit_name (Action.base t.action) }

let variant t = Action.variant_of t.action
let base_action t = Action.base t.action

let logical_iv t = Value.pair (Value.int t.rid) t.input

let env_iv t =
  match t.kind with
  | Action.Idempotent -> logical_iv t
  | Action.Undoable ->
      Value.pair (Value.str "round")
        (Value.pair (Value.int t.round) (logical_iv t))

let logical_of_env_iv _action iv =
  match iv with
  | Value.Pair (Value.Str "round", Value.Pair (Value.Int _, logical)) ->
      logical
  | v -> v

let round_of_env_iv = function
  | Value.Pair (Value.Str "round", Value.Pair (Value.Int r, _)) -> Some r
  | _ -> None

let key t = base_action t ^ "#" ^ string_of_int t.rid
let pp_key ppf t = Format.pp_print_string ppf (key t)
let round_key t = Printf.sprintf "%s#%d@%d" (base_action t) t.rid t.round

let pp ppf t =
  Format.fprintf ppf "%s(rid=%d,round=%d,%a)" t.action t.rid t.round
    Value.pp_compact t.input

let show t = Format.asprintf "%a" pp t

let equal a b =
  a.rid = b.rid && String.equal a.action b.action && a.round = b.round
  && Value.equal a.input b.input
