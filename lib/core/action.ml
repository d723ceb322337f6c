type kind = Idempotent | Undoable [@@deriving show, eq, ord]
type name = string [@@deriving show, eq, ord]
type variant = Exec | Cancel | Commit [@@deriving show, eq, ord]

let cancel_suffix = "!cancel"
let commit_suffix = "!commit"

let valid_base name = String.length name > 0 && not (String.contains name '!')

let check_base name =
  if not (valid_base name) then
    invalid_arg (Printf.sprintf "Action: invalid base name %S" name)

let cancel_name name =
  check_base name;
  name ^ cancel_suffix

let commit_name name =
  check_base name;
  name ^ commit_suffix

let strip ~suffix name =
  String.sub name 0 (String.length name - String.length suffix)

let split name =
  if String.ends_with ~suffix:cancel_suffix name then
    (strip ~suffix:cancel_suffix name, Cancel)
  else if String.ends_with ~suffix:commit_suffix name then
    (strip ~suffix:commit_suffix name, Commit)
  else (name, Exec)

let base name = fst (split name)
let variant_of name = snd (split name)
let is_base name = match variant_of name with Exec -> true | _ -> false
