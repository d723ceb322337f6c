type t =
  | Nil
  | Unit
  | Bool of bool
  | Int of int
  | Str of string
  | Pair of t * t
  | List of t list
[@@deriving show, eq, ord]

let nil = Nil
let unit = Unit
let bool b = Bool b
let int i = Int i
let str s = Str s
let pair a b = Pair (a, b)
let list xs = List xs

(* One printer for both forms.  [Str] is quoted and escaped as [%S]
   does; this runs for every checker group key, so no [Format]. *)
let rec add_compact b = function
  | Nil -> Buffer.add_string b "nil"
  | Unit -> Buffer.add_string b "()"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (String.escaped s);
      Buffer.add_char b '"'
  | Pair (x, y) ->
      Buffer.add_char b '(';
      add_compact b x;
      Buffer.add_char b ',';
      add_compact b y;
      Buffer.add_char b ')'
  | List xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ';';
          add_compact b v)
        xs;
      Buffer.add_char b ']'

let to_string t =
  let b = Buffer.create 32 in
  add_compact b t;
  Buffer.contents b

let pp_compact ppf t = Format.pp_print_string ppf (to_string t)

(* Structural hash compatible with [equal].  Unlike the polymorphic
   [Hashtbl.hash], this folds the whole value — the default's node limit
   would collapse deep round-tagged inputs onto a handful of buckets. *)
let rec hash = function
  | Nil -> 3
  | Unit -> 5
  | Bool false -> 7
  | Bool true -> 11
  | Int i -> i lxor 0x2545f491
  | Str s -> Hashtbl.hash s
  | Pair (a, b) -> (((hash a * 0x01000193) lxor hash b) * 0x01000193) lxor 13
  | List xs ->
      List.fold_left (fun acc v -> (acc * 0x01000193) lxor hash v) 17 xs

let as_int = function Int i -> Some i | _ -> None
let as_str = function Str s -> Some s | _ -> None
let as_pair = function Pair (a, b) -> Some (a, b) | _ -> None
let as_bool = function Bool b -> Some b | _ -> None
let as_list = function List xs -> Some xs | _ -> None
