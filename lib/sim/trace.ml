type entry = { time : int; source : string; text : string }

(* Entries live in a circular buffer.  With [capacity = None] the buffer
   grows without bound (doubling), preserving the seed behaviour; with
   [Some n] the buffer holds the most recent [n] entries and older ones
   fall off — million-schedule exploration runs keep memory flat.  The
   running [fingerprint] folds over *every* recorded entry, retained or
   not, so determinism checks are insensitive to the capacity. *)
type t = {
  mutable buf : entry array;
  mutable start : int;  (* index of the oldest retained entry *)
  mutable len : int;  (* retained entries *)
  capacity : int option;
  mutable count : int;  (* total entries ever recorded *)
  mutable enabled : bool;
  mutable fp : int;
}

let dummy = { time = 0; source = ""; text = "" }

let create ?capacity ?(enabled = true) () =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Trace.create: capacity must be positive"
  | _ -> ());
  { buf = [||]; start = 0; len = 0; capacity; count = 0; enabled; fp = 0 }

let set_enabled t b = t.enabled <- b
let is_enabled t = t.enabled

let fold_fp fp (e : entry) =
  let h acc x = (acc * 0x01000193) lxor x in
  let acc = h fp e.time in
  let acc = h acc (Hashtbl.hash e.source) in
  h acc (Hashtbl.hash e.text)

let push t e =
  let cap = Array.length t.buf in
  if t.len = cap then begin
    match t.capacity with
    | Some c when cap = c ->
        (* Full ring: overwrite the oldest. *)
        t.buf.((t.start + t.len) mod cap) <- e;
        t.start <- (t.start + 1) mod cap
    | _ ->
        (* Grow (to the capacity bound, if any). *)
        let new_cap =
          let doubled = if cap = 0 then 16 else cap * 2 in
          match t.capacity with Some c -> min c doubled | None -> doubled
        in
        let buf = Array.make new_cap dummy in
        for i = 0 to t.len - 1 do
          buf.(i) <- t.buf.((t.start + i) mod cap)
        done;
        t.buf <- buf;
        t.start <- 0;
        t.buf.(t.len) <- e;
        t.len <- t.len + 1
  end
  else begin
    t.buf.((t.start + t.len) mod cap) <- e;
    t.len <- t.len + 1
  end

let record t ~time ~source text =
  if t.enabled then begin
    let e = { time; source; text } in
    push t e;
    t.count <- t.count + 1;
    t.fp <- fold_fp t.fp e
  end

let entries t = List.init t.len (fun i -> t.buf.((t.start + i) mod Array.length t.buf))

let by_source t source =
  List.filter (fun e -> String.equal e.source source) (entries t)

let length t = t.count
let retained t = t.len
let dropped t = t.count - t.len
let fingerprint t = t.fp

let clear t =
  t.buf <- [||];
  t.start <- 0;
  t.len <- 0;
  t.count <- 0;
  t.fp <- 0

let pp_entry ppf e = Format.fprintf ppf "[%8d] %-14s %s" e.time e.source e.text

let dump ppf t =
  List.iter (fun e -> Format.fprintf ppf "%a@." pp_entry e) (entries t)

(* ------------------------------------------------------------------ *)
(* Structured export: one JSON object per line, machine-readable CI
   artifacts.  Hand-rolled emitter; the repo takes no JSON dependency. *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let entry_to_json e =
  Printf.sprintf {|{"time":%d,"source":"%s","text":"%s"}|} e.time
    (json_escape e.source) (json_escape e.text)

let to_jsonl t = List.map entry_to_json (entries t)

let pp_jsonl ppf t =
  List.iter (fun line -> Format.fprintf ppf "%s@." line) (to_jsonl t)
