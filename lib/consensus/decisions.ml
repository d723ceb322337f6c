type t = { mutable ids : string array; mutable len : int }

let create () = { ids = [||]; len = 0 }

let add t id =
  if t.len = Array.length t.ids then begin
    let ids = Array.make (max 16 (2 * t.len)) "" in
    Array.blit t.ids 0 ids 0 t.len;
    t.ids <- ids
  end;
  t.ids.(t.len) <- id;
  t.len <- t.len + 1

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Decisions.get";
  t.ids.(i)
