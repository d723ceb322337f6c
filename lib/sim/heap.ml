type ('k, 'v) t = {
  mutable data : ('k * 'v) array;
  mutable len : int;
}

let create () = { data = [||]; len = 0 }

let size t = t.len
let is_empty t = t.len = 0

let clear t =
  t.data <- [||];
  t.len <- 0

let grow t =
  let cap = Array.length t.data in
  let new_cap = if cap = 0 then 16 else cap * 2 in
  (* The dummy element is never read below index [len]. *)
  let dummy = t.data.(0) in
  let data = Array.make new_cap dummy in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let swap t i j =
  let tmp = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if fst t.data.(i) < fst t.data.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < t.len && fst t.data.(left) < fst t.data.(!smallest) then
    smallest := left;
  if right < t.len && fst t.data.(right) < fst t.data.(!smallest) then
    smallest := right;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t entry =
  if Array.length t.data = 0 then t.data <- Array.make 16 entry
  else if t.len = Array.length t.data then grow t;
  t.data.(t.len) <- entry;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let add t k v = push t (k, v)

let peek t = if t.len = 0 then None else Some t.data.(0)

let pop t =
  if t.len = 0 then None
  else begin
    let root = t.data.(0) in
    t.len <- t.len - 1;
    if t.len > 0 then begin
      t.data.(0) <- t.data.(t.len);
      sift_down t 0
    end;
    Some root
  end
