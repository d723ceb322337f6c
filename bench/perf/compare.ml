(* [xbench compare BASE NEW]: judge two sets of benchmark runs against
   the direction and bound BENCHMARK.json gives each metric.  A set is a
   directory holding [<workload>.jsonl], one run's output line per line. *)

module Json = Xworkload.Bench_compare.Json

type metric_spec = {
  name : string;
  higher_better : bool;
  bound : float option;  (** [None] for per-layer metrics: shown, not judged *)
}

let field k = function Json.Obj kv -> List.assoc_opt k kv | _ -> None

let read_file path = In_channel.with_open_bin path In_channel.input_all

let load_spec path =
  let j = Json.parse (read_file path) in
  let list k = match field k j with Some (Json.List l) -> l | _ -> [] in
  let str k o = match field k o with Some (Json.Str s) -> s | _ -> "" in
  let metric o =
    {
      name = str "name" o;
      higher_better = String.equal (str "better" o) "higher";
      bound = (match field "bound" o with Some (Json.Num b) -> Some b | _ -> None);
    }
  in
  ( List.map (str "name") (list "workloads"),
    List.map metric (list "end_to_end" @ list "per_layer") )

(* The metric values of each run in a [.jsonl] file. *)
let load_runs path =
  String.split_on_char '\n' (read_file path)
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun line ->
         match field "metrics" (Json.parse line) with
         | Some (Json.Obj ms) ->
             List.filter_map
               (fun (k, v) ->
                 match field "value" v with
                 | Some (Json.Num x) -> Some (k, x)
                 | _ -> None)
               ms
         | _ -> [])

(* First and third quartiles as Python's [statistics.quantiles(xs, n=4)]
   computes them (the "exclusive" method). *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let ld = Array.length a in
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.0
  in
  (q 1, q 3)

(* Interquartile distance as a share of the median; 0 below two runs. *)
let spread xs =
  if List.length xs < 2 then 0.0
  else
    let q1, q3 = quartiles xs in
    (q3 -. q1) /. Float.abs (Perf.median xs)

type verdict = Same | Regressed | Improved | Unresolved | Shown

let verdict_name = function
  | Same -> "same"
  | Regressed -> "REGRESSED"
  | Improved -> "improved"
  | Unresolved -> "unresolved"
  | Shown -> "-"

(* How much worse [n] is than [b], as a share of [b]; negative is better. *)
let worse spec b n =
  let d = if spec.higher_better then b -. n else n -. b in
  if b = 0.0 then if d = 0.0 then 0.0 else Float.of_int (compare d 0.0) *. infinity
  else d /. Float.abs b

(* A metric whose run-to-run spread exceeds its bound is unresolved,
   unless every new run reads better (or worse) than every base run. *)
let judge spec base_runs new_runs =
  match spec.bound with
  | None -> Shown
  | Some bound ->
      let w = worse spec (Perf.median base_runs) (Perf.median new_runs) in
      let all_pairs p =
        List.for_all (fun b -> List.for_all (fun n -> p (worse spec b n)) new_runs) base_runs
      in
      if Float.max (spread base_runs) (spread new_runs) > bound then
        if all_pairs (fun d -> d < 0.0) then Improved
        else if all_pairs (fun d -> d > 0.0) then Regressed
        else Unresolved
      else if w > bound then Regressed
      else if w < -.bound then Improved
      else Same

(* Print one row per (workload, metric) found in both sets; returns the
   number of regressions. *)
let run ~spec_path ~base ~new_ ppf =
  let workloads, specs = load_spec spec_path in
  Format.fprintf ppf "%-8s %-34s %14s %14s %9s %8s %6s  %s@." "workload" "metric"
    "base median" "new median" "worse" "spread" "bound" "verdict";
  let regressions = ref 0 in
  List.iter
    (fun w ->
      let file dir = Filename.concat dir (w ^ ".jsonl") in
      if Sys.file_exists (file base) && Sys.file_exists (file new_) then begin
        let b = load_runs (file base) and n = load_runs (file new_) in
        List.iter
          (fun spec ->
            let values runs = List.filter_map (List.assoc_opt spec.name) runs in
            match (values b, values n) with
            | [], _ | _, [] -> ()
            | bv, nv ->
                let v = judge spec bv nv in
                if v = Regressed then incr regressions;
                Format.fprintf ppf "%-8s %-34s %14.6g %14.6g %8.2f%% %7.2f%% %6s  %s@." w
                  spec.name (Perf.median bv) (Perf.median nv)
                  (100.0 *. worse spec (Perf.median bv) (Perf.median nv))
                  (100.0 *. Float.max (spread bv) (spread nv))
                  (match spec.bound with
                  | Some x -> Printf.sprintf "%.0f%%" (100.0 *. x)
                  | None -> "-")
                  (verdict_name v))
          specs
      end)
    workloads;
  !regressions
