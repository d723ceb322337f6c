(* xbench: the host-cost benchmark's command line.

     xbench run --workload NAME --seed N --seconds S --trace 0|1
     xbench compare BASE NEW [--spec BENCHMARK.json]

   [run] prints one JSON object as the last line of standard output and
   exits 1 when the output check fails; the log goes to standard error. *)

open Xperf

let usage =
  "usage: xbench run --workload hot|long|faulty|explore --seed N --seconds S \
   --trace 0|1\n\
  \       xbench compare BASE_DIR NEW_DIR [--spec BENCHMARK.json]"

let fail msg =
  prerr_endline ("xbench: " ^ msg);
  prerr_endline usage;
  exit 2

let parse args specs anon =
  try Arg.parse_argv ~current:(ref 0) args specs anon usage with
  | Arg.Bad m -> fail (List.hd (String.split_on_char '\n' m))
  | Arg.Help _ ->
      print_endline usage;
      exit 0

let run args =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None in
  parse args
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N");
      ("--seconds", Arg.Float (fun s -> seconds := Some s), "S");
      ("--trace", Arg.Int (fun t -> trace := Some t), "0|1");
    ]
    (fun a -> fail ("unexpected argument " ^ a));
  let w =
    match Perf.of_name !workload with
    | Some w -> w
    | None -> fail ("unknown workload " ^ !workload)
  in
  let seed = match !seed with Some s -> s | None -> fail "missing --seed" in
  let seconds =
    match !seconds with
    | Some s when s > 0.0 -> s
    | _ -> fail "--seconds must be positive"
  in
  let traced =
    match !trace with
    | Some 0 -> false
    | Some 1 -> true
    | _ -> fail "--trace must be 0 or 1"
  in
  let r = Perf.run w ~seed ~seconds ~traced in
  prerr_endline ("xbench: " ^ r.Perf.summary);
  List.iter (fun p -> prerr_endline ("xbench: FAILED: " ^ p)) r.Perf.problems;
  print_endline (Perf.to_json r);
  if not r.Perf.correct then exit 1

let compare args =
  let spec = ref "BENCHMARK.json" and dirs = ref [] in
  parse args
    [ ("--spec", Arg.Set_string spec, "FILE") ]
    (fun d -> dirs := !dirs @ [ d ]);
  match !dirs with
  | [ base; new_ ] ->
      if Compare.run ~spec_path:!spec ~base ~new_ Format.std_formatter > 0 then
        exit 1
  | _ -> fail "compare takes two directories"

let () =
  let argv = Sys.argv in
  let rest = Array.sub argv 1 (max 0 (Array.length argv - 1)) in
  match Array.to_list rest with
  | "run" :: _ -> run rest
  | "compare" :: _ -> compare rest
  | _ -> fail "expected run or compare"
