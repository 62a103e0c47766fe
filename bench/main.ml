(* Benchmark harness entry point.

   dune exec bench/main.exe              - run every experiment (E1..E20)
   dune exec bench/main.exe -- --only E3 - run one experiment (repeatable)
   dune exec bench/main.exe -- --parallel - parallel-compaction bench (JSON)
   dune exec bench/main.exe -- --stall   - write-stall bench, inline vs background (JSON)
   dune exec bench/main.exe -- --crash   - crash-recovery fault-injection smoke
   dune exec bench/main.exe -- --corruption - silent-corruption bit-rot smoke
   dune exec bench/main.exe -- --list    - list experiments

   Unknown arguments, unknown experiment ids and two different modes in
   one invocation exit 2. Timing of the engine's layers is perfbench's
   job (BENCHMARK.json); allocation and serving-correctness gates run in
   `dune runtest`. *)

type mode =
  | Experiments of string list  (** selected ids; [] runs them all *)
  | List
  | Parallel
  | Stall
  | Crash
  | Corruption

let flags =
  [ ("--list", List); ("--parallel", Parallel); ("--stall", Stall); ("--crash", Crash);
    ("--corruption", Corruption) ]

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 2)
    fmt

let parse args =
  let rec go mode = function
    | [] -> mode
    | "--only" :: id :: rest -> (
      match mode with
      | Experiments ids -> go (Experiments (id :: ids)) rest
      | _ -> usage_error "--only cannot be combined with another mode")
    | arg :: rest -> (
      match (List.assoc_opt arg flags, mode) with
      | None, _ -> usage_error "unknown argument %s" arg
      | Some m, Experiments [] -> go m rest
      | Some _, _ -> usage_error "%s cannot be combined with another mode" arg)
  in
  go (Experiments []) args

let same_id a b = String.lowercase_ascii a = String.lowercase_ascii b

let run_experiments ids =
  List.iter
    (fun id ->
      if not (List.exists (fun (x, _, _) -> same_id x id) Experiments.all) then
        usage_error "unknown experiment id %s (see --list)" id)
    ids;
  let selected =
    match ids with
    | [] -> Experiments.all
    | ids -> List.filter (fun (x, _, _) -> List.exists (same_id x) ids) Experiments.all
  in
  print_endline "ocaml-lsm experiment harness - reproducing the LSM design-space tradeoffs";
  print_endline "(see EXPERIMENTS.md for the claim -> experiment mapping)";
  let t0 = Sys.time () in
  List.iter (fun (_, _, run) -> run ()) selected;
  Printf.printf "\nall experiments done in %.1f CPU seconds\n" (Sys.time () -. t0)

let () =
  match parse (List.tl (Array.to_list Sys.argv)) with
  | Experiments ids -> run_experiments ids
  | List -> List.iter (fun (id, title, _) -> Printf.printf "%-4s %s\n" id title) Experiments.all
  | Parallel -> Parallel.run ()
  | Stall -> Stall.run ()
  | Crash -> Crash_smoke.run ()
  | Corruption -> Corruption_smoke.run ()
