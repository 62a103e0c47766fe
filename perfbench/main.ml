(* The repository's benchmark: one command, three workloads, one
   process on one OCaml domain.

     perfbench/main.exe --workload hot-get|cold-mixed|resp-pipelined
       --seed N --seconds S --trace 0|1 [--corrupt-model]

   A run executes a fixed number of operations, S times the workload's
   nominal rate on the reference host (2 vCPU), so at a fixed seed every
   count (write_amp, space_amp, the per-layer counts) repeats exactly.
   The operations are cut into ten rounds, and every rate and percentile
   reported is the median over rounds.
   Every engine runs flush and compaction inline in the writer, with one
   compaction worker, no subcompactions and no fan-out pool. Every time
   comes from the monotonic clock and every percentile from the exact
   recorder. Every result is checked against the client's model; any
   failure makes the command exit 1.

   --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
   untraced and then traced on an identically built store, and reports
   the per-layer metrics and the tracing overhead. --corrupt-model
   perturbs the model before the measured phase, to show that the checks
   fail the run.

   Human-readable lines start with '#'; the last line is one JSON object
   with the metrics named in BENCHMARK.json. *)

open Common

(* The end-to-end metrics every workload has, as BENCHMARK.json lists
   them; the rest (put and scan percentiles, p99, write_amp, space_amp,
   failed_frac) are printed on '#' lines where a workload has them. *)
let contract_e2e = [ "throughput_ops_s"; "get_p50_us"; "get_p90_us"; "setup_s"; "peak_heap_mb" ]

(* Run artefacts (the server's socket, span files) live here, inside the
   checkout. *)
let run_dir = ".bench_build"

let json_float v = Printf.sprintf "%.17g" v

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let corrupt = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "hot-get | cold-mixed | resp-pipelined");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_int seconds, "run length in seconds at the nominal rate");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
      ("--corrupt-model", Arg.Set corrupt, "perturb the model so the checks must fail");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench/main.exe --workload W --seed N --seconds S --trace 0|1";
  if !seconds < 1 then (prerr_endline "--seconds must be >= 1"; exit 2);
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace must be 0 or 1"; exit 2);
  (* Pinned so that OCAMLRUNPARAM cannot change the collector's pacing. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 262_144; space_overhead = 120 };
  Lsm_util.Ordered_mutex.set_enforce false;
  if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755;
  let trace = !trace = 1 and seed = !seed and seconds = !seconds and corrupt = !corrupt in
  let r =
    match !workload with
    | "hot-get" -> Db_workload.run (Hot_get.spec ~seed) ~seed ~seconds ~trace ~corrupt
    | "cold-mixed" -> Db_workload.run (Cold_mixed.spec ~seed) ~seed ~seconds ~trace ~corrupt
    | "resp-pipelined" -> Resp_pipelined.run ~seed ~seconds ~trace ~corrupt ~dir:run_dir
    | w ->
      Printf.eprintf "unknown workload %S\n" w;
      exit 2
  in
  Printf.printf "# seed: %d\n# trace: %b\n" seed trace;
  List.iter (fun (k, v) -> Printf.printf "# %s: %s\n" k v) r.info;
  let show { name; value; unit_; samples } =
    Printf.printf "# %-40s %14.4f %-6s%s\n" name value unit_
      (if samples > 0 then Printf.sprintf " (n=%d)" samples else "")
  in
  List.iter show r.e2e;
  List.iter show r.layers;
  Option.iter
    (fun t ->
      List.iter
        (fun (name, n, total, self) ->
          Printf.printf "# span %-26s n=%-9d total=%.4fs self=%.4fs\n" name n
            (float_of_int total /. 1e9) (float_of_int self /. 1e9))
        (Tracer.summary t);
      let path =
        Filename.concat run_dir (Printf.sprintf "perfbench-spans-%s-seed%d.csv" !workload seed)
      in
      Tracer.write_csv t path;
      Printf.printf "# spans: %d kept, %d not kept, written to %s\n" (Tracer.spans_kept t)
        (Tracer.spans_dropped t) path)
    r.spans;
  let reported =
    if trace then r.layers
    else List.map (fun n -> List.find (fun x -> x.name = n) r.e2e) contract_e2e
  in
  let finite = List.for_all (fun x -> Float.is_finite x.value) reported in
  let correct = r.failed = 0 && r.attempted > 0 && finite in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name
              (json_float (if Float.is_finite x.value then x.value else 0.))
              x.unit_)
          reported));
  if not correct then exit 1
