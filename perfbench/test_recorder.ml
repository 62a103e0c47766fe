(* Exact-percentile checks, including the case a log-bucketed histogram
   reports as 4095 ns: one 8000 ns sample. *)

let check name cond = if not cond then failwith ("test_recorder: " ^ name)

let () =
  let r = Recorder.create 4 in
  Recorder.add r ~cls:0 8000;
  check "single 8000 ns sample: p99 >= 7936" (Recorder.percentile r ~cls:0 99. >= 7936);
  check "single sample is exact" (Recorder.percentile r ~cls:0 50. = 8000);
  let r = Recorder.create 300 in
  for v = 100 downto 1 do
    Recorder.add r ~cls:1 v;
    Recorder.add r ~cls:2 (1000 + v)
  done;
  check "nearest-rank p50" (Recorder.percentile r ~cls:1 50. = 50);
  check "nearest-rank p99" (Recorder.percentile r ~cls:1 99. = 99);
  check "p100 is the max" (Recorder.percentile r ~cls:1 100. = 100);
  check "classes are separate" (Recorder.percentile r ~cls:2 50. = 1050);
  check "class counts" (Recorder.count r ~cls:1 = 100 && Recorder.count r ~cls:0 = 0);
  Recorder.clear r;
  check "clear empties" (Recorder.count r ~cls:1 = 0);
  (* Values at the top of a power-of-two octave stay exact. *)
  List.iter (Recorder.add r ~cls:0) [ 4095; 4096; 8000; 8191; 16000 ];
  check "octave top" (Recorder.percentile r ~cls:0 60. = 8000);
  let full = Recorder.create 1 in
  Recorder.add full ~cls:0 1;
  check "overflow raises"
    (match Recorder.add full ~cls:0 1 with () -> false | exception Invalid_argument _ -> true);
  print_endline "test_recorder: ok"
