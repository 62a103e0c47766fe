module Histogram = Lsm_util.Histogram

type worker = {
  mutable w_jobs : int;
  mutable w_busy_ns : int;
  mutable w_bytes : int;
}

type t = {
  mutable user_puts : int;
  mutable user_deletes : int;
  mutable user_gets : int;
  mutable user_scans : int;
  mutable user_bytes_ingested : int;
  mutable gets_found : int;
  mutable runs_probed : int;
  mutable filter_negatives : int;
  mutable filter_false_positives : int;
  mutable range_filter_skips : int;
  mutable flushes : int;
  mutable compactions : int;
  mutable trivial_moves : int;
  mutable compaction_bytes_read : int;
  mutable compaction_bytes_written : int;
  mutable compaction_wall_ns : int;
  mutable subcompactions : int;
  mutable write_stalls : int;
  mutable write_slowdowns : int;
  mutable write_stops : int;
  mutable corruptions_detected : int;
  mutable tables_quarantined : int;
  mutable failsafe_entries : int;
  mutable resumes : int;
  mutable scrub_runs : int;
  mutable scrub_errors : int;
  mutable scrub_runs_scheduled : int;
  mutable ecc_repairs : int;
  mutable ecc_unrecoverable : int;
  ecc_repair_ns : Histogram.t;
  stall_burst_bytes : Histogram.t;
  compaction_burst_bytes : Histogram.t;
  get_run_probes : Histogram.t;
  write_latency_ns : Histogram.t;
  slowdown_delay_ns : Histogram.t;
  mutable sched_workers : worker array;
  mutable sched_edits_parked : int;
  sched_queue_depth : Histogram.t;
  sched_parked_edits : Histogram.t;
}

let create () =
  {
    user_puts = 0;
    user_deletes = 0;
    user_gets = 0;
    user_scans = 0;
    user_bytes_ingested = 0;
    gets_found = 0;
    runs_probed = 0;
    filter_negatives = 0;
    filter_false_positives = 0;
    range_filter_skips = 0;
    flushes = 0;
    compactions = 0;
    trivial_moves = 0;
    compaction_bytes_read = 0;
    compaction_bytes_written = 0;
    compaction_wall_ns = 0;
    subcompactions = 0;
    write_stalls = 0;
    write_slowdowns = 0;
    write_stops = 0;
    corruptions_detected = 0;
    tables_quarantined = 0;
    failsafe_entries = 0;
    resumes = 0;
    scrub_runs = 0;
    scrub_errors = 0;
    scrub_runs_scheduled = 0;
    ecc_repairs = 0;
    ecc_unrecoverable = 0;
    ecc_repair_ns = Histogram.create ();
    stall_burst_bytes = Histogram.create ();
    compaction_burst_bytes = Histogram.create ();
    get_run_probes = Histogram.create ();
    write_latency_ns = Histogram.create ();
    slowdown_delay_ns = Histogram.create ();
    sched_workers = [||];
    sched_edits_parked = 0;
    sched_queue_depth = Histogram.create ();
    sched_parked_edits = Histogram.create ();
  }

let provision_workers t n =
  if Array.length t.sched_workers <> n then
    t.sched_workers <- Array.init n (fun _ -> { w_jobs = 0; w_busy_ns = 0; w_bytes = 0 })

let avg_probes_per_get t =
  if t.user_gets = 0 then 0.0 else float_of_int t.runs_probed /. float_of_int t.user_gets

let pp_workers ppf t =
  Array.iteri
    (fun i w ->
      Format.fprintf ppf "@,  worker %d: jobs=%d busy=%dns moved=%dB" i w.w_jobs w.w_busy_ns
        w.w_bytes)
    t.sched_workers

let pp ppf t =
  Format.fprintf ppf
    "@[<v>puts=%d deletes=%d gets=%d (found %d) scans=%d@,\
     ingested=%dB flushes=%d compactions=%d (read %dB, wrote %dB)@,\
     probes/get=%.2f filter: neg=%d fp=%d range-skips=%d@,\
     stalls=%d slowdowns=%d stops=%d stall-bytes: %a@,compaction-bursts: %a@,\
     write-latency-ns: %a@,slowdown-delay-ns: %a@,\
     corruptions=%d quarantined=%d failsafe=%d resumes=%d scrubs=%d (errors %d, scheduled %d)@,\
     ecc: repairs=%d unrecoverable=%d repair-ns: %a@,\
     sched: parked-edits=%d queue-depth: %a park-depth: %a%a@]"
    t.user_puts t.user_deletes t.user_gets t.gets_found t.user_scans t.user_bytes_ingested
    t.flushes t.compactions t.compaction_bytes_read t.compaction_bytes_written
    (avg_probes_per_get t) t.filter_negatives t.filter_false_positives t.range_filter_skips
    t.write_stalls t.write_slowdowns t.write_stops Histogram.pp_summary t.stall_burst_bytes
    Histogram.pp_summary t.compaction_burst_bytes Histogram.pp_summary t.write_latency_ns
    Histogram.pp_summary t.slowdown_delay_ns t.corruptions_detected t.tables_quarantined
    t.failsafe_entries t.resumes t.scrub_runs t.scrub_errors t.scrub_runs_scheduled
    t.ecc_repairs t.ecc_unrecoverable Histogram.pp_summary t.ecc_repair_ns t.sched_edits_parked
    Histogram.pp_summary t.sched_queue_depth Histogram.pp_summary t.sched_parked_edits pp_workers
    t
