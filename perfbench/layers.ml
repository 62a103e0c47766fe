(* Per-layer metrics of the traced run. Every workload reports the same
   list; a layer a workload does not load reports 0. The comment on each
   metric names the end-to-end metric it should move, and where. *)

open Common

type server = {
  steps : int;  (** Server.step calls *)
  cmds : int;  (** commands executed (Server.stats) *)
  step_ns : int;  (** time inside Server.step spans *)
  replay_ns : int;  (** the same commands replayed through Shard_map directly *)
  wire_bytes : int;  (** bytes in + bytes out *)
}

type t = {
  ops : int;
  gets : int;
  absent_gets : int;  (** gets that returned no value *)
  puts : int;
  scans : int;
  get_pages : int;  (** user pages read inside gets *)
  scan_pages : int;  (** user pages read inside scans *)
  stalled_puts : int;  (** puts during which a flush or compaction ran *)
  stall_ns : int;  (** time of those puts *)
  minor_words : float;  (** allocated inside the measured calls *)
  d : counters;  (** counter movement over the traced phase *)
  server : server option;
  traced_ops_s : float;
  untraced_ops_s : float;
}

let secs ns = float_of_int ns /. 1e9

let metrics t =
  let d = t.d in
  let srv f = match t.server with Some x -> f x | None -> 0. in
  [
    (* server: throughput_ops_s and get_p50_us on resp-pipelined *)
    m "server.step_us_per_cmd" "us" (srv (fun x -> ratio x.step_ns x.cmds /. 1e3));
    m "server.cmds_per_step" "count" (srv (fun x -> ratio x.cmds x.steps));
    m "server.frontdoor_us_per_cmd" "us"
      (srv (fun x -> ratio (x.step_ns - x.replay_ns) x.cmds /. 1e3));
    m "server.bytes_per_cmd" "B" (srv (fun x -> ratio x.wire_bytes x.cmds));
    (* core: get_p50_us on hot-get; put_p99_us on cold-mixed;
       throughput_ops_s and peak_heap_mb everywhere *)
    m "core.runs_probed_per_get" "count" (ratio d.runs_probed t.gets);
    m "core.stalled_put_frac" "ratio" (ratio t.stalled_puts t.puts);
    m "core.stall_s" "s" (secs t.stall_ns);
    m "core.minor_words_per_op" "words" (t.minor_words /. float_of_int (max 1 t.ops));
    (* filter: get_p50_us and get_p99_us on hot-get *)
    m "filter.skip_ratio" "ratio" (ratio d.filter_negatives (d.filter_negatives + d.runs_probed));
    m "filter.fp_per_absent_get" "count" (ratio d.filter_fps t.absent_gets);
    (* storage: get_p50_us, put_p50_us and write_amp on cold-mixed *)
    m "storage.cache_hit_rate" "ratio" (ratio d.cache_hits (d.cache_hits + d.cache_misses));
    m "storage.cache_evictions_per_op" "count" (ratio d.cache_evictions t.ops);
    m "storage.user_pages_read_per_get" "count" (ratio t.get_pages t.gets);
    m "storage.wal_bytes_per_put" "B" (ratio d.wal_bytes t.puts);
    (* sstable: get_p99_us and scan_p50_us on cold-mixed *)
    m "sstable.table_opens" "count" (float_of_int d.table_opens);
    m "sstable.pages_per_scan" "count" (ratio t.scan_pages t.scans);
    (* compaction: write_amp, throughput_ops_s and put_p99_us on cold-mixed *)
    m "compaction.count" "count" (float_of_int d.compactions);
    m "compaction.trivial_moves" "count" (float_of_int d.trivial_moves);
    m "compaction.bytes_written_per_user_byte" "ratio"
      (ratio d.compaction_bytes_written d.user_bytes);
    m "compaction.busy_s" "s" (secs d.compaction_wall_ns);
    (* tracing overhead: traced over untraced throughput *)
    m "trace.throughput_ratio" "ratio" (t.traced_ops_s /. t.untraced_ops_s);
  ]
