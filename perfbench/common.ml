(* Shared pieces of the benchmark: the clock, the seeded input
   generators, the pinned engine settings, the layer counter snapshots
   and the metric record every workload reports. *)

module Db = Lsm_core.Db
module Config = Lsm_core.Config
module Stats = Lsm_core.Stats
module Io_stats = Lsm_storage.Io_stats
module Block_cache = Lsm_storage.Block_cache
module Table_cache = Lsm_sstable.Table_cache

(* Monotonic nanoseconds; wall-clock time is never used for timing. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* ---------------- inputs ---------------- *)

(* The inputs come from the benchmark's own generators (stdlib PRNG and
   the YCSB zipfian below), never from the library under test, so a
   change to the engine cannot change what it is asked to do. *)
let rng seed stream = Random.State.make [| 0x5eed; seed; stream |]

module Zipf = struct
  (* YCSB's zipfian generator over ranks [0, n), rank 0 hottest, with a
     seeded bijective scramble so hot keys spread over the key range. *)
  type t = { n : int; theta : float; alpha : float; zetan : float; eta : float; off : int }

  let zeta n theta =
    let s = ref 0. in
    for i = 1 to n do
      s := !s +. (1. /. (float_of_int i ** theta))
    done;
    !s

  let create ~theta ~n ~seed =
    let zetan = zeta n theta in
    let zeta2 = zeta 2 theta in
    {
      n;
      theta;
      alpha = 1. /. (1. -. theta);
      zetan;
      eta = (1. -. ((2. /. float_of_int n) ** (1. -. theta))) /. (1. -. (zeta2 /. zetan));
      off = Random.State.int (rng seed 0x21bf) n;
    }

  let rank t st =
    let u = Random.State.float st 1.0 in
    let uz = u *. t.zetan in
    if uz < 1. then 0
    else if uz < 1. +. (0.5 ** t.theta) then 1
    else min (t.n - 1) (int_of_float (float_of_int t.n *. (((t.eta *. u) -. t.eta +. 1.) ** t.alpha)))

  (* 2654435761 is prime, hence coprime with every n below it. *)
  let next t st = ((rank t st * 2654435761) + t.off) mod t.n
end

let key id = Printf.sprintf "k%09d" id

(* A value encodes its key and version, padded to a length drawn from
   [vmin, vmin + vspan) by a seeded hash, so every returned value names
   the write that produced it and the stored bytes depend on the seed. *)
type values = { pad : string; vmin : int; vspan : int; salt : int }

let values ~seed ~vmin ~vspan =
  let st = rng seed 0x7a1e in
  {
    pad = String.init (vmin + vspan) (fun _ -> Char.chr (97 + Random.State.int st 26));
    vmin;
    vspan;
    salt = seed;
  }

let value vs k ver =
  let head = Printf.sprintf "%s#%d#" k ver in
  let len = vs.vmin + (Hashtbl.seeded_hash vs.salt (k, ver) mod vs.vspan) in
  head ^ String.sub vs.pad 0 (max 0 (len - String.length head))

(* ---------------- engine settings ---------------- *)

(* Every engine knob is stated here, so neither Config.default nor the
   LSM_COMPACTION_* environment it follows can move a run onto
   background lanes or worker domains. Fields added to Config later take
   their defaults. *)
let[@warning "-23"] engine_config ~block_cache_bytes ~write_buffer_size ~level1_capacity
    ~target_file_size ~max_open_tables =
  {
    Config.default with
    Config.comparator = Lsm_util.Comparator.bytewise;
    memtable = Lsm_memtable.Memtable.Skiplist;
    write_buffer_size;
    max_immutable_buffers = 1;
    wal_enabled = true;
    wal_sync_every_write = false;
    compaction =
      {
        Lsm_compaction.Policy.layout = Leveling;
        granularity = Single_file;
        movement = Least_overlap;
        size_ratio = 4;
        level0_limit = 4;
      };
    level1_capacity;
    target_file_size;
    block_size = 4096;
    restart_interval = 16;
    compression = Lsm_sstable.Sstable.C_none;
    filter = Lsm_filter.Point_filter.Bloom { bits_per_key = 10.0 };
    monkey_filters = false;
    filter_memory_bits = 0;
    range_filter = Lsm_filter.Range_filter.No_range_filter;
    block_cache_bytes;
    block_cache_shards = 1;
    max_open_tables;
    cache_refill_after_compaction = false;
    merge_operator = None;
    allow_trivial_move = true;
    compaction_bytes_per_round = None;
    compaction_parallelism = 1;
    compaction_backend = Config.Inline;
    compaction_workers = 1;
    write_slowdown_trigger = 20 lsl 20;
    write_stop_trigger = 36 lsl 20;
    paranoid_checks = false;
    scrub_delay = 0.;
    scrub_interval = 0.;
    ecc = None;
  }

let describe_config (c : Config.t) =
  Printf.sprintf
    "%s | backend=inline workers=%d parallelism=%d cache_shards=%d max_open_tables=%d \
     block=%dB wal=%b sync_every_write=%b"
    (Config.describe c) c.compaction_workers c.compaction_parallelism c.block_cache_shards
    c.max_open_tables c.block_size c.wal_enabled c.wal_sync_every_write

let mib b = float_of_int b /. 1048576.

(* ---------------- layer counters ---------------- *)

(* Sums of the counters the layers already expose, over one or more
   engines (the shards of the server workload). *)
type counters = {
  user_bytes : int;
  runs_probed : int;
  filter_negatives : int;
  filter_fps : int;
  compactions : int;
  trivial_moves : int;
  compaction_bytes_written : int;
  compaction_wall_ns : int;
  device_bytes_written : int;  (** flush + compaction + WAL *)
  wal_bytes : int;
  user_pages_read : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  table_opens : int;
}

let zero =
  {
    user_bytes = 0;
    runs_probed = 0;
    filter_negatives = 0;
    filter_fps = 0;
    compactions = 0;
    trivial_moves = 0;
    compaction_bytes_written = 0;
    compaction_wall_ns = 0;
    device_bytes_written = 0;
    wal_bytes = 0;
    user_pages_read = 0;
    cache_hits = 0;
    cache_misses = 0;
    cache_evictions = 0;
    table_opens = 0;
  }

let counters_of db =
  let s = Db.stats db and io = Db.io_stats db and bc = Db.block_cache db in
  let wal = Io_stats.bytes_written ~cls:Io_stats.C_user_write io in
  {
    user_bytes = s.Stats.user_bytes_ingested;
    runs_probed = s.Stats.runs_probed;
    filter_negatives = s.Stats.filter_negatives;
    filter_fps = s.Stats.filter_false_positives;
    compactions = s.Stats.compactions;
    trivial_moves = s.Stats.trivial_moves;
    compaction_bytes_written = s.Stats.compaction_bytes_written;
    compaction_wall_ns = s.Stats.compaction_wall_ns;
    device_bytes_written =
      wal
      + Io_stats.bytes_written ~cls:Io_stats.C_flush io
      + Io_stats.bytes_written ~cls:Io_stats.C_compaction_write io;
    wal_bytes = wal;
    user_pages_read = Io_stats.pages_read ~cls:Io_stats.C_user_read io;
    cache_hits = Block_cache.hits bc;
    cache_misses = Block_cache.misses bc;
    cache_evictions = Block_cache.evictions bc;
    table_opens = Table_cache.total_opens (Db.table_cache db);
  }

let combine f a b =
  {
    user_bytes = f a.user_bytes b.user_bytes;
    runs_probed = f a.runs_probed b.runs_probed;
    filter_negatives = f a.filter_negatives b.filter_negatives;
    filter_fps = f a.filter_fps b.filter_fps;
    compactions = f a.compactions b.compactions;
    trivial_moves = f a.trivial_moves b.trivial_moves;
    compaction_bytes_written = f a.compaction_bytes_written b.compaction_bytes_written;
    compaction_wall_ns = f a.compaction_wall_ns b.compaction_wall_ns;
    device_bytes_written = f a.device_bytes_written b.device_bytes_written;
    wal_bytes = f a.wal_bytes b.wal_bytes;
    user_pages_read = f a.user_pages_read b.user_pages_read;
    cache_hits = f a.cache_hits b.cache_hits;
    cache_misses = f a.cache_misses b.cache_misses;
    cache_evictions = f a.cache_evictions b.cache_evictions;
    table_opens = f a.table_opens b.table_opens;
  }

let snapshot dbs = List.fold_left (fun acc db -> combine ( + ) acc (counters_of db)) zero dbs

(* [delta now before] *)
let delta = combine ( - )

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Space amplification over several engines: each engine's ratio
   weighted by its live bytes. *)
let space_amp engines =
  let phys, live =
    List.fold_left
      (fun (p, l) (db, live_bytes) ->
        (p +. (Db.space_amplification db *. float_of_int live_bytes), l + live_bytes))
      (0., 0) engines
  in
  if live = 0 then 0. else phys /. float_of_int live

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* ---------------- results ---------------- *)

(* The first few failures are described on standard error. *)
let failures_shown = ref 0

let report_failure what =
  if !failures_shown < 5 then begin
    incr failures_shown;
    Printf.eprintf "perfbench: failed: %s\n%!" what
  end

type metric = { name : string; value : float; unit_ : string; samples : int }

let m ?(samples = 0) name unit_ value = { name; value; unit_; samples }

(* Operation classes of the latency recorder. *)
let cls_get = 0
let cls_put = 1
let cls_scan = 2
let classes = [ ("get", cls_get); ("put", cls_put); ("scan", cls_scan) ]

(* ---------------- rounds ---------------- *)

(* The measured phase is cut into [n_rounds] rounds of equal operation
   counts. Each round's throughput and per-class percentiles are kept
   and the median over rounds is reported, so host noise that hits a
   few rounds does not move the result. *)
let n_rounds = 10

(* Reported percentiles. p99 is printed but not gated: on a shared host
   the process is paused for milliseconds at a time, a pause delays
   every request in flight, and that puts a few tenths of a percent of
   the pipelined workload's requests into the tail, so its p99 swung by
   half from run to run. p90 is clear of that. *)
let percentiles = [ (50., "p50"); (90., "p90"); (99., "p99") ]

type rounds = {
  lat : Recorder.t;  (** the current round's samples *)
  rates : float array;
  pct : float array array array;
      (** [cls].(k).(round) for the k-th of [percentiles]; nan when the
          class had no samples *)
  totals : int array;  (** samples per class over all rounds *)
  mutable done_ : int;
}

let rounds ~capacity =
  let per_pct () = Array.init (List.length percentiles) (fun _ -> Array.make n_rounds Float.nan) in
  {
    lat = Recorder.create capacity;
    rates = Array.make n_rounds 0.;
    pct = Array.init Recorder.max_classes (fun _ -> per_pct ());
    totals = Array.make Recorder.max_classes 0;
    done_ = 0;
  }

let reset_rounds r =
  Recorder.clear r.lat;
  Array.fill r.totals 0 Recorder.max_classes 0;
  r.done_ <- 0

let end_round r ~ops ~elapsed_ns =
  let i = r.done_ in
  r.rates.(i) <- float_of_int ops /. (float_of_int elapsed_ns /. 1e9);
  for cls = 0 to Recorder.max_classes - 1 do
    let n = Recorder.count r.lat ~cls in
    r.totals.(cls) <- r.totals.(cls) + n;
    List.iteri
      (fun k (q, _) ->
        r.pct.(cls).(k).(i) <-
          (if n = 0 then Float.nan else float_of_int (Recorder.percentile r.lat ~cls q) /. 1e3))
      percentiles
  done;
  Recorder.clear r.lat;
  r.done_ <- i + 1

let median a =
  let a = Array.of_list (List.filter (fun x -> not (Float.is_nan x)) (Array.to_list a)) in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan else if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let median_rate r = median (Array.sub r.rates 0 r.done_)

let print_rounds r =
  let row name a =
    Printf.printf "# rounds %-16s %s\n" name
      (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.5g") (Array.sub a 0 r.done_))))
  in
  row "throughput_ops_s" r.rates;
  List.iter
    (fun (name, cls) ->
      if r.totals.(cls) > 0 then
        List.iteri (fun k (_, p) -> row (Printf.sprintf "%s_%s_us" name p) r.pct.(cls).(k)) percentiles)
    classes

(* Throughput, then the percentiles of every operation class with
   samples, each the median over rounds. *)
let round_metrics r =
  print_rounds r;
  let total = Array.fold_left ( + ) 0 r.totals in
  m ~samples:total "throughput_ops_s" "1/s" (median_rate r)
  :: List.concat_map
       (fun (prefix, cls) ->
         let n = r.totals.(cls) in
         if n = 0 then []
         else
           List.mapi
             (fun k (_, p) ->
               m ~samples:n (Printf.sprintf "%s_%s_us" prefix p) "us" (median r.pct.(cls).(k)))
             percentiles)
       classes

type result = {
  attempted : int;
  failed : int;
  e2e : metric list;  (** every end-to-end metric this workload has samples for *)
  layers : metric list;  (** per-layer metrics (traced run only) *)
  info : (string * string) list;  (** sizes, settings and policies, for the record *)
  spans : Tracer.t option;  (** the traced run's spans *)
}

(* Set-up is timed over [setup_reps] fresh builds and the median is
   reported; the host's speed wanders by tens of percent over seconds,
   so one build is not enough. *)
let setup_reps = 5

(* Runs [f] [setup_reps] times and returns the median duration in
   seconds with the last result; earlier results go to [discard]. *)
let timed_setup ~discard f =
  let times = Array.make setup_reps 0. in
  let last = ref None in
  for i = 0 to setup_reps - 1 do
    Option.iter discard !last;
    last := None;
    Gc.full_major ();
    let t0 = now_ns () in
    let x = f () in
    times.(i) <- float_of_int (now_ns () - t0) /. 1e9;
    last := Some x
  done;
  Printf.printf "# setup_s samples: %s\n"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") times)));
  (median times, Option.get !last)
