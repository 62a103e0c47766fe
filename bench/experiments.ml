(* The experiment suite: one entry per tutorial claim (see DESIGN.md §4
   and EXPERIMENTS.md). Each experiment prints the table/series that
   plays the role of the corresponding "figure". *)

open Common
module Policy = Lsm_compaction.Policy
module Device = Lsm_storage.Device
module Io_stats = Lsm_storage.Io_stats
module Db = Lsm_core.Db
module Config = Lsm_core.Config
module Stats = Lsm_core.Stats
module Version = Lsm_core.Version
module Rng = Lsm_util.Rng
module Histogram = Lsm_util.Histogram
module Point_filter = Lsm_filter.Point_filter
module Range_filter = Lsm_filter.Range_filter
module Memtable = Lsm_memtable.Memtable
open Lsm_workload

(* ------------------------------------------------------------------ *)
(* E1: leveling vs tiering vs lazy-leveling across size ratios          *)
(* ------------------------------------------------------------------ *)

let e1 () =
  banner "E1" "data layout x size ratio: the write/read tradeoff"
    "tiering cuts write amplification, leveling cuts lookup cost; lazy \
     leveling sits between; T navigates each curve (tutorial S2.1.2/S2.2.2)";
  let total = 40_000 and unique = 8_000 in
  let rows = ref [] in
  List.iter
    (fun (lname, mk) ->
      List.iter
        (fun t ->
          let dev = Device.in_memory () in
          let db = Db.open_db ~config:(bench_config ~compaction:(mk t) ()) ~dev () in
          ingest db ~total ~unique;
          let lc = measure_lookups db ~unique in
          rows :=
            [
              lname; i0 t; f2 (Db.write_amplification db);
              f3 lc.present_pages; f3 lc.absent_pages; i0 (total_runs db);
              f2 (Db.space_amplification db);
            ]
            :: !rows;
          Db.close db)
        [ 2; 4; 6; 8 ])
    [
      ("leveling", fun t -> Policy.leveled ~size_ratio:t ());
      ("tiering", fun t -> Policy.tiered ~size_ratio:t ());
      ("lazy-leveling", fun t -> Policy.lazy_leveled ~size_ratio:t ());
    ];
  table
    [ "layout"; "T"; "WA"; "pages/get(hit)"; "pages/get(miss)"; "runs"; "space-amp" ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* E2: memtable implementations                                         *)
(* ------------------------------------------------------------------ *)

let e2 () =
  banner "E2" "buffer implementation vs workload"
    "vector buffers ingest fastest write-only but collapse under \
     interleaved reads; skiplists balance both (S2.2.1, RocksDB memtables)";
  let n = 60_000 in
  let rows = ref [] in
  List.iter
    (fun kind ->
      let run mixed =
        let dev = Device.in_memory () in
        let config = { (bench_config ~buffer:(256 * 1024) ()) with Config.memtable = kind } in
        let db = Db.open_db ~config ~dev () in
        let rng = Rng.create 3 in
        let ops () =
          for i = 1 to n do
            Db.put db ~key:(key (Rng.int rng 20_000)) (value 64 rng);
            if mixed && i mod 2 = 0 then ignore (Db.get db (key (Rng.int rng 20_000)))
          done
        in
        let throughput = time_ops ops (if mixed then n + (n / 2) else n) in
        Db.close db;
        throughput
      in
      rows :=
        [ Memtable.kind_name kind; f1 (run false); f1 (run true) ] :: !rows)
    Memtable.all_kinds;
  table [ "buffer"; "write-only ops/s"; "mixed 2:1 ops/s" ] (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* E3: Monkey vs uniform filter allocation                              *)
(* ------------------------------------------------------------------ *)

let e3 () =
  banner "E3" "filter memory allocation: Monkey vs uniform bits/key"
    "for the same total filter memory, Monkey's per-level allocation gives \
     fewer superfluous probes on zero-result lookups (S2.1.3, Monkey)";
  let total = 40_000 and unique = 20_000 in
  let rows = ref [] in
  List.iter
    (fun bits ->
      let run monkey =
        let dev = Device.in_memory () in
        let budget = int_of_float (bits *. float_of_int unique) in
        let config =
          {
            (bench_config ~compaction:(Policy.tiered ~size_ratio:4 ()) ()) with
            Config.filter = Point_filter.Bloom { bits_per_key = bits };
            monkey_filters = monkey;
            filter_memory_bits = (if monkey then budget else 0);
          }
        in
        let db = Db.open_db ~config ~dev () in
        ingest db ~total ~unique;
        let lc = measure_lookups ~lookups:4000 db ~unique in
        (* actual filter memory in use *)
        let v = Db.version db in
        ignore v;
        Db.close db;
        lc
      in
      let u = run false and m = run true in
      rows :=
        [
          f1 bits; f3 u.absent_pages; f3 m.absent_pages; f4 u.fp_rate; f4 m.fp_rate;
          f3 u.present_pages; f3 m.present_pages;
        ]
        :: !rows)
    [ 2.0; 4.0; 6.0; 10.0 ];
  table
    [
      "bits/key"; "miss pages (uniform)"; "miss pages (monkey)"; "fp/lookup (uniform)";
      "fp/lookup (monkey)"; "hit pages (uniform)"; "hit pages (monkey)";
    ]
    (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* E4: range filters for short and long scans                           *)
(* ------------------------------------------------------------------ *)

let e4 () =
  banner "E4" "range-filter classes vs range length"
    "prefix filters answer long common-prefix ranges; SuRF handles both via \
     variable prefixes; Rosetta excels at short ranges (S2.1.3)";
  (* Part 1: sparse 8-byte binary keyspace (every 64th integer exists):
     gap windows of growing width. Rosetta's bit-prefix hierarchy and
     SuRF's distinguishing prefixes reject these; a byte-prefix filter
     cannot (all windows share prefixes with live keys). *)
  let n = 8_000 in
  let keys = List.init n (fun i -> Runner.keyspace_key Spec.Binary8 (i * 64)) in
  let policies =
    [
      ("none", Range_filter.No_range_filter);
      ("prefix(6B)", Range_filter.Prefix { prefix_len = 6; bits_per_key = 14.0 });
      ("surf+2", Range_filter.Surf { max_prefix = 8; suffix_len = 2 });
      ("surf+8", Range_filter.Surf { max_prefix = 8; suffix_len = 8 });
      ("rosetta", Range_filter.Rosetta { levels = 64; bits_per_key = 10.0 });
    ]
  in
  let rng = Rng.create 11 in
  let gap_windows width =
    (* windows centered in gaps: [base+8, base+8+width) with width < 56 *)
    List.init 400 (fun _ ->
        let i = Rng.int rng (n - 1) in
        let base = (i * 64) + 8 in
        ( Runner.keyspace_key Spec.Binary8 base,
          Runner.keyspace_key Spec.Binary8 (base + width) ))
  in
  let short = gap_windows 8 and long_ = gap_windows 48 in
  (* Ranges that DO contain keys, to verify no false negatives. *)
  let hit_windows =
    List.init 200 (fun _ ->
        let i = 1 + Rng.int rng (n - 2) in
        ( Runner.keyspace_key Spec.Binary8 ((i * 64) - 4),
          Runner.keyspace_key Spec.Binary8 ((i * 64) + 4) ))
  in
  let fpr f windows =
    let fps =
      List.length
        (List.filter (fun (lo, hi) -> Range_filter.may_overlap f ~lo ~hi:(Some hi)) windows)
    in
    float_of_int fps /. float_of_int (List.length windows)
  in
  let rows =
    List.map
      (fun (nm, policy) ->
        let f = Range_filter.build policy ~keys in
        let misses =
          List.length
            (List.filter
               (fun (lo, hi) -> not (Range_filter.may_overlap f ~lo ~hi:(Some hi)))
               hit_windows)
        in
        [
          nm; f3 (fpr f short); f3 (fpr f long_); i0 misses;
          Printf.sprintf "%.1f" (float_of_int (Range_filter.bit_count f) /. float_of_int n);
        ])
      policies
  in
  print_endline "(a) binary keyspace, gap windows inside shared prefixes";
  table
    [ "filter"; "FPR short(8)"; "FPR long(48)"; "false negatives"; "bits/key" ]
    rows;
  (* Part 2: structured keys "u<user>:<item>" and whole-prefix queries
     ("does this user have any data?") — the long-range membership shape
     that fixed-length prefix filters are built for [103]. Rosetta's
     8-byte projection saturates here; SuRF still works. *)
  (* User ids are long enough that neighbouring ids differ only beyond
     byte 8 - outside Rosetta's fixed projection, inside the reach of a
     13-byte prefix filter and SuRF's variable-depth prefixes. *)
  let users = 600 and items = 12 in
  let skeys =
    List.concat_map
      (fun u -> List.init items (fun i -> Printf.sprintf "user%08d:%04d" (u * 3) i))
      (List.init users Fun.id)
  in
  let present_prefix_windows =
    List.init 300 (fun j ->
        let u = (j mod users) * 3 in
        (Printf.sprintf "user%08d:" u, Printf.sprintf "user%08d;" u))
  in
  let absent_prefix_windows =
    List.init 300 (fun j ->
        let u = ((j mod users) * 3) + 1 in
        (Printf.sprintf "user%08d:" u, Printf.sprintf "user%08d;" u))
  in
  let spolicies =
    [
      ("prefix(13B)", Range_filter.Prefix { prefix_len = 13; bits_per_key = 14.0 });
      ("surf+2", Range_filter.Surf { max_prefix = 24; suffix_len = 2 });
      ("rosetta", Range_filter.Rosetta { levels = 64; bits_per_key = 10.0 });
    ]
  in
  let rows2 =
    List.map
      (fun (nm, policy) ->
        let f = Range_filter.build policy ~keys:skeys in
        let fn =
          List.length
            (List.filter
               (fun (lo, hi) -> not (Range_filter.may_overlap f ~lo ~hi:(Some hi)))
               present_prefix_windows)
        in
        [ nm; f3 (fpr f absent_prefix_windows); i0 fn ])
      spolicies
  in
  print_endline "\n(b) structured keys, whole-prefix (long-range) membership queries";
  table [ "filter"; "FPR absent-user range"; "false negatives" ] rows2;
  print_endline "\n(engine-level effect: scans skipped per 1000 empty-range scans)";
  let rows2 =
    List.map
      (fun (nm, policy) ->
        let dev = Device.in_memory () in
        let config = { (bench_config ()) with Config.range_filter = policy } in
        let db = Db.open_db ~config ~dev () in
        let rng = Rng.create 5 in
        for i = 0 to n - 1 do
          Db.put db ~key:(Runner.keyspace_key Spec.Binary8 (i * 64)) (value 32 rng)
        done;
        Db.flush db;
        let pages_before = Io_stats.pages_read ~cls:Io_stats.C_user_read (Db.io_stats db) in
        List.iter
          (fun (lo, hi) -> ignore (Db.scan db ~lo ~hi:(Some hi) ()))
          short;
        let pages = Io_stats.pages_read ~cls:Io_stats.C_user_read (Db.io_stats db) - pages_before in
        let skips = (Db.stats db).Stats.range_filter_skips in
        Db.close db;
        [ nm; i0 skips; f3 (float_of_int pages /. float_of_int (List.length short)) ])
      policies
  in
  table [ "filter"; "file probes skipped"; "pages/empty-scan" ] rows2

(* ------------------------------------------------------------------ *)
(* E5: full vs partial compaction granularity                           *)
(* ------------------------------------------------------------------ *)

let e5 () =
  banner "E5" "compaction granularity: whole-level vs single-file"
    "partial (single-file) compaction amortizes I/O into many small bursts, \
     cutting the stall tail; whole-level compaction bursts are huge (S2.2.3)";
  let total = 60_000 and unique = 12_000 in
  let rows =
    List.map
      (fun (nm, granularity) ->
        let compaction = { (Policy.leveled ~size_ratio:4 ()) with Policy.granularity } in
        let dev = Device.in_memory () in
        let db = Db.open_db ~config:(bench_config ~compaction ()) ~dev () in
        ingest db ~total ~unique;
        let s = Db.stats db in
        let h = s.Stats.compaction_burst_bytes in
        let row =
          [
            nm; i0 s.Stats.compactions; kib (Histogram.percentile h 50.0);
            kib (Histogram.percentile h 99.0); kib (Histogram.max_value h);
            f2 (Db.write_amplification db);
          ]
        in
        Db.close db;
        row)
      [ ("whole-level", Policy.Whole_level); ("single-file", Policy.Single_file) ]
  in
  table [ "granularity"; "compactions"; "burst p50"; "burst p99"; "burst max"; "WA" ] rows

(* ------------------------------------------------------------------ *)
(* E6: file-picking (data movement) policies                            *)
(* ------------------------------------------------------------------ *)

let e6 () =
  banner "E6" "data-movement policy under a delete-heavy workload"
    "least-overlap minimizes WA; most-tombstones purges deletes early, \
     trading some WA for space (S2.2.3)";
  let rows =
    List.map
      (fun (nm, movement) ->
        let compaction = { (Policy.leveled ~size_ratio:4 ()) with Policy.movement } in
        let dev = Device.in_memory () in
        let db = Db.open_db ~config:(bench_config ~compaction ()) ~dev () in
        let rng = Rng.create 9 in
        for _ = 1 to 50_000 do
          let k = key (Rng.int rng 10_000) in
          if Rng.bernoulli rng 0.25 then Db.delete db k else Db.put db ~key:k (value 64 rng)
        done;
        Db.flush db;
        let tombs =
          List.fold_left
            (fun a (f : Lsm_sstable.Table_meta.t) -> a + f.point_tombstones)
            0
            (Version.all_files (Db.version db))
        in
        let row =
          [
            nm; f2 (Db.write_amplification db); i0 tombs;
            f2 (Db.space_amplification db); i0 (Db.stats db).Stats.compactions;
          ]
        in
        Db.close db;
        row)
      [
        ("round-robin", Policy.Round_robin);
        ("least-overlap", Policy.Least_overlap);
        ("oldest", Policy.Oldest_file);
        ("most-tombstones", Policy.Most_tombstones);
      ]
  in
  table [ "movement"; "WA"; "live tombstones"; "space-amp"; "compactions" ] rows

(* ------------------------------------------------------------------ *)
(* E7: key-value separation (WiscKey)                                   *)
(* ------------------------------------------------------------------ *)

let e7 () =
  banner "E7" "key-value separation vs value size"
    "separating values into a log slashes WA for large values (paper cites \
     ~4x) and speeds loading; point reads pay one extra log read (S2.2.2)";
  let rows = ref [] in
  List.iter
    (fun vsize ->
      let volume = 6 * (1 lsl 20) in
      let total = volume / (vsize + 14) in
      let unique = max 1 (total / 4) in
      let run mk name =
        let dev = Device.in_memory () in
        let store = mk dev in
        let rng = Rng.create 4 in
        let load () =
          for _ = 1 to total do
            store.Kv_store.put ~key:(key (Rng.int rng unique)) (value vsize rng)
          done;
          store.Kv_store.flush ()
        in
        let load_rate = time_ops load total in
        let io = store.Kv_store.io_stats () in
        let engine_written =
          Io_stats.bytes_written ~cls:Io_stats.C_flush io
          + Io_stats.bytes_written ~cls:Io_stats.C_compaction_write io
          + Io_stats.bytes_written ~cls:Io_stats.C_user_write io
        in
        let wa = float_of_int engine_written /. float_of_int (store.Kv_store.user_bytes ()) in
        let read_pages_before = Io_stats.pages_read ~cls:Io_stats.C_user_read io in
        for i = 1 to 1000 do
          ignore (store.Kv_store.get (key (i mod unique)))
        done;
        let read_pages =
          Io_stats.pages_read ~cls:Io_stats.C_user_read (store.Kv_store.io_stats ())
          - read_pages_before
        in
        rows :=
          [ i0 vsize; name; f2 wa; f1 load_rate; f3 (float_of_int read_pages /. 1000.0) ]
          :: !rows
      in
      run
        (fun dev -> Kv_store.of_db (Db.open_db ~config:(bench_config ()) ~dev ()))
        "standard";
      run
        (fun dev ->
          Lsm_kvsep.Kv_db.to_kv_store
            (Lsm_kvsep.Kv_db.open_db ~config:(bench_config ()) ~value_threshold:100
               ~segment_bytes:(256 * 1024) ~dev ()))
        "wisckey")
    [ 64; 256; 1024 ];
  table [ "value B"; "store"; "WA"; "load ops/s"; "pages/get" ] (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* E8: fragmented LSM (guards)                                          *)
(* ------------------------------------------------------------------ *)

let e8 () =
  banner "E8" "fragmented (guarded) LSM vs classical layouts"
    "guard-partitioned compaction appends instead of rewriting the next \
     level, cutting data movement and raising ingest throughput (S2.2.2, \
     PebblesDB); reads pay for extra fragments";
  let total = 60_000 and unique = 12_000 in
  let run name compaction =
    let dev = Device.in_memory () in
    let config = { (bench_config ~compaction ()) with Config.wal_enabled = false } in
    let db = Db.open_db ~config ~dev () in
    let rate = time_ops (fun () -> ingest db ~total ~unique) total in
    let lc = measure_lookups db ~unique in
    let row =
      [ name; f2 (Db.write_amplification db); f1 rate; f3 lc.present_pages;
        Printf.sprintf "%d|%d" (total_runs db) (Lsm_core.Version.file_count (Db.version db)) ]
    in
    Db.close db;
    row
  in
  table
    [ "store"; "WA"; "ingest ops/s"; "pages/get(hit)"; "runs|files" ]
    [
      run "leveled" (Policy.leveled ~size_ratio:4 ());
      run "tiered" (Policy.tiered ~size_ratio:4 ());
      run "pebbles(guarded)"
        {
          (Policy.leveled ~size_ratio:4 ()) with
          Policy.layout = Policy.Guarded { stride_base = 2048 };
        };
    ]

(* ------------------------------------------------------------------ *)
(* E9: the RUM tradeoff, measured                                       *)
(* ------------------------------------------------------------------ *)

let e9 () =
  banner "E9" "the RUM tradeoff: read cost vs update cost vs memory"
    "no design wins all three axes: improving reads (leveling+filters) \
     costs updates or memory; improving updates (tiering) costs reads \
     (S2.3, RUM conjecture)";
  let total = 40_000 and unique = 8_000 in
  let rows =
    List.map
      (fun (nm, compaction, filter) ->
        let dev = Device.in_memory () in
        let db = Db.open_db ~config:(bench_config ~compaction ~filter ()) ~dev () in
        ingest db ~total ~unique;
        let lc = measure_lookups db ~unique in
        let filter_bits =
          List.fold_left
            (fun acc (f : Lsm_sstable.Table_meta.t) ->
              acc + 10 * f.entries (* approximation: bits/key * entries *))
            0
            (Version.all_files (Db.version db))
        in
        let memory_kib =
          ((match filter with Point_filter.No_filter -> 0 | _ -> filter_bits / 8) + 16 * 1024)
          / 1024
        in
        let row =
          [
            nm; f3 ((lc.present_pages +. lc.absent_pages) /. 2.0);
            f2 (Db.write_amplification db); i0 memory_kib;
          ]
        in
        Db.close db;
        row)
      [
        ("read-optimized (leveled+bloom)", Policy.leveled ~size_ratio:4 (), Point_filter.default);
        ("update-optimized (tiered+bloom)", Policy.tiered ~size_ratio:4 (), Point_filter.default);
        ("memory-optimized (leveled, no filters)", Policy.leveled ~size_ratio:4 (),
         Point_filter.No_filter);
        ("balanced (lazy+bloom)", Policy.lazy_leveled ~size_ratio:4 (), Point_filter.default);
      ]
  in
  table [ "design"; "R: pages/get"; "U: write amp"; "M: memory KiB" ] rows

(* ------------------------------------------------------------------ *)
(* E10: memory allocation between buffer, filters, cache                *)
(* ------------------------------------------------------------------ *)

let e10 () =
  banner "E10" "splitting one memory budget across buffer/filter/cache"
    "the right split depends on the mix: write-heavy wants buffer, \
     read-heavy wants filters+cache; co-tuning beats any fixed split \
     (S2.1.3, S2.3.1)";
  let budget = 512 * 1024 in
  let splits =
    [ (0.70, 0.10, 0.20); (0.40, 0.20, 0.40); (0.20, 0.20, 0.60); (0.10, 0.40, 0.50) ]
  in
  let unique = 10_000 in
  let run (b, f, c) write_heavy =
    let buffer = max 4096 (int_of_float (float_of_int budget *. b)) in
    let cache = max 4096 (int_of_float (float_of_int budget *. c)) in
    let filter_bits = int_of_float (float_of_int budget *. f *. 8.0) in
    let config =
      {
        (bench_config ~buffer ~cache ~l1:(4 * buffer) ~file:(2 * buffer) ()) with
        Config.monkey_filters = true;
        filter_memory_bits = filter_bits;
      }
    in
    let dev = Device.in_memory () in
    let db = Db.open_db ~config ~dev () in
    let rng = Rng.create 2 in
    let ops = 40_000 in
    let work () =
      for _ = 1 to ops do
        if write_heavy || Rng.bernoulli rng 0.2 then
          Db.put db ~key:(key (Rng.int rng unique)) (value 64 rng)
        else ignore (Db.get db (key (Rng.int rng unique)))
      done;
      Db.flush db
    in
    let rate = time_ops work ops in
    let lc = measure_lookups ~lookups:1500 db ~unique in
    let r = (rate, lc.present_pages) in
    Db.close db;
    r
  in
  let rows =
    List.map
      (fun ((b, f, c) as split) ->
        let w_rate, w_pages = run split true in
        let r_rate, r_pages = run split false in
        [
          Printf.sprintf "%.0f/%.0f/%.0f" (100. *. b) (100. *. f) (100. *. c);
          f1 w_rate; f3 w_pages; f1 r_rate; f3 r_pages;
        ])
      splits
  in
  table
    [
      "buf/filter/cache %"; "write-heavy ops/s"; "pages/get"; "read-heavy ops/s"; "pages/get ";
    ]
    rows

(* ------------------------------------------------------------------ *)
(* E11: Lethe — timely persistent deletion                              *)
(* ------------------------------------------------------------------ *)

let e11 () =
  banner "E11" "delete persistence latency vs write amplification"
    "TTL-driven (FADE) compaction bounds how long tombstones (and the data \
     they hide) survive, at a modest WA premium (S2.3.3, Lethe)";
  let live_tombstones db =
    List.fold_left
      (fun a (f : Lsm_sstable.Table_meta.t) -> a + f.point_tombstones)
      0
      (Version.all_files (Db.version db))
  in
  let rows =
    List.map
      (fun (nm, movement) ->
        let compaction = { (Policy.leveled ~size_ratio:4 ()) with Policy.movement } in
        let dev = Device.in_memory () in
        let db = Db.open_db ~config:(bench_config ~compaction ()) ~dev () in
        ingest db ~total:30_000 ~unique:6_000;
        Db.major_compact db;
        (* Delete 10% of the keyspace, then watch how long the tombstones
           take to become persistent under light churn. *)
        let rng = Rng.create 13 in
        for i = 0 to 599 do
          Db.delete db (key (i * 10))
        done;
        Db.flush db;
        let rounds = ref 0 in
        while live_tombstones db > 0 && !rounds < 400 do
          incr rounds;
          for _ = 1 to 50 do
            Db.put db ~key:(Printf.sprintf "churn%08d" (Rng.int rng 1_000_000)) (value 64 rng)
          done;
          Db.flush db
        done;
        let persisted = if live_tombstones db = 0 then i0 !rounds else "never (>400)" in
        let row = [ nm; persisted; f2 (Db.write_amplification db) ] in
        Db.close db;
        row)
      [
        ("least-overlap (default)", Policy.Least_overlap);
        ("FADE ttl=2000", Policy.Expired_ttl { ttl = 2000 });
        ("FADE ttl=500", Policy.Expired_ttl { ttl = 500 });
      ]
  in
  table [ "policy"; "rounds to persist"; "WA" ] rows

(* ------------------------------------------------------------------ *)
(* E12: robust tuning under workload drift                              *)
(* ------------------------------------------------------------------ *)

let e12 () =
  banner "E12" "nominal vs robust tuning when the workload drifts"
    "the min-max (Endure-style) tuning gives up little at the expected \
     workload but avoids the cliff when the mix shifts (S2.3.2)";
  let module Model = Lsm_cost.Model in
  let expected =
    {
      Model.entries = 20_000_000;
      entry_bytes = 128;
      page_bytes = 4096;
      f_insert = 0.85;
      f_point_lookup_hit = 0.05;
      f_point_lookup_miss = 0.05;
      f_short_scan = 0.05;
      f_long_scan = 0.0;
      long_scan_pages = 64.0;
    }
  in
  let mem_bits = 8.0 *. float_of_int (32 * 1024 * 1024) in
  let nominal = Lsm_cost.Navigator.best ~total_memory_bits:mem_bits expected in
  let robust = Lsm_cost.Robust.robust_best ~rho:0.5 ~total_memory_bits:mem_bits expected in
  Printf.printf "nominal design: %s\n" (Model.describe_design nominal.Lsm_cost.Navigator.design);
  Printf.printf "robust design : %s\n\n" (Model.describe_design robust.Lsm_cost.Navigator.design);
  let executed =
    [
      ("as expected", expected);
      ( "reads +20%",
        { expected with f_insert = 0.65; f_point_lookup_hit = 0.20; f_point_lookup_miss = 0.10 } );
      ( "scans appear",
        { expected with f_insert = 0.60; f_short_scan = 0.30 } );
      ( "read storm",
        { expected with f_insert = 0.35; f_point_lookup_hit = 0.40; f_point_lookup_miss = 0.20 } );
    ]
  in
  let rows =
    List.map
      (fun (nm, w) ->
        let cn = Model.mixed_cost nominal.Lsm_cost.Navigator.design w in
        let cr = Model.mixed_cost robust.Lsm_cost.Navigator.design w in
        [ nm; f4 cn; f4 cr; (if cr < cn then "robust" else "nominal") ])
      executed
  in
  table [ "executed workload"; "nominal-tuned cost"; "robust-tuned cost"; "winner" ] rows

(* ------------------------------------------------------------------ *)
(* E13: compactions vs the block cache                                  *)
(* ------------------------------------------------------------------ *)

let e13 () =
  banner "E13" "compaction-induced cache invalidation and refill"
    "compactions delete the files whose blocks are hot, evicting them; \
     prefetching output blocks after compaction (Leaper-style) restores \
     the hit rate (S2.1.3)";
  let unique = 6_000 in
  let run refill =
    let config =
      {
        (bench_config ~cache:(256 * 1024) ()) with
        Config.cache_refill_after_compaction = refill;
      }
    in
    let dev = Device.in_memory () in
    let db = Db.open_db ~config ~dev () in
    ingest db ~total:20_000 ~unique;
    let cache = Db.block_cache db in
    let z = Lsm_util.Zipf.create unique in
    let rng = Rng.create 17 in
    (* Warm the cache with hot reads. *)
    for _ = 1 to 8_000 do
      ignore (Db.get db (key (Lsm_util.Zipf.next_scrambled z rng)))
    done;
    Lsm_storage.Block_cache.reset_stats cache;
    (* Interleave hot reads with write churn that triggers compactions. *)
    for i = 1 to 20_000 do
      ignore (Db.get db (key (Lsm_util.Zipf.next_scrambled z rng)));
      if i mod 2 = 0 then Db.put db ~key:(key (Rng.int rng unique)) (value 64 rng)
    done;
    let hit = Lsm_storage.Block_cache.hit_rate cache in
    let evicted = Lsm_storage.Block_cache.evictions cache in
    let comps = (Db.stats db).Stats.compactions in
    Db.close db;
    [ (if refill then "refill on (Leaper-style)" else "refill off"); f3 hit; i0 evicted; i0 comps ]
  in
  table [ "mode"; "hit rate under churn"; "evictions"; "compactions" ] [ run false; run true ]

(* ------------------------------------------------------------------ *)
(* E14: the layout continuum (per-level run caps)                       *)
(* ------------------------------------------------------------------ *)

let e14 () =
  banner "E14" "the data-layout continuum: per-level run caps"
    "between all-leveled and all-tiered lies a continuum of per-level run \
     caps (LSM-Bush direction); WA falls and lookup cost rises monotonically \
     along it (S2.3.1)";
  let total = 40_000 and unique = 8_000 in
  let caps_points =
    [
      ("leveled [1,1,1,1]", [| 1; 1; 1; 1 |]);
      ("hybrid  [4,1,1,1]", [| 4; 1; 1; 1 |]);
      ("hybrid  [4,4,1,1]", [| 4; 4; 1; 1 |]);
      ("hybrid  [4,4,4,1]", [| 4; 4; 4; 1 |]);
      ("tiered  [4,4,4,4]", [| 4; 4; 4; 4 |]);
    ]
  in
  let w =
    {
      Lsm_cost.Model.entries = unique;
      entry_bytes = 78;
      page_bytes = 1024;
      f_insert = 1.0;
      f_point_lookup_hit = 0.0;
      f_point_lookup_miss = 0.0;
      f_short_scan = 0.0;
      f_long_scan = 0.0;
      long_scan_pages = 16.0;
    }
  in
  let rows =
    List.map
      (fun (nm, caps) ->
        let compaction =
          { (Policy.leveled ~size_ratio:4 ()) with Policy.layout = Policy.Run_caps caps }
        in
        let dev = Device.in_memory () in
        let db = Db.open_db ~config:(bench_config ~compaction ()) ~dev () in
        ingest db ~total ~unique;
        let lc = measure_lookups db ~unique in
        let mw, mr =
          Lsm_cost.Model.run_caps_cost ~caps ~size_ratio:4 ~buffer_bytes:(16 * 1024)
            ~filter_bits_per_key:10.0 w
        in
        let row =
          [
            nm; f2 (Db.write_amplification db); f3 lc.present_pages; i0 (total_runs db);
            f3 mw; f4 mr;
          ]
        in
        Db.close db;
        row)
      caps_points
  in
  table
    [ "run caps"; "WA (measured)"; "pages/get"; "runs"; "model write"; "model miss" ]
    rows

(* ------------------------------------------------------------------ *)
(* E15: compaction throttling and write-stall stability                 *)
(* ------------------------------------------------------------------ *)

let e15 () =
  banner "E15" "ablation: compaction throttling (stability)"
    "capping compaction traffic per write round spreads merge work across \
     writes, shrinking the stall tail at the same total work (S2.2.3 SILK / \
     S2.3.2 Luo & Carey)";
  let rows =
    List.map
      (fun (nm, cap) ->
        let dev = Device.in_memory () in
        let config =
          { (bench_config ()) with Config.compaction_bytes_per_round = cap }
        in
        let db = Db.open_db ~config ~dev () in
        ingest db ~total:50_000 ~unique:10_000;
        let h = (Db.stats db).Stats.stall_burst_bytes in
        let row =
          [
            nm; kib (Histogram.percentile h 50.0); kib (Histogram.percentile h 99.0);
            kib (Histogram.max_value h); f2 (Db.write_amplification db);
            i0 (total_runs db);
          ]
        in
        Db.close db;
        row)
      [
        ("unthrottled", None);
        ("cap 256K/round", Some (256 * 1024));
        ("cap 64K/round", Some (64 * 1024));
      ]
  in
  table [ "mode"; "stall p50"; "stall p99"; "stall max"; "WA"; "runs at end" ] rows

(* ------------------------------------------------------------------ *)
(* E16: trivial-move ablation                                           *)
(* ------------------------------------------------------------------ *)

let e16 () =
  banner "E16" "ablation: trivial file moves"
    "moving non-overlapping files down without rewriting them eliminates \
     merge I/O for sequential ingest and helps skewed ingest too (RocksDB \
     trivial move; a data-movement-policy point of S2.2.4)";
  let run nm allow sequential =
    let dev = Device.in_memory () in
    let config = { (bench_config ()) with Config.allow_trivial_move = allow } in
    let db = Db.open_db ~config ~dev () in
    let rng = Rng.create 2 in
    for i = 0 to 39_999 do
      let k = if sequential then i else Rng.int rng 8_000 in
      Db.put db ~key:(key k) (value 64 rng)
    done;
    Db.flush db;
    let s = Db.stats db in
    let row =
      [ nm; f2 (Db.write_amplification db); i0 s.Stats.compactions; i0 s.Stats.trivial_moves ]
    in
    Db.close db;
    row
  in
  table
    [ "workload/mode"; "WA"; "compactions"; "trivial moves" ]
    [
      run "sequential, moves on" true true;
      run "sequential, moves off" false true;
      run "random, moves on" true false;
      run "random, moves off" false false;
    ]

(* ------------------------------------------------------------------ *)
(* E17: block compression                                               *)
(* ------------------------------------------------------------------ *)

let e17 () =
  banner "E17" "ablation: block compression"
    "compressing data blocks cuts device bytes (space and write \
     amplification) for compressible values at a CPU cost; incompressible \
     values fall back to raw storage";
  let run nm compression compressible =
    let dev = Device.in_memory () in
    let config = { (bench_config ()) with Config.compression } in
    let db = Db.open_db ~config ~dev () in
    let rng = Rng.create 8 in
    let total = 30_000 and unique = 6_000 in
    let mk_value i =
      if compressible then Printf.sprintf "city=springfield;state=%02d;zip=%05d;" (i mod 50) i
      else Rng.bytes rng 38
    in
    let load () =
      for i = 1 to total do
        Db.put db ~key:(key (Rng.int rng unique)) (mk_value i)
      done;
      Db.flush db
    in
    let rate = time_ops load total in
    let lc = measure_lookups ~lookups:1000 db ~unique in
    let row =
      [
        nm; i0 (Version.total_bytes (Db.version db) / 1024); f2 (Db.write_amplification db);
        f1 rate; f3 lc.present_pages;
      ]
    in
    Db.close db;
    row
  in
  table
    [ "values/mode"; "tree KiB"; "WA"; "ingest ops/s"; "pages/get" ]
    [
      run "structured, raw" Lsm_sstable.Sstable.C_none true;
      run "structured, lz" Lsm_sstable.Sstable.C_lz true;
      run "random, raw" Lsm_sstable.Sstable.C_none false;
      run "random, lz" Lsm_sstable.Sstable.C_lz false;
    ]

(* ------------------------------------------------------------------ *)
(* E18: point-filter shootout                                           *)
(* ------------------------------------------------------------------ *)

let e18 () =
  banner "E18" "point-filter designs: bloom vs blocked vs cuckoo vs xor"
    "beyond the classic Bloom filter, blocked variants trade FPR for cache \
     locality, cuckoo filters add deletability (Chucky), and static xor \
     filters pack tighter - the replacement space S2.1.3 sketches";
  let n = 20_000 in
  let keys = List.init n (fun i -> Printf.sprintf "fk%08d" i) in
  let rows =
    List.map
      (fun (nm, policy) ->
        let f = Lsm_filter.Point_filter.create policy ~expected:n in
        List.iter (Lsm_filter.Point_filter.add f) keys;
        let encoded = Lsm_filter.Point_filter.encode f in
        let g = Lsm_filter.Point_filter.decode encoded in
        let fp = ref 0 in
        let probes = 40_000 in
        for i = 0 to probes - 1 do
          if Lsm_filter.Point_filter.mem g (Printf.sprintf "no%08d" i) then incr fp
        done;
        (* Keys are formatted before the clock starts: the column times
           probes, not [sprintf] and the minor GCs it drives. *)
        let probe_keys = Array.init probes (fun i -> Printf.sprintf "fk%08d" (i mod n)) in
        let t0 = Sys.time () in
        for i = 0 to probes - 1 do
          ignore (Lsm_filter.Point_filter.mem g probe_keys.(i))
        done;
        let dt = Sys.time () -. t0 in
        [
          nm;
          f2 (float_of_int (Lsm_filter.Point_filter.bit_count g) /. float_of_int n);
          f4 (float_of_int !fp /. float_of_int probes);
          f1 (dt /. float_of_int probes *. 1e9);
        ])
      [
        ("bloom 10b/key", Lsm_filter.Point_filter.Bloom { bits_per_key = 10.0 });
        ("blocked 10b/key", Lsm_filter.Point_filter.Blocked_bloom { bits_per_key = 10.0 });
        ("cuckoo 12b fp", Lsm_filter.Point_filter.Cuckoo { fingerprint_bits = 12 });
        ("xor 8b fp", Lsm_filter.Point_filter.Xor);
      ]
  in
  table [ "filter"; "bits/key"; "FPR"; "probe ns" ] rows

(* ------------------------------------------------------------------ *)
(* E19: adaptive memory management across a workload shift              *)
(* ------------------------------------------------------------------ *)

let e19 () =
  banner "E19" "adaptive buffer/cache split across a workload shift"
    "no static split wins both phases of a shifting workload; an epoch \
     controller that moves memory toward the side paying more device I/O \
     tracks the shift (S2.3.1, Luo & Carey's adaptive memory management)";
  let total_mem = 512 * 1024 in
  let unique = 8_000 in
  let phase db rng write_heavy ops =
    for _ = 1 to ops do
      if write_heavy || Rng.bernoulli rng 0.1 then
        Db.put db ~key:(key (Rng.int rng unique)) (value 64 rng)
      else ignore (Db.get db (key (Rng.int rng unique)))
    done
  in
  let total_io db =
    let st = Db.io_stats db in
    Io_stats.bytes_written ~cls:Io_stats.C_flush st
    + Io_stats.bytes_written ~cls:Io_stats.C_compaction_write st
    + Io_stats.bytes_read ~cls:Io_stats.C_compaction_read st
    + Io_stats.bytes_read ~cls:Io_stats.C_user_read st
  in
  let run nm mode =
    let dev = Device.in_memory () in
    let buffer, cache =
      match mode with
      | `Static f -> (int_of_float (float_of_int total_mem *. f),
                      total_mem - int_of_float (float_of_int total_mem *. f))
      | `Adaptive -> (total_mem / 2, total_mem / 2)
    in
    let config = bench_config ~buffer ~cache ~l1:(128 * 1024) ~file:(64 * 1024) () in
    let db = Db.open_db ~config ~dev () in
    let ctrl =
      match mode with
      | `Adaptive -> Some (Lsm_core.Adaptive_memory.create ~db ~total_bytes:total_mem ())
      | `Static _ -> None
    in
    let rng = Rng.create 21 in
    let epoch_hook () = Option.iter Lsm_core.Adaptive_memory.epoch ctrl in
    let phased write_heavy ops =
      let chunk = 1000 in
      let rec go left =
        if left > 0 then begin
          phase db rng write_heavy (min chunk left);
          epoch_hook ();
          go (left - chunk)
        end
      in
      go ops
    in
    phased true 20_000;
    phased false 20_000;
    phased true 20_000;
    let io = total_io db in
    let extra =
      match ctrl with
      | Some c ->
        Printf.sprintf "%dK/%dK after %d moves"
          (Lsm_core.Adaptive_memory.buffer_bytes c / 1024)
          (Lsm_core.Adaptive_memory.cache_bytes c / 1024)
          (Lsm_core.Adaptive_memory.moves_to_buffer c
          + Lsm_core.Adaptive_memory.moves_to_cache c)
      | None -> Printf.sprintf "%dK/%dK fixed" (buffer / 1024) (cache / 1024)
    in
    Db.close db;
    [ nm; i0 (io / 1024); extra ]
  in
  table
    [ "configuration"; "total device IO (KiB)"; "final buffer/cache" ]
    [
      run "static buffer-heavy 75/25" (`Static 0.75);
      run "static cache-heavy 25/75" (`Static 0.25);
      run "static balanced 50/50" (`Static 0.5);
      run "adaptive (epoch=1000 ops)" `Adaptive;
    ]

(* ------------------------------------------------------------------ *)
(* E20: the Compactionary - named production strategies, one table      *)
(* ------------------------------------------------------------------ *)

let e20 () =
  banner "E20" "the compactionary: production strategies as design-space points"
    "every production compaction strategy is a point in the four-primitive \
     space; running them side by side on one workload exposes where each \
     sits on the write/read/space tradeoff (S2.2.4, Compactionary [111])";
  let total = 40_000 and unique = 8_000 in
  let rows =
    List.map
      (fun (nm, _desc, policy) ->
        let policy = { policy with Lsm_compaction.Policy.size_ratio = 4; level0_limit = 3 } in
        let policy =
          (* keep layouts consistent with the reduced T *)
          match policy.Lsm_compaction.Policy.layout with
          | Lsm_compaction.Policy.Tiering _ ->
            { policy with Lsm_compaction.Policy.layout = Lsm_compaction.Policy.Tiering { runs = 4 } }
          | Lsm_compaction.Policy.Lazy_leveling _ ->
            { policy with
              Lsm_compaction.Policy.layout = Lsm_compaction.Policy.Lazy_leveling { runs = 4 } }
          | Lsm_compaction.Policy.Hybrid { tiered_levels; _ } ->
            { policy with
              Lsm_compaction.Policy.layout =
                Lsm_compaction.Policy.Hybrid { tiered_levels; runs = 4 } }
          | _ -> policy
        in
        let dev = Device.in_memory () in
        let db = Db.open_db ~config:(bench_config ~compaction:policy ()) ~dev () in
        ingest db ~total ~unique;
        let lc = measure_lookups ~lookups:1500 db ~unique in
        let row =
          [
            nm; f2 (Db.write_amplification db); f3 lc.present_pages; i0 (total_runs db);
            f2 (Db.space_amplification db);
          ]
        in
        Db.close db;
        row)
      Lsm_compaction.Compactionary.all
  in
  table [ "strategy"; "WA"; "pages/get"; "runs"; "space-amp" ] rows

(* ------------------------------------------------------------------ *)

let all : (string * string * (unit -> unit)) list =
  [
    ("E1", "layout x size ratio tradeoff", e1);
    ("E2", "memtable implementations", e2);
    ("E3", "Monkey filter allocation", e3);
    ("E4", "range filters", e4);
    ("E5", "compaction granularity", e5);
    ("E6", "data-movement policies", e6);
    ("E7", "key-value separation", e7);
    ("E8", "fragmented LSM", e8);
    ("E9", "RUM tradeoff", e9);
    ("E10", "memory allocation split", e10);
    ("E11", "Lethe timely deletion", e11);
    ("E12", "robust tuning", e12);
    ("E13", "cache vs compaction", e13);
    ("E14", "layout continuum", e14);
    ("E15", "compaction throttling (ablation)", e15);
    ("E16", "trivial moves (ablation)", e16);
    ("E17", "block compression (ablation)", e17);
    ("E18", "point-filter shootout", e18);
    ("E19", "adaptive memory (shift tracking)", e19);
    ("E20", "compactionary shootout", e20);
  ]
