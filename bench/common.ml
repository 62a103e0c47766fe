(* Shared plumbing for the experiment harness: engine construction at
   bench scale, ingestion drivers, lookup cost probes, and table
   rendering. *)

module Policy = Lsm_compaction.Policy
module Device = Lsm_storage.Device
module Io_stats = Lsm_storage.Io_stats
module Db = Lsm_core.Db
module Config = Lsm_core.Config
module Stats = Lsm_core.Stats
module Rng = Lsm_util.Rng
module Zipf = Lsm_util.Zipf
module Histogram = Lsm_util.Histogram

(* Bench-scale knobs: small enough that a full sweep finishes in minutes,
   large enough that trees reach 3+ levels and compaction dominates. *)
let bench_config ?(compaction = Policy.leveled ~size_ratio:4 ()) ?(block_size = 1024)
    ?(buffer = 16 * 1024) ?(l1 = 64 * 1024) ?(file = 32 * 1024) ?(cache = 1 lsl 20)
    ?(filter = Lsm_filter.Point_filter.default) () =
  {
    Config.default with
    write_buffer_size = buffer;
    level1_capacity = l1;
    target_file_size = file;
    block_size;
    block_cache_bytes = cache;
    compaction;
    filter;
    wal_sync_every_write = false;
  }

let key i = Printf.sprintf "user%010d" i
let value size rng = Rng.bytes rng size

(* Ingest [total] puts over [unique] distinct keys (uniform). *)
let ingest ?(value_size = 64) ?(seed = 42) db ~total ~unique =
  let rng = Rng.create seed in
  for _ = 1 to total do
    Db.put db ~key:(key (Rng.int rng unique)) (value value_size rng)
  done;
  Db.flush db

(* Ingest zipfian-skewed updates. *)
let ingest_zipf ?(value_size = 64) ?(seed = 42) ?(theta = 0.99) db ~total ~unique =
  let rng = Rng.create seed in
  let z = Zipf.create ~theta unique in
  for _ = 1 to total do
    Db.put db ~key:(key (Zipf.next_scrambled z rng)) (value value_size rng)
  done;
  Db.flush db

(* Average device pages read per point lookup, split into lookups of
   present keys and of absent keys (the filter-sensitive case). *)
type lookup_cost = {
  present_pages : float;
  absent_pages : float;
  present_found : int;
  fp_rate : float;  (** filter false positives per absent lookup *)
}

let measure_lookups ?(lookups = 2000) ?(seed = 7) db ~unique =
  let rng = Rng.create seed in
  let stats = Db.stats db in
  let pages () = Io_stats.pages_read ~cls:Io_stats.C_user_read (Db.io_stats db) in
  let before = pages () in
  let found = ref 0 in
  for _ = 1 to lookups do
    if Db.get db (key (Rng.int rng unique)) <> None then incr found
  done;
  let mid = pages () in
  let fp_before = stats.Stats.filter_false_positives in
  (* Absent keys must fall inside the tables' key range, else the fence
     check rejects them before the filter is even probed. *)
  for i = 1 to lookups do
    ignore (Db.get db (key (i mod unique) ^ "x"))
  done;
  let after = pages () in
  let fp_after = stats.Stats.filter_false_positives in
  {
    present_pages = float_of_int (mid - before) /. float_of_int lookups;
    absent_pages = float_of_int (after - mid) /. float_of_int lookups;
    present_found = !found;
    fp_rate = float_of_int (fp_after - fp_before) /. float_of_int lookups;
  }

let total_runs db =
  let v = Db.version db in
  let n = ref 0 in
  for l = 0 to Lsm_core.Version.max_levels - 1 do
    n := !n + Lsm_core.Version.run_count v l
  done;
  !n

(* ---------------- table rendering ---------------- *)

let banner id title claim =
  Printf.printf "\n==== %s: %s ====\n" id title;
  Printf.printf "claim: %s\n\n" claim

let table header rows =
  let widths =
    List.fold_left
      (fun acc row -> List.map2 (fun w cell -> max w (String.length cell)) acc row)
      (List.map String.length header) rows
  in
  let render row =
    String.concat "  " (List.map2 (fun w cell -> Printf.sprintf "%-*s" w cell) widths row)
  in
  print_endline (render header);
  print_endline (String.concat "  " (List.map (fun w -> String.make w '-') widths));
  List.iter (fun r -> print_endline (render r)) rows;
  flush stdout

let f1 x = Printf.sprintf "%.1f" x
let f2 x = Printf.sprintf "%.2f" x
let f3 x = Printf.sprintf "%.3f" x
let f4 x = Printf.sprintf "%.4f" x
let i0 = string_of_int
let kib b = Printf.sprintf "%dK" (b / 1024)

let time_ops f ops =
  let t0 = Sys.time () in
  f ();
  let dt = Sys.time () -. t0 in
  if dt <= 0.0 then infinity else float_of_int ops /. dt
