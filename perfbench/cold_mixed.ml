(* cold-mixed: a store several times larger than the block cache, with
   uniform keys: 50% puts, 45% gets, 5% scans of 50 keys. Reads come
   from the miss side of the same read layers as hot-get (device reads,
   checksums, decode, evictions, table opens) while the writes load the
   WAL, the memtable, flushes and compaction running inline in the
   writer, so a read-path gain that costs writes shows here. *)

open Common

let keys = 32_000
let scan_len = 50

(* Set-up overwrites every key twice on average after the sorted load,
   so the measured phase starts from a tree whose levels already overlap
   and hold stale versions, as they do under a steady update load; a
   freshly loaded tree has neither, and the metrics would drift for the
   whole run. *)
let warmup_puts = 2 * keys

let spec ~seed:_ =
  {
    Db_workload.name = "cold-mixed";
    slots = keys;
    preloaded = (fun _ -> true);
    vmin = 96;
    vspan = 64;
    config =
      engine_config ~block_cache_bytes:(512 lsl 10) ~write_buffer_size:(128 lsl 10)
        ~level1_capacity:(512 lsl 10) ~target_file_size:(128 lsl 10) ~max_open_tables:1024;
    compact_after_load = false;
    ops_per_s = 18_000;
    warmup =
      (fun t st ->
        for _ = 1 to warmup_puts do
          Engine_loop.put t (Random.State.int st keys)
        done;
        for _ = 1 to 10_000 do
          Engine_loop.get t (Random.State.int st keys)
        done);
    op =
      (fun t st ->
        let i = Random.State.int st keys in
        let r = Random.State.int st 100 in
        if r < 50 then Engine_loop.put t i
        else if r < 95 then Engine_loop.get t i
        else Engine_loop.scan t i ~len:scan_len);
    notes =
      [
        ("mix", "50% put, 45% get, 5% scan of 50, uniform keys");
        ("warmup", Printf.sprintf "%d uniform puts, then 10000 gets" warmup_puts);
        ("flush_policy", "WAL on, no sync per write; memtable flushes inline in the writer");
        ("clients", "1, closed loop");
      ];
  }
