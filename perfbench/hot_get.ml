(* hot-get: a preloaded, fully compacted store several times smaller
   than the block cache; zipfian (theta 0.99) point gets only, 10% of
   them for absent keys inside the key range. Loads the memtable probe,
   filters, index search, block-cache hits and the block cursor; skips
   device reads, the WAL, compaction and the server, so a change to
   those should not move it. *)

open Common

let present = 40_000

(* Present keys sit at even indexes, absent ones at the odd indexes
   between them, so an absent key is always inside the key range. *)
let spec ~seed =
  let zipf = Zipf.create ~theta:0.99 ~n:present ~seed in
  {
    Db_workload.name = "hot-get";
    slots = 2 * present;
    preloaded = (fun i -> i land 1 = 0);
    vmin = 96;
    vspan = 64;
    config =
      engine_config ~block_cache_bytes:(32 lsl 20) ~write_buffer_size:(1 lsl 20)
        ~level1_capacity:(4 lsl 20) ~target_file_size:(1 lsl 20) ~max_open_tables:1024;
    compact_after_load = true;
    ops_per_s = 180_000;
    (* One get per present key pulls every data block into the cache. *)
    warmup =
      (fun t _ ->
        for r = 0 to present - 1 do
          Engine_loop.get t (2 * r)
        done);
    op =
      (fun t st ->
        let r = Zipf.next zipf st in
        if Random.State.int st 100 < 10 then Engine_loop.get t ((2 * r) + 1)
        else Engine_loop.get t (2 * r));
    notes = [ ("mix", "100% get, zipf 0.99, 10% absent"); ("clients", "1, closed loop") ];
  }
