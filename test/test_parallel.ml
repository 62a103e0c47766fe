(* Tests for the parallelism layer: the domain pool, the sharded block
   cache, the bounded table cache, multi_get fan-out, and — the load-
   bearing one — determinism: a database compacted by parallel
   subcompactions must hold byte-for-byte the same logical state (levels,
   entries, seqnos, kinds, values) as one compacted serially. *)

module Domain_pool = Lsm_util.Domain_pool
module Block_cache = Lsm_storage.Block_cache
module Device = Lsm_storage.Device
module Io_stats = Lsm_storage.Io_stats
module Table_cache = Lsm_sstable.Table_cache
module Sstable = Lsm_sstable.Sstable
module Entry = Lsm_record.Entry
module Iter = Lsm_record.Iter
module Db = Lsm_core.Db
module Config = Lsm_core.Config
module Stats = Lsm_core.Stats
module Policy = Lsm_compaction.Policy
module Rng = Lsm_util.Rng

(* A table point lookup as the read path does it: the filter probe,
   then the read only on a possible hit. *)
let table_get r ~cls ?(max_seqno = max_int) key =
  if Sstable.may_contain_key r key then Sstable.get_unfiltered r ~cls ~max_seqno key else None

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- domain pool ---------- *)

let test_pool_submit_await () =
  let pool = Domain_pool.create ~size:3 in
  let squares = Domain_pool.map_list pool (fun i -> i * i) (List.init 20 Fun.id) in
  List.iteri (fun i sq -> check_int "square" (i * i) sq) squares;
  Domain_pool.shutdown pool

let test_pool_inline () =
  let pool = Domain_pool.create ~size:0 in
  check_int "inline size" 0 (Domain_pool.size pool);
  let ran = ref 0 in
  Domain_pool.submit pool (fun () -> ran := 41 + 1);
  check_int "inline result" 42 !ran;
  Domain_pool.shutdown pool

let test_pool_map_list_order () =
  let pool = Domain_pool.create ~size:4 in
  let xs = List.init 100 Fun.id in
  let ys = Domain_pool.map_list pool (fun x -> 2 * x) xs in
  Alcotest.(check (list int)) "order preserved" (List.map (fun x -> 2 * x) xs) ys;
  Domain_pool.shutdown pool

exception Boom

let test_pool_exception_propagates () =
  let pool = Domain_pool.create ~size:2 in
  Alcotest.check_raises "reraised at await" Boom (fun () ->
      ignore (Domain_pool.map_list pool (fun () -> raise Boom) [ () ]));
  (* pool survives a failed task *)
  check_int "still works" 7 (List.hd (Domain_pool.map_list pool (fun () -> 7) [ () ]));
  Domain_pool.shutdown pool;
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Domain_pool.submit: pool is shut down") (fun () ->
      Domain_pool.submit pool (fun () -> ()))

let test_pool_shutdown_drains () =
  let pool = Domain_pool.create ~size:2 in
  let counter = Atomic.make 0 in
  for _ = 1 to 50 do
    Domain_pool.submit pool (fun () -> Atomic.incr counter)
  done;
  Domain_pool.shutdown pool;
  check_int "all queued tasks ran" 50 (Atomic.get counter);
  Domain_pool.shutdown pool (* idempotent *)

(* ---------- sharded block cache ---------- *)

let test_sharded_cache_basics () =
  let c = Block_cache.create ~shards:4 ~capacity:4000 () in
  (* Four stripes of 1000 bytes: a block fits one only up to 1000. *)
  let probe = Block_cache.create ~shards:4 ~capacity:4000 () in
  Block_cache.insert probe ~file:"p" ~off:0 ~bytes:1000 "fits";
  Block_cache.insert probe ~file:"p" ~off:1 ~bytes:1001 "too big";
  check_bool "shards" true
    (Block_cache.find probe ~file:"p" ~off:0 <> None
    && Block_cache.find probe ~file:"p" ~off:1 = None);
  check_int "capacity split sums back" 4000 (Block_cache.capacity c);
  for i = 0 to 99 do
    Block_cache.insert c ~file:"f" ~off:(i * 10) ~bytes:10 (String.make 10 'x')
  done;
  check_int "all fit" 1000 (Block_cache.used_bytes c);
  check_int "block count" 100 (Block_cache.block_count c);
  for i = 0 to 99 do
    match Block_cache.find c ~file:"f" ~off:(i * 10) with
    | Some d -> check_int "len" 10 (String.length d)
    | None -> Alcotest.fail "inserted block missing"
  done;
  check_int "hits aggregate" 100 (Block_cache.hits c);
  ignore (Block_cache.find c ~file:"f" ~off:99999);
  check_int "misses aggregate" 1 (Block_cache.misses c);
  check_int "evict_file drops from every shard" 100 (Block_cache.evict_file c "f");
  check_int "empty after evict" 0 (Block_cache.used_bytes c)

let test_sharded_cache_eviction_budget () =
  let c = Block_cache.create ~shards:4 ~capacity:400 () in
  (* Overfill: every shard must stay within its slice of the budget. *)
  for i = 0 to 199 do
    Block_cache.insert c ~file:"f" ~off:i ~bytes:10 (String.make 10 'y')
  done;
  check_bool "bounded" true (Block_cache.used_bytes c <= 400);
  check_bool "evicted something" true (Block_cache.evictions c > 0);
  Block_cache.set_capacity c 80;
  check_bool "shrunk" true (Block_cache.used_bytes c <= 80)

let test_sharded_cache_concurrent () =
  let c = Block_cache.create ~shards:4 ~capacity:(1 lsl 16) () in
  let pool = Domain_pool.create ~size:4 in
  let loads = Atomic.make 0 in
  let worker w =
    for i = 0 to 999 do
      let off = (w * 31 + i) mod 256 in
      let d =
        match Block_cache.find c ~file:"shared" ~off with
        | Some d -> d
        | None ->
          Atomic.incr loads;
          let d = Printf.sprintf "%04d" off in
          Block_cache.insert c ~file:"shared" ~off ~bytes:4 d;
          d
      in
      if int_of_string d <> off then failwith "corrupt cache read"
    done
  in
  ignore (Domain_pool.map_list pool worker [ 0; 1; 2; 3 ]);
  Domain_pool.shutdown pool;
  check_bool "served mostly from cache" true (Atomic.get loads < 4 * 1000);
  check_int "lookups accounted" 4000 (Block_cache.hits c + Block_cache.misses c)

(* ---------- bounded table cache ---------- *)

let build_table dev cmp ~name n =
  let entries =
    Array.init n (fun i ->
        Entry.put ~key:(Printf.sprintf "%s-%04d" name i) ~seqno:(i + 1) "v")
  in
  ignore
    (Sstable.build ~cmp ~dev ~cls:Io_stats.C_flush ~name ~created_at:0
       (Iter.of_sorted_array cmp entries))

let test_table_cache_bound () =
  let cmp = Lsm_util.Comparator.bytewise in
  let dev = Device.in_memory () in
  let cache = Block_cache.create ~capacity:(1 lsl 18) () in
  let tc = Table_cache.create ~capacity:4 ~cmp ~dev ~cache () in
  let names = List.init 10 (fun i -> Printf.sprintf "t%02d.sst" i) in
  List.iter (fun n -> build_table dev cmp ~name:n 10) names;
  List.iter (fun n -> ignore (Table_cache.get tc n)) names;
  check_int "bounded open readers" 4 (Table_cache.open_count tc);
  check_int "evictions" 6 (Table_cache.evictions tc);
  check_int "total opens" 10 (Table_cache.total_opens tc);
  (* An evicted reader reopens transparently, evicting the current LRU. *)
  let r = Table_cache.get tc "t00.sst" in
  check_int "reopen counts" 11 (Table_cache.total_opens tc);
  check_int "still bounded" 4 (Table_cache.open_count tc);
  check_bool "reader works" true
    (table_get r ~cls:Io_stats.C_user_read "t00.sst-0003" <> None);
  (* A recently-used reader is a hit, not a reopen. *)
  ignore (Table_cache.get tc "t00.sst");
  check_int "MRU hit" 11 (Table_cache.total_opens tc)

(* ---------- engine: determinism of parallel subcompactions ---------- *)

let small_config ~parallelism =
  {
    (Config.default) with
    write_buffer_size = 8 * 1024;
    level1_capacity = 32 * 1024;
    target_file_size = 16 * 1024;
    block_size = 1024;
    compaction = Policy.leveled ~size_ratio:4 ();
    compaction_parallelism = parallelism;
    block_cache_shards = (if parallelism > 1 then 4 else 1);
    wal_enabled = false;
  }

(* A fixed mixed workload: skewed updates, point deletes, one range
   delete, interleaved flushes. Entirely deterministic from [seed]. *)
let run_workload db ~seed ~ops =
  let rng = Rng.create seed in
  for i = 1 to ops do
    let k = Rng.int rng 2000 in
    let key = Printf.sprintf "key%06d" k in
    (match Rng.int rng 10 with
    | 0 -> Db.delete db key
    | 1 ->
      (* Single-delete is only well-defined over a key put exactly once
         (its outcome over re-put keys depends on compaction timing, in
         RocksDB too), so give each one a fresh key. *)
      let sk = Printf.sprintf "sd%06d" i in
      Db.put db ~key:sk (Printf.sprintf "sval-%06d" i);
      Db.single_delete db sk
    | _ -> Db.put db ~key (Printf.sprintf "val-%06d-%08d" k (Rng.int rng 1_000_000)));
    if i = ops / 2 then Db.range_delete db ~lo:"key000500" ~hi:"key000600"
  done;
  Db.flush db

let dump_strings db =
  List.map
    (fun (level, (e : Entry.t)) ->
      Printf.sprintf "L%d %s #%d %d %s" level e.key e.seqno (Entry.kind_to_int e.kind)
        (String.escaped e.value))
    (Db.dump_entries db)

let test_parallel_determinism () =
  let mk parallelism =
    let dev = Device.in_memory () in
    let db = Db.open_db ~config:(small_config ~parallelism) ~dev () in
    run_workload db ~seed:0xC0FFEE ~ops:6000;
    db
  in
  let serial = mk 1 and parallel = mk 4 in
  check_bool "parallel path actually ran subcompactions" true
    ((Db.stats parallel).Stats.subcompactions > (Db.stats parallel).Stats.compactions);
  check_int "same seqno" (Db.last_seqno serial) (Db.last_seqno parallel);
  (* Logical state: full scans agree... *)
  let s1 = Db.scan serial ~lo:"" ~hi:None () and s2 = Db.scan parallel ~lo:"" ~hi:None () in
  Alcotest.(check (list (pair string string))) "scans identical" s1 s2;
  (* ...and so does every point lookup, including deleted keys. *)
  for k = 0 to 1999 do
    let key = Printf.sprintf "key%06d" k in
    Alcotest.(check (option string)) key (Db.get serial key) (Db.get parallel key)
  done;
  (* Physical-logical state: after an identical final merge, the trees
     hold entry-for-entry identical data (keys, seqnos, kinds, values) —
     the parallel path's partitioned writes concatenate to exactly the
     serial output stream. *)
  Db.major_compact serial;
  Db.major_compact parallel;
  Alcotest.(check (list string)) "post-major-compact dumps identical"
    (dump_strings serial) (dump_strings parallel);
  (match Db.check_invariants parallel with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Db.close serial;
  Db.close parallel

(* Running the same parallel config twice must be bit-reproducible. *)
let test_parallel_self_determinism () =
  let mk () =
    let dev = Device.in_memory () in
    let db = Db.open_db ~config:(small_config ~parallelism:3) ~dev () in
    run_workload db ~seed:99 ~ops:4000;
    db
  in
  let a = mk () and b = mk () in
  Alcotest.(check (list string)) "identical dumps across runs" (dump_strings a)
    (dump_strings b);
  Db.close a;
  Db.close b

(* ---------- multi_get ---------- *)

let test_multi_get_matches_get () =
  let dev = Device.in_memory () in
  let db = Db.open_db ~config:(small_config ~parallelism:4) ~dev () in
  run_workload db ~seed:7 ~ops:5000;
  let keys =
    List.init 500 (fun i ->
        if i mod 5 = 4 then Printf.sprintf "missing%04d" i
        else Printf.sprintf "key%06d" (i * 4))
  in
  let expected = List.map (fun k -> Db.get db k) keys in
  let gets_before = (Db.stats db).Stats.user_gets in
  let actual = Db.multi_get db keys in
  Alcotest.(check (list (option string))) "multi_get = map get" expected actual;
  check_int "gets accounted" (gets_before + 500) (Db.stats db).Stats.user_gets;
  (* Serial engine takes the List.map path and agrees too. *)
  let dev1 = Device.in_memory () in
  let db1 = Db.open_db ~config:(small_config ~parallelism:1) ~dev:dev1 () in
  run_workload db1 ~seed:7 ~ops:5000;
  Alcotest.(check (list (option string))) "serial multi_get agrees" expected
    (Db.multi_get db1 keys);
  Db.close db;
  Db.close db1

(* multi_get resolves keys on pool domains, which must not touch the
   shared counters; the filter outcomes they saw still have to reach
   [Stats] (a server GET is a one-key multi_get). The same keys through
   [get] and through [multi_get] move every read counter alike. *)
let read_counters db =
  let s = Db.stats db in
  (s.Stats.filter_negatives, s.Stats.filter_false_positives, s.Stats.runs_probed)

let test_multi_get_filter_counters () =
  List.iter
    (fun parallelism ->
      let dev = Device.in_memory () in
      let db = Db.open_db ~config:(small_config ~parallelism) ~dev () in
      run_workload db ~seed:11 ~ops:5000;
      Db.quiesce db;
      let keys =
        List.init 400 (fun i ->
            let k = Printf.sprintf "key%06d" (i * 5) in
            if i mod 4 = 3 then k ^ "-absent" else k)
      in
      let delta (a, b, c) (a', b', c') = (a' - a, b' - b, c' - c) in
      let c0 = read_counters db in
      List.iter (fun k -> ignore (Db.get db k)) keys;
      let c1 = read_counters db in
      ignore (Db.multi_get db keys);
      let c2 = read_counters db in
      let ((negatives, _, _) as via_get) = delta c0 c1 in
      check_bool "the keys exercise the filters" true (negatives > 0);
      Alcotest.(check (triple int int int))
        (Printf.sprintf "multi_get = get, parallelism %d" parallelism)
        via_get (delta c1 c2);
      Db.close db)
    [ 1; 4 ]

let test_multi_get_snapshot () =
  let dev = Device.in_memory () in
  let db = Db.open_db ~config:(small_config ~parallelism:2) ~dev () in
  Db.put db ~key:"a" "1";
  Db.put db ~key:"b" "1";
  let snap = Db.snapshot db in
  Db.put db ~key:"a" "2";
  Db.delete db "b";
  Db.flush db;
  Alcotest.(check (list (option string))) "snapshot view"
    [ Some "1"; Some "1" ]
    (Db.multi_get db ~snapshot:snap [ "a"; "b" ]);
  Alcotest.(check (list (option string))) "live view" [ Some "2"; None ]
    (Db.multi_get db [ "a"; "b" ]);
  Db.release db snap;
  Db.close db

(* ---------- cross-domain stress ---------- *)

(* One writer domain streams puts while reader domains hammer
   get/multi_get/scan on a committed prefix. Readers must always see
   exactly the prefix values; keys written concurrently may surface or
   not, but never corrupt. With [quiet] the config is sized so nothing
   flushes (no version/file churn); otherwise small buffers make the
   writer flush and compact continuously, retiring tables the readers
   are probing — a read that loses its table would surface as a typed
   corruption, quarantine a healthy table, and degrade health. *)
let writer_reader_stress ~quiet backend () =
  let dev = Device.in_memory () in
  let base =
    { (Config.default) with
      wal_enabled = false;
      compaction_parallelism = 2;
      block_cache_shards = 4;
      compaction_backend = backend }
  in
  let config =
    if quiet then { base with write_buffer_size = 64 lsl 20 }
    else
      { base with
        write_buffer_size = 16 * 1024;
        level1_capacity = 64 * 1024;
        target_file_size = 16 * 1024;
        block_size = 1024;
        compaction = Policy.leveled ~size_ratio:4 () }
  in
  let db = Db.open_db ~config ~dev () in
  let stable = 2000 in
  let stable_key i = Printf.sprintf "s%06d" i and stable_val i = Printf.sprintf "stable%06d" i in
  for i = 0 to stable - 1 do
    Db.put db ~key:(stable_key i) (stable_val i)
  done;
  let stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        let i = ref 0 in
        while not (Atomic.get stop) do
          Db.put db ~key:(Printf.sprintf "w%08d" (!i mod 5000)) (Printf.sprintf "live%08d" !i);
          incr i
        done;
        !i)
  in
  let reader r =
    Domain.spawn (fun () ->
        let rng = Rng.create (r + 1) in
        let wrong = ref 0 and errors = ref 0 in
        for n = 1 to 3000 do
          let i = Rng.int rng stable in
          match
            if n mod 50 = 0 then begin
              let idx = List.init 8 (fun k -> (i + k) mod stable) in
              List.iter2
                (fun j v -> if v <> Some (stable_val j) then incr wrong)
                idx
                (Db.multi_get db (List.map stable_key idx))
            end
            else if n mod 100 = 1 then begin
              match Db.scan db ~limit:3 ~lo:(stable_key i) ~hi:(Some "t") () with
              | (k, v) :: _ -> if k <> stable_key i || v <> stable_val i then incr wrong
              | [] -> incr wrong
            end
            else if Db.get db (stable_key i) <> Some (stable_val i) then incr wrong
          with
          | () -> ()
          | exception Lsm_util.Lsm_error.Error _ -> incr errors
        done;
        (!wrong, !errors))
  in
  let readers = List.init 3 reader in
  let results = List.map Domain.join readers in
  Atomic.set stop true;
  let written = Domain.join writer in
  check_int "readers saw no wrong values" 0 (List.fold_left (fun a (w, _) -> a + w) 0 results);
  check_int "readers hit no errors" 0 (List.fold_left (fun a (_, e) -> a + e) 0 results);
  check_bool "writer made progress" true (written > 0);
  if not quiet then
    check_bool "writer flushed and compacted" true ((Db.stats db).Stats.compactions > 0);
  check_bool "health stays Healthy" true (Db.health db = Db.Healthy);
  check_int "nothing quarantined" 0 (List.length (Db.quarantined_tables db));
  (* Quiesced: everything lands and survives a flush + parallel compaction. *)
  Db.flush db;
  check_int "stable prefix intact" stable
    (List.length (Db.scan db ~lo:"s" ~hi:(Some "t") ()));
  Db.close db

(* ---------- config plumbing ---------- *)

let test_config_knobs () =
  let expect_invalid cfg =
    match Config.validate cfg with
    | () -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  expect_invalid { Config.default with compaction_parallelism = 0 };
  expect_invalid { Config.default with block_cache_shards = 0 };
  expect_invalid { Config.default with max_open_tables = 1 };
  Config.validate { Config.default with compaction_parallelism = 8; block_cache_shards = 16 };
  (* the knobs reach the engine *)
  let dev = Device.in_memory () in
  let db =
    Db.open_db
      ~config:{ Config.default with block_cache_shards = 8; max_open_tables = 32 }
      ~dev ()
  in
  (* Eight equal stripes: a block charged an eighth of the budget fits
     one, a byte more fits none. *)
  let cache = Db.block_cache db in
  let stripe = Block_cache.capacity cache / 8 in
  let block =
    let module Block = Lsm_sstable.Block in
    let b = Block.Builder.create () in
    let v = Iter.new_view () in
    Iter.fill_view v (Entry.put ~key:"k" ~seqno:1 "v");
    Block.Builder.add_view b v;
    let n = Block.Builder.finish_into b in
    Block.parse (Block.Builder.window b) ~start:1 ~base:1 ~stop:n
  in
  Block_cache.insert cache ~file:"probe" ~off:0 ~bytes:stripe block;
  Block_cache.insert cache ~file:"probe" ~off:1 ~bytes:(stripe + 1) block;
  check_bool "cache sharded" true
    (Block_cache.capacity cache mod 8 = 0
    && Block_cache.find cache ~file:"probe" ~off:0 <> None
    && Block_cache.find cache ~file:"probe" ~off:1 = None);
  check_int "table cache bounded" 32 (Table_cache.capacity (Db.table_cache db));
  Db.close db

let suite =
  [
    Alcotest.test_case "pool: submit/await" `Quick test_pool_submit_await;
    Alcotest.test_case "pool: inline (size 0)" `Quick test_pool_inline;
    Alcotest.test_case "pool: map_list order" `Quick test_pool_map_list_order;
    Alcotest.test_case "pool: exceptions propagate" `Quick test_pool_exception_propagates;
    Alcotest.test_case "pool: shutdown drains" `Quick test_pool_shutdown_drains;
    Alcotest.test_case "cache: sharded basics" `Quick test_sharded_cache_basics;
    Alcotest.test_case "cache: sharded eviction" `Quick test_sharded_cache_eviction_budget;
    Alcotest.test_case "cache: concurrent access" `Quick test_sharded_cache_concurrent;
    Alcotest.test_case "table cache: LRU bound" `Quick test_table_cache_bound;
    Alcotest.test_case "subcompactions: serial = parallel" `Slow test_parallel_determinism;
    Alcotest.test_case "subcompactions: reproducible" `Slow test_parallel_self_determinism;
    Alcotest.test_case "multi_get = map get" `Quick test_multi_get_matches_get;
    Alcotest.test_case "multi_get: snapshots" `Quick test_multi_get_snapshot;
    Alcotest.test_case "multi_get: filter counters = get" `Quick test_multi_get_filter_counters;
    Alcotest.test_case "stress: writer + readers" `Slow
      (writer_reader_stress ~quiet:true Config.default.compaction_backend);
    Alcotest.test_case "stress: writer + readers, flushing (inline)" `Slow
      (writer_reader_stress ~quiet:false Config.Inline);
    Alcotest.test_case "stress: writer + readers, flushing (background)" `Slow
      (writer_reader_stress ~quiet:false Config.Background);
    Alcotest.test_case "config: new knobs" `Quick test_config_knobs;
  ]
