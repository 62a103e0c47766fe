(* Tests for the extension features: write batches, streaming fold,
   trivial moves, compaction throttling, xor filters, block compression,
   and secondary indexes. *)

module Device = Lsm_storage.Device
module Policy = Lsm_compaction.Policy
module Lz = Lsm_util.Lz
module Codec = Lsm_util.Codec
open Lsm_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_opt = Alcotest.(check (option string))

let small_config ?(compaction = Policy.default) () =
  {
    Config.default with
    write_buffer_size = 8 * 1024;
    level1_capacity = 32 * 1024;
    target_file_size = 16 * 1024;
    block_size = 1024;
    compaction = { compaction with Policy.size_ratio = 4; level0_limit = 2 };
    paranoid_checks = true;
  }

let fresh ?config () =
  let dev = Device.in_memory () in
  let config = Option.value ~default:(small_config ()) config in
  (dev, Db.open_db ~config ~dev ())

let key i = Printf.sprintf "key%06d" i
let value i = Printf.sprintf "value-%06d-%s" i (String.make 20 'x')

(* ---------- write batches ---------- *)

let test_batch_applies_all_ops () =
  let _, db = fresh () in
  Db.put db ~key:"gone" "x";
  let b = Write_batch.create () in
  Write_batch.put b ~key:"a" "1";
  Write_batch.put b ~key:"b" "2";
  Write_batch.delete b "gone";
  Write_batch.merge b ~key:"a" "ignored-without-operator";
  check_int "length" 4 (Write_batch.length b);
  Db.apply_batch db b;
  check_opt "a (merge acts as put)" (Some "ignored-without-operator") (Db.get db "a");
  check_opt "b" (Some "2") (Db.get db "b");
  check_opt "deleted in batch" None (Db.get db "gone");
  Db.close db

let test_batch_crash_atomicity () =
  (* Without per-write sync, an unsynced batch vanishes entirely. *)
  let dev = Device.in_memory () in
  let config = { (small_config ()) with Config.wal_sync_every_write = false } in
  let db = Db.open_db ~config ~dev () in
  Db.put db ~key:"pre" "kept";
  Db.flush db (* makes 'pre' durable *);
  let b = Write_batch.create () in
  Write_batch.put b ~key:"x" "1";
  Write_batch.put b ~key:"y" "2";
  Db.apply_batch db b;
  Device.crash dev;
  let db2 = Db.open_db ~config ~dev () in
  check_opt "pre survives" (Some "kept") (Db.get db2 "pre");
  let x = Db.get db2 "x" and y = Db.get db2 "y" in
  check "batch is all-or-nothing" true
    ((x = None && y = None) || (x = Some "1" && y = Some "2"));
  Db.close db2;
  (* With sync, the whole batch must survive. *)
  let dev2 = Device.in_memory () in
  let config2 = { config with Config.wal_sync_every_write = true } in
  let db3 = Db.open_db ~config:config2 ~dev:dev2 () in
  let b2 = Write_batch.create () in
  Write_batch.put b2 ~key:"x" "1";
  Write_batch.range_delete b2 ~lo:"q" ~hi:"r";
  Db.apply_batch db3 b2;
  Device.crash dev2;
  let db4 = Db.open_db ~config:config2 ~dev:dev2 () in
  check_opt "synced batch survives crash" (Some "1") (Db.get db4 "x");
  Db.close db4

let test_batch_empty_and_clear () =
  let _, db = fresh () in
  let b = Write_batch.create () in
  check "empty" true (Write_batch.is_empty b);
  Db.apply_batch db b (* no-op *);
  Write_batch.put b ~key:"k" "v";
  Write_batch.clear b;
  check "cleared" true (Write_batch.is_empty b);
  Db.apply_batch db b;
  check_opt "nothing applied" None (Db.get db "k");
  Db.close db

(* A batch's range delete is judged by the database's comparator, like
   [Db.range_delete], and a rejected range leaves the whole batch
   unwritten: no seqno, no WAL record, none of its other operations. *)
let test_batch_range_delete_order () =
  let config =
    {
      (small_config ()) with
      Config.comparator =
        {
          Lsm_util.Comparator.name = "reverse-bytewise";
          compare = (fun a b -> String.compare b a);
        };
    }
  in
  let _, db = fresh ~config () in
  Db.put db ~key:"m" "1";
  Db.put db ~key:"a" "2";
  (* Under reverse order "z" < "m" < "b": [z, b) covers "m", not "a". *)
  let b = Write_batch.create () in
  Write_batch.range_delete b ~lo:"z" ~hi:"b";
  Db.apply_batch db b;
  check_opt "z..b deletes m" None (Db.get db "m");
  check_opt "a is outside z..b" (Some "2") (Db.get db "a");
  let wal_bytes () =
    Lsm_storage.Io_stats.bytes_written ~cls:Lsm_storage.Io_stats.C_user_write (Db.io_stats db)
  in
  let seqno = Db.last_seqno db and ingested = (Db.stats db).Stats.user_bytes_ingested in
  let wal_before = wal_bytes () in
  let bad = Write_batch.create () in
  Write_batch.put bad ~key:"k" "v";
  Write_batch.range_delete bad ~lo:"b" ~hi:"z";
  check "b..z rejected" true
    (try
       Db.apply_batch db bad;
       false
     with Invalid_argument _ -> true);
  check_opt "nothing of the bad batch applied" None (Db.get db "k");
  check_int "no seqno allocated" seqno (Db.last_seqno db);
  check_int "nothing ingested" ingested (Db.stats db).Stats.user_bytes_ingested;
  check_int "no WAL byte written" wal_before (wal_bytes ());
  check "Db.range_delete agrees" true
    (try
       Db.range_delete db ~lo:"b" ~hi:"z";
       false
     with Invalid_argument _ -> true);
  Db.close db

(* ---------- fold ---------- *)

let test_fold_equals_scan () =
  let _, db = fresh () in
  for i = 0 to 999 do
    Db.put db ~key:(key i) (value i)
  done;
  Db.flush db;
  Db.delete db (key 500);
  let folded =
    List.rev (Db.fold db ~lo:(key 400) ~hi:(Some (key 600)) ~init:[]
                ~f:(fun acc k v -> (k, v) :: acc) ())
  in
  let scanned = Db.scan db ~lo:(key 400) ~hi:(Some (key 600)) () in
  check "fold = scan" true (folded = scanned);
  check_int "deleted key excluded" 199 (List.length folded);
  Db.close db

let test_fold_limit_and_early_bound () =
  let _, db = fresh () in
  for i = 0 to 99 do
    Db.put db ~key:(key i) "v"
  done;
  let n = Db.fold db ~limit:5 ~lo:"" ~hi:None ~init:0 ~f:(fun acc _ _ -> acc + 1) () in
  check_int "limit respected" 5 n;
  Db.close db

(* ---------- trivial moves ---------- *)

let test_trivial_move_fires_and_preserves_data () =
  (* Sequential (non-overlapping) ingest gives pure move-down chances. *)
  let _, db = fresh () in
  for i = 0 to 9999 do
    Db.put db ~key:(key i) (value i)
  done;
  Db.flush db;
  check "trivial moves happened" true ((Db.stats db).Stats.trivial_moves > 0);
  for i = 0 to 9999 do
    if Db.get db (key i) <> Some (value i) then Alcotest.failf "key %d lost by trivial move" i
  done;
  (match Db.check_invariants db with Ok () -> () | Error e -> Alcotest.fail e);
  Db.close db

let test_trivial_move_reduces_wa () =
  let ingest allow =
    let dev = Device.in_memory () in
    let config = { (small_config ()) with Config.allow_trivial_move = allow } in
    let db = Db.open_db ~config ~dev () in
    for i = 0 to 9999 do
      Db.put db ~key:(key i) (value i)
    done;
    Db.flush db;
    let wa = Db.write_amplification db in
    Db.close db;
    wa
  in
  let with_tm = ingest true and without = ingest false in
  check
    (Printf.sprintf "WA with moves %.2f <= without %.2f" with_tm without)
    true (with_tm <= without)

let test_trivial_move_disabled_never_fires () =
  let config = { (small_config ()) with Config.allow_trivial_move = false } in
  let _, db = fresh ~config () in
  for i = 0 to 9999 do
    Db.put db ~key:(key i) (value i)
  done;
  Db.flush db;
  check_int "no trivial moves" 0 (Db.stats db).Stats.trivial_moves;
  Db.close db

(* ---------- compaction throttling ---------- *)

let test_throttling_caps_stall_bursts () =
  let run cap =
    let dev = Device.in_memory () in
    (* Stall bursts are a synchronous-writer phenomenon: pin Inline so
       the comparison is meaningful under the Background CI matrix leg. *)
    let config =
      { (small_config ()) with
        Config.compaction_bytes_per_round = cap;
        compaction_backend = Config.Inline }
    in
    let db = Db.open_db ~config ~dev () in
    let rng = Lsm_util.Rng.create 5 in
    for _ = 1 to 20_000 do
      Db.put db ~key:(key (Lsm_util.Rng.int rng 4000)) (value 0)
    done;
    let worst = Lsm_util.Histogram.max_value (Db.stats db).Stats.stall_burst_bytes in
    (* Correctness unaffected. *)
    check_opt "data intact" (Some (value 0)) (Db.get db (key 0));
    Db.close db;
    worst
  in
  let unthrottled = run None in
  let throttled = run (Some (64 * 1024)) in
  check
    (Printf.sprintf "throttled worst stall %d < unthrottled %d" throttled unthrottled)
    true
    (throttled < unthrottled)

(* ---------- xor filter ---------- *)

let xkeys n = List.init n (fun i -> Printf.sprintf "xor%07d" i)

let test_xor_no_false_negatives () =
  let f = Lsm_filter.Xor_filter.build (xkeys 5000) in
  List.iter
    (fun k -> check ("member " ^ k) true (Lsm_filter.Xor_filter.mem f k))
    (xkeys 5000)

let test_xor_fpr_and_size () =
  let n = 5000 in
  let f = Lsm_filter.Xor_filter.build (xkeys n) in
  let fp = ref 0 in
  for i = 0 to 19_999 do
    if Lsm_filter.Xor_filter.mem f (Printf.sprintf "no%07d" i) then incr fp
  done;
  check (Printf.sprintf "fpr %d/20000 < 1%%" !fp) true (!fp < 200);
  let bits_per_key = float_of_int (Lsm_filter.Xor_filter.bit_count f) /. float_of_int n in
  check (Printf.sprintf "%.2f bits/key near 9.84" bits_per_key) true
    (bits_per_key > 9.0 && bits_per_key < 11.5)

let test_xor_roundtrip () =
  let f = Lsm_filter.Xor_filter.build (xkeys 500) in
  let g = Lsm_filter.Xor_filter.decode (Lsm_filter.Xor_filter.encode f) in
  List.iter (fun k -> check "decoded member" true (Lsm_filter.Xor_filter.mem g k)) (xkeys 500)

let test_xor_empty_and_duplicates () =
  let f = Lsm_filter.Xor_filter.build [] in
  ignore (Lsm_filter.Xor_filter.mem f "anything");
  let g = Lsm_filter.Xor_filter.build [ "dup"; "dup"; "dup"; "other" ] in
  check "dup member" true (Lsm_filter.Xor_filter.mem g "dup");
  check "other member" true (Lsm_filter.Xor_filter.mem g "other")

let test_xor_in_engine () =
  let config = { (small_config ()) with Config.filter = Lsm_filter.Point_filter.Xor } in
  let _, db = fresh ~config () in
  for i = 0 to 2999 do
    Db.put db ~key:(key i) (value i)
  done;
  Db.flush db;
  for i = 0 to 2999 do
    if Db.get db (key i) <> Some (value i) then Alcotest.failf "xor engine lost key %d" i
  done;
  (* zero-result lookups mostly skipped *)
  let before = (Db.stats db).Stats.filter_negatives in
  for i = 0 to 499 do
    ignore (Db.get db (key i ^ "x"))
  done;
  check "xor filter rejects absentees" true ((Db.stats db).Stats.filter_negatives - before > 450);
  Db.close db

(* ---------- lz compression ---------- *)

let compress s =
  let b = Buffer.create 64 in
  Lz.compress_into b s ~pos:0 ~len:(String.length s);
  Buffer.contents b

let decompress c ~expected_len =
  let dst = Bytes.create expected_len in
  Lz.decompress_into c ~pos:0 ~len:(String.length c) dst ~expected_len;
  Bytes.unsafe_to_string dst

let test_lz_roundtrip_basic () =
  List.iter
    (fun s ->
      let c = compress s in
      Alcotest.(check string) "roundtrip" s (decompress c ~expected_len:(String.length s)))
    [
      ""; "a"; "abc"; String.make 1000 'z';
      "abcabcabcabcabcabcabcabc";
      String.concat "" (List.init 100 (fun i -> Printf.sprintf "key%06d=value%06d;" i i));
    ]

let test_lz_compresses_repetitive_data () =
  let s = String.concat "" (List.init 200 (fun i -> Printf.sprintf "user%06d|field|" i)) in
  let c = compress s in
  check
    (Printf.sprintf "compressed %d < 60%% of %d" (String.length c) (String.length s))
    true
    (String.length c * 10 < String.length s * 6)

(* The match table is reused across calls, never cleared: a block must
   still compress to the same bytes whatever was compressed before it,
   here blocks that share its content (whose stale positions would
   match) and ones that fill the table with unrelated positions. *)
let test_lz_independent_of_history () =
  let block = String.concat "" (List.init 300 (fun i -> Printf.sprintf "key%06d=value%06d;" (i mod 40) i)) in
  let fresh = compress block in
  let history =
    [ block; String.make 5000 'q'; String.sub block 100 2000;
      String.init 70_000 (fun i -> Char.chr (i * 7919 land 0xff)) ]
  in
  List.iter
    (fun h ->
      ignore (compress h);
      Alcotest.(check string) "same bytes after another block" fresh (compress block);
      (* And inside a larger buffer, at an offset. *)
      let framed = h ^ block in
      let b = Buffer.create 64 in
      Lz.compress_into b framed ~pos:(String.length h) ~len:(String.length block);
      Alcotest.(check string) "same bytes at an offset" fresh (Buffer.contents b))
    history

let test_lz_rejects_corruption () =
  let s = String.concat "" (List.init 50 (fun i -> Printf.sprintf "row%04d" i)) in
  let c = compress s in
  check "wrong length rejected" true
    (try ignore (decompress c ~expected_len:(String.length s + 1)); false
     with Codec.Corrupt _ -> true)

let prop_lz_roundtrip =
  QCheck.Test.make ~name:"lz roundtrip (random)" ~count:300
    QCheck.(string_gen_of_size Gen.(0 -- 2000) Gen.(char_range 'a' 'h'))
    (fun s -> decompress (compress s) ~expected_len:(String.length s) = s)

let prop_lz_roundtrip_binary =
  QCheck.Test.make ~name:"lz roundtrip (binary)" ~count:200
    QCheck.(string_gen_of_size Gen.(0 -- 1000) Gen.char)
    (fun s -> decompress (compress s) ~expected_len:(String.length s) = s)

let test_compression_in_engine () =
  let run compression =
    let dev = Device.in_memory () in
    let config = { (small_config ()) with Config.compression } in
    let db = Db.open_db ~config ~dev () in
    for i = 0 to 4999 do
      Db.put db ~key:(key i) (value i)
    done;
    Db.flush db;
    for i = 0 to 4999 do
      if Db.get db (key i) <> Some (value i) then Alcotest.failf "compressed engine lost %d" i
    done;
    let bytes = Lsm_core.Version.total_bytes (Db.version db) in
    Db.close db;
    bytes
  in
  let raw = run Lsm_sstable.Sstable.C_none in
  let packed = run Lsm_sstable.Sstable.C_lz in
  check (Printf.sprintf "compressed tree %d < raw %d" packed raw) true (packed < raw)

(* ---------- secondary indexes ---------- *)

module Idx = Lsm_index.Indexed_db

let color_index =
  {
    Idx.index_name = "color";
    extract = (fun ~key:_ ~value -> match String.split_on_char ',' value with c :: _ -> [ c ] | [] -> []);
  }

let tag_index =
  {
    Idx.index_name = "tags";
    extract =
      (fun ~key:_ ~value ->
        match String.split_on_char ',' value with _ :: tags -> tags | [] -> []);
  }

let fresh_indexed () =
  let dev = Device.in_memory () in
  let db = Db.open_db ~config:(small_config ()) ~dev () in
  (dev, Idx.create ~db ~indexes:[ color_index; tag_index ])

let test_index_put_lookup () =
  let _, idx = fresh_indexed () in
  Idx.put idx ~key:"car1" "red,fast";
  Idx.put idx ~key:"car2" "blue,fast,cheap";
  Idx.put idx ~key:"car3" "red,cheap";
  Alcotest.(check (list string)) "red cars" [ "car1"; "car3" ]
    (Idx.lookup_keys idx ~index:"color" ~term:"red");
  Alcotest.(check (list string)) "fast cars" [ "car1"; "car2" ]
    (Idx.lookup_keys idx ~index:"tags" ~term:"fast");
  let reds = Idx.lookup idx ~index:"color" ~term:"red" in
  check "lookup returns values" true (List.assoc "car1" reds = "red,fast")

let test_index_update_moves_terms () =
  let _, idx = fresh_indexed () in
  Idx.put idx ~key:"car1" "red,fast";
  Idx.put idx ~key:"car1" "blue,fast" (* repaint *);
  Alcotest.(check (list string)) "not red anymore" []
    (Idx.lookup_keys idx ~index:"color" ~term:"red");
  Alcotest.(check (list string)) "now blue" [ "car1" ]
    (Idx.lookup_keys idx ~index:"color" ~term:"blue");
  Alcotest.(check (list string)) "kept tag" [ "car1" ]
    (Idx.lookup_keys idx ~index:"tags" ~term:"fast")

let test_index_delete_cleans_entries () =
  let _, idx = fresh_indexed () in
  Idx.put idx ~key:"car1" "red,fast";
  Idx.delete idx "car1";
  check_opt "record gone" None (Idx.get idx "car1");
  Alcotest.(check (list string)) "index entry gone" []
    (Idx.lookup_keys idx ~index:"color" ~term:"red");
  check_int "no live color entries" 0 (Idx.index_entry_count idx ~index:"color")

let test_index_scan_hides_index_entries () =
  let _, idx = fresh_indexed () in
  Idx.put idx ~key:"a" "red";
  Idx.put idx ~key:"b" "blue";
  let got = Idx.scan idx ~lo:"" ~hi:None () in
  Alcotest.(check (list (pair string string)))
    "records only, unprefixed"
    [ ("a", "red"); ("b", "blue") ]
    got

let test_index_survives_flush_and_reopen () =
  let dev = Device.in_memory () in
  let config = { (small_config ()) with Config.wal_sync_every_write = true } in
  let db = Db.open_db ~config ~dev () in
  let idx = Idx.create ~db ~indexes:[ color_index ] in
  for i = 0 to 999 do
    Idx.put idx ~key:(key i) (if i mod 2 = 0 then "red,car" else "blue,car")
  done;
  Db.flush db;
  Db.close db;
  let db2 = Db.open_db ~config ~dev () in
  let idx2 = Idx.create ~db:db2 ~indexes:[ color_index ] in
  check_int "red set survives reopen" 500
    (List.length (Idx.lookup_keys idx2 ~index:"color" ~term:"red"));
  Db.close db2

let test_index_consistency_under_churn () =
  let _, idx = fresh_indexed () in
  let rng = Lsm_util.Rng.create 31 in
  let colors = [| "red"; "blue"; "green" |] in
  let model = Hashtbl.create 64 in
  for _ = 1 to 3000 do
    let k = key (Lsm_util.Rng.int rng 150) in
    if Lsm_util.Rng.bernoulli rng 0.15 then begin
      Idx.delete idx k;
      Hashtbl.remove model k
    end
    else begin
      let c = colors.(Lsm_util.Rng.int rng (Array.length colors)) in
      Idx.put idx ~key:k (c ^ ",x");
      Hashtbl.replace model k c
    end
  done;
  Array.iter
    (fun c ->
      let expected =
        Hashtbl.fold (fun k v acc -> if v = c then k :: acc else acc) model []
        |> List.sort compare
      in
      let got = Idx.lookup_keys idx ~index:"color" ~term:c in
      if got <> expected then
        Alcotest.failf "index drift for %s: %d vs %d" c (List.length got)
          (List.length expected))
    colors

(* ---------- runtime memory knobs & adaptive controller ---------- *)

let test_runtime_memory_knobs () =
  let _, db = fresh () in
  check_int "initial buffer size" (8 * 1024) (Db.write_buffer_size db);
  for i = 0 to 50 do
    Db.put db ~key:(key i) (value i)
  done;
  (* Shrinking below the current footprint rotates immediately. *)
  Db.set_write_buffer_size db 1024;
  check_int "new threshold" 1024 (Db.write_buffer_size db);
  check_opt "data intact after forced rotation" (Some (value 7)) (Db.get db (key 7));
  Db.set_block_cache_bytes db 2048;
  check "cache shrunk" true
    (Lsm_storage.Block_cache.capacity (Db.block_cache db) = 2048
    && Lsm_storage.Block_cache.used_bytes (Db.block_cache db) <= 2048);
  Db.set_block_cache_bytes db (1 lsl 20);
  check_opt "still consistent" (Some (value 13)) (Db.get db (key 13));
  Db.close db

let test_adaptive_moves_toward_writes () =
  let _, db = fresh () in
  let ctrl = Adaptive_memory.create ~db ~total_bytes:(256 * 1024) () in
  let before = Adaptive_memory.buffer_bytes ctrl in
  let rng = Lsm_util.Rng.create 3 in
  (* Pure write phases: every epoch should push memory to the buffer. *)
  for _ = 1 to 5 do
    for _ = 1 to 4000 do
      Db.put db ~key:(key (Lsm_util.Rng.int rng 3000)) (value 0)
    done;
    Adaptive_memory.epoch ctrl
  done;
  check "buffer grew under write load" true (Adaptive_memory.buffer_bytes ctrl > before);
  check "split sums to budget" true
    (Adaptive_memory.buffer_bytes ctrl + Adaptive_memory.cache_bytes ctrl = 256 * 1024);
  Db.close db

let test_adaptive_moves_toward_reads () =
  let _, db = fresh () in
  (* preload, then read-only phases *)
  for i = 0 to 2999 do
    Db.put db ~key:(key i) (value i)
  done;
  Db.flush db;
  let ctrl = Adaptive_memory.create ~db ~total_bytes:(64 * 1024) () in
  let rng = Lsm_util.Rng.create 4 in
  for _ = 1 to 6 do
    for _ = 1 to 3000 do
      ignore (Db.get db (key (Lsm_util.Rng.int rng 3000)))
    done;
    Adaptive_memory.epoch ctrl
  done;
  check "cache grew under read load" true
    (Adaptive_memory.cache_bytes ctrl > 32 * 1024);
  check "respects the floor" true
    (Adaptive_memory.buffer_bytes ctrl >= 6 * 1024);
  Db.close db

(* ---------- compactionary ---------- *)

let test_compactionary_lookup () =
  check "finds rocksdb-leveled" true
    (Lsm_compaction.Compactionary.find "RocksDB-Leveled" <> None);
  check "unknown is none" true (Lsm_compaction.Compactionary.find "nope" = None);
  check_int "ten strategies" 11 (List.length Lsm_compaction.Compactionary.names);
  check "describe renders" true
    (String.length (Lsm_compaction.Compactionary.describe_all ()) > 100)

let test_compactionary_policies_run () =
  (* Every preset must drive the engine correctly end to end. *)
  List.iter
    (fun (nm, _, policy) ->
      let policy = { policy with Lsm_compaction.Policy.size_ratio = 4; level0_limit = 2 } in
      let dev = Device.in_memory () in
      let db = Db.open_db ~config:(small_config ~compaction:policy ()) ~dev () in
      for i = 0 to 2999 do
        Db.put db ~key:(key (i mod 600)) (value i)
      done;
      Db.flush db;
      for i = 0 to 599 do
        if Db.get db (key i) = None then Alcotest.failf "%s lost key %d" nm i
      done;
      (match Db.check_invariants db with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" nm e);
      Db.close db)
    Lsm_compaction.Compactionary.all

let qt t =
  let name, _speed, fn = QCheck_alcotest.to_alcotest t in
  (name, `Quick, fn)

let suite =
  [
    ("batch applies all ops", `Quick, test_batch_applies_all_ops);
    ("batch crash atomicity", `Quick, test_batch_crash_atomicity);
    ("batch empty & clear", `Quick, test_batch_empty_and_clear);
    ("batch range delete: db comparator judges order", `Quick, test_batch_range_delete_order);
    ("fold equals scan", `Quick, test_fold_equals_scan);
    ("fold limit", `Quick, test_fold_limit_and_early_bound);
    ("trivial move fires, data intact", `Quick, test_trivial_move_fires_and_preserves_data);
    ("trivial move reduces WA", `Quick, test_trivial_move_reduces_wa);
    ("trivial move disabled", `Quick, test_trivial_move_disabled_never_fires);
    ("throttling caps stall bursts", `Quick, test_throttling_caps_stall_bursts);
    ("xor: no false negatives", `Quick, test_xor_no_false_negatives);
    ("xor: fpr & size", `Quick, test_xor_fpr_and_size);
    ("xor: roundtrip", `Quick, test_xor_roundtrip);
    ("xor: empty & duplicates", `Quick, test_xor_empty_and_duplicates);
    ("xor: engine integration", `Quick, test_xor_in_engine);
    ("lz roundtrip basic", `Quick, test_lz_roundtrip_basic);
    ("lz compresses repetitive data", `Quick, test_lz_compresses_repetitive_data);
    ("lz rejects corruption", `Quick, test_lz_rejects_corruption);
    ("lz output independent of earlier blocks", `Quick, test_lz_independent_of_history);
    ("compression in engine", `Quick, test_compression_in_engine);
    ("index: put/lookup", `Quick, test_index_put_lookup);
    ("index: update moves terms", `Quick, test_index_update_moves_terms);
    ("index: delete cleans entries", `Quick, test_index_delete_cleans_entries);
    ("index: scan hides index entries", `Quick, test_index_scan_hides_index_entries);
    ("index: survives reopen", `Quick, test_index_survives_flush_and_reopen);
    ("index: consistency under churn", `Quick, test_index_consistency_under_churn);
    ("runtime memory knobs", `Quick, test_runtime_memory_knobs);
    ("adaptive memory: writes grow buffer", `Quick, test_adaptive_moves_toward_writes);
    ("adaptive memory: reads grow cache", `Quick, test_adaptive_moves_toward_reads);
    ("compactionary lookup", `Quick, test_compactionary_lookup);
    ("compactionary presets all run", `Quick, test_compactionary_policies_run);
    qt prop_lz_roundtrip;
    qt prop_lz_roundtrip_binary;
  ]
