(* Additional coverage: the engine on a real filesystem, iterator fuzzing
   against a reference model, LRU cache model equivalence, binary-key
   robustness, and stress shapes (many snapshots, oversized values). *)

module Entry = Lsm_record.Entry
module Iter = Lsm_record.Iter
module Comparator = Lsm_util.Comparator
module Device = Lsm_storage.Device
module Io_stats = Lsm_storage.Io_stats
module Block_cache = Lsm_storage.Block_cache
module Rng = Lsm_util.Rng
open Lsm_core

let cmp = Comparator.bytewise
let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_opt = Alcotest.(check (option string))

let small_config () =
  {
    Config.default with
    write_buffer_size = 8 * 1024;
    level1_capacity = 32 * 1024;
    target_file_size = 16 * 1024;
    block_size = 1024;
    paranoid_checks = true;
  }

let key i = Printf.sprintf "key%06d" i
let value i = Printf.sprintf "value-%06d-%s" i (String.make 20 'x')

(* ---------- real filesystem end-to-end ---------- *)

let test_engine_on_real_files () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "lsm_e2e" in
  (* Clean slate. *)
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  let config = small_config () in
  let dev = Device.on_disk ~dir () in
  let db = Db.open_db ~config ~dev () in
  for i = 0 to 2999 do
    Db.put db ~key:(key i) (value i)
  done;
  Db.delete db (key 7);
  Db.flush db;
  check "sst files exist on disk" true
    (List.exists (fun f -> Filename.check_suffix f ".sst") (Array.to_list (Sys.readdir dir)));
  check_opt "read back" (Some (value 42)) (Db.get db (key 42));
  check_opt "delete holds" None (Db.get db (key 7));
  Db.close db;
  (* Reopen from the real files. *)
  let dev2 = Device.on_disk ~dir () in
  let db2 = Db.open_db ~config ~dev:dev2 () in
  check_opt "survives reopen from disk" (Some (value 1234)) (Db.get db2 (key 1234));
  check_opt "tombstone survives reopen" None (Db.get db2 (key 7));
  check_int "full scan size" 2999 (List.length (Db.scan db2 ~lo:"" ~hi:None ()));
  Db.close db2

(* ---------- binary / adversarial keys ---------- *)

let test_binary_keys () =
  let _dev = () in
  let dev = Device.in_memory () in
  let db = Db.open_db ~config:(small_config ()) ~dev () in
  let nasty =
    [ "\x00"; "\x00\x00"; "\xff"; "\xff\xff\xff"; "a\x00b"; "\x01\xfe"; String.make 300 '\xab';
      "" ]
  in
  List.iteri (fun i k -> Db.put db ~key:k (Printf.sprintf "v%d" i)) nasty;
  Db.flush db;
  List.iteri
    (fun i k ->
      if Db.get db k <> Some (Printf.sprintf "v%d" i) then
        Alcotest.failf "binary key %d lost" i)
    nasty;
  (* scan must return them in byte order *)
  let keys = List.map fst (Db.scan db ~lo:"" ~hi:None ()) in
  check "sorted byte order" true (keys = List.sort compare nasty);
  Db.close db

let test_value_larger_than_block () =
  let dev = Device.in_memory () in
  let db = Db.open_db ~config:(small_config ()) ~dev () in
  let big = String.init 10_000 (fun i -> Char.chr (i mod 251)) in
  Db.put db ~key:"big" big;
  Db.put db ~key:"small" "s";
  Db.flush db;
  check "oversized value intact" true (Db.get db "big" = Some big);
  check_opt "neighbour intact" (Some "s") (Db.get db "small");
  Db.close db

let test_many_snapshots () =
  let dev = Device.in_memory () in
  let db = Db.open_db ~config:(small_config ()) ~dev () in
  let snaps = ref [] in
  for gen = 0 to 19 do
    Db.put db ~key:"k" (string_of_int gen);
    snaps := (gen, Db.snapshot db) :: !snaps
  done;
  Db.major_compact db;
  List.iter
    (fun (gen, snap) ->
      if Db.get db ~snapshot:snap "k" <> Some (string_of_int gen) then
        Alcotest.failf "snapshot %d lost its version" gen)
    !snaps;
  (* Release all, compact again: only the latest version remains. *)
  List.iter (fun (_, s) -> Db.release db s) !snaps;
  Db.major_compact db;
  check_opt "latest after release" (Some "19") (Db.get db "k");
  let entries =
    List.fold_left
      (fun a (f : Lsm_sstable.Table_meta.t) -> a + f.entries)
      0
      (Version.all_files (Db.version db))
  in
  check (Printf.sprintf "history GCed (%d entries)" entries) true (entries <= 2);
  Db.close db

let test_reopen_many_times () =
  let dev = Device.in_memory () in
  let config = { (small_config ()) with Config.wal_sync_every_write = true } in
  for round = 0 to 9 do
    let db = Db.open_db ~config ~dev () in
    Db.put db ~key:(Printf.sprintf "round%02d" round) "x";
    (* Every earlier round must still be visible. *)
    for r = 0 to round do
      if Db.get db (Printf.sprintf "round%02d" r) <> Some "x" then
        Alcotest.failf "round %d lost at reopen %d" r round
    done;
    Db.close db
  done

(* ---------- sstable iterator fuzz ---------- *)

let prop_sstable_iterator_fuzz =
  QCheck.Test.make ~name:"sstable iterator: random seek/next = model" ~count:60
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 150) (int_bound 300))
        (list_of_size Gen.(1 -- 60) (pair bool (int_bound 330))))
    (fun (raw_keys, ops) ->
      let entries =
        List.sort_uniq compare raw_keys
        |> List.mapi (fun i k -> { Entry.key = Printf.sprintf "k%04d" k; seqno = i + 1;
                                   kind = Entry.Put; value = "v" })
        |> List.sort (Entry.compare cmp)
      in
      match entries with
      | [] -> true
      | entries ->
        let dev = Device.in_memory () in
        let cache = Block_cache.create ~capacity:(1 lsl 18) () in
        let config = { Lsm_sstable.Sstable.default_build_config with block_size = 256 } in
        ignore
          (Lsm_sstable.Sstable.build ~config ~cmp ~dev ~cls:Io_stats.C_flush ~name:"f.sst"
             ~created_at:0 (Iter.of_sorted_list cmp entries));
        let reader = Lsm_sstable.Sstable.open_reader ~cmp ~dev ~cache "f.sst" in
        let it = Lsm_sstable.Sstable.iterator reader ~cls:Io_stats.C_user_read () in
        let model = Iter.of_sorted_list cmp entries in
        it.Iter.seek_to_first ();
        model.Iter.seek_to_first ();
        let agree () =
          it.Iter.valid () = model.Iter.valid ()
          && ((not (it.Iter.valid ())) || it.Iter.entry () = model.Iter.entry ())
        in
        List.for_all
          (fun (is_seek, target) ->
            if is_seek then begin
              let tk = Printf.sprintf "k%04d" target in
              it.Iter.seek tk;
              model.Iter.seek tk
            end
            else begin
              it.Iter.next ();
              model.Iter.next ()
            end;
            agree ())
          ops)

(* ---------- LRU cache model equivalence ---------- *)

let prop_lru_matches_model =
  (* Reference model: association list in recency order with byte budget. *)
  QCheck.Test.make ~name:"block cache = reference LRU" ~count:200
    QCheck.(list_of_size Gen.(0 -- 120) (pair (int_bound 12) (option (int_bound 30))))
    (fun ops ->
      let capacity = 100 in
      let cache = Block_cache.create ~capacity () in
      let model = ref [] in
      (* model: (off, data) list, most recent first *)
      let model_bytes () = List.fold_left (fun a (_, d) -> a + String.length d) 0 !model in
      let model_trim () =
        while model_bytes () > capacity do
          match List.rev !model with
          | [] -> assert false
          | victim :: _ -> model := List.filter (fun e -> e != victim) !model
        done
      in
      let ok = ref true in
      List.iter
        (fun (off, action) ->
          match action with
          | Some len ->
            let data = String.make len 'd' in
            Block_cache.insert cache ~file:"f" ~off ~bytes:len data;
            if len <= capacity then begin
              model := (off, data) :: List.remove_assoc off !model;
              model_trim ()
            end
          | None ->
            let got = Block_cache.find cache ~file:"f" ~off in
            let expected = List.assoc_opt off !model in
            if got <> expected then ok := false
            else (
              match expected with
              | Some d -> model := (off, d) :: List.remove_assoc off !model
              | None -> ()))
        ops;
      !ok && Block_cache.used_bytes cache = model_bytes ())

(* ---------- guarded (PebblesDB) layout model property ---------- *)

(* Puts, deletes and range deletes against a model, then a close/reopen.
   Range tombstones reaching past their file into a neighbouring guard
   must still find their victims when a guard compacts in place at the
   bottom: with guards closed over file spans alone, about one case in
   ten of this size reads a deleted key. *)
let prop_frag_matches_model =
  QCheck.Test.make ~name:"frag engine = model (random ops)" ~count:60
    (* Shrink the op list only: element shrinking multiplies the cost of
       minimizing a 1500-op failure. *)
    QCheck.(
      list_of_size Gen.(50 -- 1500) (triple (int_bound 120) (int_bound 9) (int_bound 1000))
      |> set_shrink (Shrink.list ?shrink:None))
    (fun ops ->
      let dev = Device.in_memory () in
      let config =
        {
          Config.default with
          write_buffer_size = 1024;
          level1_capacity = 8 * 1024;
          target_file_size = 1024;
          block_size = 256;
          paranoid_checks = true;
          compaction =
            {
              (Lsm_compaction.Policy.leveled ~size_ratio:4 ()) with
              Lsm_compaction.Policy.layout = Lsm_compaction.Policy.Guarded { stride_base = 64 };
              level0_limit = 2;
            };
        }
      in
      let db = Db.open_db ~config ~dev () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (k, kind, v) ->
          if kind = 0 then begin
            let hi = k + 1 + (v mod 10) in
            Db.range_delete db ~lo:(key k) ~hi:(key hi);
            for i = k to hi - 1 do
              Hashtbl.replace model (key i) None
            done
          end
          else if kind <= 2 then begin
            Db.delete db (key k);
            Hashtbl.replace model (key k) None
          end
          else begin
            Db.put db ~key:(key k) (string_of_int v);
            Hashtbl.replace model (key k) (Some (string_of_int v))
          end)
        ops;
      let agrees db =
        Hashtbl.fold (fun k v ok -> ok && Db.get db k = v) model true
        && Db.scan db ~lo:"" ~hi:None ()
           = (Hashtbl.fold (fun k v acc -> match v with Some v -> (k, v) :: acc | None -> acc)
                model []
             |> List.sort compare)
      in
      let before = agrees db in
      Db.close db;
      let db = Db.open_db ~config ~dev () in
      let after = agrees db in
      Db.close db;
      before && after)

(* ---------- io accounting sanity ---------- *)

let test_compaction_io_attributed () =
  let dev = Device.in_memory () in
  let db = Db.open_db ~config:(small_config ()) ~dev () in
  let rng = Rng.create 1 in
  for _ = 1 to 10_000 do
    Db.put db ~key:(key (Rng.int rng 2_000)) (value 0)
  done;
  Db.flush db;
  let st = Db.io_stats db in
  check "flush writes attributed" true (Io_stats.bytes_written ~cls:Io_stats.C_flush st > 0);
  check "compaction writes attributed" true
    (Io_stats.bytes_written ~cls:Io_stats.C_compaction_write st > 0);
  check "compaction reads attributed" true
    (Io_stats.bytes_read ~cls:Io_stats.C_compaction_read st > 0);
  (* engine-side and device-side compaction byte counts must agree *)
  check_int "engine write ctr = device ctr"
    (Io_stats.bytes_written ~cls:Io_stats.C_compaction_write st)
    (Db.stats db).Stats.compaction_bytes_written;
  Db.close db

let test_config_validation () =
  let bad f = try f (); false with Invalid_argument _ -> true in
  check "zero buffer rejected" true
    (bad (fun () -> Config.validate { Config.default with write_buffer_size = 0 }));
  check "size ratio 1 rejected" true
    (bad (fun () ->
         Config.validate
           { Config.default with
             compaction = { Config.default.compaction with Lsm_compaction.Policy.size_ratio = 1 } }));
  check "monkey without budget rejected" true
    (bad (fun () -> Config.validate { Config.default with monkey_filters = true }));
  check "non-positive round cap rejected" true
    (bad (fun () -> Config.validate { Config.default with compaction_bytes_per_round = Some 0 }));
  Config.validate Config.default

(* Appended: recovery-time orphan cleanup. *)
let test_orphan_files_cleaned_on_open () =
  let dev = Device.in_memory () in
  let config = small_config () in
  let db = Db.open_db ~config ~dev () in
  for i = 0 to 1999 do
    Db.put db ~key:(key i) (value i)
  done;
  Db.flush db;
  Db.close db;
  (* Simulate a crash that left an unreferenced table behind. *)
  let w = Device.open_writer dev ~cls:Io_stats.C_misc "999999.sst" in
  Device.append w "garbage from an interrupted compaction";
  Device.close w;
  (* And an unrelated file that must NOT be touched. *)
  let w2 = Device.open_writer dev ~cls:Io_stats.C_misc "vlog-000001" in
  Device.append w2 "value log data";
  Device.close w2;
  let db2 = Db.open_db ~config ~dev () in
  check "orphan sst removed" false (Device.exists dev "999999.sst");
  check "non-table file preserved" true (Device.exists dev "vlog-000001");
  check_opt "data unaffected" (Some (value 55)) (Db.get db2 (key 55));
  Db.close db2

(* Appended: checkpoint/backup. *)
let test_checkpoint_roundtrip () =
  let dev = Device.in_memory () in
  let config = small_config () in
  let db = Db.open_db ~config ~dev () in
  for i = 0 to 2999 do
    Db.put db ~key:(key i) (value i)
  done;
  Db.delete db (key 11);
  let dest = Device.in_memory () in
  Db.checkpoint db ~dest;
  (* Source keeps evolving after the checkpoint... *)
  Db.put db ~key:(key 0) "mutated-after-checkpoint";
  Db.flush db;
  (* ...while the backup opens independently with the frozen state. *)
  let backup = Db.open_db ~config ~dev:dest () in
  check_opt "backup has original value" (Some (value 0)) (Db.get backup (key 0));
  check_opt "backup has the delete" None (Db.get backup (key 11));
  check_int "backup scan complete" 2999 (List.length (Db.scan backup ~lo:"" ~hi:None ()));
  check_opt "source has the mutation" (Some "mutated-after-checkpoint") (Db.get db (key 0));
  (* Backups of backups, and double-checkpoint protection. *)
  check "refuses occupied destination" true
    (try Db.checkpoint db ~dest; false with Invalid_argument _ -> true);
  Db.close backup;
  Db.close db

(* Appended: final property tests. *)

(* Snapshot-consistent scans under concurrent-looking mutation histories. *)
let prop_snapshot_scan_frozen =
  QCheck.Test.make ~name:"snapshot scans see a frozen world" ~count:25
    QCheck.(list_of_size Gen.(30 -- 150) (pair (int_bound 40) (int_bound 999)))
    (fun ops ->
      let dev = Device.in_memory () in
      let db = Db.open_db ~config:(small_config ()) ~dev () in
      (* Phase 1: apply half the ops, snapshot, record the expected view. *)
      let half = List.length ops / 2 in
      List.iteri
        (fun i (k, v) -> if i < half then Db.put db ~key:(key k) (string_of_int v))
        ops;
      let snap = Db.snapshot db in
      let frozen = Db.scan db ~snapshot:snap ~lo:"" ~hi:None () in
      (* Phase 2: keep mutating (including deletes) and compact hard. *)
      List.iteri
        (fun i (k, v) ->
          if i >= half then
            if v mod 4 = 0 then Db.delete db (key k)
            else Db.put db ~key:(key k) ("new" ^ string_of_int v))
        ops;
      Db.major_compact db;
      let still = Db.scan db ~snapshot:snap ~lo:"" ~hi:None () in
      Db.release db snap;
      Db.close db;
      still = frozen)

(* WiscKey engine agrees with a model across updates and GC. *)
let prop_kvsep_matches_model =
  QCheck.Test.make ~name:"kv-separated engine = model (with gc)" ~count:15
    QCheck.(list_of_size Gen.(30 -- 200) (pair (int_bound 60) (int_bound 2)))
    (fun ops ->
      let dev = Device.in_memory () in
      let kdb =
        Lsm_kvsep.Kv_db.open_db ~config:(small_config ()) ~value_threshold:32
          ~segment_bytes:(8 * 1024) ~dev ()
      in
      let model = Hashtbl.create 64 in
      List.iteri
        (fun i (k, action) ->
          let k = key k in
          match action with
          | 0 ->
            Lsm_kvsep.Kv_db.delete kdb k;
            Hashtbl.remove model k
          | _ ->
            let v = Printf.sprintf "%04d-%s" i (String.make 60 'v') in
            Lsm_kvsep.Kv_db.put kdb ~key:k v;
            Hashtbl.replace model k v)
        ops;
      Lsm_kvsep.Kv_db.flush kdb;
      ignore (Lsm_kvsep.Kv_db.gc kdb ~max_segments:3 ());
      let ok =
        Hashtbl.fold
          (fun k v acc -> acc && Lsm_kvsep.Kv_db.get kdb k = Some v)
          model true
        && List.for_all
             (fun i -> Hashtbl.mem model (key i) || Lsm_kvsep.Kv_db.get kdb (key i) = None)
             (List.init 60 Fun.id)
      in
      Lsm_kvsep.Kv_db.close kdb;
      ok)

(* The analytic model's monotonicity: more filter memory never increases
   miss cost; a bigger buffer never increases levels. *)
let prop_cost_model_monotone =
  QCheck.Test.make ~name:"cost model monotonicity" ~count:200
    QCheck.(triple (int_range 2 16) (int_range 1 100) (int_range 0 20))
    (fun (t, buf_mib, bits) ->
      let w =
        {
          Lsm_cost.Model.entries = 5_000_000;
          entry_bytes = 100;
          page_bytes = 4096;
          f_insert = 0.5;
          f_point_lookup_hit = 0.25;
          f_point_lookup_miss = 0.25;
          f_short_scan = 0.0;
          f_long_scan = 0.0;
          long_scan_pages = 10.0;
        }
      in
      let d bits buf =
        { Lsm_cost.Model.layout = `Leveling; size_ratio = t;
          buffer_bytes = buf * 1024 * 1024; filter_bits_per_key = float_of_int bits }
      in
      Lsm_cost.Model.point_lookup_miss_cost (d (bits + 2) buf_mib) w
      <= Lsm_cost.Model.point_lookup_miss_cost (d bits buf_mib) w +. 1e-9
      && Lsm_cost.Model.levels (d bits (buf_mib * 2)) w
         <= Lsm_cost.Model.levels (d bits buf_mib) w)

let qt t =
  let name, _speed, fn = QCheck_alcotest.to_alcotest t in
  (name, `Quick, fn)

let suite =
  [
    ("engine on real files", `Quick, test_engine_on_real_files);
    ("binary keys", `Quick, test_binary_keys);
    ("value larger than block", `Quick, test_value_larger_than_block);
    ("many snapshots", `Quick, test_many_snapshots);
    ("reopen many times", `Quick, test_reopen_many_times);
    ("compaction io attributed", `Quick, test_compaction_io_attributed);
    ("orphan files cleaned on open", `Quick, test_orphan_files_cleaned_on_open);
    ("checkpoint roundtrip", `Quick, test_checkpoint_roundtrip);
    ("config validation", `Quick, test_config_validation);
    qt prop_sstable_iterator_fuzz;
    qt prop_lru_matches_model;
    qt prop_frag_matches_model;
    qt prop_snapshot_scan_frozen;
    qt prop_kvsep_matches_model;
    qt prop_cost_model_monotone;
  ]



