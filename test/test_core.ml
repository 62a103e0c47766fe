(* Engine tests: end-to-end behaviour of the LSM tree across layouts,
   model-based agreement, snapshots, deletes, recovery, invariants. *)

module Entry = Lsm_record.Entry
module Device = Lsm_storage.Device
module Io_stats = Lsm_storage.Io_stats
module Memtable = Lsm_memtable.Memtable
module Policy = Lsm_compaction.Policy
module Sstable = Lsm_sstable.Sstable
open Lsm_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_opt = Alcotest.(check (option string))

(* Small-capacity config so flushes/compactions actually trigger in tests. *)
let small_config ?(compaction = Policy.default) () =
  {
    Config.default with
    write_buffer_size = 8 * 1024;
    level1_capacity = 32 * 1024;
    target_file_size = 16 * 1024;
    block_size = 1024;
    block_cache_bytes = 256 * 1024;
    compaction = { compaction with Policy.size_ratio = 4; level0_limit = 2 };
    paranoid_checks = true;
  }

let fresh ?config () =
  let dev = Device.in_memory () in
  let config = Option.value ~default:(small_config ()) config in
  (dev, Db.open_db ~config ~dev ())

let key i = Printf.sprintf "key%06d" i
let value i = Printf.sprintf "value-%06d-%s" i (String.make 20 'x')

(* ---------- basic operations ---------- *)

let test_put_get_small () =
  let _, db = fresh () in
  Db.put db ~key:"alpha" "1";
  Db.put db ~key:"beta" "2";
  check_opt "alpha" (Some "1") (Db.get db "alpha");
  check_opt "beta" (Some "2") (Db.get db "beta");
  check_opt "missing" None (Db.get db "gamma");
  Db.close db

let test_update_overwrites () =
  let _, db = fresh () in
  Db.put db ~key:"k" "old";
  Db.put db ~key:"k" "new";
  check_opt "newest wins" (Some "new") (Db.get db "k");
  Db.close db

let test_delete_hides () =
  let _, db = fresh () in
  Db.put db ~key:"k" "v";
  Db.delete db "k";
  check_opt "deleted" None (Db.get db "k");
  Db.put db ~key:"k" "back";
  check_opt "reinserted" (Some "back") (Db.get db "k");
  Db.close db

let test_get_across_flush () =
  let _, db = fresh () in
  for i = 0 to 999 do
    Db.put db ~key:(key i) (value i)
  done;
  Db.flush db;
  check "flushed to disk" true (Version.file_count (Db.version db) > 0);
  for i = 0 to 999 do
    if Db.get db (key i) <> Some (value i) then
      Alcotest.failf "key %d wrong after flush" i
  done;
  check_opt "missing still missing" None (Db.get db "nope");
  Db.close db

let test_updates_across_levels () =
  let _, db = fresh () in
  (* Three generations of the same keys, flushed in between: reads must
     see the newest (LSM invariant §2.1.1.E). *)
  for gen = 1 to 3 do
    for i = 0 to 299 do
      Db.put db ~key:(key i) (Printf.sprintf "gen%d-%d" gen i)
    done;
    Db.flush db
  done;
  for i = 0 to 299 do
    if Db.get db (key i) <> Some (Printf.sprintf "gen3-%d" i) then
      Alcotest.failf "key %d resurrected an old version" i
  done;
  Db.close db

let test_scan_basic () =
  let _, db = fresh () in
  List.iter (fun k -> Db.put db ~key:k k) [ "a"; "b"; "c"; "d"; "e" ];
  Db.delete db "c";
  let got = Db.scan db ~lo:"b" ~hi:(Some "e") () in
  Alcotest.(check (list (pair string string)))
    "range excludes deleted and hi"
    [ ("b", "b"); ("d", "d") ]
    got;
  Db.close db

let test_scan_across_flush_and_memtable () =
  let _, db = fresh () in
  for i = 0 to 499 do
    Db.put db ~key:(key i) (value i)
  done;
  Db.flush db;
  (* overwrite a few in the memtable *)
  Db.put db ~key:(key 100) "fresh100";
  Db.delete db (key 101);
  let got = Db.scan db ~lo:(key 99) ~hi:(Some (key 103)) () in
  Alcotest.(check (list (pair string string)))
    "merged view"
    [ (key 99, value 99); (key 100, "fresh100"); (key 102, value 102) ]
    got;
  Db.close db

let test_scan_limit () =
  let _, db = fresh () in
  for i = 0 to 99 do
    Db.put db ~key:(key i) "v"
  done;
  check_int "limit" 7 (List.length (Db.scan db ~limit:7 ~lo:"" ~hi:None ()));
  Db.close db

let test_empty_db () =
  let _, db = fresh () in
  check_opt "get on empty" None (Db.get db "k");
  check_int "scan on empty" 0 (List.length (Db.scan db ~lo:"" ~hi:None ()));
  Db.flush db (* flush of nothing is fine *);
  Db.close db

(* ---------- model-based agreement across layouts ---------- *)

let layouts =
  let base =
    [
      ("leveled", Policy.leveled ~size_ratio:4 ());
      ("tiered", Policy.tiered ~size_ratio:4 ());
      ("lazy-leveled", Policy.lazy_leveled ~size_ratio:4 ());
      ( "hybrid",
        { (Policy.leveled ~size_ratio:4 ()) with
          Policy.layout = Policy.Hybrid { tiered_levels = 2; runs = 4 } } );
      ( "whole-level",
        { (Policy.leveled ~size_ratio:4 ()) with Policy.granularity = Policy.Whole_level } );
      ( "run-caps",
        { (Policy.leveled ~size_ratio:4 ()) with
          Policy.layout = Policy.Run_caps [| 3; 2; 1 |] } );
    ]
  in
  (* each again under Lethe's TTL trigger *)
  base
  @ List.map
      (fun (name, policy) ->
        (name ^ "+ttl", { policy with Policy.movement = Policy.Expired_ttl { ttl = 200 } }))
      base

let run_model_workload db n seed =
  (* Interleaved puts/updates/deletes over a small key space, then verify
     every key against a Map model, via both get and scan. *)
  let rng = Lsm_util.Rng.create seed in
  let model = Hashtbl.create 256 in
  let keyspace = 400 in
  for _ = 1 to n do
    let k = key (Lsm_util.Rng.int rng keyspace) in
    if Lsm_util.Rng.bernoulli rng 0.25 then begin
      Db.delete db k;
      Hashtbl.replace model k None
    end
    else begin
      let v = Printf.sprintf "v%d" (Lsm_util.Rng.int rng 1000000) in
      Db.put db ~key:k v;
      Hashtbl.replace model k (Some v)
    end
  done;
  (* point gets *)
  for i = 0 to keyspace - 1 do
    let k = key i in
    let expected = Option.join (Hashtbl.find_opt model k) in
    let got = Db.get db k in
    if got <> expected then
      Alcotest.failf "get %s: got %s, expected %s" k
        (Option.value ~default:"<none>" got)
        (Option.value ~default:"<none>" expected)
  done;
  (* full scan *)
  let expected_pairs =
    Hashtbl.fold (fun k v acc -> match v with Some v -> (k, v) :: acc | None -> acc) model []
    |> List.sort compare
  in
  let got_pairs = Db.scan db ~lo:"" ~hi:None () in
  if got_pairs <> expected_pairs then begin
    Alcotest.failf "scan mismatch: got %d pairs, expected %d"
      (List.length got_pairs) (List.length expected_pairs)
  end

let test_model_layout (name, compaction) =
  ( Printf.sprintf "model agreement (%s)" name,
    `Quick,
    fun () ->
      let _, db = fresh ~config:(small_config ~compaction ()) () in
      run_model_workload db 3000 42;
      (match Db.check_invariants db with
      | Ok () -> ()
      | Error e -> Alcotest.failf "invariant: %s" e);
      check (name ^ ": compactions happened") true ((Db.stats db).Stats.compactions > 0);
      Db.close db )

let test_model_memtables kind =
  ( Printf.sprintf "model agreement (%s buffer)" (Memtable.kind_name kind),
    `Quick,
    fun () ->
      let config = { (small_config ()) with Config.memtable = kind } in
      let _, db = fresh ~config () in
      run_model_workload db 1500 7;
      Db.close db )

(* ---------- layout shape assertions ---------- *)

let test_leveling_single_run_per_level () =
  let _, db = fresh ~config:(small_config ~compaction:(Policy.leveled ~size_ratio:4 ()) ()) () in
  for i = 0 to 4999 do
    Db.put db ~key:(key i) (value i)
  done;
  Db.flush db;
  let v = Db.version db in
  for l = 1 to Version.max_levels - 1 do
    check (Printf.sprintf "level %d has <= 1 run" l) true (Version.run_count v l <= 1)
  done;
  Db.close db

let test_tiering_accumulates_runs () =
  let _, db = fresh ~config:(small_config ~compaction:(Policy.tiered ~size_ratio:4 ()) ()) () in
  for i = 0 to 4999 do
    Db.put db ~key:(key (i mod 1000)) (value i)
  done;
  Db.flush db;
  let v = Db.version db in
  let max_runs = ref 0 in
  for l = 1 to Version.max_levels - 1 do
    max_runs := max !max_runs (Version.run_count v l);
    check (Printf.sprintf "level %d under cap" l) true (Version.run_count v l <= 4)
  done;
  check "some level holds multiple runs" true (!max_runs > 1);
  Db.close db

let test_lazy_leveling_last_level_single_run () =
  let _, db =
    fresh ~config:(small_config ~compaction:(Policy.lazy_leveled ~size_ratio:4 ()) ()) ()
  in
  for i = 0 to 7999 do
    Db.put db ~key:(key i) (value i)
  done;
  Db.flush db;
  let v = Db.version db in
  let last = Version.last_level v in
  check "tree has depth" true (last >= 2);
  check_int "last level is leveled" 1 (Version.run_count v last);
  Db.close db

(* ---------- write amplification ordering (the core tradeoff) ---------- *)

let ingest_wa compaction =
  let dev = Device.in_memory () in
  let db = Db.open_db ~config:(small_config ~compaction ()) ~dev () in
  for i = 0 to 14999 do
    Db.put db ~key:(key (i mod 3000)) (value i)
  done;
  Db.flush db;
  let wa = Db.write_amplification db in
  Db.close db;
  wa

let test_tiering_writes_less_than_leveling () =
  let wa_level = ingest_wa (Policy.leveled ~size_ratio:4 ()) in
  let wa_tier = ingest_wa (Policy.tiered ~size_ratio:4 ()) in
  check
    (Printf.sprintf "tiering WA %.2f < leveling WA %.2f" wa_tier wa_level)
    true (wa_tier < wa_level)

let test_leveling_reads_fewer_runs_than_tiering () =
  let probes compaction =
    let dev = Device.in_memory () in
    let db = Db.open_db ~config:(small_config ~compaction ()) ~dev () in
    for i = 0 to 9999 do
      Db.put db ~key:(key (i mod 2000)) (value i)
    done;
    Db.flush db;
    let v = Db.version db in
    let runs = ref 0 in
    for l = 0 to Version.max_levels - 1 do
      runs := !runs + Version.run_count v l
    done;
    Db.close db;
    !runs
  in
  let r_level = probes (Policy.leveled ~size_ratio:4 ()) in
  let r_tier = probes (Policy.tiered ~size_ratio:4 ()) in
  check
    (Printf.sprintf "leveling %d runs <= tiering %d runs" r_level r_tier)
    true (r_level <= r_tier)

(* ---------- snapshots ---------- *)

let test_snapshot_isolation () =
  let _, db = fresh () in
  Db.put db ~key:"k" "v1";
  let snap = Db.snapshot db in
  Db.put db ~key:"k" "v2";
  Db.delete db "other";
  check_opt "snapshot sees v1" (Some "v1") (Db.get db ~snapshot:snap "k");
  check_opt "latest sees v2" (Some "v2") (Db.get db "k");
  Db.release db snap;
  Db.close db

let test_snapshot_survives_flush_and_compaction () =
  let _, db = fresh () in
  Db.put db ~key:"stable" "original";
  let snap = Db.snapshot db in
  for i = 0 to 4999 do
    Db.put db ~key:(key i) (value i)
  done;
  Db.put db ~key:"stable" "changed";
  Db.major_compact db;
  check_opt "snapshot pierces compaction" (Some "original") (Db.get db ~snapshot:snap "stable");
  check_opt "latest" (Some "changed") (Db.get db "stable");
  Db.release db snap;
  (* After release, another major compaction may GC the old version. *)
  Db.major_compact db;
  check_opt "still latest" (Some "changed") (Db.get db "stable");
  Db.close db

let test_snapshot_scan () =
  let _, db = fresh () in
  Db.put db ~key:"a" "1";
  Db.put db ~key:"b" "2";
  let snap = Db.snapshot db in
  Db.delete db "a";
  Db.put db ~key:"c" "3";
  let got = Db.scan db ~snapshot:snap ~lo:"" ~hi:None () in
  Alcotest.(check (list (pair string string))) "snapshot view" [ ("a", "1"); ("b", "2") ] got;
  Db.release db snap;
  Db.close db

(* ---------- tombstone GC ---------- *)

let test_tombstones_purged_at_bottom () =
  let _, db = fresh () in
  for i = 0 to 999 do
    Db.put db ~key:(key i) (value i)
  done;
  for i = 0 to 999 do
    Db.delete db (key i)
  done;
  Db.major_compact db;
  Db.major_compact db;
  let v = Db.version db in
  let files = Version.all_files v in
  let tombs =
    List.fold_left (fun a (f : Lsm_sstable.Table_meta.t) -> a + f.point_tombstones) 0 files
  in
  check_int "all tombstones persisted away" 0 tombs;
  check_int "no visible keys" 0 (List.length (Db.scan db ~lo:"" ~hi:None ()));
  Db.close db

let test_single_delete_cancels () =
  let _, db = fresh () in
  Db.put db ~key:"once" "v";
  Db.single_delete db "once";
  check_opt "hidden" None (Db.get db "once");
  Db.major_compact db;
  check_opt "still hidden after compaction" None (Db.get db "once");
  Db.close db

(* ---------- range deletes ---------- *)

let test_range_delete_memtable () =
  let _, db = fresh () in
  List.iter (fun k -> Db.put db ~key:k "v") [ "a"; "b"; "c"; "d"; "e" ];
  Db.range_delete db ~lo:"b" ~hi:"d";
  check_opt "a survives" (Some "v") (Db.get db "a");
  check_opt "b dead" None (Db.get db "b");
  check_opt "c dead" None (Db.get db "c");
  check_opt "d survives (exclusive)" (Some "v") (Db.get db "d");
  let got = List.map fst (Db.scan db ~lo:"" ~hi:None ()) in
  Alcotest.(check (list string)) "scan skips range" [ "a"; "d"; "e" ] got;
  Db.close db

let test_range_delete_across_flush () =
  let _, db = fresh () in
  for i = 0 to 299 do
    Db.put db ~key:(key i) (value i)
  done;
  Db.flush db;
  Db.range_delete db ~lo:(key 100) ~hi:(key 200);
  Db.flush db;
  check_opt "inside dead" None (Db.get db (key 150));
  check_opt "below live" (Some (value 99)) (Db.get db (key 99));
  check_opt "above live" (Some (value 200)) (Db.get db (key 200));
  check_int "scan count" 200 (List.length (Db.scan db ~lo:"" ~hi:None ()));
  (* compaction applies the range tombstone physically *)
  Db.major_compact db;
  check_opt "still dead after compaction" None (Db.get db (key 150));
  check_int "scan count after compaction" 200 (List.length (Db.scan db ~lo:"" ~hi:None ()));
  Db.close db

let test_range_delete_then_reinsert () =
  let _, db = fresh () in
  Db.put db ~key:"m" "old";
  Db.range_delete db ~lo:"a" ~hi:"z";
  Db.put db ~key:"m" "new";
  check_opt "reinsert after range delete" (Some "new") (Db.get db "m");
  Db.major_compact db;
  check_opt "survives compaction" (Some "new") (Db.get db "m");
  Db.close db

(* ---------- merge operator ---------- *)

let test_merge_operator_counter () =
  let plus key base operands =
    ignore key;
    let start = match base with Some b -> int_of_string b | None -> 0 in
    string_of_int (List.fold_left (fun a op -> a + int_of_string op) start operands)
  in
  let config = { (small_config ()) with Config.merge_operator = Some plus } in
  let _, db = fresh ~config () in
  Db.put db ~key:"ctr" "10";
  Db.merge db ~key:"ctr" "5";
  Db.merge db ~key:"ctr" "7";
  check_opt "10+5+7" (Some "22") (Db.get db "ctr");
  Db.flush db;
  check_opt "after flush" (Some "22") (Db.get db "ctr");
  Db.merge db ~key:"fresh" "3";
  check_opt "merge without base" (Some "3") (Db.get db "fresh");
  (* merges visible through scan too *)
  let got = Db.scan db ~lo:"ctr" ~hi:(Some "ctr\x00") () in
  Alcotest.(check (list (pair string string))) "scan resolves merge" [ ("ctr", "22") ] got;
  Db.close db

let test_merge_without_operator_acts_as_put () =
  let _, db = fresh () in
  Db.put db ~key:"k" "base";
  Db.merge db ~key:"k" "older";
  Db.merge db ~key:"k" "operand";
  let both_paths label =
    check_opt (label ^ ": newest operand wins") (Some "operand") (Db.get db "k");
    Alcotest.(check (list (pair string string)))
      (label ^ ": scan agrees") [ ("k", "operand") ]
      (Db.scan db ~lo:"k" ~hi:(Some "k\x00") ())
  in
  both_paths "memtable";
  Db.flush db;
  both_paths "after flush";
  Db.close db

(* ---------- recovery ---------- *)

let test_recovery_from_wal () =
  let dev = Device.in_memory () in
  let config = small_config () in
  let db = Db.open_db ~config ~dev () in
  Db.put db ~key:"a" "1";
  Db.put db ~key:"b" "2";
  Db.delete db "a";
  Db.close db;
  let db2 = Db.open_db ~config ~dev () in
  check_opt "deleted stays deleted" None (Db.get db2 "a");
  check_opt "put recovered" (Some "2") (Db.get db2 "b");
  Db.close db2

let test_recovery_after_crash () =
  let dev = Device.in_memory () in
  let config = { (small_config ()) with Config.wal_sync_every_write = true } in
  let db = Db.open_db ~config ~dev () in
  for i = 0 to 2999 do
    Db.put db ~key:(key i) (value i)
  done;
  (* No clean close: power failure. *)
  Device.crash dev;
  let db2 = Db.open_db ~config ~dev () in
  for i = 0 to 2999 do
    if Db.get db2 (key i) <> Some (value i) then Alcotest.failf "lost key %d after crash" i
  done;
  Db.close db2

let test_recovery_preserves_levels () =
  let dev = Device.in_memory () in
  let config = small_config () in
  let db = Db.open_db ~config ~dev () in
  for i = 0 to 4999 do
    Db.put db ~key:(key i) (value i)
  done;
  Db.flush db;
  let files_before = Version.file_count (Db.version db) in
  check "built a tree" true (files_before > 1);
  Db.close db;
  let db2 = Db.open_db ~config ~dev () in
  check_int "same files after recovery" files_before (Version.file_count (Db.version db2));
  for i = 0 to 4999 do
    if Db.get db2 (key i) <> Some (value i) then Alcotest.failf "lost key %d" i
  done;
  Db.close db2

let test_unsynced_tail_lost_but_prefix_kept () =
  let dev = Device.in_memory () in
  (* No per-write sync: batches become durable only via explicit syncs. *)
  let config = { (small_config ()) with Config.wal_sync_every_write = false } in
  let db = Db.open_db ~config ~dev () in
  Db.put db ~key:"durable" "yes";
  (* Force the WAL to sync by flushing — flush closes (and syncs) the wal. *)
  Db.flush db;
  Db.put db ~key:"volatile" "gone";
  Device.crash dev;
  let db2 = Db.open_db ~config ~dev () in
  check_opt "synced data survives" (Some "yes") (Db.get db2 "durable");
  check_opt "unsynced tail lost" None (Db.get db2 "volatile");
  Db.close db2

(* ---------- stats & accounting ---------- *)

let test_stats_accounting () =
  let _, db = fresh () in
  for i = 0 to 999 do
    Db.put db ~key:(key i) (value i)
  done;
  ignore (Db.get db (key 0));
  ignore (Db.scan db ~lo:"" ~hi:(Some (key 10)) ());
  let s = Db.stats db in
  check_int "puts" 1000 s.Stats.user_puts;
  check_int "gets" 1 s.Stats.user_gets;
  check_int "scans" 1 s.Stats.user_scans;
  check "ingested bytes counted" true (s.Stats.user_bytes_ingested > 1000 * 30);
  Db.close db

let test_write_amp_reported () =
  let _, db = fresh () in
  for i = 0 to 9999 do
    Db.put db ~key:(key (i mod 1000)) (value i)
  done;
  Db.flush db;
  let wa = Db.write_amplification db in
  check (Printf.sprintf "WA %.2f sensible" wa) true (wa >= 1.0 && wa < 100.0);
  Db.close db

let test_filters_cut_probes () =
  let probes filter =
    let config = { (small_config ()) with Config.filter } in
    let dev = Device.in_memory () in
    let db = Db.open_db ~config ~dev () in
    for i = 0 to 4999 do
      Db.put db ~key:(key i) (value i)
    done;
    Db.flush db;
    (* Zero-result lookups: filters should avoid nearly all probes. *)
    for i = 0 to 999 do
      ignore (Db.get db (Printf.sprintf "absent%06d" i))
    done;
    let p = (Db.stats db).Stats.runs_probed in
    Db.close db;
    p
  in
  let with_bloom = probes (Lsm_filter.Point_filter.Bloom { bits_per_key = 10.0 }) in
  let without = probes Lsm_filter.Point_filter.No_filter in
  check
    (Printf.sprintf "bloom probes %d << no-filter probes %d" with_bloom without)
    true
    (with_bloom * 5 < without || without = 0)

let test_paranoid_invariants_hold () =
  let _, db = fresh () in
  (* paranoid_checks is on in small_config: any violation would raise. *)
  run_model_workload db 2000 99;
  Db.major_compact db;
  (match Db.check_invariants db with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariant: %s" e);
  Db.close db

let test_space_amp_shrinks_with_compaction () =
  let _, db = fresh ~config:(small_config ~compaction:(Policy.tiered ~size_ratio:4 ()) ()) () in
  for i = 0 to 9999 do
    Db.put db ~key:(key (i mod 500)) (value i)
  done;
  Db.flush db;
  let before = Db.space_amplification db in
  (* Force full consolidation by switching to a major compact loop. *)
  Db.major_compact db;
  let after = Db.space_amplification db in
  check (Printf.sprintf "space amp %.2f -> %.2f" before after) true (after <= before);
  Db.close db

(* ---------- model-based property across random op streams ---------- *)

(* Puts, deletes, range deletes, merges and flushes against an assoc-list
   model; [get], [multi_get] and [scan] must agree with it at the head
   and at a snapshot taken mid-stream. *)

let prop_db_matches_map =
  QCheck.Test.make ~name:"db = Map model (random ops incl. range deletes)" ~count:15
    QCheck.(
      list_of_size
        Gen.(50 -- 400)
        (triple (int_bound 60) (int_bound 99) (option (string_gen_of_size Gen.(0 -- 10) Gen.printable))))
    (fun ops ->
      let dev = Device.in_memory () in
      (* Concatenation: the model folds operands oldest-first over the base
         exactly as the operator does. *)
      let concat _key base operands = String.concat "" (Option.to_list base @ operands) in
      let config = { (small_config ()) with Config.merge_operator = Some concat } in
      let db = Db.open_db ~config ~dev () in
      let model = ref [] in
      (* model: assoc list key -> value *)
      let set k v = model := (k, v) :: List.remove_assoc k !model in
      let unset k = model := List.remove_assoc k !model in
      let snap = ref None in
      List.iteri
        (fun i (k, action, vopt) ->
          if i = List.length ops / 2 then snap := Some (Db.snapshot db, !model);
          let k = key k in
          let v = Option.value vopt ~default:"" in
          if action >= 80 then begin
            Db.merge db ~key:k v;
            set k (Option.value (List.assoc_opt k !model) ~default:"" ^ v)
          end
          else
            match action mod 10 with
            | 0 | 1 | 2 | 3 | 4 | 5 ->
              Db.put db ~key:k v;
              set k v
            | 6 | 7 ->
              Db.delete db k;
              unset k
            | 8 ->
              let hi = k ^ "\xff" in
              Db.range_delete db ~lo:k ~hi;
              List.iter (fun (mk, _) -> if mk >= k && mk < hi then unset mk) !model
            | _ -> Db.flush db)
        ops;
      let keys = List.init 61 key in
      let matches ?snapshot model =
        let expected = List.map (fun k -> List.assoc_opt k model) keys in
        List.map (fun k -> Db.get db ?snapshot k) keys = expected
        && Db.multi_get db ?snapshot keys = expected
        && Db.scan db ?snapshot ~lo:"" ~hi:None () = List.sort compare model
      in
      let ok =
        matches !model
        &&
        match !snap with
        | None -> true
        | Some (s, at_snap) ->
          let ok = matches ~snapshot:s at_snap in
          Db.release db s;
          ok
      in
      Db.close db;
      ok)

(* Reopen-equivalence: recover after every burst, state must match. *)
let prop_recovery_preserves_state =
  QCheck.Test.make ~name:"close/reopen preserves state" ~count:10
    QCheck.(list_of_size Gen.(10 -- 150) (pair (int_bound 50) (int_bound 1000)))
    (fun ops ->
      let dev = Device.in_memory () in
      let config = small_config () in
      let db = ref (Db.open_db ~config ~dev ()) in
      let model = Hashtbl.create 64 in
      List.iteri
        (fun i (k, v) ->
          let k = key k in
          Db.put !db ~key:k (string_of_int v);
          Hashtbl.replace model k (string_of_int v);
          if i mod 40 = 39 then begin
            Db.close !db;
            db := Db.open_db ~config ~dev ()
          end)
        ops;
      let ok =
        Hashtbl.fold (fun k v acc -> acc && Db.get !db k = Some v) model true
      in
      Db.close !db;
      ok)

let qt t =
  let name, _speed, fn = QCheck_alcotest.to_alcotest t in
  (name, `Quick, fn)

(* ---------- scans through a range filter ---------- *)

module SMap = Map.Make (String)

(* A tiered store whose runs each hold a third of the groups, scanned
   over short ranges inside one 4-byte prefix ("g012"): a file whose key
   range spans the scan but whose prefix filter lacks the group is
   skipped without being opened. Even groups exist, odd groups never
   did. The skip and page counts are exact: the store is built inline,
   single-threaded, so every count is deterministic. *)
let test_scan_range_filter () =
  let config =
    {
      (small_config ~compaction:(Policy.tiered ~size_ratio:4 ()) ()) with
      Config.range_filter = Lsm_filter.Range_filter.Prefix { prefix_len = 4; bits_per_key = 10.0 };
      block_cache_bytes = 16 * 1024;
      compaction_backend = Config.Inline;
      compaction_parallelism = 1;
    }
  in
  let _, db = fresh ~config () in
  let model = ref SMap.empty in
  let gkey g i = Printf.sprintf "g%03d-%04d" g i in
  for round = 0 to 5 do
    for g = 0 to 49 do
      if g mod 3 = round mod 3 then
        for i = 0 to 19 do
          let k = gkey (2 * g) i in
          if round >= 3 && i mod 7 = 0 then begin
            Db.delete db k;
            model := SMap.remove k !model
          end
          else begin
            let v = Printf.sprintf "r%d-%s" round k in
            Db.put db ~key:k v;
            model := SMap.add k v !model
          end
        done
    done;
    Db.flush db
  done;
  let runs =
    List.fold_left (fun a l -> a + Version.run_count (Db.version db) l) 0
      (List.init Version.max_levels Fun.id)
  in
  check (Printf.sprintf "multi-run store (%d runs)" runs) true (runs > 1);
  let expect ~lo ~hi =
    SMap.bindings (SMap.filter (fun k _ -> String.compare lo k <= 0 && String.compare k hi < 0) !model)
  in
  let skips0 = (Db.stats db).Stats.range_filter_skips in
  let pages0 = Io_stats.pages_read ~cls:Io_stats.C_user_read (Db.io_stats db) in
  let scans = ref 0 and found = ref 0 in
  let scan ~lo ~hi =
    let got = Db.scan db ~lo ~hi:(Some hi) () in
    incr scans;
    found := !found + List.length got;
    if got <> expect ~lo ~hi then Alcotest.failf "scan [%s, %s) disagrees with the model" lo hi
  in
  for g = 0 to 99 do
    (* the whole group, then a few keys inside it *)
    scan ~lo:(Printf.sprintf "g%03d-" g) ~hi:(Printf.sprintf "g%03d." g);
    scan ~lo:(gkey g 3) ~hi:(gkey g 9)
  done;
  check_int "scans" 200 !scans;
  check "present ranges found keys" true (!found > 0);
  check_int "range_filter_skips" 398 ((Db.stats db).Stats.range_filter_skips - skips0);
  check_int "user pages read" 39
    (Io_stats.pages_read ~cls:Io_stats.C_user_read (Db.io_stats db) - pages0);
  Db.close db

(* ---------- allocation ceiling of a cached point lookup ---------- *)

(* Minor words one [Db.get] allocates on a warmed store (DESIGN.md
   §13.4): every filter, index and data block is cached, so what is left
   is the read path's own bookkeeping plus the returned value; the
   table and block cache probes allocate nothing (§23). Measured in
   this test's dev build: 32 and 18 words, 53 and 25 with runtime
   lockdep on (which allocates per lock taken). The ceilings add
   headroom to the lockdep figures and sit far below the 373 and 78
   words the read path cost with closures and boxed hashing in it; a
   table hit measured 56 words while the block cache probe built a key
   tuple, the table cache probe a closure, and both [Some] links.

   Both block framings run under the same ceilings: the cache holds the
   decoded block, so a [C_lz] hit must cost what a [C_none] hit costs.
   A hit that re-fetched and re-decompressed its block measured 749
   words per table hit (DESIGN.md §13.3). *)
let table_hit_words_ceiling = 60.
let memtable_hit_words_ceiling = 30.

let words_per_get db key =
  let n = 2000 in
  ignore (Db.get db key);
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Db.get db key))
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* One compacted store of 2,000 compressible records, fully cached. *)
let ceiling_store compression =
  let config =
    {
      (small_config ~compaction:(Policy.leveled ~size_ratio:4 ()) ()) with
      Config.memtable = Memtable.Skiplist;
      block_cache_bytes = 8 * 1024 * 1024;
      compression;
      compaction_backend = Config.Inline;
      compaction_parallelism = 1;
    }
  in
  let dev, db = fresh ~config () in
  for i = 0 to 1999 do
    Db.put db ~key:(key i) (value i)
  done;
  Db.flush db;
  Db.major_compact db;
  (dev, db)

let test_get_allocation_ceiling compression () =
  let arm = match compression with Sstable.C_none -> "C_none" | Sstable.C_lz -> "C_lz" in
  let dev, db = ceiling_store compression in
  if compression = Sstable.C_lz then begin
    (* The arm guards decompressed blocks only if blocks are LZ-framed. *)
    let raw_dev, raw = ceiling_store Sstable.C_none in
    Db.close raw;
    check "C_lz store is smaller on the device" true
      (Device.total_bytes dev < Device.total_bytes raw_dev)
  end;
  Db.put db ~key:"memtable-only" "v";
  check_opt "table hit" (Some (value 777)) (Db.get db (key 777));
  check_opt "memtable hit" (Some "v") (Db.get db "memtable-only");
  let table = words_per_get db (key 777) and mem = words_per_get db "memtable-only" in
  check
    (Printf.sprintf "%s table hit %.1f words <= %.0f" arm table table_hit_words_ceiling)
    true
    (table <= table_hit_words_ceiling);
  check
    (Printf.sprintf "%s memtable hit %.1f words <= %.0f" arm mem memtable_hit_words_ceiling)
    true
    (mem <= memtable_hit_words_ceiling);
  Db.close db

(* ---------- allocation ceiling of a put ---------- *)

(* Minor words one [Db.put] allocates with the default config, a 16-byte
   key and a 1 KiB value, memtable and WAL only (no rotation falls in
   the measured puts). The key and value are the caller's; what is left
   is the write path's operation list and entry, the memtable node, and
   the WAL record's encoding, which the framed log frames in place in
   its reused buffers (DESIGN.md §22). Measured in this test's dev
   build: 61.2 words, 75.2 with runtime lockdep on; the ceiling adds
   headroom to the lockdep figure. Any per-record copy of the encoded
   record costs its length again: a WAL writer that copied it three
   times measured 521 words, and one [Buffer.contents] of the record
   put back into the append alone measures 199. *)
let put_words_ceiling = 85.

let test_put_allocation_ceiling () =
  let dev = Device.in_memory () in
  let db = Db.open_db ~config:Config.default ~dev () in
  let n = 500 and warm = 100 in
  let keys = Array.init (warm + n) (Printf.sprintf "put-key-%08d") in
  let value = String.make 1024 'v' in
  for i = 0 to warm - 1 do
    Db.put db ~key:keys.(i) value
  done;
  let w0 = Gc.minor_words () in
  for i = warm to warm + n - 1 do
    Db.put db ~key:keys.(i) value
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  check_int "no flush in the measured puts" 0 (Db.stats db).Stats.flushes;
  check
    (Printf.sprintf "put %.1f words <= %.0f" words put_words_ceiling)
    true (words <= put_words_ceiling);
  Db.close db

(* ---------- allocation ceiling of a cached scan ---------- *)

(* Minor words one 50-row [Db.scan] allocates on a fully cached store of
   8 overlapping runs, 53 files (DESIGN.md §21): the merge over every
   run, the files it reaches, and the rows it returns. Measured in this
   test's dev build: 3,261 words, 3,399 with runtime lockdep on. The
   ceiling adds headroom to the lockdep figure, as the get ceilings do,
   and sits far below the 7,188 words the scan cost when it built an
   iterator for every file from [lo] to the end of every run and each
   block behind its own iterator. *)
let scan_words_ceiling = 4000.

(* A tiered store of several overlapping runs, every block cached. *)
let scan_ceiling_store () =
  let config =
    {
      (small_config ~compaction:(Policy.tiered ~size_ratio:4 ()) ()) with
      Config.memtable = Memtable.Skiplist;
      block_cache_bytes = 16 * 1024 * 1024;
      compaction_backend = Config.Inline;
      compaction_parallelism = 1;
    }
  in
  let _, db = fresh ~config () in
  let rng = Random.State.make [| 25 |] in
  for _ = 1 to 5 do
    for _ = 1 to 4000 do
      let i = Random.State.int rng 20000 in
      Db.put db ~key:(key i) (value i)
    done;
    Db.flush db
  done;
  db

let test_scan_allocation_ceiling () =
  let db = scan_ceiling_store () in
  let v = Db.version db in
  let runs =
    List.fold_left (fun a l -> a + Version.run_count v l) 0 (List.init Version.max_levels Fun.id)
  in
  let files = List.length (Version.all_files v) in
  let scans = 200 in
  let lo i = key (i * 20000 / scans) in
  for i = 0 to scans - 1 do
    ignore (Db.scan db ~limit:50 ~lo:(lo i) ~hi:None ())
  done;
  let w0 = Gc.minor_words () in
  for i = 0 to scans - 1 do
    ignore (Sys.opaque_identity (Db.scan db ~limit:50 ~lo:(lo i) ~hi:None ()))
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int scans in
  check (Printf.sprintf "%d runs, %d files" runs files) true (runs >= 5 && files >= 40);
  check
    (Printf.sprintf "50-row scan %.0f words <= %.0f" words scan_words_ceiling)
    true
    (words <= scan_words_ceiling);
  Db.close db

(* ---------- what a Db writes: table bytes ---------- *)

(* MD5 of the sorted per-table MD5s of every table on [dev]: the bytes
   of what the store wrote, independent of file names, which parallel
   subcompactions allocate in no fixed order. *)
let tables_digest dev =
  Device.list_files dev
  |> List.filter (fun n -> Filename.check_suffix n ".sst")
  |> List.map (fun n ->
         Digest.string (Device.read dev ~cls:Io_stats.C_misc n ~off:0 ~len:(Device.size dev n)))
  |> List.sort compare |> String.concat "" |> Digest.string |> Digest.to_hex

let golden_config ~compression ~ecc ~parallelism =
  {
    (small_config ~compaction:(Policy.leveled ~size_ratio:4 ()) ()) with
    Config.write_buffer_size = 1 lsl 20;
    compaction = { (Policy.leveled ~size_ratio:4 ()) with Policy.level0_limit = 4 };
    compression;
    ecc;
    compaction_backend = Config.Inline;
    compaction_parallelism = parallelism;
    block_cache_shards = 4;
    paranoid_checks = false;
  }

(* One flush of 3,000 records over every kind, then a second flush of
   updates, deletes and a range tombstone, and a major compaction: the
   digests of the store's tables after the first flush and after the
   compaction. *)
let golden_run dev config =
  let db = Db.open_db ~config ~dev () in
  for i = 0 to 2999 do
    let k = key (i * 3) in
    match i mod 13 with
    | 0 -> Db.merge db ~key:k (Printf.sprintf "op-%d" i)
    | 1 ->
      Db.put db ~key:k (value i);
      Db.single_delete db k
    | _ -> Db.put db ~key:k (value i ^ String.make (i mod 37) 'v')
  done;
  Db.flush db;
  let flushed = tables_digest dev in
  for i = 0 to 1499 do
    let k = key (i * 6) in
    if i mod 7 = 0 then Db.delete db k else Db.put db ~key:k (value (i + 7))
  done;
  Db.range_delete db ~lo:(key 3000) ~hi:(key 3300);
  Db.flush db;
  Db.major_compact db;
  let compacted = tables_digest dev in
  let st = Db.stats db in
  Db.close db;
  (flushed, compacted, st.Stats.subcompactions - st.Stats.compactions)

(* Recorded before compaction moved records from input block cursors
   into the output block without materializing them: a flush, an inline
   merge and a two-range subcompaction write the same bytes under the
   default, [C_lz] and ECC 4+2 configurations. *)
let ecc_4_2 = Some { Config.ecc_data_pages = 4; ecc_parity_pages = 2 }

(* (arm, compression, ecc, flush digest, compaction digest by
   parallelism: an inline merge, then a two-range subcompaction). *)
let db_goldens =
  [
    ( "default", Sstable.C_none, None, "c0d591f06033cc8db149da91d84e0fca",
      [ (1, "21ff6dc0228f30b186a1519d3297f6aa"); (2, "044e7978231f9a7411d5872ce30b7b4a") ] );
    ( "C_lz", Sstable.C_lz, None, "729b1961493b530790e3a610289e8e6d",
      [ (1, "fb6b7ba26451ba8b0d9f03203d5f358f"); (2, "eb58f9f5eff5086763811c637974ddf7") ] );
    ( "ecc 4+2", Sstable.C_none, ecc_4_2, "5004928d72300541fa72837985c4aa99",
      [ (1, "ce6809cf55d1785400ef6032b5e2d459"); (2, "c387a7377b27c704506d3fadb54035f7") ] );
  ]

let test_db_bytes_golden () =
  List.iter
    (fun (name, compression, ecc, want_flush, by_parallelism) ->
      List.iter
        (fun (parallelism, want_compact) ->
          let config = golden_config ~compression ~ecc ~parallelism in
          let flushed, compacted, extra_ranges = golden_run (Device.in_memory ()) config in
          let arm = Printf.sprintf "%s, parallelism %d" name parallelism in
          Alcotest.(check string) (arm ^ ": flush") want_flush flushed;
          Alcotest.(check string) (arm ^ ": compaction") want_compact compacted;
          check_int (arm ^ ": extra subcompaction ranges") (parallelism - 1) extra_ranges)
        by_parallelism)
    db_goldens

(* The two-range run on real files: the disk branch of the device's
   reads and window appends writes what the in-memory device does. *)
let test_db_bytes_on_disk () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "lsm-golden-%d" (Unix.getpid ()))
  in
  let rm_rf () =
    if Sys.file_exists dir then begin
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  rm_rf ();
  Fun.protect ~finally:rm_rf (fun () ->
      List.iter
        (fun (name, compression, ecc, want_flush, by_parallelism) ->
          let config = golden_config ~compression ~ecc ~parallelism:2 in
          let flushed, compacted, _ = golden_run (Device.on_disk ~dir ()) config in
          Alcotest.(check string) (name ^ " on disk: flush") want_flush flushed;
          Alcotest.(check string) (name ^ " on disk: compaction") (List.assoc 2 by_parallelism)
            compacted;
          rm_rf ())
        db_goldens)

(* ---------- allocation ceiling of a compaction ---------- *)

(* Minor words a [Db.major_compact] allocates per input record: 8
   overlapping runs of 25,000 records each (16-byte keys, 100-byte
   values, all distinct), merged into one (DESIGN.md §21.1). What is
   left per record is its key, materialized once from its input block;
   the rest is per block (a cache probe, the block's trailer, the
   output's index entry and fence) and per table.

   With 4 KiB blocks it measured 5.3 words in this test's dev build, 6.2
   with runtime lockdep on, against 33.3 when every input record was
   materialized as an entry and every output block copied out of its
   builder; materializing each input record alone measured 28.5. With
   1 KiB blocks the per-block share is four times larger (8.2 words,
   11.7 with lockdep), and a page is small enough to be allocated in the
   minor heap, so that arm also catches a fresh buffer per block read
   (23.2 words); at 4 KiB a page goes straight to the major heap, where
   [test_sstable]'s major-heap gates watch it. *)
let compaction_words ~block_size =
  let runs = 8 and per_run = 25_000 in
  let config =
    {
      (small_config ~compaction:(Policy.leveled ~size_ratio:4 ()) ()) with
      Config.memtable = Memtable.Skiplist;
      write_buffer_size = 64 lsl 20;
      level1_capacity = 1 lsl 30;
      target_file_size = 2 lsl 20;
      block_size;
      compaction = { (Policy.leveled ~size_ratio:4 ()) with Policy.level0_limit = 16 };
      wal_enabled = false;
      compaction_backend = Config.Inline;
      compaction_parallelism = 1;
      paranoid_checks = false;
    }
  in
  let _, db = fresh ~config () in
  let value = String.make 100 'v' in
  for r = 0 to runs - 1 do
    for i = 0 to per_run - 1 do
      Db.put db ~key:(Printf.sprintf "k%015d" ((i * runs) + r)) value
    done;
    Db.flush db
  done;
  check_int "all runs in level 0" runs (Version.run_count (Db.version db) 0);
  let w0 = Gc.minor_words () in
  Db.major_compact db;
  let words = (Gc.minor_words () -. w0) /. float_of_int (runs * per_run) in
  let levels = List.init Version.max_levels Fun.id and v = Db.version db in
  check_int "one run left" 1 (List.fold_left (fun a l -> a + Version.run_count v l) 0 levels);
  check_int "every record kept" (runs * per_run)
    (List.fold_left (fun a l -> a + Version.level_entries v l) 0 levels);
  Db.close db;
  words

let test_compaction_allocation_ceiling ~block_size ~ceiling () =
  let words = compaction_words ~block_size in
  check
    (Printf.sprintf "%d-byte blocks: %.2f words per record <= %.0f" block_size words ceiling)
    true (words <= ceiling)

let suite =
  [
    ("put/get", `Quick, test_put_get_small);
    ("update overwrites", `Quick, test_update_overwrites);
    ("delete hides", `Quick, test_delete_hides);
    ("get across flush", `Quick, test_get_across_flush);
    ("updates across levels", `Quick, test_updates_across_levels);
    ("scan basic", `Quick, test_scan_basic);
    ("scan across flush+memtable", `Quick, test_scan_across_flush_and_memtable);
    ("scan limit", `Quick, test_scan_limit);
    ("empty db", `Quick, test_empty_db);
    ("leveling keeps single run per level", `Quick, test_leveling_single_run_per_level);
    ("tiering accumulates runs", `Quick, test_tiering_accumulates_runs);
    ("lazy leveling: last level single run", `Quick, test_lazy_leveling_last_level_single_run);
    ("tiering WA < leveling WA", `Quick, test_tiering_writes_less_than_leveling);
    ("leveling runs <= tiering runs", `Quick, test_leveling_reads_fewer_runs_than_tiering);
    ("snapshot isolation", `Quick, test_snapshot_isolation);
    ("snapshot survives compaction", `Quick, test_snapshot_survives_flush_and_compaction);
    ("snapshot scan", `Quick, test_snapshot_scan);
    ("tombstones purged at bottom", `Quick, test_tombstones_purged_at_bottom);
    ("single delete cancels", `Quick, test_single_delete_cancels);
    ("range delete in memtable", `Quick, test_range_delete_memtable);
    ("range delete across flush", `Quick, test_range_delete_across_flush);
    ("range delete then reinsert", `Quick, test_range_delete_then_reinsert);
    ("merge operator (counter)", `Quick, test_merge_operator_counter);
    ("merge without operator", `Quick, test_merge_without_operator_acts_as_put);
    ("recovery from wal", `Quick, test_recovery_from_wal);
    ("recovery after crash", `Quick, test_recovery_after_crash);
    ("recovery preserves levels", `Quick, test_recovery_preserves_levels);
    ("unsynced tail lost, prefix kept", `Quick, test_unsynced_tail_lost_but_prefix_kept);
    ("stats accounting", `Quick, test_stats_accounting);
    ("write amp reported", `Quick, test_write_amp_reported);
    ("filters cut probes", `Quick, test_filters_cut_probes);
    ("scan through a prefix range filter", `Quick, test_scan_range_filter);
    ("paranoid invariants hold", `Quick, test_paranoid_invariants_hold);
    ("space amp shrinks with compaction", `Quick, test_space_amp_shrinks_with_compaction);
  ]
  @ List.map test_model_layout layouts
  @ List.map test_model_memtables Memtable.all_kinds
  @ [ qt prop_db_matches_map; qt prop_recovery_preserves_state;
      ("Db output bytes = recorded digests", `Quick, test_db_bytes_golden);
      ("Db output bytes on disk = in memory", `Quick, test_db_bytes_on_disk);
      ( "compaction allocation ceiling",
        `Quick,
        test_compaction_allocation_ceiling ~block_size:4096 ~ceiling:10. );
      ( "compaction allocation ceiling, 1 KiB blocks",
        `Quick,
        test_compaction_allocation_ceiling ~block_size:1024 ~ceiling:16. );
      ("Db.get allocation ceiling", `Quick, test_get_allocation_ceiling Sstable.C_none);
      ("Db.get allocation ceiling, C_lz", `Quick, test_get_allocation_ceiling Sstable.C_lz);
      ("scan allocation ceiling", `Quick, test_scan_allocation_ceiling);
      ("Db.put allocation ceiling", `Quick, test_put_allocation_ceiling) ]
