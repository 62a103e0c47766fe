(* PebblesDB's fragmented LSM as the [Guarded] layout of the one engine:
   correctness through guard compactions, guard density by depth (read
   off the tree shape with [Policy.is_guard]), and the write-amplification
   advantage over leveled compaction. *)

module Device = Lsm_storage.Device
module Table_meta = Lsm_sstable.Table_meta
module Policy = Lsm_compaction.Policy
module Db = Lsm_core.Db
module Config = Lsm_core.Config
module Version = Lsm_core.Version
module Stats = Lsm_core.Stats

let check = Alcotest.(check bool)
let check_opt = Alcotest.(check (option string))
let stride_base = 512

let small_config ?(wal_enabled = true) compaction =
  {
    Config.default with
    write_buffer_size = 8 * 1024;
    level1_capacity = 16 * 1024;
    target_file_size = 8 * 1024;
    block_size = 1024;
    wal_enabled;
    compaction = { compaction with Policy.level0_limit = 2 };
  }

let guarded =
  { (Policy.leveled ~size_ratio:4 ()) with Policy.layout = Policy.Guarded { stride_base } }

let fresh () =
  let dev = Device.in_memory () in
  (dev, Db.open_db ~config:(small_config guarded) ~dev ())

let key i = Printf.sprintf "key%06d" i
let value i = Printf.sprintf "val-%06d-%s" i (String.make 24 'x')

let is_guard ~level k = Policy.is_guard ~stride_base ~size_ratio:4 ~level k

let level_files db l =
  List.concat_map
    (fun (r : Version.run) -> r.Version.files)
    (Version.level_runs (Db.version db) l)

(* Guards of level [l] that bound a fragment there: distinct file min
   keys that are guards of the level. *)
let guard_count db l =
  level_files db l
  |> List.filter_map (fun (f : Table_meta.t) ->
         if is_guard ~level:l f.min_key then Some f.min_key else None)
  |> List.sort_uniq compare |> List.length

let test_put_get () =
  let _, db = fresh () in
  Db.put db ~key:"a" "1";
  Db.put db ~key:"b" "2";
  check_opt "a" (Some "1") (Db.get db "a");
  check_opt "missing" None (Db.get db "zzz");
  Db.close db

let test_roundtrip_through_compactions () =
  let _, db = fresh () in
  for i = 0 to 4999 do
    Db.put db ~key:(key i) (value i)
  done;
  Db.flush db;
  check "compactions ran" true ((Db.stats db).Stats.compactions > 0);
  check "guards were created" true
    (List.exists (fun l -> guard_count db l > 1) (List.init (Version.max_levels - 1) succ));
  for i = 0 to 4999 do
    if Db.get db (key i) <> Some (value i) then Alcotest.failf "key %d wrong" i
  done;
  Db.close db

let test_updates_newest_wins () =
  let _, db = fresh () in
  for gen = 1 to 3 do
    for i = 0 to 999 do
      Db.put db ~key:(key i) (Printf.sprintf "g%d-%d" gen i)
    done;
    Db.flush db
  done;
  for i = 0 to 999 do
    if Db.get db (key i) <> Some (Printf.sprintf "g3-%d" i) then
      Alcotest.failf "key %d resurrected" i
  done;
  Db.close db

let test_delete () =
  let _, db = fresh () in
  for i = 0 to 499 do
    Db.put db ~key:(key i) (value i)
  done;
  Db.flush db;
  Db.delete db (key 100);
  check_opt "deleted" None (Db.get db (key 100));
  Db.flush db;
  check_opt "deleted after flush" None (Db.get db (key 100));
  Db.close db

let test_scan_ordered_and_correct () =
  let _, db = fresh () in
  for i = 0 to 1999 do
    Db.put db ~key:(key i) (value i)
  done;
  Db.flush db;
  let got = Db.scan db ~lo:(key 500) ~hi:(Some (key 505)) () in
  Alcotest.(check (list (pair string string)))
    "scan window"
    (List.init 5 (fun j -> (key (500 + j), value (500 + j))))
    got;
  Db.close db

let test_model_agreement () =
  let _, db = fresh () in
  let rng = Lsm_util.Rng.create 77 in
  let model = Hashtbl.create 128 in
  for _ = 1 to 4000 do
    let k = key (Lsm_util.Rng.int rng 300) in
    if Lsm_util.Rng.bernoulli rng 0.2 then begin
      Db.delete db k;
      Hashtbl.replace model k None
    end
    else begin
      let v = Printf.sprintf "v%d" (Lsm_util.Rng.int rng 100000) in
      Db.put db ~key:k v;
      Hashtbl.replace model k (Some v)
    end
  done;
  for i = 0 to 299 do
    let k = key i in
    let expected = Option.join (Hashtbl.find_opt model k) in
    if Db.get db k <> expected then Alcotest.failf "mismatch at %s" k
  done;
  (* scan agreement *)
  let expected =
    Hashtbl.fold (fun k v acc -> match v with Some v -> (k, v) :: acc | None -> acc) model []
    |> List.sort compare
  in
  let got = Db.scan db ~lo:"" ~hi:None () in
  check "scan matches model" true (got = expected);
  Db.close db

let test_guard_density_grows_with_depth () =
  let _, db = fresh () in
  for i = 0 to 9999 do
    Db.put db ~key:(key i) (value i)
  done;
  Db.flush db;
  let deepest = Version.last_level (Db.version db) in
  check (Printf.sprintf "data reaches level 3 (deepest %d)" deepest) true (deepest >= 3);
  (* Deeper levels' strides are smaller, so more of their keys are
     guards and bound fragments there. *)
  let g1 = guard_count db 1 and gd = guard_count db deepest in
  check
    (Printf.sprintf "deeper levels have >= guards (%d <= %d)" g1 gd)
    true
    (g1 <= gd && gd > 1);
  (* Guard compactions cut their output at the target level's guards: no
     fragment holds a guard of its level past its first key. *)
  let tables = Db.table_cache db in
  for l = 1 to deepest do
    List.iter
      (fun (f : Table_meta.t) ->
        let it =
          Lsm_sstable.Sstable.iterator
            (Lsm_sstable.Table_cache.get tables f.file_name)
            ~cls:Lsm_storage.Io_stats.C_user_read ~use_cache:false ()
        in
        it.Lsm_record.Iter.seek_to_first ();
        while it.Lsm_record.Iter.valid () do
          let k = (it.Lsm_record.Iter.entry ()).Lsm_record.Entry.key in
          if k <> f.min_key && is_guard ~level:l k then
            Alcotest.failf "L%d fragment %s spans guard %s" l f.file_name k;
          it.Lsm_record.Iter.next ()
        done)
      (level_files db l)
  done;
  Db.close db

let test_flsm_wa_beats_leveled () =
  (* The PebblesDB claim: fragmented (append-to-guard) compaction moves
     less data than leveled (rewrite next level) compaction. *)
  let n = 12000 in
  let wa compaction =
    let dev = Device.in_memory () in
    let db = Db.open_db ~config:(small_config ~wal_enabled:false compaction) ~dev () in
    for i = 0 to n - 1 do
      Db.put db ~key:(key (i mod 3000)) (value i)
    done;
    Db.flush db;
    let wa = Db.write_amplification db in
    Db.close db;
    wa
  in
  let frag_wa = wa guarded and leveled_wa = wa (Policy.leveled ~size_ratio:4 ()) in
  check
    (Printf.sprintf "fragmented WA %.2f < leveled WA %.2f" frag_wa leveled_wa)
    true (frag_wa < leveled_wa)

let suite =
  [
    ("put/get", `Quick, test_put_get);
    ("roundtrip through compactions", `Quick, test_roundtrip_through_compactions);
    ("updates: newest wins", `Quick, test_updates_newest_wins);
    ("delete", `Quick, test_delete);
    ("scan ordered", `Quick, test_scan_ordered_and_correct);
    ("model agreement", `Quick, test_model_agreement);
    ("guard density grows with depth", `Quick, test_guard_density_grows_with_depth);
    ("fragmented WA < leveled WA", `Quick, test_flsm_wa_beats_leveled);
  ]
