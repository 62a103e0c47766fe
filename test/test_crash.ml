(* Crash-recovery fault injection: scheduled device crashes and torn-tail
   semantics, WAL/manifest framing robustness (bad CRCs, truncated length
   fields, no resync past corruption), regressions for the three recovery
   data-loss bugs, and the power-loss sweep harness (crash at every sync
   boundary / device-op boundary / mid-append, reopen, check that exactly
   the acknowledged-durable prefix comes back). *)

open Lsm_storage
module Entry = Lsm_record.Entry
module Db = Lsm_core.Db
module Config = Lsm_core.Config
module Manifest = Lsm_core.Manifest
module Version = Lsm_core.Version
module Harness = Lsm_workload.Crash_harness

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_opt = Alcotest.(check (option string))

(* Extended sweep (nightly): LSM_CRASH_SWEEP=full widens seeds and drops
   the op-boundary stride. *)
let extended =
  match Sys.getenv_opt "LSM_CRASH_SWEEP" with
  | Some ("full" | "extended" | "1") -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Raw-frame helpers                                                   *)
(* ------------------------------------------------------------------ *)

let batch1 = [ Entry.put ~key:"a" ~seqno:1 "1"; Entry.delete ~key:"b" ~seqno:2 ]
let batch2 = [ Entry.put ~key:"c" ~seqno:3 "33" ]
let batch3 = [ Entry.put ~key:"d" ~seqno:4 "444" ]

(* The raw bytes a WAL holding [batches] consists of, *without* the
   close-time seal frame — these helpers build crash-truncated franken
   logs, which must look unsealed so replay stays tolerant. *)
let wal_bytes batches =
  let dev = Device.in_memory () in
  let wal = Wal.create dev ~name:"scratch" in
  List.iter (Wal.append wal) batches;
  let len = Device.size dev "scratch" in
  Wal.close wal;
  Device.read dev ~cls:Io_stats.C_misc "scratch" ~off:0 ~len

let write_file dev name data =
  let w = Device.open_writer dev ~cls:Io_stats.C_misc name in
  Device.append w data;
  Device.close w

let replay_count dev name =
  let got = ref [] in
  let n = Wal.replay dev ~name (fun b -> got := b :: !got) in
  (n, List.rev !got)

(* ------------------------------------------------------------------ *)
(* WAL framing robustness                                              *)
(* ------------------------------------------------------------------ *)

let test_wal_truncated_length_field () =
  let dev = Device.in_memory () in
  (* A full frame, then only 6 bytes of the next frame's 8-byte header. *)
  let good = wal_bytes [ batch1 ] in
  let next = wal_bytes [ batch2 ] in
  write_file dev "wal" (good ^ String.sub next 0 6);
  let n, got = replay_count dev "wal" in
  check_int "stops before torn header" 1 n;
  check "prefix intact" true (got = [ batch1 ])

let test_wal_truncated_payload () =
  let dev = Device.in_memory () in
  (* Length field says more bytes than the file holds. *)
  let good = wal_bytes [ batch1 ] in
  let next = wal_bytes [ batch2 ] in
  write_file dev "wal" (good ^ String.sub next 0 (String.length next - 1));
  let n, got = replay_count dev "wal" in
  check_int "stops at short payload" 1 n;
  check "prefix intact" true (got = [ batch1 ])

let test_wal_no_resync_after_corrupt_frame () =
  let dev = Device.in_memory () in
  (* frame2's payload is corrupted; frame3 after it is perfectly valid.
     A torn tail cannot leave intact frames beyond the damage, so this
     is bit rot: replay must raise typed — never resynchronize, and
     never silently truncate acknowledged batches. *)
  let f1 = wal_bytes [ batch1 ] and f2 = wal_bytes [ batch2 ] and f3 = wal_bytes [ batch3 ] in
  let f2 = Bytes.of_string f2 in
  Bytes.set f2 (Bytes.length f2 - 1) '\x7f';
  write_file dev "wal" (f1 ^ Bytes.to_string f2 ^ f3);
  match replay_count dev "wal" with
  | _ -> Alcotest.fail "mid-log corruption with intact frames after must raise"
  | exception Lsm_util.Lsm_error.Error (Lsm_util.Lsm_error.Corruption _) -> ()

let test_wal_corrupt_first_frame_recovers_nothing () =
  let dev = Device.in_memory () in
  let f1 = Bytes.of_string (wal_bytes [ batch1 ]) in
  Bytes.set f1 8 '\xee';
  write_file dev "wal" (Bytes.to_string f1 ^ wal_bytes [ batch2 ]);
  (* The rotted head is complete and followed by an intact frame: typed
     corruption, not an empty-prefix recovery. *)
  match replay_count dev "wal" with
  | _ -> Alcotest.fail "corrupt head with intact frames after must raise"
  | exception Lsm_util.Lsm_error.Error (Lsm_util.Lsm_error.Corruption _) -> ()

(* ------------------------------------------------------------------ *)
(* Manifest recovery robustness                                        *)
(* ------------------------------------------------------------------ *)

(* Seal-free manifest image, for the same reason as [wal_bytes]. *)
let manifest_bytes edits =
  let dev = Device.in_memory () in
  let m = Manifest.create dev in
  List.iter (Manifest.log_edit m) edits;
  Manifest.close m;
  let len = Device.size dev Manifest.file_name - Framed_log.seal_size in
  Device.read dev ~cls:Io_stats.C_misc Manifest.file_name ~off:0 ~len

let edit w = { Version.added = []; removed = []; seqno_watermark = w }

let recover_watermark dev = (Manifest.recover dev).Version.last_seqno

let test_manifest_truncated_length_field () =
  let dev = Device.in_memory () in
  let good = manifest_bytes [ edit 5 ] in
  let next = manifest_bytes [ edit 9 ] in
  write_file dev Manifest.file_name (good ^ String.sub next 0 7);
  check_int "intact prefix only" 5 (recover_watermark dev)

let test_manifest_no_resync_after_corrupt_edit () =
  let dev = Device.in_memory () in
  let f1 = manifest_bytes [ edit 5 ] in
  let f2 = Bytes.of_string (manifest_bytes [ edit 9 ]) in
  Bytes.set f2 (Bytes.length f2 - 1) '\x01';
  let f3 = manifest_bytes [ edit 12 ] in
  write_file dev Manifest.file_name (f1 ^ Bytes.to_string f2 ^ f3);
  (* Intact edits beyond the rotten one: truncating here would drop
     tables and let open_db garbage-collect them as orphans. Typed. *)
  match recover_watermark dev with
  | _ -> Alcotest.fail "mid-log manifest corruption must raise"
  | exception Lsm_util.Lsm_error.Error (Lsm_util.Lsm_error.Corruption _) -> ()

let test_manifest_torn_tail_mid_frame () =
  let dev = Device.in_memory () in
  let f1 = manifest_bytes [ edit 5 ] in
  let f2 = manifest_bytes [ edit 9 ] in
  write_file dev Manifest.file_name (f1 ^ String.sub f2 0 (String.length f2 / 2));
  check_int "half an edit is no edit" 5 (recover_watermark dev)

(* ------------------------------------------------------------------ *)
(* Device fault injection                                              *)
(* ------------------------------------------------------------------ *)

let test_planned_crash_after_syncs () =
  let dev = Device.in_memory () in
  let w = Device.open_writer dev ~cls:Io_stats.C_user_write "log" in
  Device.plan_crash dev (Device.After_syncs 2);
  Device.append w "a";
  Device.sync w;
  Device.append w "b";
  check "2nd sync fires the crash" true
    (try
       Device.sync w;
       false
     with Device.Crashed -> true);
  check "device reports crashed" true (Device.is_crashed dev);
  (* The fatal sync still made its bytes durable: crash strikes after. *)
  check_int "synced prefix survives" 2 (Device.size dev "log");
  check "mutations raise until revive" true
    (try
       Device.delete dev "log";
       false
     with Device.Crashed -> true);
  Device.revive dev;
  let w2 = Device.open_writer dev ~cls:Io_stats.C_misc "log2" in
  Device.close w2

let test_planned_crash_torn_tail () =
  let dev = Device.in_memory () in
  let w = Device.open_writer dev ~cls:Io_stats.C_user_write "log" in
  Device.append w "durable";
  Device.sync w;
  Device.append w "-volatile";
  Device.crash ~tear:(Device.Tear_keep 4) dev;
  check_int "synced + 4 torn bytes" 11 (Device.size dev "log");
  check_str "torn tail is an intact prefix" "durable-vol"
    (Device.read dev ~cls:Io_stats.C_misc "log" ~off:0 ~len:11)

let test_planned_crash_corrupt_tail () =
  let dev = Device.in_memory () in
  let w = Device.open_writer dev ~cls:Io_stats.C_user_write "log" in
  Device.append w "durable";
  Device.sync w;
  Device.append w "-volatile";
  Device.crash ~tear:(Device.Tear_corrupt 4) dev;
  check_int "synced + 4 scrambled bytes" 11 (Device.size dev "log");
  check_str "synced prefix untouched" "durable"
    (Device.read dev ~cls:Io_stats.C_misc "log" ~off:0 ~len:7);
  check "tail scrambled" true
    (Device.read dev ~cls:Io_stats.C_misc "log" ~off:7 ~len:4 <> "-vol")

let test_planned_crash_mid_append () =
  let dev = Device.in_memory () in
  let w = Device.open_writer dev ~cls:Io_stats.C_user_write "log" in
  Device.plan_crash dev ~tear:(Device.Tear_keep 100) (Device.After_bytes 4);
  check "append raises" true
    (try
       Device.append w "0123456789";
       false
     with Device.Crashed -> true);
  (* Only the prefix that "made it" survives, even with a generous tear. *)
  check_int "4 bytes reached the platter" 4 (Device.size dev "log");
  check_str "prefix of the torn write" "0123"
    (Device.read dev ~cls:Io_stats.C_misc "log" ~off:0 ~len:4)

let test_device_rename () =
  let dev = Device.in_memory () in
  write_file dev "a" "payload";
  write_file dev "b" "old";
  Device.rename dev "a" "b";
  check "src gone" false (Device.exists dev "a");
  check_str "dst replaced atomically" "payload"
    (Device.read dev ~cls:Io_stats.C_misc "b" ~off:0 ~len:7);
  Alcotest.check_raises "missing src" Not_found (fun () -> Device.rename dev "nope" "c")

(* ------------------------------------------------------------------ *)
(* Bugfix regressions                                                  *)
(* ------------------------------------------------------------------ *)

let sync_config =
  { Config.default with Config.write_buffer_size = 8 * 1024; wal_sync_every_write = true }

let key i = Printf.sprintf "k%04d" i
let value i = Printf.sprintf "val-%04d" i

(* db.ml fix 1: the WAL that recovery re-logs replayed batches into must
   be synced before the old WALs are deleted; otherwise a second crash
   right after open_db silently loses previously-acknowledged writes. *)
let test_second_crash_after_recovery_loses_nothing () =
  let dev = Device.in_memory () in
  let db = Db.open_db ~config:sync_config ~dev () in
  for i = 0 to 49 do
    Db.put db ~key:(key i) (value i)
  done;
  Device.crash dev;
  let _db2 = Db.open_db ~config:sync_config ~dev () in
  (* Power fails again before the recovered db served a single write. *)
  Device.crash dev;
  let db3 = Db.open_db ~config:sync_config ~dev () in
  for i = 0 to 49 do
    if Db.get db3 (key i) <> Some (value i) then
      Alcotest.failf "key %d lost by the crash straight after recovery" i
  done

(* db.ml fix 2 (adjacent): a stale MANIFEST.tmp from a crashed rewrite
   must not confuse the next open, and open must leave MANIFEST present. *)
let test_stale_manifest_tmp_ignored () =
  let dev = Device.in_memory () in
  let db = Db.open_db ~config:sync_config ~dev () in
  for i = 0 to 29 do
    Db.put db ~key:(key i) (value i)
  done;
  Db.flush db;
  Db.close db;
  write_file dev Manifest.tmp_file_name "\x00\x01garbage from a dead rewrite";
  let db2 = Db.open_db ~config:sync_config ~dev () in
  for i = 0 to 29 do
    check_opt "survives stale tmp" (Some (value i)) (Db.get db2 (key i))
  done;
  check "MANIFEST exists after open" true (Device.exists dev Manifest.file_name);
  Db.close db2

(* db.ml fix 3: stray wal-prefixed names must neither abort open_db nor
   be replayed/deleted as if they were ours. *)
let test_stray_wal_names_skipped () =
  let dev = Device.in_memory () in
  let db = Db.open_db ~config:sync_config ~dev () in
  for i = 0 to 19 do
    Db.put db ~key:(key i) (value i)
  done;
  Db.close db;
  List.iter
    (fun n -> write_file dev n "not a real wal")
    [ "wal-1"; "wal-"; "wal-junk.log"; "wal-00x001.log"; "wal-backup" ];
  let db2 = Db.open_db ~config:sync_config ~dev () in
  for i = 0 to 19 do
    check_opt "data intact" (Some (value i)) (Db.get db2 (key i))
  done;
  List.iter
    (fun n -> check (n ^ " left alone") true (Device.exists dev n))
    [ "wal-1"; "wal-"; "wal-junk.log"; "wal-00x001.log"; "wal-backup" ];
  Db.close db2

(* Recovered wal counter must not collide with a surviving high-numbered
   log: reopen twice in a row, crashing in between, and check no
   "already open" or double-delete surprises. *)
let test_repeated_crash_reopen_cycles () =
  let dev = Device.in_memory () in
  let db = ref (Db.open_db ~config:sync_config ~dev ()) in
  for round = 0 to 4 do
    for i = 0 to 19 do
      Db.put !db ~key:(key ((round * 20) + i)) (value ((round * 20) + i))
    done;
    Device.crash dev;
    db := Db.open_db ~config:sync_config ~dev ()
  done;
  for i = 0 to 99 do
    if Db.get !db (key i) <> Some (value i) then Alcotest.failf "lost key %d in round-trips" i
  done

(* ------------------------------------------------------------------ *)
(* The power-loss sweep harness                                        *)
(* ------------------------------------------------------------------ *)

let report_check name (r : Harness.report) =
  if r.Harness.failures <> [] then
    Alcotest.failf "%s: %d/%d crash cycles violated the recovery invariant:\n%s" name
      (List.length r.failures) r.runs
      (String.concat "\n" (List.filteri (fun i _ -> i < 10) r.failures))

let ops_for seed = Harness.gen_ops ~seed ~count:200

let test_sweep_every_sync_point () =
  (* Every sync boundary of the workload, under clean truncation, an
     intact torn tail, and a scrambled torn tail; every cycle also takes
     a second crash immediately after recovery. *)
  let ops = ops_for 42 in
  let r = Harness.sweep_sync_points ~ops () in
  report_check "sync-point sweep" r;
  check "covers >= 200 sync-boundary crash points" true (r.Harness.points >= 200);
  check_int "three tear variants of each point" (r.Harness.points * 3) r.Harness.runs

let test_sweep_guarded_layout () =
  (* The guarded (PebblesDB) layout runs the same flush, compaction,
     manifest and WAL paths, so it inherits crash recovery: fragment
     appends, in-place guard merges and their file retirements must land
     atomically at every sync boundary. *)
  let config =
    {
      (Harness.default_config ()) with
      Config.level1_capacity = 8 * 1024;
      compaction =
        {
          (Lsm_compaction.Policy.leveled ~size_ratio:2 ()) with
          Lsm_compaction.Policy.layout = Lsm_compaction.Policy.Guarded { stride_base = 64 };
        };
    }
  in
  let r = Harness.sweep_sync_points ~config ~ops:(ops_for 5) () in
  report_check "guarded sync-point sweep" r;
  check "covers >= 200 sync-boundary crash points" true (r.Harness.points >= 200)

let test_sweep_op_points () =
  let ops = ops_for 7 in
  let stride = if extended then 1 else 9 in
  report_check "op-point sweep" (Harness.sweep_op_points ~stride ~ops ())

let test_sweep_mid_append () =
  let ops = ops_for 11 in
  report_check "mid-append sweep" (Harness.sweep_mid_append ~samples:20 ~ops ())

let test_sweep_recovery_crashes () =
  let ops = ops_for 3 in
  let r = Harness.sweep_recovery_crashes ~ops () in
  report_check "recovery-crash sweep" r;
  check "recovery performs mutating ops to crash into" true (r.Harness.points > 0)

let test_sweep_extended_seeds () =
  if extended then
    List.iter
      (fun seed ->
        let ops = Harness.gen_ops ~seed ~count:400 in
        report_check
          (Printf.sprintf "extended sync sweep (seed %d)" seed)
          (Harness.sweep_sync_points ~ops ());
        report_check
          (Printf.sprintf "extended recovery sweep (seed %d)" seed)
          (Harness.sweep_recovery_crashes ~ops ()))
      [ 101; 202; 303 ]

let suite =
  [
    ("wal: truncated length field", `Quick, test_wal_truncated_length_field);
    ("wal: truncated payload", `Quick, test_wal_truncated_payload);
    ("wal: no resync after corrupt frame", `Quick, test_wal_no_resync_after_corrupt_frame);
    ("wal: corrupt first frame", `Quick, test_wal_corrupt_first_frame_recovers_nothing);
    ("manifest: truncated length field", `Quick, test_manifest_truncated_length_field);
    ("manifest: no resync after corrupt edit", `Quick, test_manifest_no_resync_after_corrupt_edit);
    ("manifest: torn tail mid-frame", `Quick, test_manifest_torn_tail_mid_frame);
    ("device: planned crash after Nth sync", `Quick, test_planned_crash_after_syncs);
    ("device: torn tail retained", `Quick, test_planned_crash_torn_tail);
    ("device: corrupt torn tail", `Quick, test_planned_crash_corrupt_tail);
    ("device: mid-append crash", `Quick, test_planned_crash_mid_append);
    ("device: atomic rename", `Quick, test_device_rename);
    ("db: second crash after recovery", `Quick, test_second_crash_after_recovery_loses_nothing);
    ("db: stale MANIFEST.tmp ignored", `Quick, test_stale_manifest_tmp_ignored);
    ("db: stray wal names skipped", `Quick, test_stray_wal_names_skipped);
    ("db: repeated crash/reopen cycles", `Quick, test_repeated_crash_reopen_cycles);
    ("sweep: every sync boundary x 3 tears", `Slow, test_sweep_every_sync_point);
    ("sweep: guarded layout, every sync boundary", `Slow, test_sweep_guarded_layout);
    ("sweep: device-op boundaries", `Slow, test_sweep_op_points);
    ("sweep: mid-append torn frames", `Slow, test_sweep_mid_append);
    ("sweep: crashes during recovery", `Slow, test_sweep_recovery_crashes);
    ("sweep: extended (LSM_CRASH_SWEEP=full)", `Slow, test_sweep_extended_seeds);
  ]
