(* Silent-corruption tolerance: bit-rot injection primitives, typed
   errors at the read path, quarantine + health state machine, fail-safe
   read-only mode with [try_resume], the integrity scrubber, doctor
   salvage, and the corruption-sweep harness (the bit-rot analogue of
   the crash sweeps in test_crash.ml). *)

module Device = Lsm_storage.Device
module Io_stats = Lsm_storage.Io_stats
module Db = Lsm_core.Db
module Config = Lsm_core.Config
module Doctor = Lsm_core.Doctor
module Stats = Lsm_core.Stats
module Lsm_error = Lsm_util.Lsm_error
module Histogram = Lsm_util.Histogram
module Harness = Lsm_workload.Corruption_harness
module Crash = Lsm_workload.Crash_harness

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let popcount b =
  let rec go n acc = if n = 0 then acc else go (n lsr 1) (acc + (n land 1)) in
  go (Char.code b) 0

let write_synced dev name data =
  let w = Device.open_writer dev ~cls:Io_stats.C_misc name in
  Device.append w data;
  Device.sync w;
  Device.close w

(* ------------------------------------------------------------------ *)
(* Injection primitives                                                 *)
(* ------------------------------------------------------------------ *)

let test_plan_corruption_flips_one_bit_per_page () =
  let dev = Device.in_memory ~page_size:64 () in
  let data = String.make 200 'A' in
  write_synced dev "000001.sst" data;
  let hits = Device.plan_corruption dev ~seed:7 ~classes:[ Device.F_sst ] ~pages:2 () in
  check_int "two pages hit" 2 (List.length hits);
  let got = Device.read dev ~cls:Io_stats.C_misc "000001.sst" ~off:0 ~len:200 in
  let flipped = ref 0 in
  String.iteri
    (fun i c ->
      if c <> data.[i] then begin
        incr flipped;
        check_int "exactly one bit differs" 1 (popcount (Char.chr (Char.code c lxor Char.code data.[i])));
        check "hit offset reported" true
          (List.exists (fun (h : Device.corruption_hit) -> h.Device.hit_off = i) hits)
      end)
    got;
  check_int "one byte per page" 2 !flipped

let test_plan_corruption_class_filter () =
  let dev = Device.in_memory () in
  write_synced dev "000001.sst" (String.make 64 's');
  write_synced dev "MANIFEST" (String.make 64 'm');
  write_synced dev "wal-000000.log" (String.make 64 'w');
  write_synced dev "notes.txt" (String.make 64 'o');
  let hits = Device.plan_corruption dev ~seed:3 ~classes:[ Device.F_manifest ] ~pages:1 () in
  check_int "only the manifest hit" 1 (List.length hits);
  List.iter
    (fun (h : Device.corruption_hit) ->
      check "classified" true (h.Device.hit_class = Device.F_manifest);
      check "named" true (h.Device.hit_file = "MANIFEST"))
    hits;
  (* Unsynced bytes are out of bounds: corruption models rot of the
     durable image only (the writer stays open, nothing synced yet). *)
  let dev2 = Device.in_memory () in
  let w = Device.open_writer dev2 ~cls:Io_stats.C_misc "000009.sst" in
  Device.append w (String.make 64 'u');
  check "nothing synced, nothing hit" true
    (Device.plan_corruption dev2 ~seed:1 ~pages:1 () = []);
  Device.close w

let test_plan_corruption_rejects_bad_args () =
  let dev = Device.in_memory () in
  check "pages < 1 rejected" true
    (try
       ignore (Device.plan_corruption dev ~seed:1 ~pages:0 ());
       false
     with Invalid_argument _ -> true)

let test_plan_read_faults_transient () =
  let dev = Device.in_memory () in
  write_synced dev "000001.sst" "hello world";
  Device.plan_read_faults dev 2;
  let attempt () =
    match Device.read dev ~cls:Io_stats.C_misc "000001.sst" ~off:0 ~len:5 with
    | s -> `Ok s
    | exception Lsm_error.Error (Lsm_error.Io_error { retriable; _ }) -> `Fault retriable
  in
  check "first read faults retriable" true (attempt () = `Fault true);
  check "second read faults retriable" true (attempt () = `Fault true);
  check "charges spent, data undamaged" true (attempt () = `Ok "hello");
  check_int "fired count" 2 (Device.read_faults_fired dev)

(* ------------------------------------------------------------------ *)
(* Typed read path, quarantine, health                                  *)
(* ------------------------------------------------------------------ *)

let small_config () =
  { Config.default with Config.write_buffer_size = 4096; wal_sync_every_write = true }

(* A closed store whose keys live in tables (flushed before close). *)
let build_store ?(config = small_config ()) ~n dev =
  let db = Db.open_db ~config ~dev () in
  for i = 0 to n - 1 do
    Db.put db ~key:(Printf.sprintf "key-%04d" i) (Printf.sprintf "val-%04d-%s" i (String.make 32 'v'))
  done;
  Db.flush db;
  Db.close db

let test_db_reads_ride_out_transient_faults () =
  let dev = Device.in_memory () in
  build_store ~n:200 dev;
  let db = Db.open_db ~config:(small_config ()) ~dev () in
  Device.plan_read_faults dev 3;
  (* The bounded retry absorbs the transient faults; the value arrives. *)
  check "get survives transient faults" true
    (Db.get db "key-0100" <> None);
  check "faults actually fired" true (Device.read_faults_fired dev > 0);
  Db.close db

let test_corrupt_table_quarantined_typed_degraded () =
  let dev = Device.in_memory () in
  build_store ~n:400 dev;
  let hits = Device.plan_corruption dev ~seed:5 ~classes:[ Device.F_sst ] ~pages:1 () in
  check "injection hit" true (hits <> []);
  let db = Db.open_db ~config:(small_config ()) ~dev () in
  check "healthy before reads" true (Db.health db = Db.Healthy);
  (* Walk every key: some read must trip over the rot and raise typed.
     No read may ever return a wrong value. *)
  let typed = ref 0 in
  for i = 0 to 399 do
    let k = Printf.sprintf "key-%04d" i in
    match Db.get db k with
    | Some v -> check "value exact" true (v = Printf.sprintf "val-%04d-%s" i (String.make 32 'v'))
    | None -> Alcotest.fail ("silently missing " ^ k)
    | exception Lsm_error.Error (Lsm_error.Corruption _) -> incr typed
  done;
  check "typed corruption surfaced" true (!typed > 0);
  check "table quarantined" true (Db.quarantined_tables db <> []);
  check "health degraded" true (Db.health db = Db.Degraded);
  (* The failed block was never cached: the same read keeps raising the
     same typed error instead of serving stale cache contents. *)
  let q = List.hd (Db.quarantined_tables db) in
  check "quarantine names the rotten file" true
    (List.exists (fun (h : Device.corruption_hit) -> h.Device.hit_file = q.Db.q_file) hits);
  let stats = Db.stats db in
  check "corruption counted" true (stats.Stats.corruptions_detected > 0);
  check "quarantine counted" true (stats.Stats.tables_quarantined > 0);
  (* Degraded still serves writes (only fail-safe rejects them). *)
  Db.put db ~key:"fresh" "write";
  check "fresh write readable" true (Db.get db "fresh" = Some "write");
  Db.close db

let test_verify_integrity_reports_findings () =
  let dev = Device.in_memory () in
  build_store ~n:300 dev;
  let db = Db.open_db ~config:(small_config ()) ~dev () in
  check "sound store: no findings" true (Db.verify_integrity db = []);
  ignore (Device.plan_corruption dev ~seed:9 ~classes:[ Device.F_sst ] ~pages:1 ());
  let findings = Db.verify_integrity db in
  check "rot found" true (findings <> []);
  check "all findings typed corruption" true
    (List.for_all (function Lsm_error.Corruption _ -> true | _ -> false) findings);
  let stats = Db.stats db in
  check "scrub runs counted" true (stats.Stats.scrub_runs >= 2);
  check "scrub errors counted" true (stats.Stats.scrub_errors > 0);
  check "scrub quarantined the table" true (Db.quarantined_tables db <> []);
  Db.close db

(* Start offset of the frame that holds byte [off] of a pristine log
   image ([u32 crc | u32 len | payload] frames). *)
let frame_holding image off =
  let rec walk pos =
    let plen = Int32.to_int (String.get_int32_le image (pos + 4)) land 0xffffffff in
    if off < pos + 8 + plen then pos else walk (pos + 8 + plen)
  in
  walk 0

(* Log rot on a live store: one flipped bit in the open MANIFEST or in
   the active WAL must come back from [verify_integrity] as a typed
   corruption naming that file and the offset of the frame the bit sits
   in. Several seeds, so the flip lands in headers and payloads alike. *)
let test_verify_integrity_reports_log_rot cls () =
  for seed = 1 to 6 do
    let dev = Device.in_memory () in
    build_store ~n:300 dev;
    let db = Db.open_db ~config:(small_config ()) ~dev () in
    for i = 0 to 19 do
      Db.put db ~key:(Printf.sprintf "live-%02d" i) (String.make 40 'w')
    done;
    check "sound store: no findings" true (Db.verify_integrity db = []);
    let images =
      List.filter_map
        (fun name ->
          if Device.classify name = cls then
            Some (name, Device.read dev ~cls:Io_stats.C_misc name ~off:0 ~len:(Device.size dev name))
          else None)
        (Device.list_files dev)
    in
    let hits = Device.plan_corruption dev ~seed ~classes:[ cls ] ~pages:1 () in
    check "log was hit" true (hits <> []);
    let findings = Db.verify_integrity db in
    List.iter
      (fun (h : Device.corruption_hit) ->
        let frame = frame_holding (List.assoc h.Device.hit_file images) h.Device.hit_off in
        check
          (Printf.sprintf "seed %d: %s rot at %d reported at frame %d" seed h.Device.hit_file
             h.Device.hit_off frame)
          true
          (List.exists
             (function
               | Lsm_error.Corruption { file; offset = Some o; _ } ->
                 file = h.Device.hit_file && o = frame
               | _ -> false)
             findings))
      hits;
    Db.close db
  done

let test_background_scrub () =
  let dev = Device.in_memory () in
  build_store ~n:300 dev;
  let config =
    { (small_config ()) with Config.compaction_backend = Config.Background; scrub_delay = 0. }
  in
  let db = Db.open_db ~config ~dev () in
  ignore (Device.plan_corruption dev ~seed:4 ~classes:[ Device.F_sst ] ~pages:1 ());
  Db.scrub db;
  Db.quiesce db;
  check "background scrub quarantined the rot" true (Db.quarantined_tables db <> []);
  check "scrub never flips fail-safe" true (Db.health db <> Db.Failsafe_read_only);
  let stats = Db.stats db in
  check "scrub run counted" true (stats.Stats.scrub_runs >= 1);
  Db.close db

(* A merge chain reads the same tables a put-newest get would, so a
   quarantined table under it must fail loudly too, not fold the
   operand over a base served from the fenced file. *)
let test_merge_chain_over_quarantined_table () =
  let dev = Device.in_memory () in
  let plus _key base operands =
    let start = match base with Some b -> int_of_string b | None -> 0 in
    string_of_int (List.fold_left (fun a op -> a + int_of_string op) start operands)
  in
  let config = { (small_config ()) with Config.merge_operator = Some plus } in
  let db = Db.open_db ~config ~dev () in
  for i = 0 to 399 do
    Db.put db ~key:(Printf.sprintf "key-%04d" i) "10"
  done;
  Db.flush db;
  ignore (Device.plan_corruption dev ~seed:5 ~classes:[ Device.F_sst ] ~pages:1 ());
  check "scrub found the rot" true (Db.verify_integrity db <> []);
  let q = List.hd (Db.quarantined_tables db) in
  let k = q.Db.q_min in
  Db.merge db ~key:k "5";
  let raises_quarantined name read =
    check name true
      (match read () with
      | _ -> false
      | exception Lsm_error.Error (Lsm_error.Corruption { detail; _ }) ->
        String.starts_with ~prefix:"table is quarantined" detail)
  in
  raises_quarantined "get through a merge chain" (fun () -> ignore (Db.get db k));
  raises_quarantined "multi_get through a merge chain" (fun () -> ignore (Db.multi_get db [ k ]));
  raises_quarantined "scan of the key" (fun () ->
      ignore (Db.scan db ~lo:k ~hi:(Some (k ^ "\000")) ()));
  Db.close db

(* A scan opens a run's files only as it reaches them (DESIGN.md §21):
   one run of several files, its second file's first data block rotted.
   Returns the device, the config, and the run's files in key order. *)
let second_file_rotted () =
  let dev = Device.in_memory () in
  let config =
    {
      (small_config ()) with
      Config.target_file_size = 4096;
      compaction_backend = Config.Inline;
      compaction_parallelism = 1;
    }
  in
  let db = Db.open_db ~config ~dev () in
  for i = 0 to 399 do
    Db.put db ~key:(Printf.sprintf "key-%04d" i) (Printf.sprintf "val-%04d-%s" i (String.make 32 'v'))
  done;
  Db.major_compact db;
  let files =
    List.sort
      (fun (a : Lsm_sstable.Table_meta.t) b -> String.compare a.min_key b.min_key)
      (Lsm_core.Version.all_files (Db.version db))
  in
  let second = List.nth files 1 in
  let block =
    (Lsm_sstable.Sstable.index_entries
       (Lsm_sstable.Table_cache.get (Db.table_cache db) second.file_name)).(0)
  in
  Db.close db;
  let off = block.Lsm_sstable.Sstable.off + (block.Lsm_sstable.Sstable.len / 2) in
  let byte = Device.read dev ~cls:Io_stats.C_misc second.file_name ~off ~len:1 in
  Device.patch dev ~cls:Io_stats.C_misc second.file_name ~off
    (String.make 1 (Char.chr (Char.code byte.[0] lxor 0x10)));
  (dev, config, files, block.Lsm_sstable.Sstable.off)

let test_scan_reaches_rot_in_second_file () =
  let dev, config, files, block_off = second_file_rotted () in
  let first = List.hd files and second = List.nth files 1 in
  check "one run of several files" true (List.length files >= 3);
  let db = Db.open_db ~config ~dev () in
  check "the rot sits past the first file" true
    (List.length (Db.scan db ~lo:first.min_key ~hi:(Some second.min_key) ()) = first.entries);
  check "nothing quarantined yet" true (Db.quarantined_tables db = []);
  (match Db.scan db ~lo:first.min_key ~hi:None () with
  | _ -> Alcotest.fail "a scan across the rotted block returned"
  | exception Lsm_error.Error (Lsm_error.Corruption { file; offset; _ }) ->
    Alcotest.(check string) "pinned to the second file" second.file_name file;
    Alcotest.(check (option int)) "pinned to the block" (Some block_off) offset);
  Alcotest.(check (list string))
    "exactly that table quarantined" [ second.file_name ]
    (List.map (fun q -> q.Db.q_file) (Db.quarantined_tables db));
  check "degraded" true (Db.health db = Db.Degraded);
  Db.close db

let test_scan_stops_before_quarantined_file () =
  let dev, config, files, _ = second_file_rotted () in
  let first = List.hd files and second = List.nth files 1 in
  let db = Db.open_db ~config ~dev () in
  ignore (Db.verify_integrity db);
  Alcotest.(check (list string))
    "the scrub quarantined the second file" [ second.file_name ]
    (List.map (fun q -> q.Db.q_file) (Db.quarantined_tables db));
  (* The limit ends inside the first file: the quarantined file is
     never reached, so the rows come back. (A row steps past its older
     versions before the limit is checked, so a limit ending on the
     file's last row would step onto the next file.) *)
  let limit = first.entries - 1 in
  let rows = Db.scan db ~limit ~lo:first.min_key ~hi:None () in
  check_int "the first file's rows but its last" limit (List.length rows);
  Alcotest.(check string) "in key order from its first key" first.min_key (fst (List.hd rows));
  check "one row more reaches the fence" true
    (match Db.scan db ~limit:(first.entries + 1) ~lo:first.min_key ~hi:None () with
    | _ -> false
    | exception Lsm_error.Error (Lsm_error.Corruption { detail; _ }) ->
      String.starts_with ~prefix:"table is quarantined" detail);
  Db.close db

(* ------------------------------------------------------------------ *)
(* Fail-safe read-only mode                                             *)
(* ------------------------------------------------------------------ *)

let test_bg_failure_enters_failsafe_and_resume () =
  let dev = Device.in_memory () in
  build_store ~n:400 dev;
  let config =
    { (small_config ()) with Config.compaction_backend = Config.Background }
  in
  let db = Db.open_db ~config ~dev () in
  ignore (Device.plan_corruption dev ~seed:6 ~classes:[ Device.F_sst ] ~pages:1 ());
  (* Keep feeding writes until a background flush/compaction trips over
     the rotten table and parks the engine in fail-safe. *)
  let attempts = ref 0 in
  while Db.health db <> Db.Failsafe_read_only && !attempts < 200 do
    incr attempts;
    (* flush may itself re-raise the typed Corruption (inline leg of the
       guard) or a typed Read_only once fail-safe engages — both are the
       disclosed contract, never a silent success. *)
    try
      for i = 0 to 49 do
        Db.put db ~key:(Printf.sprintf "new-%03d-%03d" !attempts i) (String.make 40 'x')
      done;
      Db.flush db;
      Db.quiesce db
    with Lsm_error.Error _ -> ()
  done;
  Db.quiesce db;
  check "fail-safe entered" true (Db.health db = Db.Failsafe_read_only);
  let stats = Db.stats db in
  check "failsafe counted" true (stats.Stats.failsafe_entries > 0);
  (* Reads still work (or disclose damage as typed errors)... *)
  (match Db.get db "key-0000" with
  | Some _ | None -> ()
  | exception Lsm_error.Error (Lsm_error.Corruption _) -> ());
  (* ...writes are rejected with the typed Read_only, not a crash. *)
  let counters () =
    let st = Db.stats db in
    (Db.last_seqno db, st.Stats.user_puts, st.Stats.user_deletes, st.Stats.user_bytes_ingested)
  in
  let before = counters () in
  let rejected name write =
    check (name ^ " rejected") true
      (try
         write ();
         false
       with Lsm_error.Error (Lsm_error.Read_only _) -> true)
  in
  rejected "put" (fun () -> Db.put db ~key:"rejected" "w");
  rejected "merge" (fun () -> Db.merge db ~key:"rejected" "w");
  rejected "range_delete" (fun () -> Db.range_delete db ~lo:"a" ~hi:"b");
  rejected "apply_batch" (fun () ->
      let b = Lsm_core.Write_batch.create () in
      Lsm_core.Write_batch.put b ~key:"rejected" "w";
      Db.apply_batch db b);
  (* A rejected write allocates no seqno and counts as no ingest (it
     would inflate write amplification's denominator). *)
  check "rejected writes charged nothing" true (counters () = before);
  check "flush rejected" true
    (try
       Db.flush db;
       false
     with Lsm_error.Error (Lsm_error.Read_only _) -> true);
  (* try_resume clears fail-safe (to Degraded: quarantines remain) and
     writes flow again. *)
  let h = Db.try_resume db in
  check "resumed out of fail-safe" true (h <> Db.Failsafe_read_only);
  check "resume counted" true ((Db.stats db).Stats.resumes > 0);
  Db.put db ~key:"after-resume" "w";
  check "write after resume" true (Db.get db "after-resume" = Some "w");
  Db.close db

(* ------------------------------------------------------------------ *)
(* A corrupt compaction input                                           *)
(* ------------------------------------------------------------------ *)

(* A compaction reads its inputs through no quarantine fence (DESIGN.md
   §21.1): a rotted input block fails the compaction with a typed
   corruption naming the input. The failed job installs no edit — every
   input stays in the version and on the device, no output joins the
   version — and, like any failed maintenance job, parks the engine in
   fail-safe (§11.3). Nothing is quarantined, so [try_resume] returns it
   to healthy. The input is read on the compaction's own path: from a
   block cache that has never held it, into the iterator's reused
   buffer. *)
let test_corrupt_compaction_input backend () =
  let dev = Device.in_memory () in
  let config =
    {
      (small_config ()) with
      Config.write_buffer_size = 1 lsl 20;
      compaction =
        { Config.default.Config.compaction with Lsm_compaction.Policy.level0_limit = 16 };
      compaction_backend = backend;
      compaction_parallelism = 1;
    }
  in
  let db = Db.open_db ~config ~dev () in
  for run = 0 to 2 do
    for i = 0 to 299 do
      Db.put db ~key:(Printf.sprintf "key-%04d" ((i * 3) + run)) (String.make 48 'v')
    done;
    Db.flush db
  done;
  let tables db =
    Lsm_core.Version.all_files (Db.version db)
    |> List.map (fun (f : Lsm_sstable.Table_meta.t) -> f.Lsm_sstable.Table_meta.file_name)
    |> List.sort compare
  in
  let before = tables db in
  check_int "three level-0 runs" 3 (List.length before);
  Db.close db;
  (* Flip one byte inside the middle data block of the second run. *)
  let victim = List.nth before 1 in
  let reader =
    Lsm_sstable.Sstable.open_reader ~cmp:Lsm_util.Comparator.bytewise ~dev
      ~cache:(Lsm_storage.Block_cache.create ~capacity:0 ()) victim
  in
  let index = Lsm_sstable.Sstable.index_entries reader in
  let ie = index.(Array.length index / 2) in
  let off = ie.Lsm_sstable.Sstable.off + (ie.Lsm_sstable.Sstable.len / 2) in
  let byte = Device.read dev ~cls:Io_stats.C_misc victim ~off ~len:1 in
  Device.patch dev ~cls:Io_stats.C_misc victim ~off
    (String.make 1 (Char.chr (Char.code byte.[0] lxor 0x10)));
  let db = Db.open_db ~config ~dev () in
  let failed =
    match
      Db.major_compact db;
      Db.quiesce db
    with
    | () -> None
    | exception Lsm_error.Error (Lsm_error.Corruption { file; _ }) -> Some file
  in
  Alcotest.(check (option string)) "typed corruption names the input" (Some victim) failed;
  check "fail-safe entered" true (Db.health db = Db.Failsafe_read_only);
  Alcotest.(check (list string)) "no edit installed" before (tables db);
  check "no input deleted" true (List.for_all (Device.exists dev) before);
  check_int "no compaction counted" 0 (Db.stats db).Stats.compactions;
  check "nothing quarantined" true (Db.quarantined_tables db = []);
  check "resumed to healthy" true (Db.try_resume db = Db.Healthy);
  check "an intact key reads" true (Db.get db "key-0000" <> None);
  Db.close db

(* ------------------------------------------------------------------ *)
(* Proportional backpressure                                            *)
(* ------------------------------------------------------------------ *)

let test_proportional_slowdown_visible_in_stats () =
  let dev = Device.in_memory () in
  let config =
    {
      (small_config ()) with
      Config.compaction_backend = Config.Background;
      (* Byte-denominated: one 4 KiB buffer of debt already crosses the
         slowdown line, and the stop line is out of reach, so every
         rotation exercises the proportional ramp. *)
      write_slowdown_trigger = 4096;
      write_stop_trigger = 1 lsl 20;
    }
  in
  let db = Db.open_db ~config ~dev () in
  for i = 0 to 999 do
    Db.put db ~key:(Printf.sprintf "key-%04d" i) (String.make 48 'x')
  done;
  Db.quiesce db;
  let stats = Db.stats db in
  check "slowdowns triggered" true (stats.Stats.write_slowdowns > 0);
  let h = stats.Stats.slowdown_delay_ns in
  check "delays recorded" true (Histogram.count h > 0);
  (* The ramp is proportional: every recorded delay sits inside the
     [50µs, 1ms] band, not at a single fixed point. *)
  check "min >= 50us" true (Histogram.min_value h >= 50_000);
  check "max <= 1ms (log-bucketed)" true (Histogram.max_value h <= 2_000_000);
  Db.close db

(* ------------------------------------------------------------------ *)
(* Doctor salvage                                                       *)
(* ------------------------------------------------------------------ *)

let test_doctor_salvages_unhit_keys () =
  let dev = Device.in_memory () in
  let config =
    { Config.default with Config.write_buffer_size = 1 lsl 15; wal_sync_every_write = true }
  in
  let key i = Printf.sprintf "key-%04d" i in
  let value i = Printf.sprintf "val-%04d-%s" i (String.make 48 'v') in
  let n = 600 in
  let db = Db.open_db ~config ~dev () in
  for i = 0 to n - 1 do
    Db.put db ~key:(key i) (value i)
  done;
  Db.flush db;
  Db.close db;
  let hits = Device.plan_corruption dev ~seed:21 ~classes:[ Device.F_sst ] ~pages:1 () in
  check "injection hit" true (hits <> []);
  check "verify finds the rot" true (Doctor.verify dev <> []);
  let report = Doctor.repair dev in
  let db2 = Db.open_db ~config ~dev () in
  let lost k =
    List.exists
      (fun (tr : Doctor.table_report) ->
        List.exists
          (fun (lo, hi) -> (lo = "" && hi = "") || (lo <= k && k <= hi))
          tr.Doctor.tr_lost_ranges)
      report.Doctor.tables
  in
  let salvaged = ref 0 in
  for i = 0 to n - 1 do
    match Db.get db2 (key i) with
    | Some v ->
      incr salvaged;
      check "salvaged value exact" true (v = value i)
    | None -> check "loss disclosed" true (lost (key i))
  done;
  check "salvage kept most keys" true (!salvaged > n / 2);
  Db.close db2

(* Files whose names the engine never generates are not the engine's:
   neither recovery nor repair may touch them. *)
let test_doctor_leaves_stray_files () =
  let dev = Device.in_memory () in
  build_store ~n:200 dev;
  let strays = [ "notes.sst"; "wal-0x10.log"; "wal--1.log"; "wal-1_0.log"; "-00001.sst" ] in
  List.iter (fun name -> write_synced dev name "not a table or a log") strays;
  let present () = List.filter (Device.exists dev) strays in
  let db = Db.open_db ~config:(small_config ()) ~dev () in
  Db.close db;
  Alcotest.(check (list string)) "open_db leaves them" strays (present ());
  ignore (Doctor.repair dev);
  Alcotest.(check (list string)) "repair leaves them" strays (present ());
  let db = Db.open_db ~config:(small_config ()) ~dev () in
  check "store still reads" true (Db.get db "key-0100" <> None);
  Db.close db

(* Two rot sites in one log: the per-block resync must recover the
   batches on every side — before, between, and after the damage — and
   disclose exactly the two skipped ranges. The classic scan would stop
   at the first bad frame and silently drop everything after it. *)
let test_wal_salvage_two_rot_sites () =
  let module Wal = Lsm_storage.Wal in
  let module Entry = Lsm_record.Entry in
  let dev = Device.in_memory () in
  let batch i =
    [ { Entry.key = Printf.sprintf "batch-%d" i; seqno = i; kind = Entry.Put;
        value = String.make 48 (Char.chr (Char.code 'a' + i)) } ]
  in
  let wal = Wal.create dev ~name:"wal-000001.log" in
  let bounds =
    List.map
      (fun i ->
        let start = Device.size dev "wal-000001.log" in
        Wal.append wal (batch i);
        (i, start, Device.size dev "wal-000001.log"))
      [ 1; 2; 3; 4; 5 ]
  in
  Wal.close wal;
  (* One flipped bit inside the payloads of batches 2 and 4. *)
  let flip_at off =
    let b = Device.read dev ~cls:Io_stats.C_misc "wal-000001.log" ~off ~len:1 in
    Device.patch dev ~cls:Io_stats.C_misc "wal-000001.log" ~off
      (String.make 1 (Char.chr (Char.code b.[0] lxor 1)))
  in
  let frame i = let _, s, e = List.find (fun (j, _, _) -> j = i) bounds in (s, e) in
  let f2s, _ = frame 2 and f4s, _ = frame 4 in
  flip_at (f2s + 9);
  flip_at (f4s + 9);
  let got = ref [] in
  let n, gaps =
    Wal.salvage dev ~name:"wal-000001.log" (fun es ->
        got := !got @ List.map (fun e -> e.Entry.key) es)
  in
  check_int "batches on both sides of both gaps recovered" 3 n;
  Alcotest.(check (list string)) "exactly batches 1, 3, 5 survive"
    [ "batch-1"; "batch-3"; "batch-5" ] !got;
  check_int "both rot sites disclosed" 2 (List.length gaps);
  List.iter
    (fun off ->
      check "flipped byte lies inside a disclosed gap" true
        (List.exists (fun (s, e) -> s <= off && off < e) gaps))
    [ f2s + 9; f4s + 9 ]

(* Manifest-only rot with intact tables: [repair_manifest] re-derives
   the version from the surviving footers and the reopened store serves
   the exact final state, losing nothing. *)
let test_repair_manifest_rebuilds_exact_state () =
  let dev = Device.in_memory () in
  let config =
    { Config.default with Config.write_buffer_size = 1 lsl 14; wal_sync_every_write = true }
  in
  let key i = Printf.sprintf "key-%04d" i in
  let value i = Printf.sprintf "value-%04d-%s" i (String.make 48 'v') in
  let n = 600 in
  let db = Db.open_db ~config ~dev () in
  for i = 0 to n - 1 do
    Db.put db ~key:(key i) (value i)
  done;
  Db.flush db;
  Db.close db;
  let hits = Device.plan_corruption dev ~seed:9 ~classes:[ Device.F_manifest ] ~pages:1 () in
  check "manifest was hit" true (hits <> []);
  let tables, findings = Doctor.repair_manifest dev in
  check "rebuild referenced the surviving tables" true (tables > 0);
  Alcotest.(check (list string)) "every footer was openable" []
    (List.map Lsm_error.to_string findings);
  let db2 = Db.open_db ~config ~dev () in
  let got = Db.scan db2 ~lo:"" ~hi:None () in
  check_int "exact key count back" n (List.length got);
  List.iteri
    (fun i (k, v) ->
      if k <> key i || v <> value i then
        Alcotest.fail (Printf.sprintf "wrong data for %s after rebuild" k))
    got;
  Db.close db2

(* ------------------------------------------------------------------ *)
(* The sweep                                                            *)
(* ------------------------------------------------------------------ *)

let test_corruption_sweep () =
  let ops = Crash.gen_ops ~seed:42 ~count:150 in
  let r = Harness.sweep ~pages:[ 1; 2; 4 ] ~seeds:[ 11 ] ~ops () in
  check_int "all classes times all page counts" 9 r.Harness.runs;
  check "bits actually flipped" true (r.Harness.hits >= r.Harness.runs);
  Alcotest.(check (list string)) "corruption contract holds" [] r.Harness.failures

let suite =
  [
    Alcotest.test_case "plan_corruption: one bit per page" `Quick
      test_plan_corruption_flips_one_bit_per_page;
    Alcotest.test_case "plan_corruption: class filter + synced only" `Quick
      test_plan_corruption_class_filter;
    Alcotest.test_case "plan_corruption: bad args" `Quick test_plan_corruption_rejects_bad_args;
    Alcotest.test_case "plan_read_faults: transient + bounded" `Quick
      test_plan_read_faults_transient;
    Alcotest.test_case "db reads ride out transient faults" `Quick
      test_db_reads_ride_out_transient_faults;
    Alcotest.test_case "corrupt table: typed, quarantined, degraded" `Quick
      test_corrupt_table_quarantined_typed_degraded;
    Alcotest.test_case "verify_integrity reports findings" `Quick
      test_verify_integrity_reports_findings;
    Alcotest.test_case "verify_integrity reports MANIFEST rot" `Quick
      (test_verify_integrity_reports_log_rot Device.F_manifest);
    Alcotest.test_case "verify_integrity reports WAL rot" `Quick
      (test_verify_integrity_reports_log_rot Device.F_wal);
    Alcotest.test_case "background scrub quarantines rot" `Quick test_background_scrub;
    Alcotest.test_case "bg failure -> fail-safe -> resume" `Quick
      test_bg_failure_enters_failsafe_and_resume;
    Alcotest.test_case "proportional slowdown in stats" `Quick
      test_proportional_slowdown_visible_in_stats;
    Alcotest.test_case "doctor salvages un-hit keys" `Quick test_doctor_salvages_unhit_keys;
    Alcotest.test_case "wal salvage: two rot sites, both sides kept" `Quick
      test_wal_salvage_two_rot_sites;
    Alcotest.test_case "repair_manifest rebuilds exact state" `Quick
      test_repair_manifest_rebuilds_exact_state;
    Alcotest.test_case "corruption sweep" `Quick test_corruption_sweep;
    Alcotest.test_case "merge chain over a quarantined table raises" `Quick
      test_merge_chain_over_quarantined_table;
    Alcotest.test_case "scan reaches rot in a run's second file" `Quick
      test_scan_reaches_rot_in_second_file;
    Alcotest.test_case "scan stops before a quarantined file" `Quick
      test_scan_stops_before_quarantined_file;
    Alcotest.test_case "doctor repair leaves stray files alone" `Quick
      test_doctor_leaves_stray_files;
    Alcotest.test_case "corrupt compaction input fails it, inline" `Quick
      (test_corrupt_compaction_input Config.Inline);
    Alcotest.test_case "corrupt compaction input fails it, background" `Quick
      (test_corrupt_compaction_input Config.Background);
  ]
