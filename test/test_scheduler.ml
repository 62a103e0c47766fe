(* Tests for the background flush/compaction scheduler: the job lane and
   its failure latch, version pinning (readers never lose a table to a
   concurrent compaction), write backpressure, and — the load-bearing
   one — logical equivalence: a database run with the Background backend
   must hold exactly the same entries as one run Inline. *)

module Device = Lsm_storage.Device
module Entry = Lsm_record.Entry
module Db = Lsm_core.Db
module Config = Lsm_core.Config
module Stats = Lsm_core.Stats
module Scheduler = Lsm_core.Scheduler
module Version = Lsm_core.Version
module Policy = Lsm_compaction.Policy
module Compactionary = Lsm_compaction.Compactionary
module Rng = Lsm_util.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- scheduler primitive ---------- *)

let test_scheduler_runs_jobs () =
  let s = Scheduler.create () in
  let hits = Atomic.make 0 in
  for _ = 1 to 25 do
    Scheduler.enqueue s (fun () -> Atomic.incr hits)
  done;
  Scheduler.quiesce s;
  check_int "all jobs ran" 25 (Atomic.get hits);
  check_int "drained" 0 (Scheduler.pending s)

let test_scheduler_serializes () =
  (* Single lane: jobs never overlap, and run in enqueue order. *)
  let s = Scheduler.create () in
  let trace = ref [] in
  let running = Atomic.make 0 in
  let overlapped = Atomic.make false in
  for i = 1 to 10 do
    Scheduler.enqueue s (fun () ->
        if Atomic.fetch_and_add running 1 <> 0 then Atomic.set overlapped true;
        trace := i :: !trace;
        ignore (Atomic.fetch_and_add running (-1)))
  done;
  Scheduler.quiesce s;
  check_bool "no two jobs overlapped" false (Atomic.get overlapped);
  Alcotest.(check (list int)) "enqueue order" (List.init 10 (fun i -> i + 1)) (List.rev !trace)

exception Boom

let test_scheduler_failure_latch () =
  let s = Scheduler.create () in
  Scheduler.enqueue s (fun () -> raise Boom);
  Alcotest.check_raises "quiesce re-raises" Boom (fun () -> Scheduler.quiesce s);
  (* Delivered exactly once: the re-raise clears the latch... *)
  Scheduler.quiesce s;
  (* ...and the scheduler keeps accepting work. *)
  let ran = ref false in
  Scheduler.enqueue s (fun () -> ran := true);
  Scheduler.quiesce s;
  check_bool "subsequent jobs run" true !ran;
  (* [shutdown] drains silently even with a fresh failure parked (the
     close path must succeed after a planned device crash). *)
  Scheduler.enqueue s (fun () -> raise Boom);
  Scheduler.shutdown s;
  Scheduler.quiesce s

let test_scheduler_wait_until () =
  let s = Scheduler.create () in
  for _ = 1 to 8 do
    Scheduler.enqueue s (fun () -> ignore (Sys.opaque_identity (String.make 64 'x')))
  done;
  (* Exits when the predicate holds; at the latest when the lane drains. *)
  Scheduler.wait_until s (fun ~pending ~unapplied_bytes:_ -> pending <= 2);
  check_bool "below threshold" true (Scheduler.pending s <= 2);
  Scheduler.wait_until s (fun ~pending ~unapplied_bytes:_ -> pending = 0);
  check_int "drained" 0 (Scheduler.pending s)

(* ---------- multi-worker dispatch ---------- *)

(* Tickets whose keys touch levels >= 2 apart may overlap in time; the
   first spins until it observes the second running (bounded by a
   timeout so a regression fails rather than hangs). *)
let test_nonconflicting_tickets_overlap () =
  let s = Scheduler.create ~workers:2 () in
  let running = Atomic.make 0 in
  let max_running = Atomic.make 0 in
  let job () =
    let r = 1 + Atomic.fetch_and_add running 1 in
    if r > Atomic.get max_running then Atomic.set max_running r;
    let t0 = Unix.gettimeofday () in
    while Atomic.get running < 2 && Unix.gettimeofday () -. t0 < 5. do
      Domain.cpu_relax ()
    done;
    if Atomic.get running > Atomic.get max_running then
      Atomic.set max_running (Atomic.get running);
    ignore (Atomic.fetch_and_add running (-1));
    fun () -> ()
  in
  Scheduler.submit s
    ~key:(Scheduler.Compact { level = 0; lo = "a"; hi = "m" })
    ~input_bytes:0 ~execute:job;
  Scheduler.submit s
    ~key:(Scheduler.Compact { level = 3; lo = "a"; hi = "m" })
    ~input_bytes:0 ~execute:job;
  Scheduler.quiesce s;
  check_int "distant levels ran concurrently" 2 (Atomic.get max_running);
  Scheduler.shutdown s

(* Same level (or adjacent with overlapping ranges): never concurrent,
   and edits still commit in enqueue order. *)
let test_conflicting_tickets_serialize () =
  let s = Scheduler.create ~workers:4 () in
  let inside = Atomic.make false in
  let overlapped = Atomic.make false in
  let commits = ref [] in
  let job i () =
    if Atomic.get inside then Atomic.set overlapped true;
    Atomic.set inside true;
    Unix.sleepf 0.01;
    Atomic.set inside false;
    fun () -> commits := i :: !commits
  in
  for i = 1 to 4 do
    Scheduler.submit s
      ~key:(Scheduler.Compact { level = 2; lo = "a"; hi = "z" })
      ~input_bytes:0 ~execute:(job i)
  done;
  (* Adjacent level, overlapping range: also serialized against level 2. *)
  Scheduler.submit s
    ~key:(Scheduler.Compact { level = 3; lo = "m"; hi = "q" })
    ~input_bytes:0 ~execute:(job 5);
  Scheduler.quiesce s;
  check_bool "conflicting tickets never overlapped" false (Atomic.get overlapped);
  Alcotest.(check (list int)) "edits committed in enqueue order" [ 1; 2; 3; 4; 5 ]
    (List.rev !commits);
  Scheduler.shutdown s

(* A parked out-of-order edit whose predecessor fails must be discarded:
   the failed ticket's successors were planned against a version that
   will never exist. *)
let test_failed_predecessor_discards_parked () =
  let s = Scheduler.create ~workers:2 () in
  let gate = Atomic.make false in
  let parked = Atomic.make false in
  let committed = Atomic.make false in
  Scheduler.submit s
    ~key:(Scheduler.Compact { level = 0; lo = "a"; hi = "b" })
    ~input_bytes:0
    ~execute:(fun () ->
        while not (Atomic.get gate) do
          Domain.cpu_relax ()
        done;
        raise Boom);
  (* Distant level: runs concurrently, finishes first, parks its edit. *)
  Scheduler.submit s
    ~key:(Scheduler.Compact { level = 4; lo = "a"; hi = "b" })
    ~input_bytes:0
    ~execute:(fun () ->
        Atomic.set parked true;
        fun () -> Atomic.set committed true);
  while not (Atomic.get parked) do
    Domain.cpu_relax ()
  done;
  Atomic.set gate true;
  Alcotest.check_raises "predecessor failure re-raised" Boom (fun () -> Scheduler.quiesce s);
  check_bool "parked successor edit discarded, not committed" false (Atomic.get committed);
  check_int "queue drained" 0 (Scheduler.pending s);
  (* The lane stays usable after the discard. *)
  let ran = ref false in
  Scheduler.enqueue s (fun () -> ran := true);
  Scheduler.quiesce s;
  check_bool "lane usable after discard" true !ran;
  Scheduler.shutdown s

(* [shutdown] with edits parked behind a failed predecessor must drain
   silently rather than deadlock waiting for commits that cannot run. *)
let test_shutdown_with_parked_edits () =
  let s = Scheduler.create ~workers:2 () in
  let gate = Atomic.make false in
  let parked = Atomic.make false in
  Scheduler.submit s
    ~key:(Scheduler.Compact { level = 0; lo = "a"; hi = "b" })
    ~input_bytes:0
    ~execute:(fun () ->
        while not (Atomic.get gate) do
          Domain.cpu_relax ()
        done;
        raise Boom);
  Scheduler.submit s
    ~key:(Scheduler.Compact { level = 4; lo = "a"; hi = "b" })
    ~input_bytes:4096
    ~execute:(fun () ->
        Atomic.set parked true;
        fun () -> ());
  while not (Atomic.get parked) do
    Domain.cpu_relax ()
  done;
  Atomic.set gate true;
  Scheduler.shutdown s;
  check_int "drained after shutdown" 0 (Scheduler.pending s);
  check_int "no unapplied bytes left" 0 (Scheduler.unapplied_bytes s)

(* ---------- version pinning ---------- *)

let test_version_pins () =
  let reg = Version.Pins.create_registry () in
  let dropped = ref [] in
  (* No reader: deletions run immediately. *)
  Version.Pins.advance reg;
  Version.Pins.defer reg (fun () -> dropped := "a" :: !dropped);
  Alcotest.(check (list string)) "no pin: immediate" [ "a" ] !dropped;
  (* A pinned version blocks deletions deferred after it... *)
  let p = Version.Pins.pin reg in
  Version.Pins.advance reg;
  Version.Pins.defer reg (fun () -> dropped := "b" :: !dropped);
  check_int "deferred while pinned" 1 (Version.Pins.deferred_count reg);
  Alcotest.(check (list string)) "not yet" [ "a" ] !dropped;
  (* ...and the last unpin releases them. *)
  Version.Pins.unpin reg p;
  check_int "released" 0 (Version.Pins.deferred_count reg);
  Alcotest.(check (list string)) "ran on unpin" [ "b"; "a" ] !dropped;
  (* A pin taken after the install does not block its deletions. *)
  Version.Pins.advance reg;
  Version.Pins.with_pin reg (fun () ->
      Version.Pins.defer reg (fun () -> dropped := "c" :: !dropped);
      check_int "current-version pin does not block" 0 (Version.Pins.deferred_count reg));
  Alcotest.(check (list string)) "ran inline" [ "c"; "b"; "a" ] !dropped

(* Readers pin/unpin on several domains while one domain installs
   versions and defers the previous version's deletion, as compaction
   does: version [v] is published before its install, and deleting its
   files is deferred after the install of [v + 1]. A reader that pinned
   and then read version [v] must never see it deleted before it
   unpins; once every pin has dropped, nothing may stay deferred — the
   last unpin runs what it was blocking, with no [drain]. *)
let test_version_pins_concurrent () =
  let reg = Version.Pins.create_registry () in
  let versions = 3000 in
  let deleted = Array.init (versions + 1) (fun _ -> Atomic.make false) in
  let published = Atomic.make 0 in
  let stop = Atomic.make false in
  let reader () =
    Domain.spawn (fun () ->
        let violations = ref 0 and pins = ref 0 in
        while not (Atomic.get stop) do
          Version.Pins.with_pin reg (fun () ->
              incr pins;
              let v = Atomic.get published in
              if Atomic.get deleted.(v) then incr violations;
              for _ = 1 to 50 do
                Domain.cpu_relax ()
              done;
              if Atomic.get deleted.(v) then incr violations)
        done;
        (!violations, !pins))
  in
  let readers = List.init 3 (fun _ -> reader ()) in
  let installer =
    Domain.spawn (fun () ->
        for v = 1 to versions do
          Atomic.set published v;
          Version.Pins.advance reg;
          let old = v - 1 in
          Version.Pins.defer reg (fun () -> Atomic.set deleted.(old) true);
          if v mod 64 = 0 then Domain.cpu_relax ()
        done)
  in
  Domain.join installer;
  Atomic.set stop true;
  let results = List.map Domain.join readers in
  check_int "no deletion ran under a pin that predates it" 0
    (List.fold_left (fun a (v, _) -> a + v) 0 results);
  check_bool "readers pinned" true (List.for_all (fun (_, p) -> p > 0) results);
  check_int "nothing left deferred once every pin dropped" 0
    (Version.Pins.deferred_count reg);
  check_bool "every superseded version deleted" true
    (Array.for_all Atomic.get (Array.sub deleted 0 versions))

(* ---------- engine: background = inline ---------- *)

let small_config ~backend =
  {
    (Config.default) with
    write_buffer_size = 8 * 1024;
    level1_capacity = 32 * 1024;
    target_file_size = 16 * 1024;
    block_size = 1024;
    compaction = Policy.leveled ~size_ratio:4 ();
    compaction_backend = backend;
    wal_enabled = false;
  }

(* Same fixed mixed workload shape as the subcompaction determinism test:
   skewed updates, deletes, single-deletes, one range delete. *)
let run_workload db ~seed ~ops =
  let rng = Rng.create seed in
  for i = 1 to ops do
    let k = Rng.int rng 2000 in
    let key = Printf.sprintf "key%06d" k in
    (match Rng.int rng 10 with
    | 0 -> Db.delete db key
    | 1 ->
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
      Printf.sprintf "L%d %s #%d %s %s" level e.key e.seqno
        (Entry.kind_to_string e.kind)
        (String.escaped e.value))
    (Db.dump_entries db)

let test_background_equals_inline () =
  let mk backend =
    let dev = Device.in_memory () in
    let db = Db.open_db ~config:(small_config ~backend) ~dev () in
    run_workload db ~seed:0xBEEF ~ops:6000;
    Db.quiesce db;
    db
  in
  let inline = mk Config.Inline and bg = mk Config.Background in
  check_int "same seqno" (Db.last_seqno inline) (Db.last_seqno bg);
  (* One serialized maintenance lane performing the same op sequence:
     not just the same logical contents, the same physical entry stream. *)
  Alcotest.(check (list string)) "dumps identical" (dump_strings inline) (dump_strings bg);
  let s1 = Db.scan inline ~lo:"" ~hi:None () and s2 = Db.scan bg ~lo:"" ~hi:None () in
  Alcotest.(check (list (pair string string))) "scans identical" s1 s2;
  for k = 0 to 1999 do
    let key = Printf.sprintf "key%06d" k in
    Alcotest.(check (option string)) key (Db.get inline key) (Db.get bg key)
  done;
  (match Db.check_invariants bg with Ok () -> () | Error e -> Alcotest.fail e);
  (* Background mode never flushes synchronously inside a write. *)
  check_int "no synchronous stalls" 0 (Db.stats bg).Stats.write_stalls;
  check_bool "flushes happened in background" true ((Db.stats bg).Stats.flushes > 0);
  Db.close inline;
  Db.close bg

let test_background_self_determinism () =
  let mk () =
    let dev = Device.in_memory () in
    let db = Db.open_db ~config:(small_config ~backend:Config.Background) ~dev () in
    run_workload db ~seed:4242 ~ops:4000;
    Db.quiesce db;
    db
  in
  let a = mk () and b = mk () in
  Alcotest.(check (list string)) "identical dumps across runs" (dump_strings a) (dump_strings b);
  Db.close a;
  Db.close b

(* The multi-worker determinism property: for any seed, the physical
   entry stream after quiesce is identical across Inline, one worker,
   and four workers — commits apply in enqueue order and picks replay
   the inline cascade whatever the interleaving of job execution. *)
let test_worker_count_determinism () =
  let dump ~config ~seed =
    let dev = Device.in_memory () in
    let db = Db.open_db ~config ~dev () in
    run_workload db ~seed ~ops:1500;
    Db.quiesce db;
    let d = dump_strings db in
    Db.close db;
    d
  in
  for i = 0 to 19 do
    let seed = 0x5EED + (i * 7919) in
    let inline = dump ~config:(small_config ~backend:Config.Inline) ~seed in
    let w1 =
      dump
        ~config:{ (small_config ~backend:Config.Background) with compaction_workers = 1 }
        ~seed
    in
    let w4 =
      dump
        ~config:{ (small_config ~backend:Config.Background) with compaction_workers = 4 }
        ~seed
    in
    Alcotest.(check (list string)) (Printf.sprintf "seed %#x: workers=1 = inline" seed) inline w1;
    Alcotest.(check (list string)) (Printf.sprintf "seed %#x: workers=4 = inline" seed) inline w4
  done

(* ---------- golden trees ---------- *)

(* Digests recorded from the engine whose [Inline] backend ran flushes
   and compactions through a dedicated synchronous cascade, before that
   cascade became the zero-width scheduler lane. Each covers the tree
   shape (every run's group, file ids and sizes) every 250 operations
   and after the closing [flush] + [major_compact], the final entry
   stream, and the flush/compaction/trivial-move/stall counts with the
   stall bytes. So they pin down the intermediate trees too — which is
   where the throttled configurations' budget-cut rounds show. The
   entries from "leveled, no trivial moves" on (one per
   {!Compactionary} preset among them) were recorded from the engine
   whose [Db] still chose each compaction itself, before that choice
   moved into [Planner]. *)
let golden_config policy =
  { Config.default with
    write_buffer_size = 8 * 1024;
    level1_capacity = 16 * 1024;
    target_file_size = 16 * 1024;
    block_size = 1024;
    compaction = policy;
    compaction_backend = Config.Inline;
    compaction_workers = 1;
    compaction_parallelism = 1;
    wal_enabled = false }

let golden_configs =
  let leveled = Policy.leveled ~size_ratio:4 () in
  [ ("leveled", golden_config leveled,
     [ "8979da510382ce8b91a81249fc255105"; "b5b933362e9ce77133219a8dc82b925a";
       "757a4b0ad6c835420e51dbb05c764a80" ]);
    ("tiered", golden_config (Policy.tiered ~size_ratio:4 ()),
     [ "251702fcb51abdb9bca2a5ac1be046fb"; "4bc149298493ed802186e1b6db83adf3";
       "d2182258638f32c441dfb307c6bbeac3" ]);
    ("throttled", { (golden_config leveled) with compaction_bytes_per_round = Some 4096 },
     [ "75752fc64faacb9c2590dcc7fc5ec10e"; "15066face74e3cdf3f646b84e53a105c";
       "3ab57da1effa1ec6bf160ab6cd65745f" ]);
    ("throttled-ttl",
     { (golden_config { leveled with Policy.movement = Policy.Expired_ttl { ttl = 100 } }) with
       compaction_bytes_per_round = Some 4096 },
     [ "8917087181e695ccea9b8a33488542af"; "fa22fa8794aa531299ad304cfb5a3ffb";
       "bac51f8aaa5e4e9a7409259406f6afea" ]);
    ("monkey-2buf",
     { (golden_config (Policy.lazy_leveled ~size_ratio:4 ())) with
       monkey_filters = true; filter_memory_bits = 200_000; max_immutable_buffers = 2 },
     [ "ba51245ee0254042655b71ff0246f8e3"; "4ed9e3389247481858a7714038741e3a";
       "daf8f4cbf19687968f5a5bc049e80e63" ]);
    ("leveled, no trivial moves", { (golden_config leveled) with allow_trivial_move = false },
     [ "e1d8ad4c318b2050f23a3eb704fed1e2"; "1d9b65f78d0a55c8f0486ed61b043032";
       "a756bb6c91720236e616639ecfbbff90" ]);
    ("run-caps 3,2,1", golden_config { leveled with Policy.layout = Policy.Run_caps [| 3; 2; 1 |] },
     [ "843fa7311b30a15f0aaa2f1f6babdbb8"; "f4fd3f0f65ed14471dafb35ab38f4c90";
       "3a1b1109ae3c57f6f2af0c0a43bf72e8" ]) ]
  @ List.map
      (fun (name, digests) ->
        (name, golden_config (Option.get (Compactionary.find name)), digests))
      [ ("leveldb",
         [ "11d055bd788f580d64bf09933627ea83"; "4cf9d7cc3f87c91fc60516fc06c7bc3c";
           "2021aa179a76b4477552a3f3e5919518" ]);
        ("rocksdb-leveled",
         [ "8979da510382ce8b91a81249fc255105"; "b5b933362e9ce77133219a8dc82b925a";
           "757a4b0ad6c835420e51dbb05c764a80" ]);
        ("rocksdb-universal",
         [ "251702fcb51abdb9bca2a5ac1be046fb"; "4bc149298493ed802186e1b6db83adf3";
           "d2182258638f32c441dfb307c6bbeac3" ]);
        ("cassandra-stcs",
         [ "251702fcb51abdb9bca2a5ac1be046fb"; "4bc149298493ed802186e1b6db83adf3";
           "d2182258638f32c441dfb307c6bbeac3" ]);
        ("hbase-exploring",
         [ "0c5b0d40fc5f710fa0aa2614aed3a142"; "72bc355b5b9d81c5ca8a8e7f01bcaa13";
           "f0b427dc2deede6b6bbcaa50fde084b6" ]);
        ("asterixdb",
         [ "80e04496e90bd037ccee19fe13452bab"; "7a2edec86083831170982022c32a0257";
           "415a11e9fc5859dc619bea0493c177c4" ]);
        ("dostoevsky",
         [ "569e3f241069cbee3fcee1004e8d52c3"; "e210d856d9f3e362c19e606a96efc948";
           "055d2db0aa877b92406318319e22fde1" ]);
        ("rocksdb-hybrid",
         [ "eb3e26e3dce3b1bd1d36263f087d3874"; "6c54546eb10ff1accbe28d6840810842";
           "24e332647d30fcc59415d645d319c066" ]);
        ("lethe-fade",
         [ "8979da510382ce8b91a81249fc255105"; "b5b933362e9ce77133219a8dc82b925a";
           "757a4b0ad6c835420e51dbb05c764a80" ]);
        ("coldest-first",
         [ "a5c9fee8aa4f70b93935f997b357552e"; "cba0080d5e3a9ba36f7c15e1ddbabb41";
           "94022699434e26b305da9ec7e5a26724" ]);
        ("pebblesdb",
         [ "521a5aa67c129cdbbadc926a4f1e932a"; "ed805cd56372508bdff9a660985fe341";
           "88805bd63960b00f6c888ad84defe70e" ]) ]

let golden_digest config ~seed =
  let db = Db.open_db ~config ~dev:(Device.in_memory ()) () in
  let b = Buffer.create 4096 in
  let shape () =
    let v = Db.version db in
    for l = 0 to Version.max_levels - 1 do
      List.iter
        (fun (r : Version.run) ->
          Printf.bprintf b "L%d g%d" l r.Version.group;
          List.iter
            (fun (f : Lsm_sstable.Table_meta.t) -> Printf.bprintf b " %d:%d" f.file_id f.size)
            r.Version.files;
          Buffer.add_char b '\n')
        (Version.level_runs v l)
    done
  in
  let rng = Rng.create seed in
  let ops = 6000 in
  for i = 1 to ops do
    if i mod 250 = 0 then shape ();
    let k = Rng.int rng 2000 in
    let key = Printf.sprintf "key%06d" k in
    (match Rng.int rng 10 with
    | 0 -> Db.delete db key
    | 1 ->
      let sk = Printf.sprintf "sd%06d" i in
      Db.put db ~key:sk (Printf.sprintf "sval-%06d" i);
      Db.single_delete db sk
    | _ -> Db.put db ~key (Printf.sprintf "val-%06d-%08d" k (Rng.int rng 1_000_000)));
    if i = ops / 2 then Db.range_delete db ~lo:"key000500" ~hi:"key000600"
  done;
  Db.flush db;
  Db.major_compact db;
  shape ();
  List.iter (fun line -> Buffer.add_string b (line ^ "\n")) (dump_strings db);
  let s = Db.stats db in
  Printf.bprintf b "flushes=%d compactions=%d trivial_moves=%d stalls=%d burst=%d\n"
    s.Stats.flushes s.Stats.compactions s.Stats.trivial_moves s.Stats.write_stalls
    (Lsm_util.Histogram.total s.Stats.stall_burst_bytes);
  Db.close db;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_golden_trees () =
  List.iter
    (fun preset ->
      check_bool (preset ^ " has golden digests") true
        (List.exists (fun (name, _, _) -> name = preset) golden_configs))
    Compactionary.names;
  List.iter
    (fun (name, config, digests) ->
      List.iteri
        (fun i expected ->
          let seed = i + 1 in
          Alcotest.(check string)
            (Printf.sprintf "%s, seed %d" name seed)
            expected (golden_digest config ~seed))
        digests)
    golden_configs

(* ---------- concurrent readers vs background compaction ---------- *)

(* Reader domains hammer a committed stable prefix while the main domain
   keeps writing, driving background flushes and compactions that retire
   tables the readers may be probing. Version pinning must keep every
   probed file alive: a reader observing a deleted table would raise (or
   return garbage), so "always the right value" is the whole check.
   Runs under LSM_LOCKDEP=1 in CI, validating the lock order too. *)
let test_readers_during_background_compaction () =
  let dev = Device.in_memory () in
  let db = Db.open_db ~config:(small_config ~backend:Config.Background) ~dev () in
  let stable = 1500 in
  for i = 0 to stable - 1 do
    Db.put db ~key:(Printf.sprintf "s%06d" i) (Printf.sprintf "stable%06d" i)
  done;
  Db.flush db;
  let reader r =
    Domain.spawn (fun () ->
        let rng = Rng.create (r + 1) in
        let ok = ref true in
        for _ = 1 to 2500 do
          let i = Rng.int rng stable in
          let key = Printf.sprintf "s%06d" i in
          (match Db.get db key with
          | Some v -> if v <> Printf.sprintf "stable%06d" i then ok := false
          | None -> ok := false);
          if Rng.bernoulli rng 0.05 then begin
            let lo = Printf.sprintf "s%06d" i in
            match Db.scan db ~limit:5 ~lo ~hi:None () with
            | (k, _) :: _ -> if k <> lo then ok := false
            | [] -> ok := false
          end
        done;
        !ok)
  in
  let readers = List.init 3 reader in
  (* Meanwhile: churn through rotations, background flushes, compactions. *)
  let compactions_before = (Db.stats db).Stats.compactions in
  for i = 0 to 5999 do
    Db.put db ~key:(Printf.sprintf "w%06d" (i mod 700)) (Printf.sprintf "live%06d" i)
  done;
  let all_ok = List.for_all Domain.join readers in
  Db.quiesce db;
  check_bool "readers always saw the stable prefix" true all_ok;
  check_bool "background compactions actually ran" true
    ((Db.stats db).Stats.compactions > compactions_before);
  check_int "stable prefix intact" stable
    (List.length (Db.scan db ~lo:"s" ~hi:(Some "t") ()));
  (match Db.check_invariants db with Ok () -> () | Error e -> Alcotest.fail e);
  Db.close db

(* ---------- backpressure ---------- *)

let test_backpressure_validation () =
  let expect_invalid cfg =
    match Config.validate cfg with
    | () -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  expect_invalid { Config.default with write_slowdown_trigger = 0 };
  (* Byte thresholds: anything below one block is meaningless. *)
  expect_invalid
    { Config.default with
      write_slowdown_trigger = Config.default.block_size - 1;
      write_stop_trigger = 1 lsl 20 };
  expect_invalid
    { Config.default with write_slowdown_trigger = 1 lsl 20; write_stop_trigger = 1 lsl 20 };
  expect_invalid
    { Config.default with write_slowdown_trigger = 1 lsl 20; write_stop_trigger = 1 lsl 16 };
  Config.validate
    { Config.default with
      write_slowdown_trigger = Config.default.block_size;
      write_stop_trigger = 2 * Config.default.block_size }

let test_backpressure_engages () =
  (* Hair-trigger thresholds: sustained writes must trip the slowdown
     path (and count it), yet the engine keeps accepting writes and ends
     logically intact — backpressure delays, it never deadlocks. *)
  let dev = Device.in_memory () in
  let config =
    (* One block of byte debt already slows, two stop — with an 8 KiB
       buffer every rotation lands well past both thresholds. *)
    { (small_config ~backend:Config.Background) with
      write_slowdown_trigger = 1024;
      write_stop_trigger = 2048 }
  in
  let db = Db.open_db ~config ~dev () in
  for i = 0 to 2999 do
    Db.put db ~key:(Printf.sprintf "k%06d" (i mod 400)) (String.make 64 'v')
  done;
  let st = Db.stats db in
  (* Whether a given rotation reads debt in the slowdown band or at the
     stop trigger depends on how far the lane has drained at that
     instant; only the sum is schedule-independent. *)
  check_bool "backpressure engaged" true
    (st.Stats.write_slowdowns + st.Stats.write_stops > 0);
  check_bool "latency histogram populated" true
    (Lsm_util.Histogram.count st.Stats.write_latency_ns = 3000);
  Db.quiesce db;
  Db.flush db;
  (* Settled debt is just whatever L0 holds below its compaction trigger:
     under level0_limit buffers' worth of bytes. *)
  check_bool "debt settles once quiesced" true (Db.backpressure_debt db <= 64 * 1024);
  check_int "all keys live" 400 (List.length (Db.scan db ~lo:"" ~hi:None ()));
  Db.close db

(* ---------- crash cycle under the background backend ---------- *)

(* Power loss with flushes/compactions running on the lane: every
   acknowledged (WAL-synced) put must survive reopen. The crash may fire
   inside a background job's device op or inside the foreground WAL
   append; both surface as [Device.Crashed] on the write path (directly
   or via the failure latch). *)
let test_background_crash_cycle () =
  let dev = Device.in_memory () in
  let config =
    { (small_config ~backend:Config.Background) with
      wal_enabled = true;
      wal_sync_every_write = true;
      write_buffer_size = 2048 }
  in
  let db = Db.open_db ~config ~dev () in
  Device.plan_crash dev ~tear:(Device.Tear_keep 40) (Device.After_syncs 120);
  let acked = ref [] in
  (try
     for i = 0 to 4999 do
       let key = Printf.sprintf "c%06d" i in
       Db.put db ~key (Printf.sprintf "cv%06d" i);
       acked := (key, Printf.sprintf "cv%06d" i) :: !acked
     done;
     Alcotest.fail "crash never fired"
   with Device.Crashed -> ());
  check_bool "made progress before the crash" true (List.length !acked > 0);
  Lsm_workload.Crash_harness.drain_crashed db;
  Device.revive dev;
  let db2 = Db.open_db ~config ~dev () in
  List.iter
    (fun (k, v) -> Alcotest.(check (option string)) k (Some v) (Db.get db2 k))
    !acked;
  (match Db.check_invariants db2 with Ok () -> () | Error e -> Alcotest.fail e);
  (* The recovered store keeps working in background mode. *)
  Db.put db2 ~key:"post-crash" "alive";
  Db.flush db2;
  Alcotest.(check (option string)) "post-crash write" (Some "alive") (Db.get db2 "post-crash");
  Db.close db2

let suite =
  [
    Alcotest.test_case "scheduler: runs jobs" `Quick test_scheduler_runs_jobs;
    Alcotest.test_case "scheduler: serialized lane" `Quick test_scheduler_serializes;
    Alcotest.test_case "scheduler: failure latch" `Quick test_scheduler_failure_latch;
    Alcotest.test_case "scheduler: wait_until" `Quick test_scheduler_wait_until;
    Alcotest.test_case "scheduler: non-conflicting tickets overlap" `Quick
      test_nonconflicting_tickets_overlap;
    Alcotest.test_case "scheduler: conflicting tickets serialize" `Quick
      test_conflicting_tickets_serialize;
    Alcotest.test_case "scheduler: failed predecessor discards parked edit" `Quick
      test_failed_predecessor_discards_parked;
    Alcotest.test_case "scheduler: shutdown with parked edits" `Quick
      test_shutdown_with_parked_edits;
    Alcotest.test_case "version pins: deferred deletion" `Quick test_version_pins;
    Alcotest.test_case "version pins: concurrent pin/unpin vs install" `Quick
      test_version_pins_concurrent;
    Alcotest.test_case "background = inline" `Slow test_background_equals_inline;
    Alcotest.test_case "background: reproducible" `Slow test_background_self_determinism;
    Alcotest.test_case "golden trees: inline configs match recorded digests" `Slow
      test_golden_trees;
    Alcotest.test_case "determinism across worker counts (20 seeds)" `Slow
      test_worker_count_determinism;
    Alcotest.test_case "stress: readers vs background compaction" `Slow
      test_readers_during_background_compaction;
    Alcotest.test_case "backpressure: config validation" `Quick test_backpressure_validation;
    Alcotest.test_case "backpressure: engages and settles" `Quick test_backpressure_engages;
    Alcotest.test_case "crash cycle under background backend" `Quick
      test_background_crash_cycle;
  ]
