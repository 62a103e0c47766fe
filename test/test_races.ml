(* Regression tests for the serving-path races fixed alongside the
   server PR: the unsynchronized snapshot registry (a registration
   racing a compaction plan could be lost, letting the merge filter
   drop versions a live snapshot still needs), and the per-key read
   views in multi_get/get (a concurrent Write_batch could be observed
   half-applied across one result list). All stress tests run with
   lockdep enforcement on and background workers = 4 — the ISSUE's
   acceptance configuration. *)

module Device = Lsm_storage.Device
module Db = Lsm_core.Db
module Config = Lsm_core.Config
module Write_batch = Lsm_core.Write_batch
module Snapshot = Lsm_core.Snapshot
module Ordered_mutex = Lsm_util.Ordered_mutex
module Rng = Lsm_util.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_lockdep f =
  let was = Ordered_mutex.enabled () in
  Ordered_mutex.set_enforce true;
  Fun.protect ~finally:(fun () -> Ordered_mutex.set_enforce was) f

(* Small buffers so a few thousand writes produce real flush/compaction
   traffic on the lane. *)
let bg_config ?(workers = 4) () =
  {
    Config.default with
    write_buffer_size = 4 * 1024;
    level1_capacity = 16 * 1024;
    target_file_size = 4 * 1024;
    compaction_backend = Config.Background;
    compaction_workers = workers;
    wal_enabled = false;
  }

let key i = Printf.sprintf "key%06d" i
let value tag i = Printf.sprintf "v%08d-%06d" tag i

(* ---------- snapshot registry under churn ---------- *)

(* Three domains register/release snapshots as fast as they can while
   the main domain floods writes (rotations, flushes, merges on 4
   workers — every one of which copies the registry at plan time).
   Pre-fix, the plain-list RMW in snapshot/release loses registrations
   under exactly this interleaving; post-fix, lockdep-on, the run is
   clean and every churner's snapshots read consistent values. *)
let test_snapshot_churn () =
  with_lockdep @@ fun () ->
  let dev = Device.in_memory () in
  let db = Db.open_db ~config:(bg_config ()) ~dev () in
  (* Seed a stable prefix every snapshot must be able to read. *)
  for i = 0 to 63 do
    Db.put db ~key:(key i) (value 0 i)
  done;
  Db.flush db;
  let stop = Atomic.make false in
  let bad_reads = Atomic.make 0 in
  let churns = Atomic.make 0 in
  let churner seed =
    Domain.spawn (fun () ->
        let rng = Rng.create seed in
        while not (Atomic.get stop) do
          let s = Db.snapshot db in
          (* A snapshot must always see SOME complete value for a seeded
             key: the point of registry consistency is that compaction
             never drops the version this seqno pins. *)
          let k = key (Rng.int rng 64) in
          (match Db.get db ~snapshot:s k with
          | Some _ -> ()
          | None -> Atomic.incr bad_reads);
          Db.release db s;
          Atomic.incr churns
        done)
  in
  let churners = List.init 3 (fun d -> churner (1000 + d)) in
  for i = 0 to 4_999 do
    Db.put db ~key:(key (i mod 512)) (value 1 i)
  done;
  Db.quiesce db;
  Atomic.set stop true;
  List.iter Domain.join churners;
  Db.quiesce db;
  check_bool "churners made progress" true (Atomic.get churns > 100);
  check_int "no snapshot lost its view" 0 (Atomic.get bad_reads);
  check_int "registry drains to empty" 0 (List.length (Db.live_snapshots db));
  (match Db.check_invariants db with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  Db.close db

(* ---------- snapshot point-in-time across compaction ---------- *)

(* A snapshot taken between two generations of values must read exactly
   the first generation after flush + full compaction: the registry copy
   captured at plan time forces the merge filter to retain the pinned
   versions. (Releasing the snapshot and compacting again lets them
   go — checked too, or the registry would only ever grow.) *)
let test_snapshot_point_in_time () =
  with_lockdep @@ fun () ->
  let dev = Device.in_memory () in
  let db = Db.open_db ~config:(bg_config ~workers:2 ()) ~dev () in
  let n = 200 in
  for i = 0 to n - 1 do
    Db.put db ~key:(key i) (value 1 i)
  done;
  let s = Db.snapshot db in
  for i = 0 to n - 1 do
    Db.put db ~key:(key i) (value 2 i)
  done;
  Db.flush db;
  Db.major_compact db;
  Db.quiesce db;
  for i = 0 to n - 1 do
    Alcotest.(check (option string))
      (Printf.sprintf "snapshot view of %s" (key i))
      (Some (value 1 i))
      (Db.get db ~snapshot:s (key i));
    Alcotest.(check (option string))
      (Printf.sprintf "live view of %s" (key i))
      (Some (value 2 i))
      (Db.get db (key i))
  done;
  Db.release db s;
  check_int "registry empty after release" 0 (List.length (Db.live_snapshots db));
  Db.major_compact db;
  Db.quiesce db;
  Alcotest.(check (option string))
    "released versions compact away to the live value" (Some (value 2 0))
    (Db.get db (key 0));
  Db.close db

(* ---------- multi_get vs concurrent Write_batch ---------- *)

(* One writer domain applies batches that overwrite a fixed key group
   with a uniform tag; the reader multi_gets the group continuously.
   Atomicity contract: every result list must carry ONE tag — a mixed
   list is a torn read of the batch. Run on both execution paths. *)
let torn_mget_stress ~parallelism () =
  with_lockdep @@ fun () ->
  let dev = Device.in_memory () in
  let config = { (bg_config ()) with compaction_parallelism = parallelism } in
  let db = Db.open_db ~config ~dev () in
  let group = 16 in
  let keys = List.init group key in
  (* Generation 0 so the very first reads see a full group. *)
  let wb0 = Write_batch.create () in
  List.iter (fun k -> Write_batch.put wb0 ~key:k (value 0 0)) keys;
  Db.apply_batch db wb0;
  let rounds = 600 in
  let min_reads = 11 in
  (* Completed reader rounds. The writer paces itself on them: before
     batch [tag] it waits for [tag * min_reads / rounds] of them, so the
     reads interleave with the whole run and the last batch, the one
     that stops the reader, waits for [min_reads]. Without it a writer
     scheduled ahead of the reader could finish first, and the progress
     check below failed on a 1-CPU host. *)
  let reads = Atomic.make 0 in
  let writer =
    Domain.spawn (fun () ->
        for tag = 1 to rounds do
          while Atomic.get reads < tag * min_reads / rounds do
            Domain.cpu_relax ()
          done;
          let wb = Write_batch.create () in
          List.iter (fun k -> Write_batch.put wb ~key:k (value tag 0)) keys;
          Db.apply_batch db wb
        done)
  in
  let torn = ref 0 in
  let incomplete = ref 0 in
  let running = ref true in
  while !running do
    let results = Db.multi_get db keys in
    Atomic.incr reads;
    let tags =
      List.filter_map
        (fun r ->
          match r with
          | Some v when String.length v >= 9 -> Some (String.sub v 1 8)
          | Some _ -> None
          | None ->
            incr incomplete;
            None)
        results
    in
    (match tags with
    | [] -> ()
    | t0 :: rest ->
      if List.exists (fun x -> x <> t0) rest then incr torn;
      if t0 = Printf.sprintf "%08d" rounds then running := false);
    if Atomic.get reads > 200_000 then running := false
  done;
  Domain.join writer;
  Db.quiesce db;
  check_bool "reader made progress" true (Atomic.get reads > 10);
  check_int "no torn multi_get result" 0 !torn;
  check_int "no missing key inside a batch read" 0 !incomplete;
  Db.close db

let test_torn_mget_fallback () = torn_mget_stress ~parallelism:1 ()
let test_torn_mget_pool () = torn_mget_stress ~parallelism:4 ()

(* Same contract for single gets against batch writes: a get can return
   any generation, but never a value that was not a complete batch's
   write (trivially true for puts of whole values — the interesting
   assertion is that get never raises and never returns a stale-tagged
   value OLDER than one it already returned for the same key). *)
let test_get_monotonic_under_batches () =
  with_lockdep @@ fun () ->
  let dev = Device.in_memory () in
  let db = Db.open_db ~config:(bg_config ()) ~dev () in
  let k = key 0 in
  Db.put db ~key:k (value 0 0);
  let rounds = 400 in
  let writer =
    Domain.spawn (fun () ->
        for tag = 1 to rounds do
          let wb = Write_batch.create () in
          Write_batch.put wb ~key:k (value tag 0);
          Db.apply_batch db wb
        done)
  in
  let last = ref (-1) in
  let regressions = ref 0 in
  let continue = ref true in
  while !continue do
    (match Db.get db k with
    | Some v when String.length v >= 9 ->
      let tag = int_of_string (String.sub v 1 8) in
      if tag < !last then incr regressions;
      last := max !last tag;
      if tag = rounds then continue := false
    | _ -> incr regressions);
    if !last > rounds then continue := false
  done;
  Domain.join writer;
  check_int "visible seqno never goes backwards" 0 !regressions;
  Db.quiesce db;
  Db.close db

let suite =
  [
    Alcotest.test_case "snapshot registry survives multi-domain churn" `Slow
      test_snapshot_churn;
    Alcotest.test_case "snapshot reads exact point-in-time state across compaction" `Quick
      test_snapshot_point_in_time;
    Alcotest.test_case "multi_get vs concurrent batch: fallback path untorn" `Slow
      test_torn_mget_fallback;
    Alcotest.test_case "multi_get vs concurrent batch: pool path untorn" `Slow
      test_torn_mget_pool;
    Alcotest.test_case "get never regresses under concurrent batches" `Slow
      test_get_monotonic_under_batches;
  ]
