(* Tests for lsm_storage: device accounting, crash simulation, block cache
   LRU behaviour, WAL framing and torn-tail recovery. *)

open Lsm_storage
module Entry = Lsm_record.Entry

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ---------- Device ---------- *)

let test_device_write_read () =
  let dev = Device.in_memory () in
  let w = Device.open_writer dev ~cls:Io_stats.C_flush "f1" in
  Device.append w "hello ";
  Device.append w "world";
  check_int "written" 11 (Device.written w);
  Device.close w;
  check_str "read all" "hello world" (Device.read dev ~cls:Io_stats.C_user_read "f1" ~off:0 ~len:11);
  check_str "read mid" "lo wo" (Device.read dev ~cls:Io_stats.C_user_read "f1" ~off:3 ~len:5);
  check_int "size" 11 (Device.size dev "f1")

let test_device_missing_file () =
  let dev = Device.in_memory () in
  check "exists false" false (Device.exists dev "nope");
  Alcotest.check_raises "read missing" Not_found (fun () ->
      ignore (Device.read dev ~cls:Io_stats.C_user_read "nope" ~off:0 ~len:1))

let test_device_page_accounting () =
  let dev = Device.in_memory ~page_size:4096 () in
  let w = Device.open_writer dev ~cls:Io_stats.C_flush "f" in
  Device.append w (String.make 10000 'x');
  Device.close w;
  let st = Device.stats dev in
  check_int "write bytes" 10000 (Io_stats.bytes_written ~cls:Io_stats.C_flush st);
  (* Read spanning a page boundary counts both pages. *)
  ignore (Device.read dev ~cls:Io_stats.C_user_read "f" ~off:4090 ~len:12);
  check_int "read pages" 2 (Io_stats.pages_read ~cls:Io_stats.C_user_read st);
  ignore (Device.read dev ~cls:Io_stats.C_user_read "f" ~off:0 ~len:0);
  check_int "empty read adds nothing" 2 (Io_stats.pages_read ~cls:Io_stats.C_user_read st)

let test_device_delete_and_list () =
  let dev = Device.in_memory () in
  List.iter
    (fun n ->
      let w = Device.open_writer dev ~cls:Io_stats.C_misc n in
      Device.append w n;
      Device.close w)
    [ "b"; "a"; "c" ];
  Alcotest.(check (list string)) "sorted listing" [ "a"; "b"; "c" ] (Device.list_files dev);
  check_int "total bytes" 3 (Device.total_bytes dev);
  Device.delete dev "b";
  Alcotest.(check (list string)) "after delete" [ "a"; "c" ] (Device.list_files dev);
  Device.delete dev "b" (* idempotent *)

let test_device_crash_loses_unsynced () =
  let dev = Device.in_memory () in
  let w = Device.open_writer dev ~cls:Io_stats.C_user_write "log" in
  Device.append w "durable";
  Device.sync w;
  Device.append w "-volatile";
  Device.crash dev;
  check_int "only synced prefix survives" 7 (Device.size dev "log");
  check_str "content" "durable" (Device.read dev ~cls:Io_stats.C_misc "log" ~off:0 ~len:7);
  Alcotest.check_raises "writer unusable after crash"
    (Invalid_argument "Device.append: file sealed (crashed?)") (fun () -> Device.append w "x")

let test_device_double_writer_rejected () =
  let dev = Device.in_memory () in
  let w = Device.open_writer dev ~cls:Io_stats.C_misc "f" in
  Alcotest.check_raises "second writer" (Invalid_argument "Device.open_writer: already open: f")
    (fun () -> ignore (Device.open_writer dev ~cls:Io_stats.C_misc "f"));
  Device.close w

let test_device_on_disk_backend () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "lsm_test_disk" in
  let dev = Device.on_disk ~dir () in
  let w = Device.open_writer dev ~cls:Io_stats.C_flush "t.sst" in
  Device.append w "0123456789";
  Device.close w;
  check_str "read back from real file" "345" (Device.read dev ~cls:Io_stats.C_user_read "t.sst" ~off:3 ~len:3);
  check_int "size" 10 (Device.size dev "t.sst");
  check "listed" true (List.mem "t.sst" (Device.list_files dev));
  Device.delete dev "t.sst";
  check "deleted" false (Device.exists dev "t.sst")

(* Backend parity: the exact same operation sequence, observable result
   by observable result, against the in-memory simulator and the real
   file system. The crash/corruption harnesses run on the simulator, so
   any behavioural drift between the two backends would silently erode
   what those sweeps prove about the on-disk engine. *)
let test_device_backend_parity () =
  let fresh_disk () =
    let dir = Filename.concat (Filename.get_temp_dir_name ()) "lsm_parity_disk" in
    if Sys.file_exists dir then
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Device.on_disk ~page_size:512 ~dir ()
  in
  let exercise dev =
    let results = ref [] in
    let record fmt = Printf.ksprintf (fun s -> results := s :: !results) fmt in
    let w = Device.open_writer dev ~cls:Io_stats.C_flush "000001.sst" in
    Device.append w "alpha-";
    record "written mid-stream %d" (Device.written w);
    Device.append w "beta";
    Device.sync w;
    Device.close w;
    record "size %d" (Device.size dev "000001.sst");
    record "read all %s" (Device.read dev ~cls:Io_stats.C_user_read "000001.sst" ~off:0 ~len:10);
    record "read mid %s" (Device.read dev ~cls:Io_stats.C_user_read "000001.sst" ~off:2 ~len:5);
    record "read empty %S" (Device.read dev ~cls:Io_stats.C_user_read "000001.sst" ~off:10 ~len:0);
    (record "read oob %s"
       (try
          ignore (Device.read dev ~cls:Io_stats.C_user_read "000001.sst" ~off:6 ~len:10);
          "no-exn"
        with Invalid_argument _ -> "invalid-argument"));
    (record "read missing %s"
       (try
          ignore (Device.read dev ~cls:Io_stats.C_user_read "nope" ~off:0 ~len:1);
          "no-exn"
        with Not_found -> "not-found"));
    (* A second file, then atomic rename over the first. *)
    let w2 = Device.open_writer dev ~cls:Io_stats.C_misc "MANIFEST.tmp" in
    Device.append w2 "manifest-v2";
    Device.close w2;
    Device.rename dev "MANIFEST.tmp" "000001.sst";
    record "rename replaces: size %d" (Device.size dev "000001.sst");
    record "rename replaces: content %s"
      (Device.read dev ~cls:Io_stats.C_misc "000001.sst" ~off:0 ~len:11);
    record "rename removes src %b" (Device.exists dev "MANIFEST.tmp");
    (record "rename missing src %s"
       (try
          Device.rename dev "ghost" "x";
          "no-exn"
        with Not_found -> "not-found"));
    (* Listing, existence, deletion (including idempotence). *)
    let w3 = Device.open_writer dev ~cls:Io_stats.C_misc "wal-000000.log" in
    Device.append w3 "wal";
    Device.close w3;
    record "list %s" (String.concat "," (Device.list_files dev));
    record "total bytes %d" (Device.total_bytes dev);
    Device.delete dev "wal-000000.log";
    Device.delete dev "wal-000000.log";
    record "after delete %s" (String.concat "," (Device.list_files dev));
    record "exists deleted %b" (Device.exists dev "wal-000000.log");
    (record "double writer %s"
       (let w4 = Device.open_writer dev ~cls:Io_stats.C_misc "dup" in
        let r =
          try
            ignore (Device.open_writer dev ~cls:Io_stats.C_misc "dup");
            "no-exn"
          with Invalid_argument _ -> "invalid-argument"
        in
        Device.close w4;
        r));
    record "page size %d" (Device.page_size dev);
    List.rev !results
  in
  let mem = exercise (Device.in_memory ~page_size:512 ()) in
  let disk = exercise (fresh_disk ()) in
  Alcotest.(check (list string)) "backends observably identical" mem disk

let test_io_stats_diff () =
  let dev = Device.in_memory () in
  let w = Device.open_writer dev ~cls:Io_stats.C_flush "f" in
  Device.append w (String.make 100 'a');
  Device.close w;
  let before = Io_stats.copy (Device.stats dev) in
  let w2 = Device.open_writer dev ~cls:Io_stats.C_flush "g" in
  Device.append w2 (String.make 50 'b');
  Device.close w2;
  let d = Io_stats.diff (Device.stats dev) before in
  check_int "diff isolates the second write" 50 (Io_stats.bytes_written d)

let test_write_amplification () =
  let st = Io_stats.create () in
  Io_stats.record_write st Io_stats.C_flush ~bytes:100;
  Io_stats.record_write st Io_stats.C_compaction_write ~bytes:300;
  (* device bytes written, every class summed, over 100 user bytes *)
  Alcotest.(check (float 0.001)) "wa" 4.0 (float_of_int (Io_stats.bytes_written st) /. 100.0)

(* ---------- Block cache ---------- *)

(* These tests exercise the LRU machinery with plain strings; the byte
   charge is the payload length, as it was before the cache went
   polymorphic. *)
let insert_str c ~file ~off s = Block_cache.insert c ~file ~off ~bytes:(String.length s) s

let test_cache_hit_miss () =
  let c = Block_cache.create ~capacity:1024 () in
  check "miss on empty" true (Block_cache.find c ~file:"f" ~off:0 = None);
  insert_str c ~file:"f" ~off:0 "data";
  check "hit" true (Block_cache.find c ~file:"f" ~off:0 = Some "data");
  check_int "hits" 1 (Block_cache.hits c);
  check_int "misses" 1 (Block_cache.misses c);
  Alcotest.(check (float 0.001)) "hit rate" 0.5 (Block_cache.hit_rate c)

let test_cache_lru_eviction () =
  let c = Block_cache.create ~capacity:30 () in
  insert_str c ~file:"f" ~off:0 (String.make 10 'a');
  insert_str c ~file:"f" ~off:1 (String.make 10 'b');
  insert_str c ~file:"f" ~off:2 (String.make 10 'c');
  (* Touch block 0 so block 1 is LRU. *)
  ignore (Block_cache.find c ~file:"f" ~off:0);
  insert_str c ~file:"f" ~off:3 (String.make 10 'd');
  check "0 kept (recently used)" true (Block_cache.find c ~file:"f" ~off:0 <> None);
  check "1 evicted (LRU)" true (Block_cache.find c ~file:"f" ~off:1 = None);
  check "2 kept" true (Block_cache.find c ~file:"f" ~off:2 <> None);
  check_int "one eviction" 1 (Block_cache.evictions c);
  check "within capacity" true (Block_cache.used_bytes c <= 30)

let test_cache_oversized_not_cached () =
  let c = Block_cache.create ~capacity:8 () in
  insert_str c ~file:"f" ~off:0 (String.make 100 'x');
  check "not cached" true (Block_cache.find c ~file:"f" ~off:0 = None);
  check_int "usage zero" 0 (Block_cache.used_bytes c)

let test_cache_zero_capacity () =
  let c = Block_cache.create ~capacity:0 () in
  insert_str c ~file:"f" ~off:0 "x";
  check "never caches" true (Block_cache.find c ~file:"f" ~off:0 = None)

let test_cache_evict_file () =
  let c = Block_cache.create ~capacity:1000 () in
  insert_str c ~file:"a" ~off:0 "11";
  insert_str c ~file:"a" ~off:1 "22";
  insert_str c ~file:"b" ~off:0 "33";
  check_int "evicts both of a" 2 (Block_cache.evict_file c "a");
  check "b survives" true (Block_cache.find c ~file:"b" ~off:0 <> None);
  check_int "count" 1 (Block_cache.block_count c)

let test_cache_replace_same_key () =
  let c = Block_cache.create ~capacity:100 () in
  insert_str c ~file:"f" ~off:0 "old";
  insert_str c ~file:"f" ~off:0 "newer";
  check "replaced" true (Block_cache.find c ~file:"f" ~off:0 = Some "newer");
  check_int "usage reflects replacement" 5 (Block_cache.used_bytes c)

(* The read path's idiom: probe, and on a miss load and insert. *)
let test_cache_find_then_insert () =
  let c = Block_cache.create ~capacity:100 () in
  let loads = ref 0 in
  let get () =
    match Block_cache.find c ~file:"f" ~off:7 with
    | Some d -> d
    | None ->
      incr loads;
      insert_str c ~file:"f" ~off:7 "blk";
      "blk"
  in
  check_str "first loads" "blk" (get ());
  check_str "second cached" "blk" (get ());
  check_int "loaded once" 1 !loads;
  check_int "one miss" 1 (Block_cache.misses c);
  check_int "one hit" 1 (Block_cache.hits c)

(* A hit allocates nothing (DESIGN.md §23): the shard's one probe key
   is reused, the [Some] stored at insert is returned, and the shard
   lock is taken without a closure. A per-probe [(file, off)] tuple or
   [option] links in the recency list each cost words on every hit.
   Runtime lockdep allocates per lock it tracks, so the gate allows
   what one bare lock and unlock cost (0 with tracking off). *)
let lock_words () =
  let m =
    Lsm_util.Ordered_mutex.create ~rank:Lsm_util.Ordered_mutex.Rank.block_cache_shard
      ~name:"probe"
  in
  let n = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    Lsm_util.Ordered_mutex.lock m;
    Lsm_util.Ordered_mutex.unlock m
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let test_cache_hit_allocates_nothing () =
  List.iter
    (fun shards ->
      let c = Block_cache.create ~shards ~capacity:(1 lsl 20) () in
      for off = 0 to 63 do
        insert_str c ~file:"f" ~off "block"
      done;
      let n = 10_000 in
      let w0 = Gc.minor_words () in
      for i = 1 to n do
        ignore (Sys.opaque_identity (Block_cache.find c ~file:"f" ~off:(i land 63)))
      done;
      let words = (Gc.minor_words () -. w0) /. float_of_int n in
      check_int "every probe hit" n (Block_cache.hits c);
      let ceiling = lock_words () in
      if words > ceiling +. 0.01 then
        Alcotest.failf "%d shard(s): %.2f minor words per hit, ceiling %.2f" shards words ceiling)
    [ 1; 4 ]

let prop_cache_never_exceeds_capacity =
  QCheck.Test.make ~name:"cache stays within capacity" ~count:100
    QCheck.(list (pair (int_bound 50) (int_bound 40)))
    (fun ops ->
      let c = Block_cache.create ~capacity:128 () in
      List.iter (fun (off, len) -> insert_str c ~file:"f" ~off (String.make len 'x')) ops;
      Block_cache.used_bytes c <= 128)

(* ---------- Lru against a model ---------- *)

type lru_op =
  | Find of string * int
  | Insert of string * int * int  (* file, off, charge *)
  | Remove of string * int
  | Remove_file of string
  | Set_capacity of int

let show_lru_op = function
  | Find (f, o) -> Printf.sprintf "find %s %d" f o
  | Insert (f, o, c) -> Printf.sprintf "insert %s %d ~charge:%d" f o c
  | Remove (f, o) -> Printf.sprintf "remove %s %d" f o
  | Remove_file f -> Printf.sprintf "remove_file %s" f
  | Set_capacity c -> Printf.sprintf "set_capacity %d" c

(* Three files and six offsets so keys collide often; charges 0, in
   range and above any capacity the ops set (0 to 40). *)
let lru_op_gen =
  let open QCheck.Gen in
  let file = oneofl [ "a"; "b"; "c" ] and off = int_bound 5 in
  frequency
    [
      (4, map2 (fun f o -> Find (f, o)) file off);
      ( 4,
        map3
          (fun f o c -> Insert (f, o, c))
          file off
          (oneof [ return 0; int_range 1 12; int_range 41 60 ]) );
      (1, map2 (fun f o -> Remove (f, o)) file off);
      (1, map (fun f -> Remove_file f) file);
      (1, map (fun c -> Set_capacity c) (int_bound 40));
    ]

(* The reference: entries most recent first, each [(file, off, value,
   charge)]; inserts stamp their step number as the value. *)
type lru_model = {
  mutable entries : (string * int * int * int) list;
  mutable cap : int;
  mutable m_hits : int;
  mutable m_misses : int;
  mutable m_evictions : int;
}

let model_used m = List.fold_left (fun a (_, _, _, c) -> a + c) 0 m.entries
let model_without m f o = List.filter (fun (f', o', _, _) -> not (f' = f && o' = o)) m.entries

let model_trim m =
  while model_used m > m.cap do
    m.entries <- List.filteri (fun i _ -> i < List.length m.entries - 1) m.entries;
    m.m_evictions <- m.m_evictions + 1
  done

(* Applies one op to the model; returns what the real call must return. *)
let model_step m step = function
  | Find (f, o) -> (
    match List.find_opt (fun (f', o', _, _) -> f' = f && o' = o) m.entries with
    | Some e ->
      m.m_hits <- m.m_hits + 1;
      m.entries <- e :: model_without m f o;
      let _, _, v, _ = e in
      Some v
    | None ->
      m.m_misses <- m.m_misses + 1;
      None)
  | Insert (f, o, c) ->
    if c <= m.cap && m.cap > 0 then begin
      m.entries <- (f, o, step, c) :: model_without m f o;
      model_trim m
    end;
    None
  | Remove (f, o) ->
    m.entries <- model_without m f o;
    None
  | Remove_file f ->
    let kept = List.filter (fun (f', _, _, _) -> f' <> f) m.entries in
    let dropped = List.length m.entries - List.length kept in
    m.entries <- kept;
    Some dropped
  | Set_capacity c ->
    m.cap <- c;
    model_trim m;
    None

let lru_step t step = function
  | Find (f, o) -> Lru.find t f o
  | Insert (f, o, c) ->
    Lru.insert t f o ~charge:c step;
    None
  | Remove (f, o) ->
    Lru.remove t f o;
    None
  | Remove_file f -> Some (Lru.remove_file t f)
  | Set_capacity c ->
    Lru.set_capacity t c;
    None

let prop_lru_matches_model =
  QCheck.Test.make ~name:"lru = list model" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list show_lru_op)
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (0 -- 150) lru_op_gen))
    (fun ops ->
      let t = Lru.create ~capacity:30 in
      let m = { entries = []; cap = 30; m_hits = 0; m_misses = 0; m_evictions = 0 } in
      List.iteri
        (fun step op ->
          let want = model_step m step op and got = lru_step t step op in
          let observe used length hits misses evictions =
            Printf.sprintf "used %d, length %d, hits %d, misses %d, evictions %d" used length hits
              misses evictions
          in
          if got <> want then
            QCheck.Test.fail_reportf "step %d (%s): result differs from the model" step
              (show_lru_op op);
          let real =
            observe (Lru.used t) (Lru.length t) (Lru.hits t) (Lru.misses t) (Lru.evictions t)
          and model =
            observe (model_used m) (List.length m.entries) m.m_hits m.m_misses m.m_evictions
          in
          if real <> model then
            QCheck.Test.fail_reportf "step %d (%s): %s, model %s" step (show_lru_op op) real model)
        ops;
      true)

(* ---------- WAL ---------- *)

let batch1 = [ Entry.put ~key:"a" ~seqno:1 "1"; Entry.delete ~key:"b" ~seqno:2 ]
let batch2 = [ Entry.put ~key:"c" ~seqno:3 "33" ]

let test_wal_roundtrip () =
  let dev = Device.in_memory () in
  let wal = Wal.create dev ~name:"wal" in
  Wal.append wal batch1;
  Wal.append wal batch2;
  Wal.close wal;
  let got = ref [] in
  let n = Wal.replay dev ~name:"wal" (fun b -> got := b :: !got) in
  check_int "two batches" 2 n;
  check "contents preserved" true (List.rev !got = [ batch1; batch2 ])

let test_wal_empty_batch_skipped () =
  let dev = Device.in_memory () in
  let wal = Wal.create dev ~name:"wal" in
  Wal.append wal [];
  check_int "nothing written" 0 (Device.size dev "wal");
  Wal.close wal

let test_wal_missing_file () =
  let dev = Device.in_memory () in
  check_int "no file -> 0 batches" 0 (Wal.replay dev ~name:"nothing" (fun _ -> assert false))

let test_wal_torn_tail () =
  let dev = Device.in_memory () in
  let wal = Wal.create dev ~name:"wal" in
  Wal.append wal batch1 ~sync:true;
  (* Unsynced batch is torn away by the crash. *)
  Wal.append wal batch2 ~sync:false;
  Device.crash dev;
  let got = ref [] in
  let n = Wal.replay dev ~name:"wal" (fun b -> got := b :: !got) in
  check_int "only the synced batch" 1 n;
  check "it is batch1" true (!got = [ batch1 ])

let test_wal_corrupt_record_stops_replay () =
  let dev = Device.in_memory () in
  let wal = Wal.create dev ~name:"wal" in
  Wal.append wal batch1;
  Wal.append wal batch2;
  Wal.close wal;
  (* Corrupt a byte inside the second record (before the seal frame). *)
  let len = Device.size dev "wal" in
  let all = Device.read dev ~cls:Io_stats.C_misc "wal" ~off:0 ~len in
  let corrupted = Bytes.of_string all in
  Bytes.set corrupted (len - Framed_log.seal_size - 1) '\xff';
  let w = Device.open_writer dev ~cls:Io_stats.C_misc "wal2" in
  Device.append w (Bytes.to_string corrupted);
  Device.close w;
  (* The log is sealed (cleanly closed), so a bad record is silent
     corruption, not a torn tail: replay raises the typed error. *)
  (match Wal.replay dev ~name:"wal2" (fun _ -> ()) with
  | _ -> Alcotest.fail "sealed WAL with corrupt record must raise"
  | exception Lsm_util.Lsm_error.Error (Lsm_util.Lsm_error.Corruption _) -> ());
  (* Without the seal, a *complete* rotten record still bears the bit-rot
     tell (its payload is all there, only the CRC disagrees): typed. *)
  let w = Device.open_writer dev ~cls:Io_stats.C_misc "wal3" in
  Device.append w (Bytes.sub_string corrupted 0 (len - Framed_log.seal_size));
  Device.close w;
  (match Wal.replay dev ~name:"wal3" (fun _ -> ()) with
  | _ -> Alcotest.fail "complete rotten record must raise"
  | exception Lsm_util.Lsm_error.Error (Lsm_util.Lsm_error.Corruption _) -> ());
  (* A genuinely torn tail — the last record cut short mid-payload — is
     the crash artifact replay tolerates: keep the prefix, stop. *)
  let w = Device.open_writer dev ~cls:Io_stats.C_misc "wal4" in
  Device.append w (Bytes.sub_string corrupted 0 (len - Framed_log.seal_size - 4));
  Device.close w;
  let n = Wal.replay dev ~name:"wal4" (fun _ -> ()) in
  check_int "stops at torn tail" 1 n

let prop_wal_replay_preserves_batches =
  QCheck.Test.make ~name:"wal replay = appended batches" ~count:100
    QCheck.(
      list_of_size
        Gen.(0 -- 12)
        (list_of_size Gen.(0 -- 12)
           (pair (string_gen_of_size Gen.(1 -- 8) Gen.printable)
              (string_gen_of_size Gen.(0 -- 32) Gen.printable))))
    (fun batches ->
      let batches =
        List.map (fun b -> List.mapi (fun i (k, v) -> Entry.put ~key:k ~seqno:i v) b) batches
        |> List.filter (fun b -> b <> [])
      in
      let dev = Device.in_memory () in
      let wal = Wal.create dev ~name:"w" in
      List.iter (Wal.append wal) batches;
      Wal.close wal;
      let got = ref [] in
      ignore (Wal.replay dev ~name:"w" (fun b -> got := b :: !got));
      List.rev !got = batches)

(* [Wal.verify] steps over each batch in place instead of decoding it,
   so it must reject exactly the payloads the decoder rejects: CRC-valid
   frames whose batch is bad (a count past the entries, an unknown kind,
   a length past the record) are findings, and good ones are not. The
   payloads are encoded batches with bytes overwritten or cut off, each
   framed intact, so only the batch codec can object. *)
let prop_wal_verify_matches_decoder =
  QCheck.Test.make ~name:"wal verify = batch decoder's gaps" ~count:200
    QCheck.(
      list_of_size
        Gen.(1 -- 8)
        (triple
           (list_of_size Gen.(0 -- 4)
              (pair (string_gen_of_size Gen.(0 -- 6) Gen.printable)
                 (string_gen_of_size Gen.(0 -- 12) Gen.printable)))
           (list_of_size Gen.(0 -- 3) (pair small_nat (int_bound 255)))
           (option small_nat)))
    (fun records ->
      let dev = Device.in_memory () in
      let name = Wal.file_name_of_seq 1 in
      let log = Framed_log.create dev ~cls:Io_stats.C_user_write name in
      List.iter
        (fun (kvs, pokes, cut) ->
          let b = Buffer.create 64 in
          Lsm_util.Codec.put_varint b (List.length kvs);
          List.iteri (fun i (k, v) -> Entry.encode b (Entry.put ~key:k ~seqno:i v)) kvs;
          let p = Buffer.to_bytes b in
          List.iter
            (fun (at, byte) ->
              if Bytes.length p > 0 then Bytes.set p (at mod Bytes.length p) (Char.chr byte))
            pokes;
          let p = match cut with Some n when n < Bytes.length p -> Bytes.sub p 0 n | _ -> p in
          Framed_log.append log Buffer.add_bytes p)
        records;
      Framed_log.close log;
      let _, gaps = Wal.salvage dev ~name ignore in
      Wal.verify dev = Framed_log.findings ~name gaps)

(* A frame's checksum is computed, masked and compared as a native
   [int]: walking a clean log's frames allocates nothing per frame, where
   the boxed [int32]s cost 6 words each. A scrub ([Wal.verify]) adds
   only the batch reader per record. The log is 8,000 one-entry records
   (16-byte keys, 100-byte values); the file is loaded once, into the
   major heap, so what is left per frame is minor words. *)
let scrub_words_ceiling = 6.

let test_frame_check_allocates_nothing () =
  let dev = Device.in_memory () in
  let name = Wal.file_name_of_seq 1 in
  let wal = Wal.create dev ~name in
  let n = 8000 in
  for i = 0 to n - 1 do
    Wal.append wal ~sync:false
      [ Entry.put ~key:(Printf.sprintf "key-%012d" i) ~seqno:i (String.make 100 'v') ]
  done;
  Wal.close wal;
  let per_record f =
    ignore (f ());
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let walk = per_record (fun () -> Framed_log.damage dev ~name) in
  let scrub = per_record (fun () -> Wal.verify dev) in
  check (Printf.sprintf "frame walk %.3f words per frame < 0.1" walk) true (walk < 0.1);
  check
    (Printf.sprintf "Wal.verify %.2f words per record <= %.0f" scrub scrub_words_ceiling)
    true
    (scrub <= scrub_words_ceiling)

(* ---------- WAL and MANIFEST byte goldens ---------- *)

(* The exact bytes both logs put on the device, with the device's
   mutation and sync counts for writing them: the mutation count is the
   coordinate system of [After_ops] crash points, so a writer that
   splits or merges appends moves every crash plan. The WAL's large
   batch outgrows any small starting buffer and the small batch after it
   must not carry its leftovers. *)
let log_golden dev name =
  let data = Device.read dev ~cls:Io_stats.C_misc name ~off:0 ~len:(Device.size dev name) in
  Printf.sprintf "%s %d bytes, %d mutations, %d syncs"
    (Digest.to_hex (Digest.string data))
    (String.length data) (Device.mutation_count dev) (Device.sync_count dev)

let test_wal_golden () =
  let dev = Device.in_memory () in
  let wal = Wal.create dev ~name:"wal" in
  Wal.append wal [ Entry.put ~key:"key-000001" ~seqno:1 "v1" ];
  Wal.append wal ~sync:false [ Entry.put ~key:"key-000002" ~seqno:2 (String.make 100 'b') ];
  Wal.append wal
    [
      Entry.put ~key:"key-000003" ~seqno:3 "v3";
      Entry.delete ~key:"key-000001" ~seqno:4;
      { Entry.key = "key-000002"; seqno = 5; kind = Entry.Single_delete; value = "" };
      { Entry.key = "key-000004"; seqno = 6; kind = Entry.Merge; value = "+1" };
    ];
  Wal.append wal
    [ { Entry.key = "key-000010"; seqno = 7; kind = Entry.Range_delete; value = "key-000020" } ];
  Wal.append wal
    (List.init 40 (fun i ->
         Entry.put ~key:(Printf.sprintf "big-%06d" i) ~seqno:(8 + i) (String.make 300 'x')));
  Wal.append wal [ Entry.put ~key:"small" ~seqno:48 "s" ];
  Wal.sync wal;
  Wal.close wal;
  check_str "WAL bytes and device ops"
    "94d514ada2c90070ab2e285f4724b6f4 12894 bytes, 15 mutations, 7 syncs" (log_golden dev "wal")

let test_manifest_golden () =
  let module Manifest = Lsm_core.Manifest in
  let module Version = Lsm_core.Version in
  let meta id lo hi =
    {
      Lsm_sstable.Table_meta.file_id = id;
      file_name = Lsm_sstable.Table_meta.file_name_of_id id;
      size = 1000 * id;
      entries = 10 * id;
      point_tombstones = id mod 3;
      range_tombstones = id mod 2;
      min_key = lo;
      max_key = hi;
      min_seqno = id;
      max_seqno = 100 + id;
      created_at = id;
      data_bytes = 900 * id;
      ecc = None;
    }
  in
  let dev = Device.in_memory () in
  let m = Manifest.create ~name:Manifest.tmp_file_name dev in
  Manifest.log_edit m
    { Version.added = [ (0, 1, meta 1 "a" "m"); (0, 2, meta 2 "c" "z") ]; removed = []; seqno_watermark = 102 };
  Manifest.promote m;
  Manifest.log_edit m
    { Version.added = [ (1, 3, meta 3 "a" "z") ]; removed = [ 1; 2 ]; seqno_watermark = 103 };
  Manifest.log_edit m { Version.added = []; removed = []; seqno_watermark = 200 };
  Manifest.close m;
  check "promoted" false (Device.exists dev Manifest.tmp_file_name);
  check_str "MANIFEST bytes and device ops"
    "4b1df81f3235cafe7b74e415e36991ec 136 bytes, 10 mutations, 4 syncs" (log_golden dev Manifest.file_name)

(* ---------- in-memory files against a plain-buffer model ---------- *)

(* Each file of the model is a [Buffer] with its synced length, its open
   writer, the windows its appends wrote and the ranges its faults
   touched. A window that one append of at most a chunk wrote, and that
   no fault touched, must come back in place from [read_view]: that is
   the rule that keeps every table block in one chunk. A window a fault
   touched must come back copied into the caller's buffer. *)
type mfile = {
  data : Buffer.t;
  mutable msynced : int;
  mutable mw : Device.writer option;
  mutable appends : (int * int) list;  (** (offset, length) of each append *)
  mutable faults : (int * int) list;
      (** (offset, length) of each patch, rot hit and tear scramble *)
}

type dop =
  | Append of int * int  (** slot, size *)
  | Sync of int
  | Close of int
  | Read of int * int * int
      (** slot, then seeds: one append's window, or any window *)
  | Patch of int * int * int
  | Corrupt of int  (** seed *)
  | Tear of Device.tear
  | Rename of int * int
  | Delete of int

let slots = 3
let slot_name i = Printf.sprintf "f%d.sst" i
let chunk = Device.chunk_size

let gen_size =
  QCheck.Gen.(
    frequency
      [
        (1, return 0);
        (6, int_range 1 300);
        (4, return 4097);
        (2, return chunk);
        (2, map (fun k -> chunk - k) (int_range 1 64));
        (2, map (fun k -> chunk + k) (int_range 1 64));
        (1, map (fun k -> (2 * chunk) + k) (int_range 0 100));
        (1, return (3 * chunk));
      ])

let gen_dop =
  let open QCheck.Gen in
  let slot = int_bound (slots - 1) in
  frequency
    [
      (8, map2 (fun s n -> Append (s, n)) slot gen_size);
      (2, map (fun s -> Sync s) slot);
      (2, map (fun s -> Close s) slot);
      (6, map3 (fun s a b -> Read (s, a, b)) slot nat nat);
      (2, map3 (fun s a b -> Patch (s, a, b)) slot nat nat);
      (1, map (fun seed -> Corrupt seed) nat);
      ( 1,
        map
          (fun (k, n) ->
            Tear
              (match k with
              | 0 -> Device.Tear_none
              | 1 -> Device.Tear_keep n
              | _ -> Device.Tear_corrupt n))
          (pair (int_bound 2) (int_bound 5000)) );
      (1, map2 (fun a b -> Rename (a, b)) slot slot);
      (1, map (fun s -> Delete s) slot);
    ]

let show_dop = function
  | Append (s, n) -> Printf.sprintf "append f%d %d" s n
  | Sync s -> Printf.sprintf "sync f%d" s
  | Close s -> Printf.sprintf "close f%d" s
  | Read (s, a, b) -> Printf.sprintf "read f%d %d %d" s a b
  | Patch (s, a, b) -> Printf.sprintf "patch f%d %d %d" s a b
  | Corrupt seed -> Printf.sprintf "corrupt %d" seed
  | Tear Device.Tear_none -> "tear none"
  | Tear (Device.Tear_keep n) -> Printf.sprintf "tear keep %d" n
  | Tear (Device.Tear_corrupt n) -> Printf.sprintf "tear corrupt %d" n
  | Rename (a, b) -> Printf.sprintf "rename f%d f%d" a b
  | Delete s -> Printf.sprintf "delete f%d" s

let rand_bytes rng n = String.init n (fun _ -> Char.chr (Random.State.int rng 256))

(* Run [ops] on a fresh device and the model side by side; [Failure]
   names the first divergence. *)
let run_device_model ops =
  let dev = Device.in_memory () in
  let model : mfile option array = Array.make slots None in
  let rng = Random.State.make [| List.length ops |] in
  let fail fmt = Printf.ksprintf failwith fmt in
  let window s a b =
    let n = Buffer.length s.data in
    let off = a mod (n + 1) in
    (off, b mod (n - off + 1))
  in
  let check_read i s (off, len) =
    let want = Buffer.sub s.data off len and name = slot_name i in
    let got = Device.read dev ~cls:Io_stats.C_misc name ~off ~len in
    if got <> want then fail "read f%d [%d,+%d)" i off len;
    (* A copy lands in the caller's buffer when it is long enough. *)
    let dst = Bytes.make (len + 3) '#' in
    let v = Device.view () in
    let in_place = Device.read_view dev ~cls:Io_stats.C_misc name ~off ~len dst v in
    if String.sub v.Device.base v.Device.pos len <> want then
      fail "read_view f%d [%d,+%d)" i off len;
    if (not in_place) && (v.Device.base != Bytes.unsafe_to_string dst || v.Device.pos <> 0) then
      fail "read_view f%d [%d,+%d) copied past the caller's buffer" i off len;
    let one_append =
      List.exists (fun (o, l) -> l <= chunk && o <= off && off + len <= o + l) s.appends
    and faulted = List.exists (fun (o, l) -> o < off + len && off < o + l) s.faults in
    if len > 0 && one_append && (not faulted) && not in_place then
      fail "read_view f%d [%d,+%d) inside one append was copied" i off len;
    if len > 0 && faulted && in_place then
      fail "read_view f%d [%d,+%d) that a fault touched was shown in place" i off len
  in
  let step op =
    match op with
    | Append (i, n) ->
      let s =
        match model.(i) with
        | Some ({ mw = Some _; _ } as s) -> s
        | _ ->
          let w = Device.open_writer dev ~cls:Io_stats.C_flush (slot_name i) in
          let s =
            { data = Buffer.create 16; msynced = 0; mw = Some w; appends = []; faults = [] }
          in
          model.(i) <- Some s;
          s
      in
      let bytes = rand_bytes rng n in
      s.appends <- (Buffer.length s.data, n) :: s.appends;
      Device.append (Option.get s.mw) bytes;
      Buffer.add_string s.data bytes
    | Sync i -> (
      match model.(i) with
      | Some ({ mw = Some w; _ } as s) ->
        Device.sync w;
        s.msynced <- Buffer.length s.data
      | _ -> ())
    | Close i -> (
      match model.(i) with
      | Some ({ mw = Some w; _ } as s) ->
        Device.close w;
        s.msynced <- Buffer.length s.data;
        s.mw <- None
      | _ -> ())
    | Read (i, a, b) -> (
      match model.(i) with
      | Some ({ appends = _ :: _; _ } as s) when b mod 2 = 0 ->
        (* exactly what one append wrote *)
        check_read i s (List.nth s.appends (a mod List.length s.appends))
      | Some s -> check_read i s (window s a b)
      | None -> ())
    | Patch (i, a, b) -> (
      match model.(i) with
      | Some ({ mw = None; _ } as s) ->
        let off, len = window s a b in
        let data = rand_bytes rng len in
        Device.patch dev ~cls:Io_stats.C_misc (slot_name i) ~off data;
        if len > 0 then s.faults <- (off, len) :: s.faults;
        let b = Buffer.to_bytes s.data in
        Bytes.blit_string data 0 b off len;
        Buffer.clear s.data;
        Buffer.add_bytes s.data b
      | _ -> ())
    | Corrupt seed ->
      if Array.exists (function Some s -> s.msynced > 0 | None -> false) model then
        List.iter
          (fun (h : Device.corruption_hit) ->
            let i = Scanf.sscanf h.Device.hit_file "f%d.sst" Fun.id in
            let s = Option.get model.(i) in
            let off = h.Device.hit_off in
            let got = (Device.read dev ~cls:Io_stats.C_misc h.Device.hit_file ~off ~len:1).[0] in
            let x = Char.code got lxor Char.code (Buffer.nth s.data off) in
            if off >= s.msynced || x = 0 || x land (x - 1) <> 0 then
              fail "corruption of %s at %d is not one flipped bit" h.Device.hit_file off;
            s.faults <- (off, 1) :: s.faults;
            let b = Buffer.to_bytes s.data in
            Bytes.set b off got;
            Buffer.clear s.data;
            Buffer.add_bytes s.data b)
          (Device.plan_corruption dev ~seed ~pages:2 ())
    | Tear tear ->
      Device.crash ~tear dev;
      Array.iter
        (function
          | None -> ()
          | Some s ->
            let len = Buffer.length s.data in
            let keep, scramble =
              match tear with
              | Device.Tear_none -> (s.msynced, false)
              | Device.Tear_keep n -> (min len (s.msynced + n), false)
              | Device.Tear_corrupt n -> (min len (s.msynced + n), true)
            in
            let b = Buffer.sub s.data 0 keep |> Bytes.of_string in
            if scramble && keep > s.msynced then begin
              for j = s.msynced to keep - 1 do
                Bytes.set b j (Char.chr (Char.code (Bytes.get b j) lxor 0x5a))
              done;
              s.faults <- (s.msynced, keep - s.msynced) :: s.faults
            end;
            Buffer.clear s.data;
            Buffer.add_bytes s.data b;
            s.msynced <- keep;
            s.mw <- None;
            s.appends <- List.filter (fun (o, l) -> o + l <= keep) s.appends)
        model
    | Rename (a, b) -> (
      match (model.(a), model.(b)) with
      | Some _, (None | Some { mw = None; _ }) when a <> b ->
        Device.rename dev (slot_name a) (slot_name b);
        model.(b) <- model.(a);
        model.(a) <- None
      | _ -> ())
    | Delete i -> (
      match model.(i) with
      | Some { mw = None; _ } ->
        Device.delete dev (slot_name i);
        model.(i) <- None
      | _ -> ())
  in
  let compare_all () =
    let total = ref 0 in
    Array.iteri
      (fun i m ->
        let name = slot_name i in
        match m with
        | None -> if Device.exists dev name then fail "%s exists" name
        | Some s ->
          let n = Buffer.length s.data in
          total := !total + n;
          let size = Device.size dev name in
          if size <> n then fail "size of %s: %d, model %d" name size n;
          if Device.read dev ~cls:Io_stats.C_misc name ~off:0 ~len:n <> Buffer.contents s.data
          then fail "bytes of %s" name)
      model;
    let total_bytes = Device.total_bytes dev in
    if total_bytes <> !total then fail "total_bytes %d, model %d" total_bytes !total
  in
  List.iteri
    (fun k op ->
      (try step op with Failure m -> fail "op %d (%s): %s" k (show_dop op) m);
      try compare_all () with Failure m -> fail "after op %d (%s): %s" k (show_dop op) m)
    ops;
  true

let prop_device_matches_model =
  QCheck.Test.make ~name:"in-memory device = buffer model (chunks, views, patch, rot, tears)"
    ~count:150
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_dop ops))
       QCheck.Gen.(list_size (int_range 1 40) gen_dop))
    run_device_model

(* A view is a window of a chunk the device may share with later reads,
   so it must keep the bytes it was handed: a patch, a planted
   corruption and a crash tear lie beside the chunks, as an overlay, and
   a window one of them overlaps is copied. A window none overlaps is
   still shown in place. *)
let test_view_survives_rewrites () =
  let dev = Device.in_memory () in
  let cls = Io_stats.C_misc in
  let bytes = String.init 10_000 (fun i -> Char.chr (i land 0xff)) in
  let view_of name ~off ~len =
    let v = Device.view () in
    check "shown in place" true (Device.read_view dev ~cls name ~off ~len Bytes.empty v);
    v
  in
  let sees v ~len want =
    check_str "view keeps its bytes" want (String.sub v.Device.base v.Device.pos len)
  in
  (* patch *)
  let w = Device.open_writer dev ~cls "t.sst" in
  Device.append w bytes;
  Device.close w;
  let v = view_of "t.sst" ~off:100 ~len:50 in
  Device.patch dev ~cls "t.sst" ~off:90 (String.make 100 'P');
  sees v ~len:50 (String.sub bytes 100 50);
  check_str "a new read sees the patch" (String.make 50 'P')
    (Device.read dev ~cls "t.sst" ~off:100 ~len:50);
  ignore (view_of "t.sst" ~off:1000 ~len:50);
  let v = Device.view () in
  check "a patched window is copied" false
    (Device.read_view dev ~cls "t.sst" ~off:100 ~len:50 Bytes.empty v);
  sees v ~len:50 (String.make 50 'P');
  (* planted corruption, viewed in a file no patch touched *)
  let w = Device.open_writer dev ~cls "u.sst" in
  Device.append w bytes;
  Device.close w;
  let v = view_of "u.sst" ~off:0 ~len:10_000 in
  let before = String.sub v.Device.base v.Device.pos 10_000 in
  let hits = Device.plan_corruption dev ~seed:7 ~pages:3 () in
  check "bits flipped" true (hits <> []);
  sees v ~len:10_000 before;
  check "a new read sees the rot" true (Device.read dev ~cls "u.sst" ~off:0 ~len:10_000 <> before);
  (* crash tear over unsynced bytes *)
  let w = Device.open_writer dev ~cls "wal-1" in
  Device.append w (String.sub bytes 0 1000);
  Device.sync w;
  Device.append w (String.sub bytes 1000 1000);
  let v = view_of "wal-1" ~off:1000 ~len:1000 in
  Device.crash ~tear:(Device.Tear_corrupt 600) dev;
  sees v ~len:1000 (String.sub bytes 1000 1000);
  check_int "tear kept synced + 600" 1600 (Device.size dev "wal-1");
  check "a new read sees the scrambled tail" true
    (Device.read dev ~cls "wal-1" ~off:1000 ~len:600 <> String.sub bytes 1000 600)

(* Bytes [f] allocates directly in the major heap (buffers of more than
   256 words go there), not counting promotions; a minor collection on
   each side folds the counters in. *)
let direct_major_bytes f =
  Gc.minor ();
  let s0 = Gc.quick_stat () in
  f ();
  Gc.minor ();
  let s1 = Gc.quick_stat () in
  let promoted = s1.Gc.promoted_words -. s0.Gc.promoted_words in
  8. *. (s1.Gc.major_words -. s0.Gc.major_words -. promoted)

(* A file written as 4 KiB blocks, one append each, costs its bytes plus
   at most one chunk in the major heap: each byte is copied once, into a
   chunk that is never regrown. A file kept in one buffer that doubles as
   it grows allocates about twice its bytes, and copies them again at
   every doubling. *)
let test_append_major_bytes () =
  let dev = Device.in_memory () in
  let block = String.make 4096 'b' and n = 100 in
  let write name () =
    let w = Device.open_writer dev ~cls:Io_stats.C_flush name in
    for _ = 1 to n do
      Device.append_sub w block ~off:0 ~len:4096
    done;
    Device.close w
  in
  write "warm.sst" ();
  let bytes = direct_major_bytes (write "w.sst") in
  let bound = (n * 4096) + Device.chunk_size in
  check
    (Printf.sprintf "%d 4 KiB appends allocated %.0f bytes in the major heap <= %d" n bytes bound)
    true
    (bytes <= float_of_int bound)

(* Runs [f] with lock-order enforcement on. *)
let with_lockdep f =
  let module Om = Lsm_util.Ordered_mutex in
  let prev = Om.enabled () in
  Om.set_enforce true;
  Fun.protect ~finally:(fun () -> Om.set_enforce prev) f

(* One domain appends a WAL while another reads it whole, over and over,
   as a live scrub does: every read must be a prefix of the final log
   (the length is published after the bytes and the chunk table it
   needs), and scrubbing that prefix must find nothing. Batches of
   varied size cross chunk edges, and a few span whole chunks. Runs with
   lock-order enforcement on. *)
let test_concurrent_prefix_reads () =
  with_lockdep @@ fun () ->
  let dev = Device.in_memory () in
  let name = Wal.file_name_of_seq 1 in
  let records = 400 in
  let value i = String.make (if i mod 97 = 0 then 70_000 else 1 + (i * 997 mod 3000)) 'v' in
  let wal = Wal.create dev ~name in
  let done_ = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        let seen = ref [] and findings = ref 0 in
        while not (Atomic.get done_) do
          let n = Device.size dev name in
          let got = Device.read dev ~cls:Io_stats.C_misc name ~off:0 ~len:n in
          seen := (n, Digest.string got) :: !seen;
          if Wal.verify dev <> [] then incr findings
        done;
        (!seen, !findings))
  in
  for i = 0 to records - 1 do
    let key = Printf.sprintf "k%06d" i in
    Wal.append wal ~sync:(i mod 50 = 0) [ Entry.put ~key ~seqno:i (value i) ]
  done;
  Atomic.set done_ true;
  let seen, findings = Domain.join reader in
  Wal.close wal;
  let full = Device.read dev ~cls:Io_stats.C_misc name ~off:0 ~len:(Device.size dev name) in
  check "the reader read" true (seen <> []);
  check_int "every prefix read was a prefix of the log" 0
    (List.length
       (List.filter (fun (n, d) -> d <> Digest.string (String.sub full 0 n)) seen));
  check_int "a live scrub found nothing" 0 findings

(* A live file's writer and a fault on another domain. Byte [p] of the
   file is [pattern p]; appends of varied size cross chunk edges and
   span whole chunks. *)
let period = 65_537
let pattern_src =
  String.init (period + (2 * Device.chunk_size) + 1) (fun p -> Char.chr (p mod period * 31 land 0xff))
let race_sizes = [| 5_000; Device.chunk_size; 70_000; 300; (2 * Device.chunk_size) + 1; 4_097 |]

(* Appends until [stop] holds or an append raises, which is returned. *)
let append_pattern w ~stop =
  let rec go k =
    if stop () then Ok ()
    else begin
      let len = race_sizes.(k mod Array.length race_sizes) in
      match Device.append_sub w pattern_src ~off:(Device.written w mod period) ~len with
      | () -> go (k + 1)
      | exception e -> Error e
    end
  in
  go 0

(* A crash fired on one domain while another appends across chunk
   edges: the writer gets [Crashed], every append that returned is kept
   (the tear keeps the whole unsynced tail), and that tail reads
   scrambled, so nothing the writer did undid the tear. *)
let test_crash_under_live_writer () =
  with_lockdep @@ fun () ->
  for round = 1 to 8 do
    let dev = Device.in_memory () in
    let w = Device.open_writer dev ~cls:Io_stats.C_user_write "wal-1" in
    let other = Device.open_writer dev ~cls:Io_stats.C_user_write "wal-2" in
    Device.append_sub w pattern_src ~off:0 ~len:10_000;
    Device.sync w;
    let synced = Device.written w in
    let crasher =
      Domain.spawn (fun () ->
          while Device.size dev "wal-1" < synced + (3 * Device.chunk_size) do
            Domain.cpu_relax ()
          done;
          Device.plan_crash dev ~tear:(Device.Tear_corrupt (1 lsl 40)) (Device.After_syncs 1);
          match Device.sync other with () -> false | exception Device.Crashed -> true)
    in
    (* Past 16 MiB (a host that is slow to run the other domain), wait
       for the crash instead, so the next append meets a dead device. *)
    let ended =
      append_pattern w ~stop:(fun () ->
          if Device.written w > 16 lsl 20 then
            while not (Device.is_crashed dev) do
              Domain.cpu_relax ()
            done;
          false)
    in
    let fired_there = Domain.join crasher in
    let tag what = Printf.sprintf "round %d: %s" round what in
    check (tag "the crash fired on the other domain") true fired_there;
    check (tag "the writer got Crashed") true
      (match ended with Error Device.Crashed -> true | _ -> false);
    let size = Device.size dev "wal-1" in
    check_int (tag "every append that returned was kept") (Device.written w) size;
    let got = Device.read dev ~cls:Io_stats.C_misc "wal-1" ~off:0 ~len:size in
    let want p =
      let c = pattern_src.[p mod period] in
      if p < synced then c else Char.chr (Char.code c lxor 0x5a)
    in
    let bad = ref 0 in
    String.iteri (fun p c -> if c <> want p then incr bad) got;
    check_int (tag "synced bytes intact, the tail scrambled") 0 !bad
  done

(* Planted rot of a live file while its writer appends on another
   domain: the rot's edits lie beside the chunks and the writer never
   waits for them, so the file holds every appended byte and the bits
   the rot reports (a byte hit once differs in one bit; one hit more
   than once may differ in any). *)
let test_rot_under_live_writer () =
  with_lockdep @@ fun () ->
  let dev = Device.in_memory () in
  let w = Device.open_writer dev ~cls:Io_stats.C_user_write "wal-1" in
  Device.append_sub w pattern_src ~off:0 ~len:10_000;
  Device.sync w;
  let done_ = Atomic.make false in
  let rot =
    Domain.spawn (fun () ->
        let hits = ref [] and seed = ref 0 in
        while (not (Atomic.get done_)) && !seed < 2_000 do
          incr seed;
          hits := Device.plan_corruption dev ~seed:!seed ~pages:2 () @ !hits
        done;
        !hits)
  in
  let appends = ref 0 in
  let ended =
    append_pattern w ~stop:(fun () ->
        incr appends;
        if !appends mod 8 = 0 then Device.sync w;
        Device.written w > 8 lsl 20)
  in
  Atomic.set done_ true;
  let hits = Domain.join rot in
  check "the writer ran to the end" true (ended = Ok ());
  Device.close w;
  let size = Device.size dev "wal-1" in
  check_int "every appended byte is there" (Device.written w) size;
  let got = Device.read dev ~cls:Io_stats.C_misc "wal-1" ~off:0 ~len:size in
  check "the rot ran" true (hits <> []);
  let hit_at = Hashtbl.create 64 in
  List.iter
    (fun (h : Device.corruption_hit) ->
      let p = h.Device.hit_off in
      Hashtbl.replace hit_at p (1 + Option.value ~default:0 (Hashtbl.find_opt hit_at p)))
    hits;
  let bad = ref 0 in
  String.iteri
    (fun p c ->
      let x = Char.code c lxor Char.code pattern_src.[p mod period] in
      match Hashtbl.find_opt hit_at p with
      | None -> if x <> 0 then incr bad
      | Some 1 -> if x = 0 || x land (x - 1) <> 0 then incr bad
      | Some _ -> ())
    got;
  check_int "the bytes differ from the appends by the reported bits" 0 !bad

let qt t =
  let name, _speed, fn = QCheck_alcotest.to_alcotest t in
  (name, `Quick, fn)

let suite =
  [
    ("device write/read", `Quick, test_device_write_read);
    ("device missing file", `Quick, test_device_missing_file);
    ("device page accounting", `Quick, test_device_page_accounting);
    ("device delete & list", `Quick, test_device_delete_and_list);
    ("device crash loses unsynced bytes", `Quick, test_device_crash_loses_unsynced);
    ("device rejects double writer", `Quick, test_device_double_writer_rejected);
    ("device on-disk backend", `Quick, test_device_on_disk_backend);
    ("device backend parity", `Quick, test_device_backend_parity);
    ("io stats diff", `Quick, test_io_stats_diff);
    ("write amplification", `Quick, test_write_amplification);
    ("cache hit/miss", `Quick, test_cache_hit_miss);
    ("cache LRU eviction order", `Quick, test_cache_lru_eviction);
    ("cache rejects oversized blocks", `Quick, test_cache_oversized_not_cached);
    ("cache zero capacity", `Quick, test_cache_zero_capacity);
    ("cache evict file", `Quick, test_cache_evict_file);
    ("cache replace same key", `Quick, test_cache_replace_same_key);
    ("cache find then insert", `Quick, test_cache_find_then_insert);
    ("cache hit allocates nothing", `Quick, test_cache_hit_allocates_nothing);
    ("wal roundtrip", `Quick, test_wal_roundtrip);
    ("wal skips empty batches", `Quick, test_wal_empty_batch_skipped);
    ("wal missing file", `Quick, test_wal_missing_file);
    ("wal torn tail after crash", `Quick, test_wal_torn_tail);
    ("wal stops at corrupt record", `Quick, test_wal_corrupt_record_stops_replay);
    ("wal bytes golden", `Quick, test_wal_golden);
    ("manifest bytes golden", `Quick, test_manifest_golden);
    qt prop_cache_never_exceeds_capacity;
    qt prop_lru_matches_model;
    qt prop_wal_replay_preserves_batches;
    qt prop_wal_verify_matches_decoder;
    ("frame check allocates nothing", `Quick, test_frame_check_allocates_nothing);
    qt prop_device_matches_model;
    ("device view survives patch, rot and tear", `Quick, test_view_survives_rewrites);
    ("device prefix reads during appends", `Quick, test_concurrent_prefix_reads);
    ("device crash on another domain tears a live writer", `Quick, test_crash_under_live_writer);
    ("device rot on another domain keeps a live writer's bytes", `Quick, test_rot_under_live_writer);
    ("device appends allocate their bytes plus one chunk", `Quick, test_append_major_bytes);
  ]
