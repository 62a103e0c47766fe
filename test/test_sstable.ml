(* Tests for lsm_sstable: block format, build/read roundtrip, fence-pointer
   seeks, filter wiring, corruption detection, table cache. *)

module Entry = Lsm_record.Entry
module Iter = Lsm_record.Iter
module Comparator = Lsm_util.Comparator
module Codec = Lsm_util.Codec
module Crc32c = Lsm_util.Crc32c
module Device = Lsm_storage.Device
module Io_stats = Lsm_storage.Io_stats
module Block_cache = Lsm_storage.Block_cache
open Lsm_sstable

let cmp = Comparator.bytewise
let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let e ?(kind = Entry.Put) ?(value = "") key seqno = { Entry.key; seqno; kind; value }

(* ---------- Block ---------- *)

let entries_for_block n =
  List.init n (fun i -> e (Printf.sprintf "key%05d" i) (i + 1) ~value:("v" ^ string_of_int i))

let build_block entries =
  let b = Block.Builder.create () in
  List.iter (Block.Builder.add b) entries;
  Block.Builder.finish b

let test_block_roundtrip () =
  let entries = entries_for_block 100 in
  let block = build_block entries in
  let it = Block.iterator cmp (Block.parse_checked block) in
  let got = Iter.to_list it in
  check "all entries back" true (got = entries)

let test_block_prefix_compression_shrinks () =
  let entries = entries_for_block 200 in
  let block = build_block entries in
  let raw = List.fold_left (fun a x -> a + Entry.encoded_size x) 0 entries in
  check
    (Printf.sprintf "compressed %d < raw %d" (String.length block) raw)
    true
    (String.length block < raw)

let test_block_seek () =
  let entries = entries_for_block 100 in
  let it = Block.iterator cmp (Block.parse_checked (build_block entries)) in
  it.Iter.seek "key00050";
  check_str "exact" "key00050" (it.Iter.entry ()).Entry.key;
  it.Iter.seek "key00050a";
  check_str "between keys" "key00051" (it.Iter.entry ()).Entry.key;
  it.Iter.seek "zzz";
  check "past end" false (it.Iter.valid ());
  it.Iter.seek "";
  check_str "before start" "key00000" (it.Iter.entry ()).Entry.key

let test_block_seek_versions () =
  (* Multiple versions of one key: seek must land on the newest. *)
  let entries = [ e "a" 1; e "k" 9 ~value:"new"; e "k" 5 ~value:"mid"; e "k" 2 ~value:"old" ] in
  let sorted = List.sort (Entry.compare cmp) entries in
  let it = Block.iterator cmp (Block.parse_checked (build_block sorted)) in
  it.Iter.seek "k";
  check_int "newest version" 9 (it.Iter.entry ()).Entry.seqno

let test_block_checksum_detects_corruption () =
  let block = build_block (entries_for_block 10) in
  let corrupted = Bytes.of_string block in
  Bytes.set corrupted 3 (Char.chr (Char.code (Bytes.get corrupted 3) lxor 0xff));
  check "raises" true
    (try
       ignore (Block.parse_checked (Bytes.to_string corrupted));
       false
     with Codec.Corrupt _ -> true)

let prop_block_roundtrip =
  QCheck.Test.make ~name:"block roundtrip (random)" ~count:200
    QCheck.(list (pair (string_gen_of_size Gen.(1 -- 10) Gen.printable) (map abs small_int)))
    (fun raw ->
      let entries =
        List.mapi (fun i (k, s) -> e k ((s * 1000) + i) ~value:(string_of_int i)) raw
        |> List.sort (Entry.compare cmp)
      in
      match entries with
      | [] -> true
      | entries ->
        let it = Block.iterator cmp (Block.parse_checked (build_block entries)) in
        Iter.to_list it = entries)

(* ---------- zero-copy cursor vs reference decoder ---------- *)

(* Straight-line reference decoder: re-derives every record from the
   spec (copying, allocation-heavy) with no code shared with the cursor,
   so the two can disagree only if one of them is wrong. *)
let reference_decode block =
  (* Copying verify: strip the CRC trailer into a fresh body string. *)
  let decode_check block =
    let n = String.length block in
    if n < 8 then raise (Codec.Corrupt "block too small");
    let body = String.sub block 0 (n - 4) in
    let stored = Int32.of_int (Codec.get_u32 (Codec.reader ~pos:(n - 4) block)) in
    if Crc32c.mask (Crc32c.string body) <> stored then
      raise (Codec.Corrupt "block checksum mismatch");
    body
  in
  let body = decode_check block in
  let n = String.length body in
  let count = Codec.get_u32 (Codec.reader ~pos:(n - 4) body) in
  let data_end = n - 4 - (4 * count) in
  let r = Codec.reader body in
  let out = ref [] in
  let prev = ref "" in
  while r.Codec.pos < data_end do
    let shared = Codec.get_varint r in
    let unshared = Codec.get_varint r in
    let key = String.sub !prev 0 shared ^ Codec.get_raw r unshared in
    let seqno = Codec.get_varint r in
    let kind = Entry.kind_of_int (Codec.get_u8 r) in
    let value = Codec.get_lp_string r in
    out := { Entry.key; seqno; kind; value } :: !out;
    prev := key
  done;
  List.rev !out

(* Small alphabet, long keys: maximizes shared-prefix churn, including
   keys that are prefixes of their neighbours. *)
let gen_adversarial_entries =
  QCheck.Gen.(
    list_size (1 -- 300)
      (pair (map (String.concat "") (list_size (1 -- 12) (oneofl [ "a"; "b"; "ab"; "aa" ]))) (0 -- 1000)))

let adversarial_entries raw =
  List.mapi (fun i (k, s) -> e k ((s * 1000) + i) ~value:(String.make (i mod 7) 'v')) raw
  |> List.sort (Entry.compare cmp)

let build_block_ri ri entries =
  let b = Block.Builder.create ~restart_interval:ri () in
  List.iter (Block.Builder.add b) entries;
  Block.Builder.finish b

(* Both engine decode paths: a raw-framed block parsed in place at
   base 1, and an lz-roundtripped buffer parsed at base 0. *)
let parsed_both_ways block =
  [
    Block.parse_checked ~base:1 ("\x00" ^ block);
    Block.parse_checked
      (Lsm_util.Lz.decompress (Lsm_util.Lz.compress block) ~expected_len:(String.length block));
  ]

let restart_intervals = [ 1; 2; 16; 64 ]

let prop_cursor_matches_reference =
  QCheck.Test.make ~name:"zero-copy cursor = reference decoder" ~count:100
    (QCheck.make gen_adversarial_entries)
    (fun raw ->
      let entries = adversarial_entries raw in
      List.for_all
        (fun ri ->
          let block = build_block_ri ri entries in
          let reference = reference_decode block in
          reference = entries
          && List.for_all
               (fun p ->
                 (* full drain through the iterator facade *)
                 Iter.to_list (Block.iterator cmp p) = reference
                 (* and entry-for-entry through the raw cursor, checking
                    every accessor against the materialized record *)
                 &&
                 let cur = Block.Cursor.make cmp p in
                 Block.Cursor.seek_to_first cur;
                 List.for_all
                   (fun (want : Entry.t) ->
                     let ok =
                       Block.Cursor.valid cur
                       && Block.Cursor.key cur = want.Entry.key
                       && Block.Cursor.key_compare cur want.Entry.key = 0
                       && Block.Cursor.seqno cur = want.Entry.seqno
                       && Block.Cursor.kind cur = want.Entry.kind
                       && Block.Cursor.value cur = want.Entry.value
                       && Lsm_record.Slice.to_string (Block.Cursor.value_slice cur)
                          = want.Entry.value
                       && Block.Cursor.entry cur = want
                     in
                     Block.Cursor.next cur;
                     ok)
                   reference
                 && not (Block.Cursor.valid cur))
               (parsed_both_ways block))
        restart_intervals)

let rec drop_while p = function x :: tl when p x -> drop_while p tl | l -> l

let drain_cursor cur =
  let out = ref [] in
  while Block.Cursor.valid cur do
    out := Block.Cursor.entry cur :: !out;
    Block.Cursor.next cur
  done;
  List.rev !out

let prop_seek_at_restart_boundaries =
  QCheck.Test.make ~name:"seek-then-next at every restart boundary" ~count:40
    (QCheck.make gen_adversarial_entries)
    (fun raw ->
      let entries = adversarial_entries raw in
      List.for_all
        (fun ri ->
          let block = build_block_ri ri entries in
          let reference = reference_decode block in
          let p = Block.parse_checked ~base:1 ("\x00" ^ block) in
          (* Every record index that begins a restart, plus the exact key,
             a just-above key, and a just-below prefix for each. *)
          let boundary_keys =
            List.filteri (fun i _ -> i mod ri = 0) reference
            |> List.concat_map (fun (e : Entry.t) ->
                   let k = e.Entry.key in
                   [ k; k ^ "\x00"; String.sub k 0 (String.length k - 1) ])
          in
          List.for_all
            (fun target ->
              let expected = drop_while (fun (e : Entry.t) -> cmp.compare e.Entry.key target < 0) reference in
              let it = Block.iterator cmp p in
              it.Iter.seek target;
              let via_iter =
                let out = ref [] in
                while it.Iter.valid () do
                  out := it.Iter.entry () :: !out;
                  it.Iter.next ()
                done;
                List.rev !out
              in
              let cur = Block.Cursor.make cmp p in
              Block.Cursor.seek cur target;
              via_iter = expected && drain_cursor cur = expected)
            boundary_keys)
        restart_intervals)

(* ---------- prefix-tracking seek vs a full-compare scan ---------- *)

(* Keys over a tiny alphabet (including 0x00 and 0xff bytes) so blocks
   are full of shared prefixes, keys that prefix other keys, the empty
   key, and several versions of one key. *)
let gen_seek_key =
  QCheck.Gen.(
    frequency
      [
        (1, return "");
        (8, map (String.concat "") (list_size (1 -- 6) (oneofl [ "a"; "b"; "ab"; "\x00"; "\xff" ])));
      ])

let gen_seek_case =
  QCheck.Gen.(pair (list_size (1 -- 120) (pair gen_seek_key (1 -- 3))) (list_size (0 -- 20) gen_seek_key))

(* Entries sorted by [order], each key with 1-3 versions. *)
let seek_entries order raw =
  List.concat_map
    (fun (k, versions) -> List.init versions (fun v -> (k, v)))
    (List.sort_uniq (fun (a, _) (b, _) -> compare a b) raw)
  |> List.mapi (fun i (k, v) -> e k ((100 * i) + v + 1) ~value:(String.make (i mod 23) 'v'))
  |> List.sort (Entry.compare order)

(* Targets: every key, just above and just below each, the raw extra
   keys, and bounds before the first and after the last key. *)
let seek_targets entries extra =
  [ ""; "\x00"; "\xff\xff\xff\xff\xff\xff\xff\xff" ]
  @ extra
  @ List.concat_map
      (fun (x : Entry.t) ->
        let k = x.Entry.key in
        k :: (k ^ "\x00") :: (if k = "" then [] else [ String.sub k 0 (String.length k - 1) ]))
      entries

(* The reference: the first record whose key is >= target under [order],
   found by comparing every key in full. *)
let check_seek_matches_scan order entries targets =
  List.for_all
    (fun ri ->
      let block = build_block_ri ri entries in
      let reference = reference_decode block in
      let p = Block.parse_checked ~base:1 ("\x00" ^ block) in
      let cur = Block.Cursor.create () in
      List.for_all
        (fun target ->
          let expected =
            List.find_opt (fun (x : Entry.t) -> order.Comparator.compare x.Entry.key target >= 0) reference
          in
          Block.Cursor.reset cur order p;
          Block.Cursor.seek cur target;
          match expected with
          | None -> not (Block.Cursor.valid cur)
          | Some x -> Block.Cursor.valid cur && Block.Cursor.entry cur = x)
        targets)
    [ 1; 2; 16 ]

let prop_seek_matches_scan =
  QCheck.Test.make ~name:"prefix-tracking seek = full-compare scan" ~count:200
    (QCheck.make gen_seek_case)
    (fun (raw, extra) ->
      let entries = seek_entries cmp raw in
      check_seek_matches_scan cmp entries (seek_targets entries extra))

(* Orders with no prefix/order link must keep the full-compare scan: a
   prefix shortcut would land on the wrong record under either. *)
let length_first =
  {
    Comparator.name = "length-first";
    compare =
      (fun a b ->
        let c = Int.compare (String.length a) (String.length b) in
        if c <> 0 then c else String.compare a b);
  }

let prop_seek_other_orders =
  QCheck.Test.make ~name:"seek under reverse and custom orders = full-compare scan" ~count:100
    (QCheck.make gen_seek_case)
    (fun (raw, extra) ->
      List.for_all
        (fun order ->
          let entries = seek_entries order raw in
          check_seek_matches_scan order entries (seek_targets entries extra))
        [ Comparator.reverse_bytewise; length_first ])

(* A sealed block around hand-written record bytes: one good record
   ("abc") at the only restart, the [bad] record, then padding records
   with long values, so the bad record sits far enough from the end for
   the one-check-per-header decoder to read it. *)
let block_with_bad_record bad =
  let body = Buffer.create 512 in
  let record ~shared key ~seqno ~kind value =
    Codec.put_varint body shared;
    Codec.put_varint body (String.length key);
    Buffer.add_string body key;
    Codec.put_varint body seqno;
    Codec.put_u8 body kind;
    Codec.put_lp_string body value
  in
  record ~shared:0 "abc" ~seqno:1 ~kind:0 "v";
  Buffer.add_string body bad;
  for i = 0 to 3 do
    record ~shared:0 (Printf.sprintf "z%d" i) ~seqno:1 ~kind:0 (String.make 60 'p')
  done;
  Codec.put_u32 body 0;
  Codec.put_u32 body 1;
  let sealed = Buffer.contents body in
  Codec.put_u32 body (Int32.to_int (Crc32c.mask (Crc32c.string sealed)) land 0xffffffff);
  Block.parse_checked (Buffer.contents body)

let test_seek_fast_path_corruption () =
  (* [shared | unshared | key | seqno | kind | vlen | value] *)
  let cases =
    [
      ("bad shared prefix", "\x04\x01d\x01\x00\x01v");
      ("truncated key", "\x03\xff\x7fd");
      ("over-long varint", "\x03\x01d" ^ String.make 11 '\x80' ^ "\x00\x01v");
      ("unknown kind", "\x03\x01d\x01\x09\x01v");
      ("truncated value", "\x03\x01d\x01\x00\xff\x7f");
    ]
  in
  List.iter
    (fun (what, bad) ->
      let p = block_with_bad_record bad in
      let raised =
        match
          let c = Block.Cursor.make cmp p in
          Block.Cursor.seek c "zzz"
        with
        | () -> false
        | exception Codec.Corrupt _ -> true
      in
      check (what ^ " raises Codec.Corrupt") true raised)
    cases

(* ---------- Sstable ---------- *)

let fresh_env () =
  let dev = Device.in_memory () in
  let cache = Block_cache.create ~capacity:(1 lsl 20) () in
  (dev, cache)

let many_entries n =
  List.init n (fun i -> e (Printf.sprintf "user%06d" i) (i + 1) ~value:(String.make 32 'v'))

let build_table ?config dev entries =
  Sstable.build ?config ~cmp ~dev ~cls:Io_stats.C_flush ~name:"t.sst" ~created_at:7
    (Iter.of_sorted_list cmp entries)

let test_sstable_roundtrip () =
  let dev, cache = fresh_env () in
  let entries = many_entries 3000 in
  let props = build_table dev entries in
  check_int "props entries" 3000 props.Sstable.Props.entries;
  check_str "min key" "user000000" props.Sstable.Props.min_key;
  check_str "max key" "user002999" props.Sstable.Props.max_key;
  check_int "created_at" 7 props.Sstable.Props.created_at;
  let r = Sstable.open_reader ~cmp ~dev ~cache "t.sst" in
  check "multiple blocks" true (Sstable.index_block_count r > 5);
  let got = Iter.to_list (Sstable.iterator r ~cls:Io_stats.C_user_read ()) in
  check "iterator returns everything in order" true (got = entries)

let test_sstable_get () =
  let dev, cache = fresh_env () in
  ignore (build_table dev (many_entries 2000));
  let r = Sstable.open_reader ~cmp ~dev ~cache "t.sst" in
  (match Sstable.get r ~cls:Io_stats.C_user_read "user001234" with
  | Some got -> check_int "seqno" 1235 got.Entry.seqno
  | None -> Alcotest.fail "expected hit");
  check "absent key (in range)" true
    (Sstable.get r ~cls:Io_stats.C_user_read "user001234x" = None);
  check "absent key (out of range)" true
    (Sstable.get r ~cls:Io_stats.C_user_read "zzz" = None)

let test_sstable_get_max_seqno () =
  let dev, cache = fresh_env () in
  let entries = List.sort (Entry.compare cmp) [ e "k" 10 ~value:"new"; e "k" 3 ~value:"old" ] in
  ignore (build_table dev entries);
  let r = Sstable.open_reader ~cmp ~dev ~cache "t.sst" in
  (match Sstable.get r ~cls:Io_stats.C_user_read ~max_seqno:5 "k" with
  | Some got -> check_str "snapshot sees old" "old" got.Entry.value
  | None -> Alcotest.fail "expected old version");
  check "before creation" true (Sstable.get r ~cls:Io_stats.C_user_read ~max_seqno:2 "k" = None)

let test_sstable_filter_skips_io () =
  let dev, cache = fresh_env () in
  ignore (build_table dev (many_entries 2000));
  let r = Sstable.open_reader ~cmp ~dev ~cache "t.sst" in
  let before = Io_stats.pages_read ~cls:Io_stats.C_user_read (Device.stats dev) in
  (* In-range key that does not exist: the filter almost surely rejects. *)
  let missed = ref 0 in
  for i = 0 to 199 do
    if not (Sstable.may_contain_key r (Printf.sprintf "user%06dZZ" i)) then incr missed
  done;
  let after = Io_stats.pages_read ~cls:Io_stats.C_user_read (Device.stats dev) in
  check (Printf.sprintf "filter rejected %d/200" !missed) true (!missed > 180);
  check_int "no data-block reads for filter probes" before after

let test_sstable_iterator_seek () =
  let dev, cache = fresh_env () in
  ignore (build_table dev (many_entries 5000));
  let r = Sstable.open_reader ~cmp ~dev ~cache "t.sst" in
  let it = Sstable.iterator r ~cls:Io_stats.C_user_read () in
  it.Iter.seek "user004321";
  check_str "seek across blocks" "user004321" (it.Iter.entry ()).Entry.key;
  it.Iter.seek "user004999zzz";
  check "past end" false (it.Iter.valid ());
  it.Iter.seek_to_first ();
  check_str "rewind" "user000000" (it.Iter.entry ()).Entry.key

let test_sstable_range_tombstones_in_props () =
  let dev, cache = fresh_env () in
  let entries =
    List.sort (Entry.compare cmp)
      [ e "a" 1 ~value:"x"; Entry.range_delete ~start_key:"b" ~end_key:"m" ~seqno:2; e "z" 3 ]
  in
  ignore (build_table dev entries);
  let r = Sstable.open_reader ~cmp ~dev ~cache "t.sst" in
  let rds = (Sstable.props r).Sstable.Props.range_tombstones in
  check_int "one range tombstone" 1 (List.length rds);
  check_str "carries end key" "m" (List.hd rds).Entry.value

let test_sstable_empty_rejected () =
  let dev, _ = fresh_env () in
  check "raises on empty input" true
    (try
       ignore (build_table dev []);
       false
     with Invalid_argument _ -> true)

let test_sstable_tombstone_counts () =
  let dev, cache = fresh_env () in
  let entries =
    List.sort (Entry.compare cmp)
      [ e "a" 1; Entry.delete ~key:"b" ~seqno:2; Entry.single_delete ~key:"c" ~seqno:3; e "d" 4 ]
  in
  ignore (build_table dev entries);
  let r = Sstable.open_reader ~cmp ~dev ~cache "t.sst" in
  check_int "point tombstones" 2 (Sstable.props r).Sstable.Props.point_tombstones

let test_sstable_uses_block_cache () =
  let dev, cache = fresh_env () in
  ignore (build_table dev (many_entries 2000));
  let r = Sstable.open_reader ~cmp ~dev ~cache "t.sst" in
  ignore (Sstable.get r ~cls:Io_stats.C_user_read "user000500");
  let reads_before = Io_stats.pages_read ~cls:Io_stats.C_user_read (Device.stats dev) in
  ignore (Sstable.get r ~cls:Io_stats.C_user_read "user000500");
  let reads_after = Io_stats.pages_read ~cls:Io_stats.C_user_read (Device.stats dev) in
  check_int "second get served from cache" reads_before reads_after;
  check "cache hit recorded" true (Block_cache.hits cache > 0)

let test_sstable_compaction_iter_bypasses_cache () =
  let dev, cache = fresh_env () in
  ignore (build_table dev (many_entries 2000));
  let r = Sstable.open_reader ~cmp ~dev ~cache "t.sst" in
  let it = Sstable.iterator r ~cls:Io_stats.C_compaction_read ~use_cache:false () in
  ignore (Iter.to_list it);
  check_int "nothing inserted into cache" 0 (Block_cache.block_count cache)

let test_sstable_prefetch () =
  let dev, cache = fresh_env () in
  ignore (build_table dev (many_entries 2000));
  let r = Sstable.open_reader ~cmp ~dev ~cache "t.sst" in
  let n = Sstable.prefetch_into_cache r ~cls:Io_stats.C_compaction_read in
  check_int "all blocks cached" n (Block_cache.block_count cache);
  check_int "matches index" (Sstable.index_block_count r) n

let test_sstable_corrupt_footer () =
  let dev, cache = fresh_env () in
  ignore (build_table dev (many_entries 100));
  (* Copy with a clobbered magic number. *)
  let len = Device.size dev "t.sst" in
  let data = Device.read dev ~cls:Io_stats.C_misc "t.sst" ~off:0 ~len in
  let bad = Bytes.of_string data in
  Bytes.set bad (len - 1) '\x00';
  let w = Device.open_writer dev ~cls:Io_stats.C_misc "bad.sst" in
  Device.append w (Bytes.to_string bad);
  Device.close w;
  check "bad magic raises" true
    (try
       ignore (Sstable.open_reader ~cmp ~dev ~cache "bad.sst");
       false
     with Lsm_util.Lsm_error.Error (Lsm_util.Lsm_error.Corruption _) -> true)

let test_monkey_override_changes_filter_size () =
  let dev, cache = fresh_env () in
  let entries = many_entries 1000 in
  let config =
    { Sstable.default_build_config with filter_bits_override = Some 20.0 }
  in
  ignore (Sstable.build ~config ~cmp ~dev ~cls:Io_stats.C_flush ~name:"big.sst" ~created_at:0
            (Iter.of_sorted_list cmp entries));
  let config2 = { Sstable.default_build_config with filter_bits_override = Some 2.0 } in
  ignore (Sstable.build ~config:config2 ~cmp ~dev ~cls:Io_stats.C_flush ~name:"small.sst"
            ~created_at:0 (Iter.of_sorted_list cmp entries));
  let big = Sstable.open_reader ~cmp ~dev ~cache "big.sst" in
  let small = Sstable.open_reader ~cmp ~dev ~cache "small.sst" in
  check "override respected" true (Sstable.filter_bits big > 4 * Sstable.filter_bits small)

(* Model-based: random entries, roundtrip through a table, compare gets. *)
let prop_sstable_get_matches_model =
  QCheck.Test.make ~name:"sstable get = model" ~count:50
    QCheck.(list_of_size Gen.(1 -- 200) (pair (int_bound 100) (map abs small_int)))
    (fun raw ->
      let entries =
        List.mapi
          (fun i (k, _) -> e (Printf.sprintf "k%03d" k) (i + 1) ~value:(string_of_int i))
          raw
        |> List.sort (Entry.compare cmp)
      in
      let dev, cache = fresh_env () in
      ignore
        (Sstable.build ~cmp ~dev ~cls:Io_stats.C_flush ~name:"m.sst" ~created_at:0
           (Iter.of_sorted_list cmp entries));
      let r = Sstable.open_reader ~cmp ~dev ~cache "m.sst" in
      List.for_all
        (fun key ->
          let expected =
            List.filter (fun (x : Entry.t) -> x.key = key) entries
            |> List.fold_left
                 (fun acc (x : Entry.t) ->
                   match acc with
                   | Some (b : Entry.t) when b.seqno >= x.seqno -> acc
                   | _ -> Some x)
                 None
          in
          Sstable.get r ~cls:Io_stats.C_user_read key = expected)
        (List.init 100 (fun k -> Printf.sprintf "k%03d" k)))

(* ---------- Table_meta & Table_cache ---------- *)

let test_table_meta_roundtrip () =
  let dev, _ = fresh_env () in
  let props = build_table dev (many_entries 10) in
  let m = Table_meta.of_props ~file_id:42 ~file_name:"t.sst" ~size:12345 props in
  let b = Buffer.create 64 in
  Table_meta.encode b m;
  let m' = Table_meta.decode (Codec.reader (Buffer.contents b)) in
  check "roundtrip" true (m = m')

let test_table_meta_overlaps () =
  let dev, _ = fresh_env () in
  let props = build_table dev (many_entries 100) in
  let m = Table_meta.of_props ~file_id:1 ~file_name:"t.sst" ~size:1 props in
  check "overlapping" true (Table_meta.overlaps cmp m ~lo:"user000050" ~hi:"user000060");
  check "disjoint below" false (Table_meta.overlaps cmp m ~lo:"a" ~hi:"b");
  check "disjoint above" false (Table_meta.overlaps cmp m ~lo:"z" ~hi:"zz");
  check "touching max" true (Table_meta.overlaps cmp m ~lo:"user000099" ~hi:"zzz")

let test_table_cache_shares_readers () =
  let dev, cache = fresh_env () in
  ignore (build_table dev (many_entries 10));
  let tc = Table_cache.create ~cmp ~dev ~cache () in
  let a = Table_cache.get tc "t.sst" in
  let b = Table_cache.get tc "t.sst" in
  check "same reader" true (a == b);
  check_int "one open" 1 (Table_cache.open_count tc);
  Table_cache.evict tc "t.sst";
  check_int "evicted" 0 (Table_cache.open_count tc)

(* A cached block that rots after validation (CRC-valid container,
   garbage records) must be dropped alone — the file's other blocks stay
   hot — and the read healed from the device. *)
let test_corrupt_cached_block_single_eviction () =
  let dev, cache = fresh_env () in
  ignore (build_table dev (many_entries 2000));
  let r = Sstable.open_reader ~cmp ~dev ~cache "t.sst" in
  ignore (Sstable.prefetch_into_cache r ~cls:Io_stats.C_misc);
  let index = Sstable.index_entries r in
  check "several blocks" true (Array.length index > 2);
  (* Forge a parsed block whose container verifies but whose first
     record is a malformed varint: what post-validation rot looks like. *)
  let poison =
    let b = Buffer.create 32 in
    Buffer.add_string b (String.make 10 '\xff');
    Codec.put_u32 b 0;
    Codec.put_u32 b 1;
    let crc = Crc32c.mask (Crc32c.string (Buffer.contents b)) in
    Codec.put_u32 b (Int32.to_int crc land 0xffffffff);
    Block.parse_checked (Buffer.contents b)
  in
  Block_cache.insert cache ~file:(Sstable.name r) ~off:index.(0).Sstable.off
    ~bytes:(Block.parsed_cost poison) poison;
  (match Sstable.get r ~cls:Io_stats.C_user_read "user000000" with
  | Some got -> check_int "read healed from device" 1 got.Entry.seqno
  | None -> Alcotest.fail "expected healed hit");
  check "neighbour block still cached" true
    (Block_cache.find cache ~file:(Sstable.name r) ~off:index.(1).Sstable.off <> None);
  check "poisoned slot repopulated" true
    (Block_cache.find cache ~file:(Sstable.name r) ~off:index.(0).Sstable.off <> None)

let qt t =
  let name, _speed, fn = QCheck_alcotest.to_alcotest t in
  (name, `Quick, fn)

let suite =
  [
    ("block roundtrip", `Quick, test_block_roundtrip);
    ("block prefix compression shrinks", `Quick, test_block_prefix_compression_shrinks);
    ("block seek", `Quick, test_block_seek);
    ("block seek lands on newest version", `Quick, test_block_seek_versions);
    ("block checksum detects corruption", `Quick, test_block_checksum_detects_corruption);
    ("sstable roundtrip", `Quick, test_sstable_roundtrip);
    ("sstable get", `Quick, test_sstable_get);
    ("sstable snapshot get", `Quick, test_sstable_get_max_seqno);
    ("sstable filter skips io", `Quick, test_sstable_filter_skips_io);
    ("sstable iterator seek", `Quick, test_sstable_iterator_seek);
    ("sstable range tombstones in props", `Quick, test_sstable_range_tombstones_in_props);
    ("sstable rejects empty build", `Quick, test_sstable_empty_rejected);
    ("sstable tombstone counts", `Quick, test_sstable_tombstone_counts);
    ("sstable uses block cache", `Quick, test_sstable_uses_block_cache);
    ("sstable compaction bypasses cache", `Quick, test_sstable_compaction_iter_bypasses_cache);
    ("sstable prefetch", `Quick, test_sstable_prefetch);
    ("corrupt cached block: single eviction + heal", `Quick, test_corrupt_cached_block_single_eviction);
    ("sstable corrupt footer", `Quick, test_sstable_corrupt_footer);
    ("monkey override changes filter size", `Quick, test_monkey_override_changes_filter_size);
    ("table meta roundtrip", `Quick, test_table_meta_roundtrip);
    ("table meta overlaps", `Quick, test_table_meta_overlaps);
    ("table cache shares readers", `Quick, test_table_cache_shares_readers);
    qt prop_block_roundtrip;
    qt prop_cursor_matches_reference;
    qt prop_seek_at_restart_boundaries;
    qt prop_seek_matches_scan;
    qt prop_seek_other_orders;
    ("block seek: corrupt records raise on the fast path", `Quick, test_seek_fast_path_corruption);
    qt prop_sstable_get_matches_model;
  ]
