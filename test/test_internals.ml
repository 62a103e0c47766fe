(* White-box tests for the engine's trickiest internals: the MVCC
   snapshot-stripe logic of the compaction merge filter, and the
   version/manifest machinery. *)

module Entry = Lsm_record.Entry
module Iter = Lsm_record.Iter
module Comparator = Lsm_util.Comparator
module Codec = Lsm_util.Codec
module Device = Lsm_storage.Device
module Table_meta = Lsm_sstable.Table_meta
open Lsm_core

let cmp = Comparator.bytewise
let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let e ?(kind = Entry.Put) ?(value = "") key seqno = { Entry.key; seqno; kind; value }

let filtered ?(snapshots = []) ?(bottom = false) ?(rds = []) entries =
  let sorted = List.sort (Entry.compare cmp) entries in
  Iter.to_list
    (Merge_filter.filtered ~cmp ~snapshots ~bottom ~range_tombstones:rds
       (Iter.of_sorted_list cmp sorted))

(* ---------- stripe function ---------- *)

let test_stripe_of () =
  let snaps = [| 10; 20; 30 |] in
  let s = Merge_filter.stripe_of ~snapshots:snaps in
  check_int "below first" 0 (s 5);
  check_int "at snapshot boundary" 0 (s 10);
  check_int "between 10 and 20" 1 (s 11);
  check_int "at 20" 1 (s 20);
  check_int "above all" 3 (s 31);
  (* same stripe <=> no snapshot separates *)
  check "5,10 same stripe" true (s 5 = s 10);
  check "10,11 different stripes" true (s 10 <> s 11)

(* ---------- shadowing ---------- *)

let test_shadowed_versions_dropped () =
  let out = filtered [ e "k" 3 ~value:"old"; e "k" 7 ~value:"new" ] in
  check_int "one survivor" 1 (List.length out);
  Alcotest.(check string) "newest survives" "new" (List.hd out).Entry.value

let test_snapshot_preserves_old_version () =
  (* A snapshot at 5 separates the versions: both must survive. *)
  let out = filtered ~snapshots:[ 5 ] [ e "k" 3 ~value:"old"; e "k" 7 ~value:"new" ] in
  check_int "both survive" 2 (List.length out)

let test_same_stripe_within_snapshot_dropped () =
  (* Snapshot at 10: versions 3 and 7 share the old stripe; only 7 kept. *)
  let out =
    filtered ~snapshots:[ 10 ]
      [ e "k" 3 ~value:"a"; e "k" 7 ~value:"b"; e "k" 12 ~value:"c" ]
  in
  check_int "two survive" 2 (List.length out);
  check "7 and 12 survive" true
    (List.map (fun x -> x.Entry.seqno) out = [ 12; 7 ])

let test_distinct_keys_untouched () =
  let out = filtered [ e "a" 1; e "b" 2; e "c" 3 ] in
  check_int "all kept" 3 (List.length out)

(* ---------- tombstones ---------- *)

let test_delete_kept_above_bottom () =
  let out = filtered ~bottom:false [ e "k" 5 ~kind:Entry.Delete ] in
  check_int "tombstone retained" 1 (List.length out)

let test_delete_dropped_at_bottom () =
  let out = filtered ~bottom:true [ e "k" 5 ~kind:Entry.Delete; e "k" 2 ~value:"v" ] in
  check_int "tombstone and victim gone" 0 (List.length out)

let test_delete_at_bottom_blocked_by_snapshot () =
  (* A snapshot below the delete still needs the old put. *)
  let out =
    filtered ~bottom:true ~snapshots:[ 3 ]
      [ e "k" 5 ~kind:Entry.Delete; e "k" 2 ~value:"v" ]
  in
  check_int "put survives for the snapshot" 2 (List.length out);
  check "delete also survives (masks for latest readers)" true
    (List.exists (fun x -> x.Entry.kind = Entry.Delete) out)

let test_single_delete_cancels_put () =
  let out =
    filtered [ e "k" 5 ~kind:Entry.Single_delete; e "k" 2 ~value:"v"; e "other" 1 ]
  in
  check_int "pair annihilated, other kept" 1 (List.length out);
  Alcotest.(check string) "other" "other" (List.hd out).Entry.key

let test_single_delete_not_cancelling_across_snapshot () =
  let out =
    filtered ~snapshots:[ 3 ] [ e "k" 5 ~kind:Entry.Single_delete; e "k" 2 ~value:"v" ]
  in
  check_int "both kept across the snapshot boundary" 2 (List.length out)

(* ---------- range tombstones ---------- *)

let rd lo hi seqno = Entry.range_delete ~start_key:lo ~end_key:hi ~seqno

let test_range_tombstone_drops_covered () =
  let tomb = rd "b" "d" 10 in
  let out =
    filtered ~rds:[ tomb ]
      [ tomb; e "a" 1 ~value:"keep"; e "b" 2 ~value:"dead"; e "c" 3 ~value:"dead"; e "d" 4 ~value:"keep" ]
  in
  let keys = List.map (fun x -> x.Entry.key) out in
  check "a kept" true (List.mem "a" keys);
  check "b dropped" false (List.exists (fun x -> x.Entry.key = "b" && x.Entry.kind = Entry.Put) out);
  check "c dropped" false (List.exists (fun x -> x.Entry.key = "c" && x.Entry.kind = Entry.Put) out);
  check "d kept (exclusive end)" true (List.mem "d" keys);
  check "tombstone itself kept above bottom" true
    (List.exists (fun x -> x.Entry.kind = Entry.Range_delete) out)

let test_range_tombstone_spares_newer () =
  let tomb = rd "a" "z" 5 in
  let out = filtered ~rds:[ tomb ] [ tomb; e "k" 9 ~value:"newer-than-rd" ] in
  check "newer entry survives" true
    (List.exists (fun x -> x.Entry.kind = Entry.Put) out)

let test_range_tombstone_respects_snapshot () =
  (* Snapshot at 3 separates the rd (seq 5) from the victim (seq 2):
     the victim must survive for the snapshot reader. *)
  let tomb = rd "a" "z" 5 in
  let out = filtered ~snapshots:[ 3 ] ~rds:[ tomb ] [ tomb; e "k" 2 ~value:"v" ] in
  check "victim survives across snapshot" true
    (List.exists (fun x -> x.Entry.kind = Entry.Put) out)

let test_range_tombstone_retired_at_bottom () =
  let tomb = rd "a" "z" 5 in
  let out = filtered ~bottom:true ~rds:[ tomb ] [ tomb; e "k" 2 ~value:"v" ] in
  check_int "everything retired" 0 (List.length out)

(* ---------- merge operands ---------- *)

let test_merge_chain_preserved () =
  let out =
    filtered [ e "k" 5 ~kind:Entry.Merge ~value:"+2"; e "k" 3 ~kind:Entry.Merge ~value:"+1";
               e "k" 1 ~value:"base" ]
  in
  check_int "whole chain survives" 3 (List.length out)

let test_put_shadows_merge_history () =
  let out =
    filtered [ e "k" 9 ~value:"final"; e "k" 5 ~kind:Entry.Merge ~value:"+2"; e "k" 1 ~value:"base" ]
  in
  check_int "put discards older history" 1 (List.length out);
  Alcotest.(check string) "final" "final" (List.hd out).Entry.value

(* ---------- version ---------- *)

let meta id lo hi =
  {
    Table_meta.file_id = id;
    file_name = Printf.sprintf "%d.sst" id;
    size = 100;
    entries = 10;
    point_tombstones = 0;
    range_tombstones = 0;
    min_key = lo;
    max_key = hi;
    min_seqno = 0;
    max_seqno = 0;
    created_at = 0;
    data_bytes = 100;
    ecc = None;
  }

let test_version_apply_add_remove () =
  let v = Version.empty in
  let v =
    Version.apply v
      { Version.added = [ (1, 7, meta 1 "a" "f"); (1, 7, meta 2 "g" "m") ]; removed = [];
        seqno_watermark = 5 }
  in
  check_int "one run" 1 (Version.run_count v 1);
  check_int "two files" 2 (Version.file_count v);
  check_int "bytes" 200 (Version.level_bytes v 1);
  check_int "next file id bumped" 3 v.Version.next_file_id;
  check_int "next group bumped" 8 v.Version.next_group;
  check_int "seqno watermark" 5 v.Version.last_seqno;
  let v2 =
    Version.apply v
      { Version.added = [ (2, 9, meta 3 "a" "z") ]; removed = [ 1 ]; seqno_watermark = 6 }
  in
  check_int "file 1 removed" 2 (Version.file_count v2);
  check "find moved file" true (Version.find_file v2 3 = Some (2, 9, meta 3 "a" "z"));
  check "old version untouched (persistent)" true (Version.file_count v = 2)

let test_version_remove_unknown_rejected () =
  check "unknown id raises" true
    (try
       ignore (Version.apply Version.empty { Version.added = []; removed = [ 42 ]; seqno_watermark = 0 });
       false
     with Invalid_argument _ -> true)

let test_version_runs_newest_first () =
  let v =
    List.fold_left
      (fun v (g, id) ->
        Version.apply v
          { Version.added = [ (1, g, meta id "a" "b") ]; removed = []; seqno_watermark = 0 })
      Version.empty
      [ (3, 1); (9, 2); (5, 3) ]
  in
  let groups = List.map (fun r -> r.Version.group) (Version.level_runs v 1) in
  Alcotest.(check (list int)) "descending groups" [ 9; 5; 3 ] groups

let test_version_invariant_detects_overlap () =
  let v =
    Version.apply Version.empty
      { Version.added = [ (1, 7, meta 1 "a" "m"); (1, 7, meta 2 "g" "z") ]; removed = [];
        seqno_watermark = 0 }
  in
  check "overlap detected" true
    (match Version.check_invariants ~cmp v with Error _ -> true | Ok () -> false)

let test_version_edit_roundtrip () =
  let edit =
    { Version.added = [ (1, 7, meta 1 "a" "f"); (3, 2, meta 9 "x" "z") ]; removed = [ 4; 5 ];
      seqno_watermark = 123 }
  in
  let b = Buffer.create 64 in
  Version.encode_edit b edit;
  let got = Version.decode_edit (Codec.reader (Buffer.contents b)) in
  check "roundtrip" true (got = edit)

(* ---------- manifest ---------- *)

let test_manifest_recover_replays_edits () =
  let dev = Device.in_memory () in
  let m = Manifest.create dev in
  Manifest.log_edit m
    { Version.added = [ (1, 7, meta 1 "a" "f") ]; removed = []; seqno_watermark = 1 };
  Manifest.log_edit m
    { Version.added = [ (2, 8, meta 2 "g" "z") ]; removed = [ 1 ]; seqno_watermark = 2 };
  Manifest.close m;
  let v = Manifest.recover dev in
  check_int "one live file" 1 (Version.file_count v);
  check "file 2 at level 2" true (Version.find_file v 2 <> None);
  check_int "watermark" 2 v.Version.last_seqno

let test_manifest_missing_is_empty () =
  let v = Manifest.recover (Device.in_memory ()) in
  check_int "empty" 0 (Version.file_count v)

let test_manifest_torn_tail_ignored () =
  let dev = Device.in_memory () in
  let m = Manifest.create dev in
  Manifest.log_edit m
    { Version.added = [ (1, 7, meta 1 "a" "f") ]; removed = []; seqno_watermark = 1 };
  Manifest.close m;
  (* Append garbage: recovery must keep the intact prefix. *)
  let len = Device.size dev Manifest.file_name in
  let data = Device.read dev ~cls:Lsm_storage.Io_stats.C_misc Manifest.file_name ~off:0 ~len in
  Device.delete dev Manifest.file_name;
  let w = Device.open_writer dev ~cls:Lsm_storage.Io_stats.C_misc Manifest.file_name in
  Device.append w (data ^ "\xde\xad\xbe\xef garbage");
  Device.close w;
  let v = Manifest.recover dev in
  check_int "intact prefix recovered" 1 (Version.file_count v)

(* ---------- allocation ceiling of the merge filter ---------- *)

(* Minor words the filter allocates per record it passes or drops, over
   an array iterator that allocates nothing itself: with no snapshots
   and no range tombstones the filter only moves a sentinel-guarded
   current entry, so it measures 0.00 (it measured 14.00 when each
   record cost an option per pull, per current entry and per new key,
   plus a closure for the range-tombstone scan). The ceiling is one
   word, so any per-record box or closure fails it. *)
let merge_filter_words_ceiling = 1.0

let words_per_filtered_record entries =
  let it =
    Merge_filter.filtered ~cmp ~snapshots:[] ~bottom:false ~range_tombstones:[]
      (Iter.of_sorted_array cmp entries)
  in
  it.Iter.seek_to_first ();
  let w0 = Gc.minor_words () in
  while it.Iter.valid () do
    ignore (Sys.opaque_identity (it.Iter.entry ()));
    it.Iter.next ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int (Array.length entries)

let test_merge_filter_allocation_ceiling () =
  let n = 100_000 in
  let distinct = Array.init n (fun i -> e (Printf.sprintf "k%07d" i) (i + 1) ~value:"v") in
  (* Two versions per key: every second record is shadowed and dropped. *)
  let shadowed =
    Array.init n (fun i -> e (Printf.sprintf "k%07d" (i / 2)) (n - i) ~value:"v")
  in
  List.iter
    (fun (name, entries) ->
      let words = words_per_filtered_record entries in
      if words > merge_filter_words_ceiling then
        Alcotest.failf "%s: %.2f minor words per record, ceiling %.2f" name words
          merge_filter_words_ceiling)
    [ ("distinct puts", distinct); ("shadowed versions", shadowed) ]

(* ---------- randomized stripe-correctness property ---------- *)

(* For arbitrary version stacks and snapshot sets, filtering must preserve
   what every snapshot (and the latest reader) observes. *)
let prop_merge_filter_preserves_visibility =
  QCheck.Test.make ~name:"merge filter preserves all snapshot views" ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 12) (pair (int_bound 2) (pair (int_bound 30) bool)))
        (list_of_size Gen.(0 -- 3) (int_bound 30)))
    (fun (versions, snapshots) ->
      (* unique seqnos per key, bool = is_delete *)
      let entries =
        List.mapi
          (fun i (k, (s, is_del)) ->
            let key = Printf.sprintf "k%d" k in
            let seqno = (s * 20) + i + 1 in
            if is_del then e key seqno ~kind:Entry.Delete else e key seqno ~value:(string_of_int seqno))
          versions
      in
      (* de-duplicate identical (key,seqno) pairs *)
      let entries =
        List.sort_uniq (fun a b -> compare (a.Entry.key, a.Entry.seqno) (b.Entry.key, b.Entry.seqno)) entries
      in
      let out = filtered ~snapshots ~bottom:false entries in
      let visible_at snap es key =
        List.filter (fun x -> x.Entry.key = key && x.Entry.seqno <= snap) es
        |> List.fold_left
             (fun acc x ->
               match acc with
               | Some (b : Entry.t) when b.Entry.seqno >= x.Entry.seqno -> acc
               | _ -> Some x)
             None
        |> Option.map (fun x -> (x.Entry.kind, x.Entry.value))
      in
      let keys = List.sort_uniq compare (List.map (fun x -> x.Entry.key) entries) in
      let views = max_int :: snapshots in
      List.for_all
        (fun snap ->
          List.for_all (fun k -> visible_at snap entries k = visible_at snap out k) keys)
        views)

(* ---------- the read path's one file selection ---------- *)

(* Oracles for [Read_path.seek_run] / [Read_path.run_file]: a linear
   filter over the run (the scan's former file selection), and the
   point lookup's former binary search for the last file whose
   [min_key <= key]. *)
let linear_run_files ?lo ~hi files =
  List.filter
    (fun (f : Table_meta.t) ->
      (match lo with None -> true | Some lo -> String.compare lo f.max_key <= 0)
      && match hi with None -> true | Some hi -> String.compare f.min_key hi < 0)
    (Array.to_list files)

let find_file_in_run (files : Table_meta.t array) key =
  let n = Array.length files in
  if n = 0 || String.compare files.(0).Table_meta.min_key key > 0 then -1
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if String.compare files.(mid).Table_meta.min_key key <= 0 then lo := mid else hi := mid - 1
    done;
    if String.compare key files.(!lo).Table_meta.max_key <= 0 then !lo else -1
  end

let pkey i = Printf.sprintf "k%04d" i

(* A run from sorted distinct points: consecutive pairs are one file's
   [min_key, max_key]; an odd point out is a one-key file. *)
let run_of_points points =
  let rec files id = function
    | a :: b :: rest -> meta id (pkey a) (pkey b) :: files (id + 1) rest
    | [ a ] -> [ meta id (pkey a) (pkey a) ]
    | [] -> []
  in
  Array.of_list (files 0 (List.sort_uniq compare points))

let prop_one_file_selection =
  QCheck.Test.make ~name:"one file selection = linear filter and point search" ~count:500
    QCheck.(pair (list_of_size Gen.(0 -- 24) (int_bound 60)) (int_range (-1) 62))
    (fun (points, lo) ->
      let files = run_of_points points in
      (* file ids are array indices *)
      let first_from lo =
        match linear_run_files ~lo ~hi:None files with
        | f :: _ -> f.Table_meta.file_id
        | [] -> Array.length files
      in
      let lo = pkey lo in
      Read_path.seek_run cmp files lo = first_from lo
      && Read_path.seek_run cmp files (lo ^ "\x00") = first_from (lo ^ "\x00")
      && List.for_all
           (fun i ->
             let k = pkey i in
             Read_path.run_file cmp files k = find_file_in_run files k
             && Read_path.run_file cmp files (k ^ "\x00") = find_file_in_run files (k ^ "\x00"))
           (List.init 64 (fun i -> i - 1)))

(* ---------- the run iterator ---------- *)

module Sstable = Lsm_sstable.Sstable
module Table_cache = Lsm_sstable.Table_cache

(* A run of small disjoint tables built on an in-memory device, with
   blocks of a few records so files span several blocks. Each file is
   a list of keys, each key a (gap, versions) pair: keys are even
   points, so odd points fall between keys and between files. Returns
   the run and its entries in order, each tagged with its file's
   index. *)
let built_run shape =
  let dev = Lsm_storage.Device.in_memory () in
  let config = { Sstable.default_build_config with block_size = 64 } in
  let at = ref 0 in
  let built =
    List.mapi
      (fun i keys ->
        let entries =
          List.concat_map
            (fun (gap, versions) ->
              at := !at + (2 * gap);
              List.init versions (fun v ->
                  { Entry.key = pkey !at; seqno = 100 - v; kind = Entry.Put; value = "v" }))
            keys
        in
        let name = Table_meta.file_name_of_id i in
        let props =
          Sstable.build ~config ~cmp ~dev ~cls:Lsm_storage.Io_stats.C_flush ~name ~created_at:0
            (Iter.of_sorted_list cmp entries)
        in
        ( Table_meta.of_props ~file_id:i ~file_name:name ~size:(Device.size dev name) props,
          List.map (fun x -> (i, x)) entries ))
      shape
  in
  (dev, Array.of_list (List.map fst built), List.concat_map snd built, !at)

let prop_run_iter_linear =
  let shape = QCheck.Gen.(list_size (1 -- 12) (list_size (1 -- 6) (pair (1 -- 3) (1 -- 2)))) in
  let pick = QCheck.Gen.(pair (0 -- 5) (0 -- 1000)) in
  let passed_over = QCheck.Gen.(list_repeat 12 (0 -- 3)) in
  QCheck.Test.make ~name:"run iterator = linear filter of its files" ~count:300
    (QCheck.make QCheck.Gen.(pair (quad shape pick pick (pair (0 -- 30) (0 -- 1000))) passed_over))
    (fun ((shape, (lo_kind, lo_pick), (hi_kind, hi_pick), (steps, target_pick)), passed_over) ->
      let dev, files, tagged, last = built_run shape in
      let nfiles = Array.length files in
      (* bounds: a file's min or max key, a point between keys, a point
         past the run, the empty key; for [hi] also open, or [lo] itself
         (an empty range) *)
      let bound kind pick ~lo =
        let f = files.(pick mod nfiles) in
        match kind with
        | 0 -> Some f.Table_meta.min_key
        | 1 -> Some f.Table_meta.max_key
        | 2 -> Some (pkey ((2 * (pick mod ((last / 2) + 1))) + 1))
        | 3 -> Some (pkey (last + 10))
        | 4 -> if Option.is_none lo then Some "" else None
        | _ -> lo
      in
      let lo = Option.get (bound (min lo_kind 4) lo_pick ~lo:None) in
      let hi = bound hi_kind hi_pick ~lo:(Some lo) in
      (* [open_file] passes over about a quarter of the files, as a
         range filter would. *)
      let passed i = List.nth passed_over i = 0 in
      let in_range from (i, (x : Entry.t)) =
        (not (passed i))
        && String.compare from x.key <= 0
        && match hi with None -> true | Some h -> String.compare x.key h < 0
      in
      let expected = List.filter (in_range lo) tagged in
      let tc =
        Table_cache.create ~cmp ~dev ~cache:(Lsm_storage.Block_cache.create ~capacity:(1 lsl 16) ()) ()
      in
      let calls = ref [] in
      let open_file (f : Table_meta.t) =
        calls := f.file_id :: !calls;
        if passed f.file_id then None
        else
          Some (Sstable.iterator (Table_cache.get tc f.file_name) ~cls:Lsm_storage.Io_stats.C_user_read ())
      in
      let it =
        Read_path.run_iter cmp ~open_file ~failed:(fun _ e -> raise e) ~lo:(Some lo) ~hi files
      in
      let rec take n acc =
        if n = 0 || not (it.Iter.valid ()) then List.rev acc
        else begin
          let x = it.Iter.entry () in
          it.Iter.next ();
          take (n - 1) (x :: acc)
        end
      in
      it.Iter.seek lo;
      let prefix = take steps [] in
      (* Files are opened in order, from the first one the seek selects
         to the one holding the current entry, and no further; with the
         run exhausted, no file outside the linear filter is opened. *)
      let first = Read_path.seek_run cmp files lo in
      let opened = List.rev !calls in
      let opens_ok =
        match List.filteri (fun i _ -> i = steps) expected with
        | [ (holder, _) ] -> opened = List.init (holder - first + 1) (fun i -> first + i)
        | _ ->
          let linear = List.map (fun (f : Table_meta.t) -> f.file_id) (linear_run_files ~lo ~hi files) in
          List.filteri (fun i _ -> i < List.length opened) linear = opened
      in
      let target = pkey (target_pick mod (last + 4)) in
      it.Iter.seek target;
      let rest = take max_int [] in
      let from = if String.compare target lo > 0 then target else lo in
      let entries = List.map snd in
      opens_ok
      && prefix = entries (List.filteri (fun i _ -> i < steps) expected)
      && rest = entries (List.filter (in_range from) tagged)
      && Iter.to_list it = entries expected)

let qt t =
  let name, _speed, fn = QCheck_alcotest.to_alcotest t in
  (name, `Quick, fn)

let suite =
  [
    ("stripe function", `Quick, test_stripe_of);
    ("shadowed versions dropped", `Quick, test_shadowed_versions_dropped);
    ("snapshot preserves old version", `Quick, test_snapshot_preserves_old_version);
    ("same-stripe shadowing under snapshot", `Quick, test_same_stripe_within_snapshot_dropped);
    ("distinct keys untouched", `Quick, test_distinct_keys_untouched);
    ("delete kept above bottom", `Quick, test_delete_kept_above_bottom);
    ("delete dropped at bottom", `Quick, test_delete_dropped_at_bottom);
    ("delete at bottom blocked by snapshot", `Quick, test_delete_at_bottom_blocked_by_snapshot);
    ("single delete cancels put", `Quick, test_single_delete_cancels_put);
    ("single delete respects snapshot", `Quick, test_single_delete_not_cancelling_across_snapshot);
    ("range tombstone drops covered", `Quick, test_range_tombstone_drops_covered);
    ("range tombstone spares newer", `Quick, test_range_tombstone_spares_newer);
    ("range tombstone respects snapshot", `Quick, test_range_tombstone_respects_snapshot);
    ("range tombstone retired at bottom", `Quick, test_range_tombstone_retired_at_bottom);
    ("merge chain preserved", `Quick, test_merge_chain_preserved);
    ("put shadows merge history", `Quick, test_put_shadows_merge_history);
    ("version apply add/remove", `Quick, test_version_apply_add_remove);
    ("version rejects unknown removal", `Quick, test_version_remove_unknown_rejected);
    ("version runs newest first", `Quick, test_version_runs_newest_first);
    ("version invariant detects overlap", `Quick, test_version_invariant_detects_overlap);
    ("version edit roundtrip", `Quick, test_version_edit_roundtrip);
    ("manifest recover", `Quick, test_manifest_recover_replays_edits);
    ("manifest missing = empty", `Quick, test_manifest_missing_is_empty);
    ("manifest torn tail ignored", `Quick, test_manifest_torn_tail_ignored);
    ("merge filter allocation ceiling", `Quick, test_merge_filter_allocation_ceiling);
    qt prop_merge_filter_preserves_visibility;
    qt prop_one_file_selection;
    qt prop_run_iter_linear;
  ]
