(* Tests for lsm_record: entry model, orderings, iterators, k-way merge. *)

open Lsm_record
module Codec = Lsm_util.Codec
module Comparator = Lsm_util.Comparator

let cmp = Comparator.bytewise
let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let e ?(kind = Entry.Put) ?(value = "") key seqno = { Entry.key; seqno; kind; value }

(* ---------- Entry ---------- *)

let test_entry_roundtrip_kinds () =
  List.iter
    (fun kind ->
      let entry = { Entry.key = "k"; seqno = 42; kind; value = "v" } in
      let b = Buffer.create 32 in
      Entry.encode b entry;
      let s = Buffer.contents b in
      check_int "encoded_size exact" (String.length s) (Entry.encoded_size entry);
      let got = Entry.decode (Codec.reader s) in
      check "roundtrip" true (got = entry))
    [ Entry.Put; Entry.Delete; Entry.Single_delete; Entry.Range_delete; Entry.Merge ]

let test_entry_ordering () =
  (* Key ascending. *)
  check "key order" true (Entry.compare cmp (e "a" 1) (e "b" 1) < 0);
  (* Same key: seqno descending (newest first). *)
  check "seqno desc" true (Entry.compare cmp (e "a" 5) (e "a" 3) < 0);
  check "equal" true (Entry.compare cmp (e "a" 5) (e "a" 5) = 0)

let test_entry_constructors () =
  let d = Entry.delete ~key:"k" ~seqno:9 in
  check "delete is tombstone" true (Entry.is_tombstone d);
  check "put is not" false (Entry.is_tombstone (Entry.put ~key:"k" ~seqno:1 "v"));
  let rd = Entry.range_delete ~start_key:"a" ~end_key:"m" ~seqno:2 in
  check "range delete carries end key" true (rd.Entry.value = "m");
  check "range delete is tombstone" true (Entry.is_tombstone rd);
  check "merge not tombstone" false (Entry.is_tombstone (Entry.merge ~key:"k" ~seqno:3 "+1"))

let test_entry_bad_kind () =
  Alcotest.check_raises "bad kind tag" (Codec.Corrupt "unknown entry kind 9") (fun () ->
      ignore (Entry.kind_of_int 9))

let prop_entry_roundtrip =
  QCheck.Test.make ~name:"entry encode/decode roundtrip" ~count:500
    QCheck.(triple string (map abs small_int) string)
    (fun (key, seqno, value) ->
      let entry = { Entry.key; seqno; kind = Entry.Put; value } in
      let b = Buffer.create 32 in
      Entry.encode b entry;
      Entry.decode (Codec.reader (Buffer.contents b)) = entry)

(* ---------- Iter over sorted arrays ---------- *)

let sorted_entries = [ e "a" 3; e "a" 1; e "c" 2; e "e" 9; e "e" 4; e "g" 7 ]

let test_iter_drain () =
  let it = Iter.of_sorted_list cmp sorted_entries in
  Alcotest.(check int) "drains all" 6 (List.length (Iter.to_list it))

let test_iter_seek () =
  let it = Iter.of_sorted_list cmp sorted_entries in
  it.Iter.seek "c";
  check "valid" true (it.Iter.valid ());
  Alcotest.(check string) "lands on c" "c" (it.Iter.entry ()).Entry.key;
  it.Iter.seek "d";
  Alcotest.(check string) "d -> e" "e" (it.Iter.entry ()).Entry.key;
  check_int "newest version first" 9 (it.Iter.entry ()).Entry.seqno;
  it.Iter.seek "z";
  check "past end" false (it.Iter.valid ())

let test_iter_empty () =
  let it = Iter.empty in
  it.Iter.seek_to_first ();
  check "empty invalid" false (it.Iter.valid ());
  check_int "to_list empty" 0 (List.length (Iter.to_list Iter.empty))

(* ---------- merge ---------- *)

let test_merge_interleaves () =
  let a = Iter.of_sorted_list cmp [ e "a" 1; e "d" 1; e "g" 1 ] in
  let b = Iter.of_sorted_list cmp [ e "b" 1; e "e" 1 ] in
  let c = Iter.of_sorted_list cmp [ e "c" 1; e "f" 1 ] in
  let keys = List.map (fun x -> x.Entry.key) (Iter.to_list (Iter.merge cmp [ a; b; c ])) in
  Alcotest.(check (list string)) "merged order" [ "a"; "b"; "c"; "d"; "e"; "f"; "g" ] keys

let test_merge_version_order () =
  (* Same key in two sources: newest (highest seqno) must come first. *)
  let newer = Iter.of_sorted_list cmp [ e "k" 10 ~value:"new" ] in
  let older = Iter.of_sorted_list cmp [ e "k" 2 ~value:"old" ] in
  let out = Iter.to_list (Iter.merge cmp [ older; newer ]) in
  check_int "two versions" 2 (List.length out);
  Alcotest.(check string) "newest first" "new" (List.hd out).Entry.value

let test_merge_seek () =
  let a = Iter.of_sorted_list cmp [ e "a" 1; e "m" 1 ] in
  let b = Iter.of_sorted_list cmp [ e "c" 1; e "z" 1 ] in
  let it = Iter.merge cmp [ a; b ] in
  it.Iter.seek "m";
  Alcotest.(check string) "seek m" "m" (it.Iter.entry ()).Entry.key;
  it.Iter.next ();
  Alcotest.(check string) "then z" "z" (it.Iter.entry ()).Entry.key

let prop_merge_equals_sort =
  (* Merging k sorted sources = a stable sort of their concatenation,
     also after a re-seek mid-stream. Up to 8 sources, some empty; a
     source holds each (key, seqno) once, but sources may share one, as
     a buffer and its flushed table do while both are live. The value
     names the source, so the stable sort's order — the newer (lower
     index) source first — is checked too. *)
  let gen =
    QCheck.Gen.(
      pair
        (list_size (1 -- 8)
           (list_size (0 -- 20) (pair (string_size ~gen:(char_range 'a' 'e') (1 -- 2)) (0 -- 5))))
        (pair (0 -- 40) (string_size ~gen:(char_range 'a' 'f') (0 -- 2))))
  in
  QCheck.Test.make ~name:"merge = sort of concat" ~count:300 (QCheck.make gen)
    (fun (runs, (taken, target)) ->
      let runs =
        List.mapi
          (fun ri run ->
            List.sort_uniq compare run
            |> List.map (fun (k, s) -> e k s ~value:(string_of_int ri))
            |> List.sort (Entry.compare cmp))
          runs
      in
      let expected = List.stable_sort (Entry.compare cmp) (List.concat runs) in
      let it = Iter.merge cmp (List.map (Iter.of_sorted_list cmp) runs) in
      let drained = Iter.to_list it in
      it.Iter.seek_to_first ();
      let rec take n acc =
        if n = 0 || not (it.Iter.valid ()) then List.rev acc
        else begin
          let x = it.Iter.entry () in
          it.Iter.next ();
          take (n - 1) (x :: acc)
        end
      in
      let prefix = take taken [] in
      it.Iter.seek target;
      let rest = take max_int [] in
      drained = expected
      && prefix = List.filteri (fun i _ -> i < taken) expected
      && rest = List.filter (fun x -> String.compare x.Entry.key target >= 0) expected)

let qt t =
  let name, _speed, fn = QCheck_alcotest.to_alcotest t in
  (name, `Quick, fn)

let suite =
  [
    ("entry roundtrip all kinds", `Quick, test_entry_roundtrip_kinds);
    ("entry ordering", `Quick, test_entry_ordering);
    ("entry constructors", `Quick, test_entry_constructors);
    ("entry bad kind rejected", `Quick, test_entry_bad_kind);
    ("iter drain", `Quick, test_iter_drain);
    ("iter seek", `Quick, test_iter_seek);
    ("iter empty", `Quick, test_iter_empty);
    ("merge interleaves", `Quick, test_merge_interleaves);
    ("merge newest-first within key", `Quick, test_merge_version_order);
    ("merge seek", `Quick, test_merge_seek);
    qt prop_entry_roundtrip;
    qt prop_merge_equals_sort;
  ]
