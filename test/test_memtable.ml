(* Tests for lsm_memtable: each implementation against a Map-based model,
   visibility under max_seqno, iterator ordering, range tombstones, the
   per-buffer key filter, a reader racing the writer, and the allocation
   of a miss. *)

open Lsm_memtable
module Entry = Lsm_record.Entry
module Iter = Lsm_record.Iter
module Comparator = Lsm_util.Comparator
module Rng = Lsm_util.Rng

let cmp = Comparator.bytewise
let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The engine's default write buffer size, as the filter's budget. *)
let budget = 1 lsl 20
let create kind = Memtable.create ~kind ~budget ~cmp ()
let with_each_kind f = List.iter (fun kind -> f kind (create kind)) Memtable.all_kinds
let find m key = Memtable.find m ~max_seqno:max_int key

let name k = Memtable.kind_name k

let test_add_find () =
  with_each_kind (fun k m ->
      Memtable.add m (Entry.put ~key:"apple" ~seqno:1 "red");
      Memtable.add m (Entry.put ~key:"banana" ~seqno:2 "yellow");
      (match find m "apple" with
      | Some e -> Alcotest.(check string) (name k ^ ": value") "red" e.Entry.value
      | None -> Alcotest.failf "%s: apple not found" (name k));
      check (name k ^ ": missing key") true (find m "cherry" = None);
      check_int (name k ^ ": count") 2 (Memtable.count m))

let test_versions_newest_wins () =
  with_each_kind (fun k m ->
      Memtable.add m (Entry.put ~key:"k" ~seqno:1 "v1");
      Memtable.add m (Entry.put ~key:"k" ~seqno:5 "v5");
      Memtable.add m (Entry.put ~key:"k" ~seqno:3 "v3");
      (match find m "k" with
      | Some e -> Alcotest.(check string) (name k ^ ": newest") "v5" e.Entry.value
      | None -> Alcotest.failf "%s: missing" (name k)))

let test_snapshot_visibility () =
  with_each_kind (fun k m ->
      Memtable.add m (Entry.put ~key:"k" ~seqno:10 "new");
      Memtable.add m (Entry.put ~key:"k" ~seqno:2 "old");
      (match Memtable.find m ~max_seqno:5 "k" with
      | Some e -> Alcotest.(check string) (name k ^ ": snapshot sees old") "old" e.Entry.value
      | None -> Alcotest.failf "%s: snapshot miss" (name k));
      check (name k ^ ": before any write") true (Memtable.find m ~max_seqno:1 "k" = None))

let test_tombstone_returned () =
  with_each_kind (fun k m ->
      Memtable.add m (Entry.put ~key:"k" ~seqno:1 "v");
      Memtable.add m (Entry.delete ~key:"k" ~seqno:2);
      match find m "k" with
      | Some e -> check (name k ^ ": tombstone wins") true (e.Entry.kind = Entry.Delete)
      | None -> Alcotest.failf "%s: tombstone not surfaced" (name k))

let test_iterator_sorted_all_kinds () =
  with_each_kind (fun k m ->
      let rng = Rng.create 11 in
      for i = 1 to 500 do
        let key = Printf.sprintf "key%04d" (Rng.int rng 200) in
        Memtable.add m (Entry.put ~key ~seqno:i (string_of_int i))
      done;
      let out = Iter.to_list (Memtable.iterator m) in
      check_int (name k ^ ": iterator yields all") 500 (List.length out);
      let rec sorted = function
        | a :: (b :: _ as rest) -> Entry.compare cmp a b < 0 && sorted rest
        | _ -> true
      in
      check (name k ^ ": strictly sorted (unique seqnos)") true (sorted out))

let test_iterator_seek () =
  with_each_kind (fun k m ->
      List.iter (fun key -> Memtable.add m (Entry.put ~key ~seqno:1 "v"))
        [ "a"; "c"; "e"; "g" ];
      let it = Memtable.iterator m in
      it.Iter.seek "d";
      check (name k ^ ": seek valid") true (it.Iter.valid ());
      Alcotest.(check string) (name k ^ ": seek lands on e") "e" (it.Iter.entry ()).Entry.key)

let test_range_tombstones_tracked () =
  with_each_kind (fun k m ->
      Memtable.add m (Entry.put ~key:"a" ~seqno:1 "v");
      Memtable.add m (Entry.range_delete ~start_key:"b" ~end_key:"f" ~seqno:2);
      check_int (name k ^ ": one range tombstone") 1 (List.length (Memtable.range_tombstones m));
      (* find must not surface range tombstones for the start key. *)
      check (name k ^ ": find skips range tombstone") true (find m "b" = None);
      (* but the iterator must include it (flush needs it). *)
      let kinds = List.map (fun e -> e.Entry.kind) (Iter.to_list (Memtable.iterator m)) in
      check (name k ^ ": iterator carries range delete") true (List.mem Entry.Range_delete kinds))

let test_footprint_grows () =
  with_each_kind (fun k m ->
      let before = Memtable.footprint m in
      Memtable.add m (Entry.put ~key:"key" ~seqno:1 (String.make 100 'v'));
      check (name k ^ ": footprint grows by >= payload") true
        (Memtable.footprint m - before >= 103))

(* Model-based test: every implementation, behind its key filter, must
   agree with a reference model on [find] across random operations and
   ceilings, so the filter never hides a key. Keys mix duplicates, the
   empty key and long shared prefixes (the server's tenant namespaces),
   with many versions each, inserted in shuffled seqno order, and are
   probed present and absent alike. *)
let gen_model_key =
  QCheck.Gen.(
    frequency
      [
        (1, return "");
        (4, string_size ~gen:(char_range 'a' 'f') (1 -- 3));
        (4, map (Printf.sprintf "tenant-a\x00k%012d") (0 -- 40));
      ])

let gen_model_ops =
  QCheck.Gen.(
    pair
      (list_size (0 -- 300)
         (pair gen_model_key
            (frequency
               [ (6, return Entry.Put); (2, return Entry.Delete); (1, return Entry.Range_delete) ])))
      (pair (list_size (1 -- 8) nat) (list_size (0 -- 10) gen_model_key)))

let prop_model_agreement kind =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s = model" (Memtable.kind_name kind))
    ~count:100
    (QCheck.make gen_model_ops)
    (fun (ops, (snaps, absent)) ->
      let n = List.length ops in
      let seqnos = Array.init n (fun i -> i + 1) in
      let rng = Rng.create (n + List.length snaps) in
      for i = n - 1 downto 1 do
        let j = Rng.int rng (i + 1) in
        let x = seqnos.(i) in
        seqnos.(i) <- seqnos.(j);
        seqnos.(j) <- x
      done;
      let m = create kind in
      let entries =
        List.mapi
          (fun i (key, kind) ->
            let seqno = seqnos.(i) in
            match kind with
            | Entry.Range_delete -> Entry.range_delete ~start_key:key ~end_key:(key ^ "\xff") ~seqno
            | Entry.Delete -> Entry.delete ~key ~seqno
            | _ -> Entry.put ~key ~seqno (string_of_int seqno))
          ops
      in
      List.iter (Memtable.add m) entries;
      let expected key snap =
        List.fold_left
          (fun best (e : Entry.t) ->
            if e.key = key && e.seqno <= snap && e.kind <> Entry.Range_delete then
              match best with Some (b : Entry.t) when b.seqno > e.seqno -> best | _ -> Some e
            else best)
          None entries
      in
      let keys = List.sort_uniq compare (List.map fst ops @ absent) in
      List.for_all
        (fun snap -> List.for_all (fun key -> Memtable.find m ~max_seqno:snap key = expected key snap) keys)
        (n :: (n / 2) :: 1 :: max_int :: List.map (fun s -> s mod (n + 2)) snaps))

(* One writer adds entries and publishes how many through an [Atomic];
   a reader on another domain must find each entry below the published
   count, at the entry's own seqno, the moment it sees the count. The
   vector buffer sorts in place on its first read, so it is a
   single-domain structure and sits this one out. *)
let test_reader_races_writer () =
  let total = 20_000 in
  let rng = Rng.create 7 in
  let keys = Array.init total (fun _ -> Printf.sprintf "k%06d" (Rng.int rng 5_000)) in
  List.iter
    (fun kind ->
      if kind <> Memtable.Vector then begin
        let m = create kind in
        let published = Atomic.make 0 in
        let reader =
          Domain.spawn (fun () ->
              let checked = ref 0 and bad = ref 0 in
              while !checked < total do
                let n = Atomic.get published in
                while !checked < n do
                  let i = !checked in
                  (match Memtable.find m ~max_seqno:(i + 1) keys.(i) with
                  | Some e when e.Entry.seqno = i + 1 -> ()
                  | _ -> incr bad);
                  incr checked
                done;
                if n < total then Domain.cpu_relax ()
              done;
              !bad)
        in
        Array.iteri
          (fun i key ->
            Memtable.add m (Entry.put ~key ~seqno:(i + 1) "v");
            Atomic.set published (i + 1))
          keys;
        check_int (name kind ^ ": reader found every published entry") 0 (Domain.join reader)
      end)
    Memtable.all_kinds

(* A miss on a non-empty skiplist buffer allocates nothing, whether the
   filter rejects the key or the descent runs and finds no visible
   version. *)
let test_miss_allocates_nothing () =
  let m = create Memtable.Skiplist in
  for i = 0 to 4_999 do
    Memtable.add m (Entry.put ~key:(Printf.sprintf "key%06d" i) ~seqno:(i + 1) "v")
  done;
  let absent = Array.init 64 (Printf.sprintf "absent%06d") in
  let present = Array.init 64 (fun i -> Printf.sprintf "key%06d" (i * 71)) in
  let words probe keys =
    let rounds = 200 in
    ignore (probe keys.(0));
    let w0 = Gc.minor_words () in
    for _ = 1 to rounds do
      for j = 0 to Array.length keys - 1 do
        ignore (Sys.opaque_identity (probe keys.(j)))
      done
    done;
    (Gc.minor_words () -. w0) /. float_of_int (rounds * Array.length keys)
  in
  let filtered = words (fun k -> Memtable.find m ~max_seqno:max_int k) absent in
  let descended = words (fun k -> Memtable.find m ~max_seqno:0 k) present in
  check (Printf.sprintf "filtered miss %.3f words" filtered) true (filtered < 0.01);
  check (Printf.sprintf "descended miss %.3f words" descended) true (descended < 0.01)

(* Keys shaped like the server's: every key of a tenant starts with its
   name and a NUL ([Shard_map.encode_key]). Both hash buffers bucket the
   whole key, so one tenant's keys spread over the buckets instead of
   sharing the one its name would hash to, and every key is found. *)
let test_hash_buffers_spread_tenant_keys () =
  let keys = Array.init 20_000 (fun i -> Printf.sprintf "tenant-a\x00k%06d" i) in
  List.iter
    (fun kind ->
      let buckets =
        match kind with
        | Memtable.Hash_skiplist { buckets } | Memtable.Hash_linkedlist { buckets } -> buckets
        | Memtable.Skiplist | Memtable.Vector -> Alcotest.fail "not a hash buffer"
      in
      let used = Array.make buckets false in
      Array.iter (fun k -> used.(Lsm_util.Hashing.bucket ~buckets k) <- true) keys;
      let n = Array.fold_left (fun a u -> if u then a + 1 else a) 0 used in
      check (Printf.sprintf "%s: %d of %d buckets used" (name kind) n buckets) true (n * 10 >= buckets * 9);
      let m = create kind in
      Array.iteri (fun i key -> Memtable.add m (Entry.put ~key ~seqno:(i + 1) "v")) keys;
      Array.iteri
        (fun i key ->
          match find m key with
          | Some e when e.Entry.seqno = i + 1 -> ()
          | _ -> Alcotest.failf "%s: %S lost" (name kind) key)
        keys)
    [ Memtable.default_hash_skiplist; Memtable.default_hash_linkedlist ]

let qt t =
  let name, _speed, fn = QCheck_alcotest.to_alcotest t in
  (name, `Quick, fn)

let suite =
  [
    ("add/find on all kinds", `Quick, test_add_find);
    ("newest version wins", `Quick, test_versions_newest_wins);
    ("snapshot visibility", `Quick, test_snapshot_visibility);
    ("tombstones surfaced", `Quick, test_tombstone_returned);
    ("iterator sorted", `Quick, test_iterator_sorted_all_kinds);
    ("iterator seek", `Quick, test_iterator_seek);
    ("range tombstones tracked", `Quick, test_range_tombstones_tracked);
    ("footprint grows", `Quick, test_footprint_grows);
    ("reader races writer", `Quick, test_reader_races_writer);
    ("miss allocates nothing", `Quick, test_miss_allocates_nothing);
    ("hash buffers spread one tenant's keys", `Quick, test_hash_buffers_spread_tenant_keys);
  ]
  @ List.map (fun k -> qt (prop_model_agreement k)) Memtable.all_kinds
