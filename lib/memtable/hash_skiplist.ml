(** Hash-skiplist memtable — RocksDB's prefix-bucketed buffer (§2.2.1).

    Keys are bucketed by a hash of the whole key; each bucket is a small
    skiplist. Point lookups touch one bucket (near O(1) for
    short buckets); a full sorted iteration must merge all buckets, so
    flushes and scans pay an O(n log n) collect-and-sort. *)

module Entry = Lsm_record.Entry
module Iter = Lsm_record.Iter
module Comparator = Lsm_util.Comparator
module Hashing = Lsm_util.Hashing

let implementation_name = "hash-skiplist"
let default_buckets = 1024

type t = {
  cmp : Comparator.t;
  buckets : Skiplist.t array;
  mutable count : int;
  mutable footprint : int;
}

let create_sized ~cmp ~buckets () =
  {
    cmp;
    buckets = Array.init buckets (fun _ -> Skiplist.create ~cmp ());
    count = 0;
    footprint = 0;
  }

let create ~cmp () =
  create_sized ~cmp ~buckets:default_buckets ()

let bucket_of t key =
  t.buckets.(Hashing.bucket ~buckets:(Array.length t.buckets) key)

let add t e =
  Skiplist.add (bucket_of t e.Entry.key) e;
  t.count <- t.count + 1;
  t.footprint <- t.footprint + Entry.footprint e

let find t ~max_seqno key = Skiplist.find (bucket_of t key) ~max_seqno key

let count t = t.count
let footprint t = t.footprint

let iterator t =
  let all = Array.make t.count (Entry.put ~key:"" ~seqno:0 "") in
  let i = ref 0 in
  Array.iter
    (fun b ->
      let it = Skiplist.iterator b in
      it.Iter.seek_to_first ();
      while it.Iter.valid () do
        all.(!i) <- it.Iter.entry ();
        incr i;
        it.Iter.next ()
      done)
    t.buckets;
  Array.sort (Entry.compare t.cmp) all;
  Iter.of_sorted_array t.cmp all
