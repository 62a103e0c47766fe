(** Hash-linkedlist memtable — RocksDB's cheapest hash buffer (§2.2.1).

    Buckets hold unsorted singly-linked lists with the newest entry at the
    head. Insert is O(1); a point lookup scans one bucket front-to-back
    (the first version with a visible seqno is the newest visible one,
    because insertion order follows seqno order); sorted iteration pays a
    full collect-and-sort like the hash-skiplist. Best for tiny buffers
    with strong key locality. *)

module Entry = Lsm_record.Entry
module Iter = Lsm_record.Iter
module Comparator = Lsm_util.Comparator
module Hashing = Lsm_util.Hashing

let implementation_name = "hash-linkedlist"
let default_buckets = 4096

type t = {
  cmp : Comparator.t;
  buckets : Entry.t list array;
  mutable count : int;
  mutable footprint : int;
}

let create_sized ~cmp ~buckets () =
  { cmp; buckets = Array.make buckets []; count = 0; footprint = 0 }

let index_of t key = Hashing.bucket ~buckets:(Array.length t.buckets) key

let add t e =
  let i = index_of t e.Entry.key in
  t.buckets.(i) <- e :: t.buckets.(i);
  t.count <- t.count + 1;
  t.footprint <- t.footprint + Entry.footprint e

let find t ~max_seqno key =
  (* Buckets are unsorted (writers may batch out of seqno order), so take
     the visible version with the highest seqno among all matches. *)
  let best = ref None in
  List.iter
    (fun e ->
      if
        t.cmp.compare e.Entry.key key = 0
        && e.Entry.seqno <= max_seqno
        && e.Entry.kind <> Entry.Range_delete
        && match !best with Some b -> e.Entry.seqno > b.Entry.seqno | None -> true
      then best := Some e)
    t.buckets.(index_of t key);
  !best

let count t = t.count
let footprint t = t.footprint

let iterator t =
  let all = Array.make t.count (Entry.put ~key:"" ~seqno:0 "") in
  let i = ref 0 in
  Array.iter
    (fun bucket ->
      List.iter
        (fun e ->
          all.(!i) <- e;
          incr i)
        bucket)
    t.buckets;
  Array.sort (Entry.compare t.cmp) all;
  Iter.of_sorted_array t.cmp all
