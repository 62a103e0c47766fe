module Entry = Lsm_record.Entry
module Iter = Lsm_record.Iter
module Comparator = Lsm_util.Comparator
module Blocked_bloom = Lsm_filter.Blocked_bloom

type kind =
  | Skiplist
  | Vector
  | Hash_skiplist of { buckets : int }
  | Hash_linkedlist of { buckets : int }

let default_hash_skiplist = Hash_skiplist { buckets = Hash_skiplist.default_buckets }

let default_hash_linkedlist =
  Hash_linkedlist { buckets = Hash_linkedlist.default_buckets }

let kind_name = function
  | Skiplist -> Skiplist.implementation_name
  | Vector -> Vector_buffer.implementation_name
  | Hash_skiplist _ -> Hash_skiplist.implementation_name
  | Hash_linkedlist _ -> Hash_linkedlist.implementation_name

let all_kinds = [ Skiplist; Vector; default_hash_skiplist; default_hash_linkedlist ]

type impl =
  | I_skiplist of Skiplist.t
  | I_vector of Vector_buffer.t
  | I_hash_skiplist of Hash_skiplist.t
  | I_hash_linkedlist of Hash_linkedlist.t

type t = {
  k : kind;
  impl : impl;
  keys : Blocked_bloom.t;  (** every key added, set before its entry is inserted *)
  mutable range_dels : Entry.t list;
}

(* The key filter is sized for the most entries the byte budget can
   hold, [budget] over the smallest entry footprint, at this many bits
   each. Real entries carry a key and a value, so the filter usually
   runs several times sparser than that. It is not counted in
   [footprint]: flush cadence does not depend on it. *)
let filter_bits_per_key = 10.0
let min_footprint = Entry.footprint (Entry.put ~key:"" ~seqno:0 "")

let create ?(kind = Skiplist) ~budget ~cmp () =
  let impl =
    match kind with
    | Skiplist -> I_skiplist (Skiplist.create ~cmp ())
    | Vector -> I_vector (Vector_buffer.create ~cmp ())
    | Hash_skiplist { buckets } ->
      I_hash_skiplist (Hash_skiplist.create_sized ~cmp ~buckets ())
    | Hash_linkedlist { buckets } ->
      I_hash_linkedlist (Hash_linkedlist.create_sized ~cmp ~buckets ())
  in
  let keys =
    Blocked_bloom.create ~bits_per_key:filter_bits_per_key ~expected:(max 1 (budget / min_footprint))
  in
  { k = kind; impl; keys; range_dels = [] }

(* The key goes into the filter before the entry goes into the buffer:
   a reader whose ceiling covers the entry captured it after this add
   returned, so it sees these bits (DESIGN.md §18). *)
let add t e =
  Blocked_bloom.add t.keys e.Entry.key;
  if e.Entry.kind = Entry.Range_delete then t.range_dels <- e :: t.range_dels;
  match t.impl with
  | I_skiplist m -> Skiplist.add m e
  | I_vector m -> Vector_buffer.add m e
  | I_hash_skiplist m -> Hash_skiplist.add m e
  | I_hash_linkedlist m -> Hash_linkedlist.add m e

let count t =
  match t.impl with
  | I_skiplist m -> Skiplist.count m
  | I_vector m -> Vector_buffer.count m
  | I_hash_skiplist m -> Hash_skiplist.count m
  | I_hash_linkedlist m -> Hash_linkedlist.count m

(* An empty buffer answers before hashing the key; a key the filter has
   never seen answers before any descent. *)
let find t ~max_seqno key =
  if count t = 0 || not (Blocked_bloom.mem t.keys key) then None
  else
    match t.impl with
    | I_skiplist m -> Skiplist.find m ~max_seqno key
    | I_vector m -> Vector_buffer.find m ~max_seqno key
    | I_hash_skiplist m -> Hash_skiplist.find m ~max_seqno key
    | I_hash_linkedlist m -> Hash_linkedlist.find m ~max_seqno key

let footprint t =
  match t.impl with
  | I_skiplist m -> Skiplist.footprint m
  | I_vector m -> Vector_buffer.footprint m
  | I_hash_skiplist m -> Hash_skiplist.footprint m
  | I_hash_linkedlist m -> Hash_linkedlist.footprint m

let iterator t =
  match t.impl with
  | I_skiplist m -> Skiplist.iterator m
  | I_vector m -> Vector_buffer.iterator m
  | I_hash_skiplist m -> Hash_skiplist.iterator m
  | I_hash_linkedlist m -> Hash_linkedlist.iterator m

let range_tombstones t = t.range_dels
