(* Striped LRU: the cache is split into independent shards, each one
   [Lru] behind its own mutex, so domains running parallel
   subcompactions or fanned-out point lookups contend only when they
   touch the same stripe. Stats aggregate across shards.

   The cache is polymorphic in what it stores. The engine keeps
   *decoded* blocks (verified, decompressed, restart-parsed) so a hit
   never re-pays CRC or decompression; because a decoded entry is not a
   string, the byte charge is explicit — [insert ~bytes] — rather than
   derived, and [used_bytes] accounts those charges. *)

type 'a shard = { m : Lsm_util.Ordered_mutex.t; lru : 'a Lru.t }
type 'a t = 'a shard array

(* Byte budget split as evenly as integer division allows; the first
   [capacity mod n] shards take the remainder byte each. *)
let split_capacity ~capacity n =
  Array.init n (fun i -> (capacity / n) + if i < capacity mod n then 1 else 0)

let create ?(shards = 1) ~capacity () =
  if capacity < 0 then invalid_arg "Block_cache.create: negative capacity";
  if shards < 1 then invalid_arg "Block_cache.create: shards must be >= 1";
  let caps = split_capacity ~capacity shards in
  Array.init shards (fun i ->
      {
        m =
          Lsm_util.Ordered_mutex.create ~rank:Lsm_util.Ordered_mutex.Rank.block_cache_shard
            ~name:"block_cache.shard";
        lru = Lru.create ~capacity:caps.(i);
      })

let shard_count t = Array.length t

(* The stripe comes from a hash seeded with the offset, not from the
   hash [Lru] takes its bucket from: had both used the low bits of one
   hash, each of 4 stripes would fill a quarter of its buckets. *)
let shard_of t file off =
  let n = Array.length t in
  if n = 1 then t.(0) else t.(Hashtbl.seeded_hash off file mod n)

let locked s f = Lsm_util.Ordered_mutex.with_lock s.m f
let sum f t = Array.fold_left (fun acc s -> acc + f s.lru) 0 t

let capacity t = sum Lru.capacity t
let used_bytes t = sum Lru.used t
let block_count t = sum Lru.length t

let set_capacity t capacity =
  if capacity < 0 then invalid_arg "Block_cache.set_capacity: negative capacity";
  let caps = split_capacity ~capacity (Array.length t) in
  Array.iteri (fun i s -> locked s (fun () -> Lru.set_capacity s.lru caps.(i))) t

(* Every block a read or compaction touches is looked up here first, so
   the probe runs between a bare [lock] and [unlock] rather than in a
   closure: [Lru.find] cannot raise. *)
let find t ~file ~off =
  let s = shard_of t file off in
  Lsm_util.Ordered_mutex.lock s.m;
  let v = Lru.find s.lru file off in
  Lsm_util.Ordered_mutex.unlock s.m;
  v

let insert t ~file ~off ~bytes data =
  if bytes < 0 then invalid_arg "Block_cache.insert: negative byte charge";
  let s = shard_of t file off in
  locked s @@ fun () -> Lru.insert s.lru file off ~charge:bytes data

let remove t ~file ~off =
  let s = shard_of t file off in
  locked s @@ fun () -> Lru.remove s.lru file off

let evict_file t file =
  Array.fold_left (fun acc s -> acc + locked s (fun () -> Lru.remove_file s.lru file)) 0 t

let hits t = sum Lru.hits t
let misses t = sum Lru.misses t
let evictions t = sum Lru.evictions t

let hit_rate t =
  let lookups = hits t + misses t in
  if lookups = 0 then 0.0 else float_of_int (hits t) /. float_of_int lookups

let reset_stats t = Array.iter (fun s -> locked s (fun () -> Lru.reset_stats s.lru)) t
