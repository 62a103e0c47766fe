(* Striped LRU: the cache is split into independent shards, each a full
   (hashtable + intrusive doubly-linked list) LRU with its own mutex, so
   domains running parallel subcompactions or fanned-out point lookups
   contend only when they touch the same stripe. Keys route by hash of
   (file, offset); stats aggregate across shards.

   The cache is polymorphic in what it stores. The engine keeps
   *decoded* blocks (verified, decompressed, restart-parsed) so a hit
   never re-pays CRC or decompression; because a decoded entry is not a
   string, the byte charge is explicit — [insert ~bytes] — rather than
   derived, and [used_bytes] accounts those charges. *)

type key = string * int

(* Every block read probes this table, so keys compare with
   [String.equal] on the file name rather than the polymorphic compare
   the generic [Hashtbl] would run over the tuple. *)
module Tbl = Hashtbl.Make (struct
  type t = key

  let equal ((f1 : string), (o1 : int)) (f2, o2) = o1 = o2 && String.equal f1 f2
  let hash = Hashtbl.hash
end)

module Shard = struct
  type 'a node = {
    nkey : key;
    data : 'a;
    nbytes : int;  (** the byte charge declared at insert *)
    mutable prev : 'a node option;
    mutable next : 'a node option;
  }

  type 'a t = {
    m : Lsm_util.Ordered_mutex.t;
    mutable cap : int;
    table : 'a node Tbl.t;
    mutable head : 'a node option;  (** most recently used *)
    mutable tail : 'a node option;  (** least recently used *)
    mutable used : int;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let create ~capacity =
    {
      m =
        Lsm_util.Ordered_mutex.create ~rank:Lsm_util.Ordered_mutex.Rank.block_cache_shard
          ~name:"block_cache.shard";
      cap = capacity;
      table = Tbl.create 256;
      head = None;
      tail = None;
      used = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
    }

  let locked t f = Lsm_util.Ordered_mutex.with_lock t.m f

  let unlink t n =
    (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
    (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
    n.prev <- None;
    n.next <- None

  let push_front t n =
    n.next <- t.head;
    n.prev <- None;
    (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
    t.head <- Some n

  let remove_node t n =
    unlink t n;
    Tbl.remove t.table n.nkey;
    t.used <- t.used - n.nbytes

  let find_locked t key =
    match Tbl.find_opt t.table key with
    | Some n ->
      t.hits <- t.hits + 1;
      unlink t n;
      push_front t n;
      Some n.data
    | None ->
      t.misses <- t.misses + 1;
      None

  (* Every block a read or compaction touches is looked up here first,
     so the probe takes the lock with [protect]: no closure per probe. *)
  let find t ~file ~off = Lsm_util.Ordered_mutex.protect t.m find_locked t (file, off)

  let evict_until_fits t =
    while t.used > t.cap do
      match t.tail with
      | Some n ->
        remove_node t n;
        t.evictions <- t.evictions + 1
      | None -> assert false
    done

  let set_capacity t capacity =
    locked t @@ fun () ->
    t.cap <- capacity;
    evict_until_fits t

  let insert t ~file ~off ~bytes data =
    if bytes < 0 then invalid_arg "Block_cache.insert: negative byte charge";
    locked t @@ fun () ->
    if bytes <= t.cap && t.cap > 0 then begin
      (match Tbl.find_opt t.table (file, off) with
      | Some old -> remove_node t old
      | None -> ());
      let n = { nkey = (file, off); data; nbytes = bytes; prev = None; next = None } in
      Tbl.replace t.table n.nkey n;
      push_front t n;
      t.used <- t.used + bytes;
      evict_until_fits t
    end

  (* Targeted invalidation of one entry: the corrupt-cached-block path
     drops exactly the offending (file, off) and leaves the file's other
     blocks hot. Not counted as a capacity eviction. *)
  let remove t ~file ~off =
    locked t @@ fun () ->
    match Tbl.find_opt t.table (file, off) with
    | Some n -> remove_node t n
    | None -> ()

  let evict_file t file =
    locked t @@ fun () ->
    let victims =
      Tbl.fold (fun (f, _) n acc -> if String.equal f file then n :: acc else acc) t.table []
    in
    List.iter (remove_node t) victims;
    List.length victims

  let clear t =
    locked t @@ fun () ->
    Tbl.reset t.table;
    t.head <- None;
    t.tail <- None;
    t.used <- 0

  let reset_stats t =
    locked t @@ fun () ->
    t.hits <- 0;
    t.misses <- 0;
    t.evictions <- 0
end

type 'a t = 'a Shard.t array

(* Byte budget split as evenly as integer division allows; the first
   [capacity mod n] shards take the remainder byte each. *)
let split_capacity ~capacity n =
  Array.init n (fun i -> (capacity / n) + if i < capacity mod n then 1 else 0)

let create ?(shards = 1) ~capacity () =
  if capacity < 0 then invalid_arg "Block_cache.create: negative capacity";
  if shards < 1 then invalid_arg "Block_cache.create: shards must be >= 1";
  let caps = split_capacity ~capacity shards in
  Array.init shards (fun i -> Shard.create ~capacity:caps.(i))

let shard_count t = Array.length t

let shard_of t ~file ~off =
  let n = Array.length t in
  if n = 1 then t.(0) else t.(Hashtbl.hash (file, off) mod n)

let sum f t = Array.fold_left (fun acc s -> acc + f s) 0 t

let capacity t = sum (fun (s : _ Shard.t) -> s.Shard.cap) t
let used_bytes t = sum (fun (s : _ Shard.t) -> s.Shard.used) t
let block_count t = sum (fun (s : _ Shard.t) -> Tbl.length s.Shard.table) t

let set_capacity t capacity =
  if capacity < 0 then invalid_arg "Block_cache.set_capacity: negative capacity";
  let caps = split_capacity ~capacity (Array.length t) in
  Array.iteri (fun i s -> Shard.set_capacity s caps.(i)) t

let find t ~file ~off = Shard.find (shard_of t ~file ~off) ~file ~off
let insert t ~file ~off ~bytes data = Shard.insert (shard_of t ~file ~off) ~file ~off ~bytes data
let remove t ~file ~off = Shard.remove (shard_of t ~file ~off) ~file ~off

let get_or_load t ~file ~off load =
  let s = shard_of t ~file ~off in
  match Shard.find s ~file ~off with
  | Some data -> data
  | None ->
    (* Load outside the shard lock: a racing domain may load the same
       block twice, but never blocks behind another shard's I/O. *)
    let data, bytes = load () in
    Shard.insert s ~file ~off ~bytes data;
    data

let evict_file t file = sum (fun s -> Shard.evict_file s file) t
let clear t = Array.iter Shard.clear t

let hits t = sum (fun (s : _ Shard.t) -> s.Shard.hits) t
let misses t = sum (fun (s : _ Shard.t) -> s.Shard.misses) t
let evictions t = sum (fun (s : _ Shard.t) -> s.Shard.evictions) t

let hit_rate t =
  let lookups = hits t + misses t in
  if lookups = 0 then 0.0 else float_of_int (hits t) /. float_of_int lookups

let reset_stats t = Array.iter Shard.reset_stats t
