(* LRU list is intrusive and doubly linked, same shape as the block
   cache's, but budgeted by reader count rather than bytes: what matters
   is the per-reader footprint of parsed footer/index/filter blocks. One
   mutex guards the whole structure — opens are rare next to gets, and a
   get is just a hashtable probe plus two pointer swaps. *)

(* Probed on every table read: [String.equal] keys, not the generic
   table's polymorphic compare. *)
module Tbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type node = {
  name : string;
  reader : Sstable.reader;
  mutable prev : node option;
  mutable next : node option;
}

type t = {
  cmp : Lsm_util.Comparator.t;
  dev : Lsm_storage.Device.t;
  cache : Sstable.cached_block Lsm_storage.Block_cache.t;
  on_ecc : Sstable.ecc_event -> unit;
  m : Lsm_util.Ordered_mutex.t;
  mutable cap : int;
  readers : node Tbl.t;
  mutable head : node option;
  mutable tail : node option;
  mutable opens : int;
  mutable evictions : int;
}

let create ?(capacity = max_int) ?(on_ecc = fun (_ : Sstable.ecc_event) -> ()) ~cmp ~dev
    ~cache () =
  if capacity < 1 then invalid_arg "Table_cache.create: capacity must be >= 1";
  {
    cmp;
    dev;
    cache;
    on_ecc;
    m = Lsm_util.Ordered_mutex.create ~rank:Lsm_util.Ordered_mutex.Rank.table_cache ~name:"table_cache";
    cap = capacity;
    readers = Tbl.create 64;
    head = None;
    tail = None;
    opens = 0;
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

let drop_node t n =
  unlink t n;
  Tbl.remove t.readers n.name

let evict_until_fits t =
  while Tbl.length t.readers > t.cap do
    match t.tail with
    | Some n ->
      (* The reader itself stays valid for anyone still iterating it —
         it holds only immutable parsed metadata; we merely stop caching
         it. Its data blocks stay in the block cache (the file still
         exists). *)
      drop_node t n;
      t.evictions <- t.evictions + 1
    | None -> assert false
  done

let find_and_touch t name =
  match Tbl.find_opt t.readers name with
  | Some n ->
    unlink t n;
    push_front t n;
    Some n.reader
  | None -> None

let get t name =
  match locked t (fun () -> find_and_touch t name) with
  | Some r -> r
  | None ->
    (* Open outside the lock: footer/index/filter I/O under the cache
       mutex would serialize every other domain's gets behind the
       device (lint rule R2). Two domains racing the same file may both
       parse it; the loser's reader is discarded below — parsed
       metadata is immutable, so either copy is equally valid. *)
    let r = Sstable.open_reader ~cmp:t.cmp ~dev:t.dev ~cache:t.cache ~on_ecc:t.on_ecc name in
    locked t @@ fun () ->
    (match find_and_touch t name with
    | Some winner -> winner
    | None ->
      let n = { name; reader = r; prev = None; next = None } in
      Tbl.replace t.readers name n;
      push_front t n;
      t.opens <- t.opens + 1;
      evict_until_fits t;
      r)

let evict t name =
  locked t (fun () ->
      match Tbl.find_opt t.readers name with
      | Some n -> drop_node t n
      | None -> ());
  ignore (Lsm_storage.Block_cache.evict_file t.cache name)

let set_capacity t capacity =
  if capacity < 1 then invalid_arg "Table_cache.set_capacity: capacity must be >= 1";
  locked t @@ fun () ->
  t.cap <- capacity;
  evict_until_fits t

let capacity t = t.cap
let open_count t = locked t (fun () -> Tbl.length t.readers)
let total_opens t = t.opens
let evictions t = t.evictions
let block_cache t = t.cache
