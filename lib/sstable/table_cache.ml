(* One [Lsm_storage.Lru] of readers, each charged 1 at offset 0, so the
   budget counts readers rather than bytes: what matters is the
   per-reader footprint of parsed footer/index/filter blocks. One mutex
   guards it — opens are rare next to gets, and a get is a hash probe
   plus two link swaps. *)

module Lru = Lsm_storage.Lru

type t = {
  cmp : Lsm_util.Comparator.t;
  dev : Lsm_storage.Device.t;
  cache : Sstable.cached_block Lsm_storage.Block_cache.t;
  on_ecc : Sstable.ecc_event -> unit;
  m : Lsm_util.Ordered_mutex.t;
  readers : Sstable.reader Lru.t;
  mutable opens : int;
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
    readers = Lru.create ~capacity;
    opens = 0;
  }

let locked t f = Lsm_util.Ordered_mutex.with_lock t.m f

(* Every table read starts here, so the probe runs between a bare
   [lock] and [unlock] rather than in a closure: [Lru.find] cannot
   raise. *)
let find t name =
  Lsm_util.Ordered_mutex.lock t.m;
  let r = Lru.find t.readers name 0 in
  Lsm_util.Ordered_mutex.unlock t.m;
  r

let get t name =
  match find t name with
  | Some r -> r
  | None ->
    (* Open outside the lock: footer/index/filter I/O under the cache
       mutex would serialize every other domain's gets behind the
       device (lint rule R2). Two domains racing the same file may both
       parse it; the loser's reader is discarded below — parsed
       metadata is immutable, so either copy is equally valid. A reader
       the bound evicts stays valid for anyone still iterating it, and
       its data blocks stay in the block cache (the file still
       exists). *)
    let r = Sstable.open_reader ~cmp:t.cmp ~dev:t.dev ~cache:t.cache ~on_ecc:t.on_ecc name in
    locked t @@ fun () ->
    (match Lru.find t.readers name 0 with
    | Some winner -> winner
    | None ->
      Lru.insert t.readers name 0 ~charge:1 r;
      t.opens <- t.opens + 1;
      r)

let evict t name =
  locked t (fun () -> Lru.remove t.readers name 0);
  ignore (Lsm_storage.Block_cache.evict_file t.cache name)

let capacity t = Lru.capacity t.readers
let open_count t = locked t (fun () -> Lru.length t.readers)
let total_opens t = t.opens
let evictions t = Lru.evictions t.readers
