(** Unsorted append vector memtable — RocksDB's "vector" buffer (§2.2.1).

    O(1) amortized insert: the fastest possible ingestion path for
    write-only phases (bulk loading), at the price of sorting on the first
    read or at flush. Interleaved reads each pay the (amortized) sort,
    which is why the paper notes its performance "degrades in presence of
    interleaved reads". *)

module Entry = Lsm_record.Entry
module Iter = Lsm_record.Iter
module Comparator = Lsm_util.Comparator

let implementation_name = "vector"

type t = {
  cmp : Comparator.t;
  mutable data : Entry.t array;
  mutable len : int;
  mutable sorted : bool;
  mutable footprint : int;
}

let dummy = Entry.put ~key:"" ~seqno:0 ""

let create ~cmp () =
  { cmp; data = Array.make 64 dummy; len = 0; sorted = true; footprint = 0 }

let add t e =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) dummy in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- e;
  t.len <- t.len + 1;
  t.sorted <- false;
  t.footprint <- t.footprint + Entry.footprint e

let ensure_sorted t =
  if not t.sorted then begin
    let sub = Array.sub t.data 0 t.len in
    Array.sort (Entry.compare t.cmp) sub;
    Array.blit sub 0 t.data 0 t.len;
    t.sorted <- true
  end

(* First index with user key >= target. *)
let lower_bound t target =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cmp.compare t.data.(mid).Entry.key target < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let find t ~max_seqno key =
  ensure_sorted t;
  let rec walk i =
    if i >= t.len then None
    else
      let e = t.data.(i) in
      if t.cmp.compare e.Entry.key key <> 0 then None
      else if e.Entry.seqno <= max_seqno && e.Entry.kind <> Entry.Range_delete then Some e
      else walk (i + 1)
  in
  walk (lower_bound t key)

let count t = t.len
let footprint t = t.footprint

let iterator t =
  ensure_sorted t;
  let pos = ref t.len in
  let entry () = t.data.(!pos) in
  {
    Iter.valid = (fun () -> !pos < t.len);
    entry;
    view = Iter.entry_view entry;
    next = (fun () -> if !pos < t.len then incr pos);
    seek =
      (fun target ->
        ensure_sorted t;
        pos := lower_bound t target);
    seek_to_first =
      (fun () ->
        ensure_sorted t;
        pos := 0);
  }
