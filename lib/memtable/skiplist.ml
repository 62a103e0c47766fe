(** Probabilistic skiplist memtable — RocksDB's default buffer.

    Expected O(log n) insert and lookup, O(1) sorted-iterator creation.
    Ordered by [Entry.compare]: user key ascending, seqno descending, so
    the first node matching a key is its newest version.

    Forward pointers are [Atomic.t], RocksDB-InlineSkipList style: the
    single writer initializes a new node's pointers {e before} linking
    it (each link is a release store), so a reader racing the insert
    either misses the node entirely or sees it fully wired — its onward
    pointers never read as a stale [Nil] that would truncate the walk.
    This is what lets {!Db.get}/{!Db.multi_get} run concurrently with
    the one writer: entries at or below the reader's published-seqno
    ceiling are always reachable, and in-flight entries above it are at
    worst skipped, never corrupting the traversal. Still single-writer:
    [add] is not safe to call from two domains.

    Node layout (DESIGN.md §18): a node is one inline record holding its
    entry, the entry's key and its links, with no [option] box around
    any of them, so a descent step is five dependent loads: the node,
    its links array, the link's atomic cell, the next node and its
    key. *)

module Entry = Lsm_record.Entry
module Iter = Lsm_record.Iter
module Comparator = Lsm_util.Comparator
module Rng = Lsm_util.Rng

let implementation_name = "skiplist"
let max_level = 16
let branching = 4

type node =
  | Nil
  | Node of {
      entry : Entry.t;
      key : string;  (** [entry.key], cached in the node *)
      next : node Atomic.t array;  (** one link per level of the node *)
    }

type t = {
  cmp : Comparator.t;
  head : node Atomic.t array;  (** the head's links, one per level *)
  preds : node Atomic.t array array;
      (** writer scratch for [add]: the links array, per level, of the
          last node before the entry being inserted *)
  rng : Rng.t;
  mutable level : int;  (** highest level currently in use, >= 1 *)
  mutable count : int;
  mutable footprint : int;
}

let create ~cmp () =
  let head = Array.init max_level (fun _ -> Atomic.make Nil) in
  {
    cmp;
    head;
    preds = Array.make max_level head;
    rng = Rng.create 0x5eed;
    level = 1;
    count = 0;
    footprint = 0;
  }

let random_level t =
  let rec loop lvl = if lvl < max_level && Rng.int t.rng branching = 0 then loop (lvl + 1) else lvl in
  loop 1

(* A node holding [key] and [entry] sorts before [e] in [Entry.compare]
   order. The cached key settles all but equal keys without loading the
   node's entry. *)
let before cmp key entry e =
  let c = cmp.Comparator.compare key e.Entry.key in
  c < 0 || (c = 0 && Entry.compare cmp entry e < 0)

(* Record in [t.preds], for every level from [lvl] down, the links of
   the last node strictly before [e] in [Entry.compare] order, starting
   from the links array [links]. *)
let rec find_preds t e links lvl =
  match Atomic.get links.(lvl) with
  | Node n when before t.cmp n.key n.entry e -> find_preds t e n.next lvl
  | _ ->
    t.preds.(lvl) <- links;
    if lvl > 0 then find_preds t e links (lvl - 1)

let add t e =
  find_preds t e t.head (t.level - 1);
  let lvl = random_level t in
  if lvl > t.level then begin
    for i = t.level to lvl - 1 do
      t.preds.(i) <- t.head
    done;
    t.level <- lvl
  end;
  let next = Array.make lvl (Atomic.make (Atomic.get t.preds.(0).(0))) in
  for i = 1 to lvl - 1 do
    next.(i) <- Atomic.make (Atomic.get t.preds.(i).(i))
  done;
  (* The node is fully wired before anything points at it; link it
     bottom-up: each link publishes (the atomic store is a release) a
     node whose own pointers are already set, so a concurrent reader
     never walks off a half-built node. *)
  let node = Node { entry = e; key = e.Entry.key; next } in
  for i = 0 to lvl - 1 do
    Atomic.set t.preds.(i).(i) node
  done;
  t.count <- t.count + 1;
  t.footprint <- t.footprint + Entry.footprint e

(* First node with user key >= target (any seqno), descending from the
   links array [links] at level [lvl]. Seqno sorts descending, so within
   the target key this is the newest version. A top-level recursion, not
   a comparison closure: it runs on every point lookup. *)
let rec seek_from cmp target links lvl =
  let nxt = Atomic.get links.(lvl) in
  match nxt with
  | Node n when cmp.Comparator.compare n.key target < 0 -> seek_from cmp target n.next lvl
  | _ -> if lvl = 0 then nxt else seek_from cmp target links (lvl - 1)

let seek_node t target = seek_from t.cmp target t.head (t.level - 1)

let rec walk_versions cmp key max_seqno = function
  | Nil -> None
  | Node n ->
    if cmp.Comparator.compare n.key key <> 0 then None
    else
      let e = n.entry in
      if e.Entry.seqno <= max_seqno && e.Entry.kind <> Entry.Range_delete then Some e
      else walk_versions cmp key max_seqno (Atomic.get n.next.(0))

let find t ~max_seqno key = walk_versions t.cmp key max_seqno (seek_node t key)

let count t = t.count
let footprint t = t.footprint

let iterator t =
  let cur = ref Nil in
  let entry () = match !cur with Node n -> n.entry | Nil -> invalid_arg "skiplist iter" in
  {
    Iter.valid = (fun () -> !cur != Nil);
    entry;
    view = Iter.entry_view entry;
    next = (fun () -> match !cur with Node n -> cur := Atomic.get n.next.(0) | Nil -> ());
    seek = (fun target -> cur := seek_node t target);
    seek_to_first = (fun () -> cur := Atomic.get t.head.(0));
  }
