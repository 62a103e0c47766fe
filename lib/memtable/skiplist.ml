(** Probabilistic skiplist memtable — RocksDB's default buffer.

    Expected O(log n) insert and lookup, O(1) sorted-iterator creation.
    Ordered by [Entry.compare]: user key ascending, seqno descending, so
    the first node matching a key is its newest version.

    Forward pointers are [Atomic.t], RocksDB-InlineSkipList style: the
    single writer initializes a new node's pointers {e before} linking
    it (each link is a release store), so a reader racing the insert
    either misses the node entirely or sees it fully wired — its onward
    pointers never read as a stale [None] that would truncate the walk.
    This is what lets {!Db.get}/{!Db.multi_get} run concurrently with
    the one writer: entries at or below the reader's published-seqno
    ceiling are always reachable, and in-flight entries above it are at
    worst skipped, never corrupting the traversal. Still single-writer:
    [add] is not safe to call from two domains. *)

module Entry = Lsm_record.Entry
module Iter = Lsm_record.Iter
module Comparator = Lsm_util.Comparator
module Rng = Lsm_util.Rng

let implementation_name = "skiplist"
let max_level = 16
let branching = 4

type node = {
  nentry : Entry.t option;  (** [None] only for the head sentinel *)
  forward : node option Atomic.t array;
}

type t = {
  cmp : Comparator.t;
  head : node;
  rng : Rng.t;
  mutable level : int;  (** highest level currently in use, >= 1 *)
  mutable count : int;
  mutable footprint : int;
}

let create ~cmp () =
  {
    cmp;
    head = { nentry = None; forward = Array.init max_level (fun _ -> Atomic.make None) };
    rng = Rng.create 0x5eed;
    level = 1;
    count = 0;
    footprint = 0;
  }

let random_level t =
  let rec loop lvl = if lvl < max_level && Rng.int t.rng branching = 0 then loop (lvl + 1) else lvl in
  loop 1

let entry_of n =
  match n.nentry with Some e -> e | None -> assert false

(* Last node (per level) strictly before [e] in Entry.compare order;
   fills [update] with the predecessors when provided. *)
let find_greater_or_equal t cmp_fn ?update () =
  let x = ref t.head in
  for lvl = t.level - 1 downto 0 do
    let continue = ref true in
    while !continue do
      match Atomic.get !x.forward.(lvl) with
      | Some nxt when cmp_fn (entry_of nxt) < 0 -> x := nxt
      | _ -> continue := false
    done;
    match update with Some u -> u.(lvl) <- !x | None -> ()
  done;
  Atomic.get !x.forward.(0)

let add t e =
  let update = Array.make max_level t.head in
  let _ = find_greater_or_equal t (fun n -> Entry.compare t.cmp n e) ~update () in
  let lvl = random_level t in
  if lvl > t.level then begin
    for i = t.level to lvl - 1 do
      update.(i) <- t.head
    done;
    t.level <- lvl
  end;
  let node = { nentry = Some e; forward = Array.init lvl (fun _ -> Atomic.make None) } in
  (* Wire the node fully, then link bottom-up: each link publishes (the
     atomic store is a release) a node whose own pointers are already
     set, so a concurrent reader never walks off a half-built node. *)
  for i = 0 to lvl - 1 do
    Atomic.set node.forward.(i) (Atomic.get update.(i).forward.(i))
  done;
  for i = 0 to lvl - 1 do
    Atomic.set update.(i).forward.(i) (Some node)
  done;
  t.count <- t.count + 1;
  t.footprint <- t.footprint + Entry.footprint e

(* First node with user key >= target (any seqno). Seqno sorts descending,
   so within the target key this is the newest version. A top-level
   recursion rather than [find_greater_or_equal] with a comparison
   closure: it runs on every point lookup, where a closure would be an
   allocation per call. *)
let rec seek_from t target x lvl =
  if lvl < 0 then Atomic.get x.forward.(0)
  else
    match Atomic.get x.forward.(lvl) with
    | Some nxt when t.cmp.compare (entry_of nxt).Entry.key target < 0 -> seek_from t target nxt lvl
    | _ -> seek_from t target x (lvl - 1)

let seek_node t target = seek_from t target t.head (t.level - 1)

let rec walk_versions t key max_seqno = function
  | None -> None
  | Some n ->
    let e = entry_of n in
    if t.cmp.compare e.Entry.key key <> 0 then None
    else if e.Entry.seqno <= max_seqno && e.Entry.kind <> Entry.Range_delete then Some e
    else walk_versions t key max_seqno (Atomic.get n.forward.(0))

let find t ?(max_seqno = max_int) key = walk_versions t key max_seqno (seek_node t key)

let count t = t.count
let footprint t = t.footprint

let iterator t =
  let cur = ref None in
  {
    Iter.valid = (fun () -> !cur <> None);
    entry = (fun () -> match !cur with Some n -> entry_of n | None -> invalid_arg "skiplist iter");
    next = (fun () -> match !cur with Some n -> cur := Atomic.get n.forward.(0) | None -> ());
    seek = (fun target -> cur := seek_node t target);
    seek_to_first = (fun () -> cur := Atomic.get t.head.forward.(0));
  }
