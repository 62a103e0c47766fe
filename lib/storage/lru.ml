(* A hash table from (file, off) to nodes, plus a circular doubly-linked
   recency list through the sentinel [root]: [root.next] is the most
   recently used node, [root.prev] the least. Every block read and
   every table read probes here, so a hit must allocate nothing: the
   probe is one key record the table reuses, and each node stores its
   value as [Some v], built once at insert. *)

type key = { mutable file : string; mutable off : int }

module Tbl = Hashtbl.Make (struct
  type t = key

  let equal a b = a.off = b.off && String.equal a.file b.file
  let hash (k : key) = Hashtbl.hash k
end)

type 'a node = {
  key : key;
  value : 'a option;
  charge : int;
  mutable prev : 'a node;
  mutable next : 'a node;
}

type 'a t = {
  table : 'a node Tbl.t;
  root : 'a node;
  probe : key;
  mutable cap : int;
  mutable used : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~capacity =
  let probe = { file = ""; off = 0 } in
  let rec root = { key = probe; value = None; charge = 0; prev = root; next = root } in
  {
    table = Tbl.create 256;
    root;
    probe;
    cap = capacity;
    used = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let unlink n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev

let push_front t n =
  n.prev <- t.root;
  n.next <- t.root.next;
  t.root.next.prev <- n;
  t.root.next <- n

let drop t n =
  unlink n;
  Tbl.remove t.table n.key;
  t.used <- t.used - n.charge

(* The node at [(file, off)]; raises [Not_found], which allocates
   nothing, where [find_opt] would allocate its [Some]. *)
let lookup t file off =
  t.probe.file <- file;
  t.probe.off <- off;
  Tbl.find t.table t.probe

let find t file off =
  match lookup t file off with
  | n ->
    t.hits <- t.hits + 1;
    unlink n;
    push_front t n;
    n.value
  | exception Not_found ->
    t.misses <- t.misses + 1;
    None

(* [used > cap >= 0] means the list is not empty. *)
let evict_until_fits t =
  while t.used > t.cap do
    drop t t.root.prev;
    t.evictions <- t.evictions + 1
  done

let remove t file off = match lookup t file off with n -> drop t n | exception Not_found -> ()

let insert t file off ~charge v =
  if charge < 0 then invalid_arg "Lru.insert: negative charge";
  if charge <= t.cap && t.cap > 0 then begin
    remove t file off;
    let n = { key = { file; off }; value = Some v; charge; prev = t.root; next = t.root } in
    Tbl.add t.table n.key n;
    push_front t n;
    t.used <- t.used + charge;
    evict_until_fits t
  end

let remove_file t file =
  let n = ref t.root.next and dropped = ref 0 in
  while !n != t.root do
    let node = !n in
    n := node.next;
    if String.equal node.key.file file then begin
      drop t node;
      incr dropped
    end
  done;
  !dropped

let capacity t = t.cap

let set_capacity t capacity =
  t.cap <- capacity;
  evict_until_fits t

let used t = t.used
let length t = Tbl.length t.table
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0
