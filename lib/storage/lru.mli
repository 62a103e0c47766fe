(** The one LRU under the engine's caches: entries keyed by a file name
    and an offset, each charged against a budget.

    {!Block_cache} keeps one per shard, charged in bytes; the table
    cache keeps one of readers, each charged 1 at offset 0. This module
    owns the hash table, the recency list, the charge accounting and the
    hit, miss and eviction counts. It takes no lock: its owner holds its
    own mutex around every call.

    The recency list is circular through one sentinel, so no link is an
    [option]. A value is stored as [Some v] once, at {!insert}, and a
    {!find} probes with one key record the table reuses: a hit
    allocates nothing. *)

type 'a t

val create : capacity:int -> 'a t
(** An empty LRU with a budget of [capacity >= 0]. *)

val find : 'a t -> string -> int -> 'a option
(** [find t file off] counts a hit and makes the entry most recently
    used, or counts a miss. *)

val insert : 'a t -> string -> int -> charge:int -> 'a -> unit
(** [insert t file off ~charge v] replaces any entry at that key with
    [v], then evicts least recently used entries until the charges fit
    the capacity. An entry charged more than the capacity, or any entry
    when the capacity is 0, is dropped and leaves the cache as it was.
    @raise Invalid_argument if [charge] is negative. *)

val remove : 'a t -> string -> int -> unit
(** Drop one entry if present. Not counted as an eviction. *)

val remove_file : 'a t -> string -> int
(** Drop every entry of a file; returns how many. Not counted as
    evictions. *)

val capacity : 'a t -> int

val set_capacity : 'a t -> int -> unit
(** Set the budget ([>= 0]) and evict down to it. *)

val used : 'a t -> int
(** Sum of the charges of the entries held. *)

val length : 'a t -> int

(** {1 Statistics} *)

val hits : 'a t -> int
val misses : 'a t -> int

val evictions : 'a t -> int
(** Entries dropped to fit the capacity. *)

val reset_stats : 'a t -> unit
