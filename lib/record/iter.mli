(** The cursor interface shared by memtables, SSTables, and merge logic.

    An iterator yields entries in [Entry.compare] order (user key ascending,
    sequence number descending within a key). A freshly created iterator is
    positioned before the first entry; call {!seek_to_first} or {!seek}
    before reading. *)

type t = {
  valid : unit -> bool;  (** positioned on an entry? *)
  entry : unit -> Entry.t;  (** current entry; undefined when not valid *)
  next : unit -> unit;  (** advance; no-op when already exhausted *)
  seek : string -> unit;
      (** position on the first entry with user key >= target *)
  seek_to_first : unit -> unit;
}

val of_sorted_array : Lsm_util.Comparator.t -> Entry.t array -> t
(** The array must already be sorted by [Entry.compare]. *)

val of_sorted_list : Lsm_util.Comparator.t -> Entry.t list -> t

val empty : t

val to_list : t -> Entry.t list
(** Rewinds, then drains the iterator. *)

val merge : Lsm_util.Comparator.t -> t list -> t
(** Heap-based k-way merge of arbitrarily overlapping iterators. Each
    source's current entry is fetched once per move of that source and
    cached, so [entry] is an array read. Ties on (key, seqno, kind) are
    broken by list position, so pass newer sources first for
    deterministic behaviour on exact duplicates. *)
