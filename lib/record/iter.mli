(** The cursor interface shared by memtables, SSTables, and merge logic.

    An iterator yields entries in [Entry.compare] order (user key ascending,
    sequence number descending within a key). A freshly created iterator is
    positioned before the first entry; call {!seek_to_first} or {!seek}
    before reading.

    A positioned iterator offers its current record two ways: {!t.entry}
    materializes it as an [Entry.t], and {!t.view} shows it as a
    {!view}: the user key, seqno, kind and a window onto the value where
    it lies, with nothing copied. Compaction moves records on views. *)

type view = {
  mutable key : string;  (** the user key, materialized at most once per record *)
  mutable seqno : int;
  mutable kind : Entry.kind;
  mutable vbase : string;
      (** the value is [vbase.[voff .. voff + vlen)]: a window that may lie in
          a buffer the source reuses for its next block *)
  mutable voff : int;
  mutable vlen : int;
}
(** The current record of a source, owned and overwritten by it. A view
    is valid only until its iterator moves: whoever keeps a record past
    that copies it ({!view_entry}). *)

type t = {
  valid : unit -> bool;  (** positioned on an entry? *)
  entry : unit -> Entry.t;  (** current entry; undefined when not valid *)
  view : unit -> view;
      (** current record, unmaterialized; undefined when not valid *)
  next : unit -> unit;  (** advance; no-op when already exhausted *)
  seek : string -> unit;
      (** position on the first entry with user key >= target *)
  seek_to_first : unit -> unit;
}

val new_view : unit -> view

val fill_view : view -> Entry.t -> unit
(** Point the view at an entry's fields (the value window is the whole
    value); nothing is copied. *)

val view_value : view -> string
(** The value's bytes: the base itself when the window is all of it,
    else a copy. *)

val view_entry : view -> Entry.t
(** Materialize the record: shares the key, copies the value window
    (see {!view_value}). *)

val entry_view : (unit -> Entry.t) -> unit -> view
(** [entry_view entry] is a {!t.view} for a source that holds entries:
    each call refills one view from [entry ()]. *)

val of_sorted_array : Lsm_util.Comparator.t -> Entry.t array -> t
(** The array must already be sorted by [Entry.compare]. *)

val of_sorted_list : Lsm_util.Comparator.t -> Entry.t list -> t

val empty : t

val to_list : t -> Entry.t list
(** Rewinds, then drains the iterator. *)

val merge : Lsm_util.Comparator.t -> t list -> t
(** Heap-based k-way merge of arbitrarily overlapping iterators. Each
    source's current view is fetched once per move of that source and
    cached, so the heap orders records on (key, seqno, kind) by array
    reads and materializes no value; [entry] and [view] are the top
    source's. Ties on (key, seqno, kind) are broken by list position, so
    pass newer sources first for deterministic behaviour on exact
    duplicates. *)
