(** User-key comparators and the key-manipulation helpers the SSTable
    index uses to keep fence pointers short. *)

type t = {
  name : string;
  compare : string -> string -> int;
}

val bytewise : t
(** Lexicographic comparison on bytes — the default everywhere. *)

val shortest_separator : t -> string -> string -> string
(** [shortest_separator c a b] with [compare a b < 0] is a short key [s]
    with [a <= s < b]; used as the fence key between two data blocks.
    Falls back to [a] when no shorter separator exists.
    Only meaningful for {!bytewise}; other comparators return [a]. *)

val short_successor : t -> string -> string
(** A short key [>= k]; used as the fence key after the last block. *)

val min_key : t -> string -> string -> string
val max_key : t -> string -> string -> string

val compare_sub : t -> string -> pos:int -> len:int -> string -> int
(** [compare_sub c s ~pos ~len b] compares the slice [s.[pos..pos+len)]
    against [b] under [c] — allocation-free for {!bytewise};
    custom comparators pay one substring copy.
    @raise Invalid_argument if the slice is out of bounds. *)

val compare_bytes : t -> Bytes.t -> len:int -> string -> int
(** [compare_bytes c buf ~len b] compares [buf[0..len)] against [b]
    under [c], allocation-free for {!bytewise}. This is the
    block cursor's key comparison: the current key lives in a reusable
    arena buffer and is never materialized just to be compared. *)
