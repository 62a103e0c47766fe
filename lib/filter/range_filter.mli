(** Unified range-filter front-end: the "which range filter?" knob of
    §2.1.3. Built once per sorted run from its full key set; probed by
    scans before the run's iterator is opened. *)

type policy =
  | No_range_filter
  | Prefix of { prefix_len : int; bits_per_key : float }
  | Surf of { max_prefix : int; suffix_len : int }
  | Rosetta of { levels : int; bits_per_key : float }

type t

val build : policy -> keys:string list -> t
val may_overlap : t -> lo:string -> hi:string option -> bool
(** Overlap with [\[lo, hi)]. No false negatives for any policy. *)

val bit_count : t -> int
val encode : t -> string
val decode : string -> t
