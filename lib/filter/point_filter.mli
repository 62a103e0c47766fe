(** Unified point-filter front-end: the "which filter?" knob of §2.1.3.

    Every sorted run carries one of these; the engine probes it before
    touching the run's fence pointers. The serialized form is
    self-describing, so the SSTable reader reconstructs whichever filter
    the writer was configured with. *)

type policy =
  | No_filter
  | Bloom of { bits_per_key : float }
  | Blocked_bloom of { bits_per_key : float }
  | Cuckoo of { fingerprint_bits : int }
  | Xor  (** static 8-bit xor filter, ~9.84 bits/key; built lazily at
             {!encode} from the keys added so far *)

val policy_name : policy -> string

val default : policy
(** [Bloom { bits_per_key = 10.0 }] — the industry default. *)

type t

val create : policy -> expected:int -> t
val add : t -> string -> unit
val mem : t -> string -> bool
(** No false negatives for any policy. For [Xor], querying a builder-side
    instance triggers the (cached) static construction. *)

val bit_count : t -> int

val encode : t -> string
val decode : string -> t
(** @raise Lsm_util.Codec.Corrupt on malformed input. *)
