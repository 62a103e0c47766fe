(** The analytical I/O cost model of the LSM design space (§2.3).

    Follows the worst-case models of Monkey (Dayan et al., SIGMOD '17) and
    Dostoevsky (Dayan & Idreos, SIGMOD '18), generalized to per-level run
    caps so that leveling, tiering, lazy leveling, and the whole
    continuum between them (§2.3.1, LSM-Bush direction) are all points of
    one function.

    Units: costs are expected {e device page I/Os per operation};
    memory in bits; sizes in bytes. *)

type design = {
  layout : [ `Leveling | `Tiering | `Lazy_leveling ];
  size_ratio : int;  (** T >= 2 *)
  buffer_bytes : int;
  filter_bits_per_key : float;  (** 0 = no filters *)
}

type workload = {
  entries : int;  (** N: live entries in the tree *)
  entry_bytes : int;  (** average key+value size *)
  page_bytes : int;
  (* Operation mix — fractions of the total, should sum to 1: *)
  f_insert : float;
  f_point_lookup_hit : float;  (** lookups that find their key *)
  f_point_lookup_miss : float;  (** zero-result lookups *)
  f_short_scan : float;  (** selectivity ≲ 1 page per run *)
  f_long_scan : float;
  long_scan_pages : float;  (** pages of result data for a long scan *)
}

val mix_total : workload -> float

(* lsm-lint: allow R14 — a term of the closed-form model the tuners minimise; test_cost
   checks it against the paper's shape claims *)
val levels : design -> workload -> int
(** L = ceil(log_T (N·E / buffer)); at least 1. *)

(** {1 Per-operation costs} *)

val write_cost : design -> workload -> float
(** Amortized I/Os per insert: each entry is rewritten once per level
    (tiered) or up to T times per level (leveled), divided by entries per
    page: [Σ_l merges(l) / (B)] with [B = page/entry]. *)

val point_lookup_miss_cost : design -> workload -> float
(** Expected I/Os for a zero-result lookup: [Σ_runs fpr(run)] with
    Monkey-style per-level filter allocation of the same total budget. *)

(* lsm-lint: allow R14 — a term of the closed-form model the tuners minimise; test_cost
   checks it against the paper's shape claims *)
val short_scan_cost : design -> workload -> float
(** One page per sorted run (fence pointers make each run one seek). *)

val mixed_cost : design -> workload -> float
(** Expected I/Os per operation for the workload mix. *)

val describe_design : design -> string

(** {1 Generalized continuum} *)

val run_caps_cost :
  caps:int array -> size_ratio:int -> buffer_bytes:int -> filter_bits_per_key:float ->
  workload -> float * float
(** [(write_cost, zero-result lookup cost)] for an arbitrary per-level
    run-cap vector (E14's x-axis). A cap of [k] at level [l] means the
    level accumulates [k] runs before merging into [l+1]. *)
