(** Monkey's optimal filter-memory allocation (Dayan et al., §2.1.3).

    Given the number of entries per level and a total memory budget for
    filters, Monkey chooses per-level false-positive rates that minimize
    the {e expected number of superfluous probes} for a point lookup,
    instead of giving every level the same bits-per-key.

    The optimum equalizes marginal benefit: the Lagrange condition gives
    [p_i ∝ n_i] (false-positive rate proportional to level entry count),
    clamped at [p_i = 1] for levels whose filter is not worth any memory —
    deep, huge levels get no filter at all, shallow levels get more bits
    than uniform. We solve for the multiplier numerically. *)

val allocate : total_bits:float -> level_entries:int array -> float array
(** [allocate ~total_bits ~level_entries] returns the bits-per-key for each
    level (0 where the level should carry no filter). The sum of
    [bits.(i) *. entries.(i)] is ≤ [total_bits] (within solver tolerance).
    Levels with zero entries get 0. *)

(* lsm-lint: allow R14 — reference allocation Monkey is tested against *)
val uniform : total_bits:float -> level_entries:int array -> float array
(** The baseline: same bits-per-key everywhere (what E3 compares against). *)

(* lsm-lint: allow R14 — the cost both allocations are compared by in the Monkey test *)
val expected_probes : fprs:float array -> float
(** Expected superfluous run probes of a zero-result lookup: [Σ p_i]
    (one term per run; for leveling, one run per level). *)

val fpr_of_bits : float -> float
(** [0.6185 ^ bits_per_key], 1.0 at zero bits. *)
