(** Robust tuning under workload uncertainty (§2.3.2, after Endure,
    Huynh et al.).

    Instead of tuning for the single expected workload ŵ, solve the
    min-max problem: pick the design minimizing the {e worst} cost over a
    neighborhood of workloads within L1 distance ρ of ŵ on the
    operation-mix simplex. For small ρ the robust choice coincides with
    the nominal one; as ρ grows, it backs away from designs whose
    advantage is brittle (e.g. extreme tiering when reads might appear). *)

(* lsm-lint: allow R14 — the uncertainty region robust_best searches; test_cost checks it
   holds the expected workload *)
val neighborhood : rho:float -> Model.workload -> Model.workload list
(** Deterministic sample of mix perturbations with ‖Δ‖₁ ≤ ρ (corner
    shifts between every pair of mix components, plus ŵ itself).
    Fractions stay non-negative and renormalized. *)

(* lsm-lint: allow R14 — the min-max objective robust_best minimises; test_cost compares
   designs under it *)
val worst_case_cost : rho:float -> Model.design -> Model.workload -> float
(** Max cost over the neighborhood. *)

val robust_best :
  ?size_ratios:int list ->
  ?memory_splits:float list ->
  rho:float ->
  total_memory_bits:float ->
  Model.workload ->
  Navigator.candidate
(** Argmin over the same grid as {!Navigator.best}, but of the worst-case
    cost; the reported [cost] is the worst-case one. *)
