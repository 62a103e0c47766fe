(** Navigating the design space (§2.3.1): given a workload, search the
    (layout × size ratio × memory split) grid for the minimum-cost
    design — the mechanical version of "how to tune an LSM-tree". *)

type candidate = { design : Model.design; cost : float }

val enumerate :
  ?size_ratios:int list ->
  ?layouts:[ `Leveling | `Tiering | `Lazy_leveling ] list ->
  ?memory_splits:float list ->
  total_memory_bits:float ->
  Model.workload ->
  candidate list
(** All candidates, cheapest first. [memory_splits] are the fractions of
    [total_memory_bits] given to the buffer (the rest goes to filters) —
    the buffer/filter co-tuning of §2.1.3/§2.3.1. *)

val best :
  ?size_ratios:int list ->
  ?layouts:[ `Leveling | `Tiering | `Lazy_leveling ] list ->
  ?memory_splits:float list ->
  total_memory_bits:float ->
  Model.workload ->
  candidate

val pareto_frontier : candidate list -> write_cost:(Model.design -> float) ->
  read_cost:(Model.design -> float) -> candidate list
(** Subset not dominated on (write, read) — the tradeoff curve the
    tutorial draws (E9/E14 render it). *)
