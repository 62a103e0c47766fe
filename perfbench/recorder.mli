(** Exact latency recorder: every sample is kept, so a percentile is an
    observed value rather than a histogram bucket bound.

    Samples of all operation classes share one preallocated off-heap
    array, sized once before the store is built, so the recorder neither
    grows nor adds to the OCaml heap while a workload runs. *)

type t

val max_classes : int

val create : int -> t
(** [create capacity] holds up to [capacity] samples in total.
    @raise Invalid_argument if [capacity < 1]. *)

val add : t -> cls:int -> int -> unit
(** Record one non-negative sample (nanoseconds) of class [cls], in
    [0, max_classes). @raise Invalid_argument when the recorder is full
    or an argument is out of range. *)

val count : t -> cls:int -> int

val percentile : t -> cls:int -> float -> int
(** [percentile t ~cls p], [p] in (0, 100]: the nearest-rank value, i.e.
    the smallest sample of class [cls] with at least [p]% of that class's
    samples at or below it. @raise Invalid_argument when the class has no
    samples or [p] is out of range. *)

val clear : t -> unit
