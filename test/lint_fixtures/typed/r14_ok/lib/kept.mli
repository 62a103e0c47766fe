val used : int -> int
(** Called by ../bin, one of R14's caller roots. *)

(* lsm-lint: allow R14 — fixture: an export kept for callers outside the analysed roots *)
val allowed : int -> int
