(* Three exports R14 must flag. *)

val unused : int -> int
(** Used nowhere. *)

val internal : int -> int
(** Used only inside this module. *)

val outside_only : int -> int
(** Used only from ../outside, which is not one of R14's caller roots. *)
