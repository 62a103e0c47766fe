(* Positive fixture for R13: compiler primitives and plain signatures
   are not C stubs. *)

external get32u : string -> int -> int32 = "%caml_string_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"

module type S = sig
  val get : string -> int -> int
end
