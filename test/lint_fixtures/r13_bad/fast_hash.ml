(* Negative fixture for R13: C stubs bound outside crc32c.ml. A %
   primitive is the compiler's own and stays allowed. *)

external get32u : string -> int -> int32 = "%caml_string_get32u"
external murmur : string -> int = "fast_murmur"

module Simd = struct
  external popcount : (int[@untagged]) -> (int[@untagged]) = "simd_popcount_byte" "simd_popcount"
  [@@noalloc]
end

module type CLOCK = sig
  external now : unit -> float = "clock_now"
end
