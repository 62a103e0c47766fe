(* Positive fixture for R13: the checksum module is the one place a C
   stub may be bound. *)

external hardware_fold :
  (int[@untagged]) -> string -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "lsm_crc32c_hw_sub_byte" "lsm_crc32c_hw_sub"
[@@noalloc]
