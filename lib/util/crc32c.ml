(* CRC-32C (Castagnoli, reflected polynomial 0x82f63b78): two kernels
   over one register, chosen once.

   The running CRC is a native [int] holding 32 significant bits: OCaml 5
   native code is 64-bit only, so an [int] carries every bit of it
   unboxed. Both kernels take the register after the pre-inversion and
   return it before the post-inversion, so [sub] owns the window check
   and the two inversions and a kernel only folds bytes.

   The hardware kernel is the SSE4.2 [crc32] instruction in
   crc32c_stubs.c. The portable kernel is slicing-by-8: [tables] is
   eight 256-entry tables laid out back to back, entry [k*256 + b] is
   the CRC register after feeding byte [b] followed by [k] zero bytes,
   so one step folds eight input bytes with eight lookups instead of
   eight dependent table walks. Table 0 is the classic bytewise table,
   which also finishes the unaligned tail. The portable kernel serves
   CPUs without the instruction and is the oracle the hardware kernel is
   tested against. *)

let polynomial = 0x82f63b78

let tables =
  let t = Array.make (8 * 256) 0 in
  for i = 0 to 255 do
    let c = ref i in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then (!c lsr 1) lxor polynomial else !c lsr 1
    done;
    t.(i) <- !c
  done;
  for k = 1 to 7 do
    for i = 0 to 255 do
      let prev = t.(((k - 1) * 256) + i) in
      t.((k * 256) + i) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

external get32u : string -> int -> int32 = "%caml_string_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"
external big_endian : unit -> bool = "%big_endian"

(* Unchecked little-endian 32-bit load, zero-extended into an [int].
   Callers have bounds-checked the whole window once. *)
let[@inline] le32 s i =
  let w = get32u s i in
  Int32.to_int (if big_endian () then swap32 w else w) land 0xffffffff

let[@inline] tab k b = Array.unsafe_get tables ((k lsl 8) lor b)

(* The slicing-by-8 fold of [s.[pos .. pos+len-1]] into register [c]. *)
let portable_fold c s ~pos ~len =
  let c = ref c in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let a = le32 s !i lxor !c in
    let b = le32 s (!i + 4) in
    c :=
      tab 7 (a land 0xff)
      lxor tab 6 ((a lsr 8) land 0xff)
      lxor tab 5 ((a lsr 16) land 0xff)
      lxor tab 4 (a lsr 24)
      lxor tab 3 (b land 0xff)
      lxor tab 2 ((b lsr 8) land 0xff)
      lxor tab 1 ((b lsr 16) land 0xff)
      lxor tab 0 (b lsr 24);
    i := !i + 8
  done;
  let stop = pos + len in
  while !i < stop do
    c := (!c lsr 8) lxor tab 0 ((!c lxor Char.code (String.unsafe_get s !i)) land 0xff);
    incr i
  done;
  !c

(* The same fold by the [crc32] instruction: unchecked, allocation
   free, no runtime lock; the window is checked by [sub]. *)
external hardware_fold :
  (int[@untagged]) -> string -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "lsm_crc32c_hw_sub_byte" "lsm_crc32c_hw_sub"
[@@noalloc]

external hardware_available : unit -> bool = "lsm_crc32c_hw_available" [@@noalloc]

let hardware = hardware_available ()

let[@inline] check_window s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32c.sub: out of bounds"

let[@inline] register init = lnot init land 0xffffffff
let[@inline] result c = c lxor 0xffffffff

let sub ?(init = 0) s ~pos ~len =
  check_window s ~pos ~len;
  let c = register init in
  result (if hardware then hardware_fold c s pos len else portable_fold c s ~pos ~len)

let portable_sub ?(init = 0) s ~pos ~len =
  check_window s ~pos ~len;
  result (portable_fold (register init) s ~pos ~len)

let string ?init s = sub ?init s ~pos:0 ~len:(String.length s)

let mask_delta = 0xa282ead8

(* Rotate right by 15 within 32 bits, then add the delta modulo 2^32. *)
let[@inline] mask crc = (((crc lsr 15) lor (crc lsl 17)) + mask_delta) land 0xffffffff
