(* R12 fixture: the blessed hash loop — a for loop over a local ref,
   which stays unboxed. Parsed, never compiled. *)

let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i)))) 0x100000001b3L
  done;
  !h

(* a named function argument is not the closure idiom *)
let count_bytes f s = String.iter f s
