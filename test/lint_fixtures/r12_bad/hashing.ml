(* R12 fixture: the boxing hash loop on the filter probe path. Parsed,
   never compiled. *)

let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  (* one finding: a closure per call over a boxed int64 ref *)
  String.iter (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L) s;
  !h
