(* R12 fixture: the same allocation-heavy idioms in a module that is
   not on the block hot path — R12 is scoped by file name and must stay
   silent here. Parsed, never compiled. *)

let rebuild prev src pos shared unshared =
  String.sub prev 0 shared ^ String.sub src pos unshared

let join keys = String.concat "," keys

let drain buf n =
  let out = ref [] in
  for _ = 1 to n do
    out := Bytes.to_string buf :: !out
  done;
  !out

let sum s =
  let acc = ref 0 in
  String.iter (fun c -> acc := !acc + Char.code c) s;
  !acc
