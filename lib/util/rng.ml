type t = { mutable state : int64 }

let create seed = { state = Hashing.splitmix64 (Int64.of_int seed) }

let int64 t =
  t.state <- Int64.add t.state 0x9e3779b97f4a7c15L;
  Hashing.splitmix64 t.state

let split t = { state = int64 t }

let mask62 = (1 lsl 62) - 1

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let limit = mask62 - (mask62 mod bound) in
  let rec loop () =
    let v = Int64.to_int (int64 t) land mask62 in
    if v >= limit then loop () else v mod bound
  in
  loop ()

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (int64 t) 1L = 1L
let bernoulli t p = float t 1.0 < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let bytes t n =
  String.init n (fun _ -> Char.chr (int t 256))
