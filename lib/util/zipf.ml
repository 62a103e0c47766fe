type t = {
  n : int;
  theta : float;
  alpha : float;
  zetan : float;
  eta : float;
  zeta2 : float;
}

let zeta n theta =
  let sum = ref 0.0 in
  for i = 1 to n do
    sum := !sum +. (1.0 /. Float.pow (float_of_int i) theta)
  done;
  !sum

let create ?(theta = 0.99) n =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  if theta <= 0.0 || theta >= 1.0 then invalid_arg "Zipf.create: theta must be in (0,1)";
  let zetan = zeta n theta in
  let zeta2 = zeta 2 theta in
  let alpha = 1.0 /. (1.0 -. theta) in
  let eta =
    (1.0 -. Float.pow (2.0 /. float_of_int n) (1.0 -. theta))
    /. (1.0 -. (zeta2 /. zetan))
  in
  { n; theta; alpha; zetan; eta; zeta2 }

(* Gray et al.'s algorithm, as used in YCSB's ZipfianGenerator. *)
let next t rng =
  let u = Rng.float rng 1.0 in
  let uz = u *. t.zetan in
  if uz < 1.0 then 0
  else if uz < 1.0 +. Float.pow 0.5 t.theta then 1
  else
    let rank =
      int_of_float
        (float_of_int t.n *. Float.pow ((t.eta *. u) -. t.eta +. 1.0) t.alpha)
    in
    if rank >= t.n then t.n - 1 else rank

let next_scrambled t rng =
  let rank = next t rng in
  let h = Hashing.splitmix64 (Int64.of_int rank) in
  Int64.to_int h land max_int mod t.n
