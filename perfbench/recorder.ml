module A = Bigarray.Array1

(* A sample is stored as [value * max_classes + cls], so sorting the
   array sorts every class by value at once. *)
let max_classes = 3

type t = {
  samples : (int, Bigarray.int_elt, Bigarray.c_layout) A.t;
  mutable n : int;
  counts : int array;
  mutable sorted : bool;
}

let create capacity =
  if capacity < 1 then invalid_arg "Recorder.create: capacity must be >= 1";
  {
    samples = A.create Bigarray.int Bigarray.c_layout capacity;
    n = 0;
    counts = Array.make max_classes 0;
    sorted = true;
  }

let add t ~cls v =
  if t.n >= A.dim t.samples then invalid_arg "Recorder.add: full";
  if cls < 0 || cls >= max_classes || v < 0 then invalid_arg "Recorder.add: out of range";
  A.unsafe_set t.samples t.n ((v * max_classes) + cls);
  t.n <- t.n + 1;
  t.counts.(cls) <- t.counts.(cls) + 1;
  t.sorted <- false

let count t ~cls = t.counts.(cls)

let clear t =
  t.n <- 0;
  Array.fill t.counts 0 max_classes 0;
  t.sorted <- true

(* Sorted once, on the first query after the last [add]. *)
let sort t =
  if not t.sorted then begin
    let a = Array.init t.n (A.unsafe_get t.samples) in
    Array.sort Int.compare a;
    Array.iteri (A.unsafe_set t.samples) a;
    t.sorted <- true
  end

let percentile t ~cls p =
  let n = t.counts.(cls) in
  if n = 0 then invalid_arg "Recorder.percentile: no samples";
  if not (p > 0. && p <= 100.) then invalid_arg "Recorder.percentile: p out of range";
  sort t;
  let rank = max 1 (min n (int_of_float (Float.ceil (p /. 100. *. float_of_int n)))) in
  let rec find i seen =
    let x = A.unsafe_get t.samples i in
    let seen = if x mod max_classes = cls then seen + 1 else seen in
    if seen = rank then x / max_classes else find (i + 1) seen
  in
  find 0 0
