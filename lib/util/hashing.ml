(* Every function here sits under filter probes, memtable hash buckets
   and shard routing, so the 64-bit state must stay unboxed: a [for]
   loop over a local ref (which the compiler keeps in a register), not a
   [String.iter] closure over a boxed [Int64 ref], and [@inline] helpers
   so no intermediate [int64] crosses a call boundary. *)

let[@inline] splitmix64 z =
  let z = Int64.add z 0x9e3779b97f4a7c15L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i)))) 0x100000001b3L
  done;
  !h

let string64 ?(seed = 0L) s = splitmix64 (Int64.logxor (fnv1a64 s) seed)

let bucket ~buckets key = Int64.to_int (splitmix64 (fnv1a64 key)) land max_int mod buckets

let mask62 = (1 lsl 62) - 1

let double_hash_with s x k =
  let h = splitmix64 (fnv1a64 s) in
  k x (Int64.to_int h land mask62) (Int64.to_int (splitmix64 h) land mask62 lor 1)

let double_hash s = double_hash_with s () (fun () h1 h2 -> (h1, h2))

let fingerprint s ~bits =
  if bits < 1 || bits > 30 then invalid_arg "Hashing.fingerprint: bits out of range";
  let h = Int64.to_int (splitmix64 (Int64.logxor (fnv1a64 s) 0x5bd1e995L)) in
  let fp = (h lsr 7) land ((1 lsl bits) - 1) in
  if fp = 0 then 1 else fp
