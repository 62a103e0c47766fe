module Codec = Lsm_util.Codec
module Hashing = Lsm_util.Hashing

type t = { bits : Bytes.t; nbits : int; k : int }

let probes_for bits_per_key =
  let k = int_of_float (Float.round (bits_per_key *. Float.log 2.0)) in
  max 1 (min 30 k)

let create ~bits_per_key ~expected =
  if bits_per_key <= 0.0 then { bits = Bytes.empty; nbits = 0; k = 0 }
  else begin
    let nbits = max 64 (int_of_float (ceil (bits_per_key *. float_of_int (max 1 expected)))) in
    { bits = Bytes.make ((nbits + 7) / 8) '\000'; nbits; k = probes_for bits_per_key }
  end

let set_bit b i =
  let byte = i lsr 3 and bit = i land 7 in
  Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lor (1 lsl bit)))

let get_bit b i =
  let byte = i lsr 3 and bit = i land 7 in
  Char.code (Bytes.get b byte) land (1 lsl bit) <> 0

(* Probe positions follow Kirsch–Mitzenmacher double hashing. [add] and
   [mem] take the hash pair through [Hashing.double_hash_with] and a
   top-level continuation, and loop with [while] over local refs: a probe
   builds no tuple and no closure. *)
let add_hashed t h1 h2 =
  let pos = ref (h1 mod t.nbits) in
  let step = h2 mod t.nbits in
  for _ = 1 to t.k do
    set_bit t.bits !pos;
    pos := !pos + step;
    if !pos >= t.nbits then pos := !pos - t.nbits
  done

let add t key = if t.nbits > 0 then Hashing.double_hash_with key t add_hashed

let mem_hashed t h1 h2 =
  let pos = ref (h1 mod t.nbits) in
  let step = h2 mod t.nbits in
  let i = ref 1 in
  while !i <= t.k && get_bit t.bits !pos do
    pos := !pos + step;
    if !pos >= t.nbits then pos := !pos - t.nbits;
    incr i
  done;
  !i > t.k

let mem t key = t.nbits = 0 || Hashing.double_hash_with key t mem_hashed

let bit_count t = t.nbits

let encode t =
  let b = Buffer.create (Bytes.length t.bits + 16) in
  Codec.put_varint b t.nbits;
  Codec.put_varint b t.k;
  Buffer.add_bytes b t.bits;
  Buffer.contents b

let decode s =
  let r = Codec.reader s in
  let nbits = Codec.get_varint r in
  let k = Codec.get_varint r in
  let bytes_needed = (nbits + 7) / 8 in
  let bits = Bytes.of_string (Codec.get_raw r bytes_needed) in
  { bits; nbits; k }

let theoretical_fpr ~bits_per_key =
  if bits_per_key <= 0.0 then 1.0 else Float.pow 0.6185 bits_per_key
