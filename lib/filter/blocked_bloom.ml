module Codec = Lsm_util.Codec
module Hashing = Lsm_util.Hashing

let block_bytes = 64
let block_bits = block_bytes * 8

type t = { bits : Bytes.t; nblocks : int; k : int }

let create ~bits_per_key ~expected =
  if bits_per_key <= 0.0 then { bits = Bytes.empty; nblocks = 0; k = 0 }
  else begin
    let nbits = max block_bits (int_of_float (ceil (bits_per_key *. float_of_int (max 1 expected)))) in
    let nblocks = (nbits + block_bits - 1) / block_bits in
    let k = max 1 (min 30 (int_of_float (Float.round (bits_per_key *. Float.log 2.0)))) in
    { bits = Bytes.make (nblocks * block_bytes) '\000'; nblocks; k }
  end

let set_bit b i =
  let byte = i lsr 3 and bit = i land 7 in
  Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lor (1 lsl bit)))

let get_bit b i =
  let byte = i lsr 3 and bit = i land 7 in
  Char.code (Bytes.get b byte) land (1 lsl bit) <> 0

(* [h1] picks the 64-byte block, [h2] the probes inside it. As in
   {!Bloom}, the pair arrives through [Hashing.double_hash_with] and a
   top-level continuation, so a probe allocates nothing. *)
let add_hashed t h1 h2 =
  let base = h1 mod t.nblocks * block_bits in
  let pos = ref (h2 land (block_bits - 1)) in
  let step = ((h2 lsr 9) lor 1) land (block_bits - 1) in
  for _ = 1 to t.k do
    set_bit t.bits (base + !pos);
    pos := (!pos + step) land (block_bits - 1)
  done

let add t key = if t.nblocks > 0 then Hashing.double_hash_with key t add_hashed

let mem_hashed t h1 h2 =
  let base = h1 mod t.nblocks * block_bits in
  let pos = ref (h2 land (block_bits - 1)) in
  let step = ((h2 lsr 9) lor 1) land (block_bits - 1) in
  let i = ref 1 in
  while !i <= t.k && get_bit t.bits (base + !pos) do
    pos := (!pos + step) land (block_bits - 1);
    incr i
  done;
  !i > t.k

let mem t key = t.nblocks = 0 || Hashing.double_hash_with key t mem_hashed

let bit_count t = t.nblocks * block_bits

let encode t =
  let b = Buffer.create (Bytes.length t.bits + 16) in
  Codec.put_varint b t.nblocks;
  Codec.put_varint b t.k;
  Buffer.add_bytes b t.bits;
  Buffer.contents b

let decode s =
  let r = Codec.reader s in
  let nblocks = Codec.get_varint r in
  let k = Codec.get_varint r in
  let bits = Bytes.of_string (Codec.get_raw r (nblocks * block_bytes)) in
  { bits; nblocks; k }
