module Codec = Lsm_util.Codec
module Hashing = Lsm_util.Hashing

let slots_per_bucket = 4
let max_kicks = 500

type t = {
  table : int array;  (** nbuckets * slots_per_bucket fingerprints; 0 = empty *)
  nbuckets : int;  (** power of two *)
  fp_bits : int;
  mutable count : int;
  kick_rng : Lsm_util.Rng.t;
}

let next_pow2 n =
  let rec loop p = if p >= n then p else loop (p * 2) in
  loop 1

let create ?(fingerprint_bits = 12) ~expected () =
  if fingerprint_bits < 4 || fingerprint_bits > 30 then
    invalid_arg "Cuckoo.create: fingerprint_bits out of range";
  let buckets_needed = (max 1 expected * 100 / 95 / slots_per_bucket) + 1 in
  let nbuckets = next_pow2 buckets_needed in
  {
    table = Array.make (nbuckets * slots_per_bucket) 0;
    nbuckets;
    fp_bits = fingerprint_bits;
    count = 0;
    kick_rng = Lsm_util.Rng.create 0xcafe;
  }

let index_of t key =
  let h = Hashing.string64 key in
  Int64.to_int h land (t.nbuckets - 1)

let alt_index t i fp =
  (* Partial-key cuckoo: alternate bucket derived from fingerprint only. *)
  let h = Hashing.splitmix64 (Int64.of_int fp) in
  (i lxor (Int64.to_int h land max_int)) land (t.nbuckets - 1)

let slot t bucket s = t.table.((bucket * slots_per_bucket) + s)
let set_slot t bucket s v = t.table.((bucket * slots_per_bucket) + s) <- v

let try_insert_at t bucket fp =
  let rec loop s =
    if s >= slots_per_bucket then false
    else if slot t bucket s = 0 then begin
      set_slot t bucket s fp;
      true
    end
    else loop (s + 1)
  in
  loop 0

let add t key =
  let fp = Hashing.fingerprint key ~bits:t.fp_bits in
  let i1 = index_of t key in
  let i2 = alt_index t i1 fp in
  if try_insert_at t i1 fp || try_insert_at t i2 fp then begin
    t.count <- t.count + 1;
    true
  end
  else begin
    (* Relocate: evict a random slot and push its fingerprint onward. *)
    let bucket = ref (if Lsm_util.Rng.bool t.kick_rng then i1 else i2) in
    let fp = ref fp in
    let rec kick n =
      if n >= max_kicks then false
      else begin
        let s = Lsm_util.Rng.int t.kick_rng slots_per_bucket in
        let evicted = slot t !bucket s in
        set_slot t !bucket s !fp;
        fp := evicted;
        bucket := alt_index t !bucket !fp;
        if try_insert_at t !bucket !fp then true else kick (n + 1)
      end
    in
    if kick 0 then begin
      t.count <- t.count + 1;
      true
    end
    else false
  end

let bucket_has t bucket fp =
  let rec loop s = s < slots_per_bucket && (slot t bucket s = fp || loop (s + 1)) in
  loop 0

let mem t key =
  let fp = Hashing.fingerprint key ~bits:t.fp_bits in
  let i1 = index_of t key in
  bucket_has t i1 fp || bucket_has t (alt_index t i1 fp) fp

let bit_count t = Array.length t.table * t.fp_bits

let encode t =
  let b = Buffer.create (Array.length t.table * 2 + 16) in
  Codec.put_varint b t.nbuckets;
  Codec.put_varint b t.fp_bits;
  Codec.put_varint b t.count;
  Array.iter (fun fp -> Codec.put_varint b fp) t.table;
  Buffer.contents b

let decode s =
  let r = Codec.reader s in
  let nbuckets = Codec.get_varint r in
  let fp_bits = Codec.get_varint r in
  let count = Codec.get_varint r in
  let table = Array.init (nbuckets * slots_per_bucket) (fun _ -> Codec.get_varint r) in
  { table; nbuckets; fp_bits; count; kick_rng = Lsm_util.Rng.create 0xcafe }
