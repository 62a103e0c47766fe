module Codec = Lsm_util.Codec

type policy =
  | No_filter
  | Bloom of { bits_per_key : float }
  | Blocked_bloom of { bits_per_key : float }
  | Cuckoo of { fingerprint_bits : int }
  | Xor

let policy_name = function
  | No_filter -> "none"
  | Bloom _ -> "bloom"
  | Blocked_bloom _ -> "blocked-bloom"
  | Cuckoo _ -> "cuckoo"
  | Xor -> "xor"

let default = Bloom { bits_per_key = 10.0 }

type xor_state = Collecting of string list ref | Built of Xor_filter.t

type impl =
  | I_none
  | I_bloom of Bloom.t
  | I_blocked of Blocked_bloom.t
  | I_cuckoo of Cuckoo.t
  | I_xor of xor_state ref

type t = { pol : policy; impl : impl }

let create pol ~expected =
  let impl =
    match pol with
    | No_filter -> I_none
    | Bloom { bits_per_key } -> I_bloom (Bloom.create ~bits_per_key ~expected)
    | Blocked_bloom { bits_per_key } -> I_blocked (Blocked_bloom.create ~bits_per_key ~expected)
    | Cuckoo { fingerprint_bits } ->
      I_cuckoo (Cuckoo.create ~fingerprint_bits ~expected ())
    | Xor -> I_xor (ref (Collecting (ref [])))
  in
  { pol; impl }

let add t key =
  match t.impl with
  | I_none -> ()
  | I_bloom f -> Bloom.add f key
  | I_blocked f -> Blocked_bloom.add f key
  | I_cuckoo f ->
    (* A full cuckoo table degrades to "maybe" for new keys: acceptable,
       since [mem] never reports a false negative for inserted keys. *)
    ignore (Cuckoo.add f key)
  | I_xor st -> (
    match !st with
    | Collecting keys -> keys := key :: !keys
    | Built _ -> invalid_arg "Point_filter.add: xor filter already built")

let force_xor st =
  match !st with
  | Built f -> f
  | Collecting keys ->
    let f = Xor_filter.build !keys in
    st := Built f;
    f

let mem t key =
  match t.impl with
  | I_none -> true
  | I_bloom f -> Bloom.mem f key
  | I_blocked f -> Blocked_bloom.mem f key
  | I_cuckoo f -> Cuckoo.mem f key
  | I_xor st -> Xor_filter.mem (force_xor st) key

let bit_count t =
  match t.impl with
  | I_none -> 0
  | I_bloom f -> Bloom.bit_count f
  | I_blocked f -> Blocked_bloom.bit_count f
  | I_cuckoo f -> Cuckoo.bit_count f
  | I_xor st -> Xor_filter.bit_count (force_xor st)

let tag = function
  | I_none -> 0
  | I_bloom _ -> 1
  | I_blocked _ -> 2
  | I_cuckoo _ -> 3
  | I_xor _ -> 4

let encode t =
  let body =
    match t.impl with
    | I_none -> ""
    | I_bloom f -> Bloom.encode f
    | I_blocked f -> Blocked_bloom.encode f
    | I_cuckoo f -> Cuckoo.encode f
    | I_xor st -> Xor_filter.encode (force_xor st)
  in
  let b = Buffer.create (String.length body + 8) in
  Codec.put_u8 b (tag t.impl);
  (match t.pol with
  | No_filter -> Codec.put_u32 b 0
  | Bloom { bits_per_key } | Blocked_bloom { bits_per_key } ->
    Codec.put_u32 b (int_of_float (bits_per_key *. 1000.0))
  | Cuckoo { fingerprint_bits } -> Codec.put_u32 b fingerprint_bits
  | Xor -> Codec.put_u32 b 0);
  Buffer.add_string b body;
  Buffer.contents b

let decode s =
  let r = Codec.reader s in
  let tag = Codec.get_u8 r in
  let param = Codec.get_u32 r in
  let body = Codec.get_raw r (Codec.remaining r) in
  match tag with
  | 0 -> { pol = No_filter; impl = I_none }
  | 1 ->
    {
      pol = Bloom { bits_per_key = float_of_int param /. 1000.0 };
      impl = I_bloom (Bloom.decode body);
    }
  | 2 ->
    {
      pol = Blocked_bloom { bits_per_key = float_of_int param /. 1000.0 };
      impl = I_blocked (Blocked_bloom.decode body);
    }
  | 3 ->
    { pol = Cuckoo { fingerprint_bits = param }; impl = I_cuckoo (Cuckoo.decode body) }
  | 4 -> { pol = Xor; impl = I_xor (ref (Built (Xor_filter.decode body))) }
  | n -> raise (Codec.Corrupt (Printf.sprintf "unknown filter tag %d" n))
