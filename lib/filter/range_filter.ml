module Codec = Lsm_util.Codec

type policy =
  | No_range_filter
  | Prefix of { prefix_len : int; bits_per_key : float }
  | Surf of { max_prefix : int; suffix_len : int }
  | Rosetta of { levels : int; bits_per_key : float }

type impl =
  | I_none
  | I_prefix of Prefix_bloom.t
  | I_surf of Surf.t
  | I_rosetta of Rosetta.t

type t = impl

let build policy ~keys =
  match policy with
  | No_range_filter -> I_none
  | Prefix { prefix_len; bits_per_key } ->
    I_prefix (Prefix_bloom.build ~prefix_len ~bits_per_key ~keys)
  | Surf { max_prefix; suffix_len } -> I_surf (Surf.build ~max_prefix ~suffix_len ~keys ())
  | Rosetta { levels; bits_per_key } -> I_rosetta (Rosetta.build ~levels ~bits_per_key ~keys ())

let may_overlap t ~lo ~hi =
  match t with
  | I_none -> true
  | I_prefix f -> Prefix_bloom.may_overlap f ~lo ~hi
  | I_surf f -> Surf.may_overlap f ~lo ~hi
  | I_rosetta f -> Rosetta.may_overlap f ~lo ~hi

let bit_count = function
  | I_none -> 0
  | I_prefix f -> Prefix_bloom.bit_count f
  | I_surf f -> Surf.bit_count f
  | I_rosetta f -> Rosetta.bit_count f

let encode t =
  let tag, body =
    match t with
    | I_none -> (0, "")
    | I_prefix f -> (1, Prefix_bloom.encode f)
    | I_surf f -> (2, Surf.encode f)
    | I_rosetta f -> (3, Rosetta.encode f)
  in
  let b = Buffer.create (String.length body + 2) in
  Codec.put_u8 b tag;
  Buffer.add_string b body;
  Buffer.contents b

let decode s =
  let r = Codec.reader s in
  let tag = Codec.get_u8 r in
  let body = Codec.get_raw r (Codec.remaining r) in
  match tag with
  | 0 -> I_none
  | 1 -> I_prefix (Prefix_bloom.decode body)
  | 2 -> I_surf (Surf.decode body)
  | 3 -> I_rosetta (Rosetta.decode body)
  | n -> raise (Codec.Corrupt (Printf.sprintf "unknown range-filter tag %d" n))
