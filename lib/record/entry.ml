module Codec = Lsm_util.Codec
module Comparator = Lsm_util.Comparator

type kind = Put | Delete | Single_delete | Range_delete | Merge

type t = { key : string; seqno : int; kind : kind; value : string }

let kind_to_int = function
  | Put -> 0
  | Delete -> 1
  | Single_delete -> 2
  | Range_delete -> 3
  | Merge -> 4

let kind_of_int = function
  | 0 -> Put
  | 1 -> Delete
  | 2 -> Single_delete
  | 3 -> Range_delete
  | 4 -> Merge
  | n -> raise (Codec.Corrupt (Printf.sprintf "unknown entry kind %d" n))

let put ~key ~seqno value = { key; seqno; kind = Put; value }
let delete ~key ~seqno = { key; seqno; kind = Delete; value = "" }

let compare (c : Comparator.t) a b =
  let k = c.compare a.key b.key in
  if k <> 0 then k
  else
    let s = Int.compare b.seqno a.seqno in
    if s <> 0 then s else Int.compare (kind_to_int a.kind) (kind_to_int b.kind)

let encode buf e =
  Codec.put_varint buf e.seqno;
  Codec.put_u8 buf (kind_to_int e.kind);
  Codec.put_lp_string buf e.key;
  Codec.put_lp_string buf e.value

let decode r =
  let seqno = Codec.get_varint r in
  let kind = kind_of_int (Codec.get_u8 r) in
  let key = Codec.get_lp_string r in
  let value = Codec.get_lp_string r in
  { key; seqno; kind; value }

let encoded_size_of ~seqno ~key_len ~value_len =
  Codec.varint_size seqno + 1 + Codec.varint_size key_len + key_len
  + Codec.varint_size value_len + value_len

(* Words-on-heap estimate: two boxed strings plus the record itself. *)
let footprint e = String.length e.key + String.length e.value + 48
