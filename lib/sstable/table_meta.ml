module Codec = Lsm_util.Codec
module Comparator = Lsm_util.Comparator

type t = {
  file_id : int;
  file_name : string;
  size : int;
  entries : int;
  point_tombstones : int;
  range_tombstones : int;
  min_key : string;
  max_key : string;
  min_seqno : int;
  max_seqno : int;
  created_at : int;
  data_bytes : int;
  ecc : (int * int) option;
}

let of_props ~file_id ~file_name ~size (p : Sstable.Props.t) =
  {
    file_id;
    file_name;
    size;
    ecc = (match p.ecc with Some (k, m, _) -> Some (k, m) | None -> None);
    entries = p.entries;
    point_tombstones = p.point_tombstones;
    range_tombstones = List.length p.range_tombstones;
    min_key = p.min_key;
    max_key = p.max_key;
    min_seqno = p.min_seqno;
    max_seqno = p.max_seqno;
    created_at = p.created_at;
    data_bytes = p.data_bytes;
  }

let file_name_of_id id = Printf.sprintf "%06d.sst" id

(* Accept exactly the names [file_name_of_id] generates: an all-digit
   stem that formats back to the same name ("notes.sst", "-00001.sst"
   and "0x0010.sst" are not tables of ours). *)
let id_of_file_name name =
  let n = String.length name in
  if n >= 10 && String.ends_with ~suffix:".sst" name then begin
    let stem = String.sub name 0 (n - 4) in
    if String.for_all (fun c -> c >= '0' && c <= '9') stem then
      match int_of_string_opt stem with
      | Some id when String.equal (file_name_of_id id) name -> Some id
      | _ -> None
    else None
  end
  else None

let overlaps (c : Comparator.t) t ~lo ~hi =
  c.compare t.min_key hi <= 0 && c.compare lo t.max_key <= 0

let overlaps_file c a b = overlaps c a ~lo:b.min_key ~hi:b.max_key

let tombstone_density t =
  if t.entries = 0 then 0.0
  else float_of_int (t.point_tombstones + t.range_tombstones) /. float_of_int t.entries

let encode b t =
  Codec.put_varint b t.file_id;
  Codec.put_lp_string b t.file_name;
  Codec.put_varint b t.size;
  Codec.put_varint b t.entries;
  Codec.put_varint b t.point_tombstones;
  Codec.put_varint b t.range_tombstones;
  Codec.put_lp_string b t.min_key;
  Codec.put_lp_string b t.max_key;
  Codec.put_varint b t.min_seqno;
  Codec.put_varint b t.max_seqno;
  Codec.put_varint b t.created_at;
  Codec.put_varint b t.data_bytes

let decode r =
  let file_id = Codec.get_varint r in
  let file_name = Codec.get_lp_string r in
  let size = Codec.get_varint r in
  let entries = Codec.get_varint r in
  let point_tombstones = Codec.get_varint r in
  let range_tombstones = Codec.get_varint r in
  let min_key = Codec.get_lp_string r in
  let max_key = Codec.get_lp_string r in
  let min_seqno = Codec.get_varint r in
  let max_seqno = Codec.get_varint r in
  let created_at = Codec.get_varint r in
  let data_bytes = Codec.get_varint r in
  {
    file_id;
    file_name;
    size;
    ecc = None;
    entries;
    point_tombstones;
    range_tombstones;
    min_key;
    max_key;
    min_seqno;
    max_seqno;
    created_at;
    data_bytes;
  }

let pp ppf t =
  Format.fprintf ppf "#%d[%S..%S %dB %de %dt@%d]" t.file_id t.min_key t.max_key t.size
    t.entries t.point_tombstones t.created_at
