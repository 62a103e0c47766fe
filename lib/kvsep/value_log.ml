module Codec = Lsm_util.Codec
module Device = Lsm_storage.Device
module Io_stats = Lsm_storage.Io_stats

type pointer = { segment : int; offset : int; length : int }

type t = {
  dev : Device.t;
  segment_bytes : int;
  mutable head : int;  (** active segment number *)
  mutable writer : Device.writer;
  mutable sealed : int list;  (** oldest first *)
  mutable closed : bool;
}

let seg_name n = Printf.sprintf "vlog-%06d" n

let open_log ?(segment_bytes = 1 lsl 20) dev =
  let existing =
    Device.list_files dev
    |> List.filter_map (fun name ->
           if String.length name = 11 && String.sub name 0 5 = "vlog-" then
             int_of_string_opt (String.sub name 5 6)
           else None)
    |> List.sort compare
  in
  let head = (match List.rev existing with n :: _ -> n + 1 | [] -> 0) in
  {
    dev;
    segment_bytes;
    head;
    writer = Device.open_writer dev ~cls:Io_stats.C_user_write (seg_name head);
    sealed = existing;
    closed = false;
  }

let rotate t =
  Device.close t.writer;
  t.sealed <- t.sealed @ [ t.head ];
  t.head <- t.head + 1;
  t.writer <- Device.open_writer t.dev ~cls:Io_stats.C_user_write (seg_name t.head)

let append t ~key ~value =
  if t.closed then invalid_arg "Value_log.append: closed";
  let b = Buffer.create (String.length key + String.length value + 10) in
  Codec.put_lp_string b key;
  Codec.put_lp_string b value;
  let record = Buffer.contents b in
  if Device.written t.writer + String.length record > t.segment_bytes
     && Device.written t.writer > 0
  then rotate t;
  let offset = Device.written t.writer in
  Device.append t.writer record;
  Device.sync t.writer;
  { segment = t.head; offset; length = String.length record }

let read t ~cls p =
  let raw = Device.read t.dev ~cls (seg_name p.segment) ~off:p.offset ~len:p.length in
  let r = Codec.reader raw in
  let key = Codec.get_lp_string r in
  let value = Codec.get_lp_string r in
  (key, value)

let segments t = t.sealed

let fold_segment t ~cls seg ~init ~f =
  let name = seg_name seg in
  let len = Device.size t.dev name in
  let data = Device.read t.dev ~cls name ~off:0 ~len in
  let r = Codec.reader data in
  let acc = ref init in
  while not (Codec.at_end r) do
    let offset = r.Codec.pos in
    let key = Codec.get_lp_string r in
    let value = Codec.get_lp_string r in
    let p = { segment = seg; offset; length = r.Codec.pos - offset } in
    acc := f !acc p key value
  done;
  !acc

let drop_segment t seg =
  Device.delete t.dev (seg_name seg);
  t.sealed <- List.filter (fun s -> s <> seg) t.sealed

let total_bytes t =
  List.fold_left
    (fun acc seg -> acc + Device.size t.dev (seg_name seg))
    (Device.written t.writer) t.sealed

let close t =
  if not t.closed then begin
    Device.close t.writer;
    t.closed <- true
  end

let encode_pointer p =
  let b = Buffer.create 12 in
  Codec.put_varint b p.segment;
  Codec.put_varint b p.offset;
  Codec.put_varint b p.length;
  Buffer.contents b

let decode_pointer s =
  let r = Codec.reader s in
  let segment = Codec.get_varint r in
  let offset = Codec.get_varint r in
  let length = Codec.get_varint r in
  { segment; offset; length }
