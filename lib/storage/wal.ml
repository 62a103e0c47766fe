module Codec = Lsm_util.Codec
module Entry = Lsm_record.Entry

type t = Framed_log.writer

let create dev ~name = Framed_log.create dev ~cls:Io_stats.C_user_write name
let file_name_of_seq n = Printf.sprintf "wal-%06d.log" n

(* Accept exactly the names [file_name_of_seq] generates: an all-digit
   stem that formats back to the same name. Anything else — a stray
   "wal-backup", a truncated "wal-1", "wal-0x10.log", "wal-1_0.log" — is
   not ours to replay or delete, and must above all not abort recovery. *)
let seq_of_file_name name =
  let n = String.length name in
  if n > 8 && String.starts_with ~prefix:"wal-" name && String.ends_with ~suffix:".log" name
  then begin
    let stem = String.sub name 4 (n - 8) in
    if String.for_all (fun c -> c >= '0' && c <= '9') stem then
      match int_of_string_opt stem with
      | Some s when String.equal (file_name_of_seq s) name -> Some s
      | _ -> None
    else None
  end
  else None

let files dev =
  Device.list_files dev
  |> List.filter_map (fun n -> Option.map (fun s -> (s, n)) (seq_of_file_name n))
  |> List.sort compare

(* Payload: a varint entry count, then the encoded entries. *)
let rec encode_entries b = function
  | [] -> ()
  | e :: rest ->
    Entry.encode b e;
    encode_entries b rest

let encode_batch b entries =
  Codec.put_varint b (List.length entries);
  encode_entries b entries

(* Replay and salvage hand [f] the decoded batch, so they copy the
   payload out of the file's bytes first. *)
let decode_batch f data ~off ~len =
  let r = Codec.reader (String.sub data off len) in
  let count = Codec.get_varint r in
  f (List.init count (fun _ -> Entry.decode r))

(* The scrub's check: step over a batch where it lies, raising
   [Codec.Corrupt] wherever [decode_batch] would (a bad count, seqno,
   kind or length, or an entry running past the payload) but building
   no entry. *)
let skip r ~stop n =
  if n < 0 || n > stop - r.Codec.pos then raise (Codec.Corrupt "entry runs past its record");
  r.pos <- r.pos + n

let rec skip_entries r ~stop = function
  | 0 -> ()
  | n ->
    ignore (Codec.get_varint r);
    ignore (Entry.kind_of_int (Codec.get_u8 r));
    skip r ~stop (Codec.get_varint r);
    skip r ~stop (Codec.get_varint r);
    skip_entries r ~stop (n - 1)

let check_batch data ~off ~len =
  let r = Codec.reader ~pos:off data and stop = off + len in
  skip_entries r ~stop (Codec.get_varint r);
  if r.pos > stop then raise (Codec.Corrupt "batch runs past its record")

let append t ?(sync = true) = function
  | [] -> ()
  | entries ->
    Framed_log.append t encode_batch entries;
    if sync then Framed_log.sync t

let sync = Framed_log.sync
let close = Framed_log.close
let replay dev ~name f = Framed_log.replay dev ~name (decode_batch f)
let salvage dev ~name f = Framed_log.salvage dev ~name (decode_batch f)

let verify dev =
  List.concat_map
    (fun (_, name) ->
      match Framed_log.salvage dev ~name check_batch with
      | _, gaps -> Framed_log.findings ~name gaps
      | exception Not_found -> [])
    (files dev)
