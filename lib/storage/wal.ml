module Codec = Lsm_util.Codec
module Lsm_error = Lsm_util.Lsm_error
module Entry = Lsm_record.Entry

type t = { wname : string; writer : Device.writer; mutable closed : bool }

let create dev ~name =
  { wname = name; writer = Device.open_writer dev ~cls:Io_stats.C_user_write name; closed = false }

let seal_size = Framed_log.seal_size

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

let append t ?(sync = true) entries =
  if t.closed then invalid_arg "Wal.append: closed";
  match entries with
  | [] -> ()
  | entries ->
    let payload = Buffer.create 256 in
    Codec.put_varint payload (List.length entries);
    List.iter (Entry.encode payload) entries;
    Device.append t.writer (Framed_log.frame (Buffer.contents payload));
    if sync then Device.sync t.writer

let sync t =
  if t.closed then invalid_arg "Wal.sync: closed";
  Device.sync t.writer

let size t = Device.written t.writer
let name t = t.wname

let close t =
  if not t.closed then begin
    (* The seal is best-effort: a writer whose file was sealed by a crash
       plan (and the device revived) stays closable, as before. *)
    (try Device.append t.writer Framed_log.seal_frame
     with Invalid_argument _ -> ());
    Device.close t.writer;
    t.closed <- true
  end

let is_sealed dev ~name = Framed_log.is_sealed dev ~name

let decode_batch payload f =
  let pr = Codec.reader payload in
  let count = Codec.get_varint pr in
  let entries = List.init count (fun _ -> Entry.decode pr) in
  f entries

let replay dev ~name f =
  if not (Device.exists dev name) then 0
  else begin
    let data = Framed_log.load dev ~name in
    let sealed = Framed_log.is_seal_tail data in
    let batches, ending = Framed_log.scan data (fun ~off:_ p -> decode_batch p f) in
    (match (sealed, ending) with
    | true, Framed_log.Sealed_clean -> ()
    | false, Framed_log.Bad_frame off when Framed_log.bad_frame_is_rot data ~off ->
      (* Intact frames beyond the damage: mid-log bit rot (possibly with
         a rotted seal), not a crash-torn tail. Replaying the prefix and
         dropping acknowledged batches after it would be silent data
         loss; only [salvage] may truncate, and it reports doing so. *)
      raise
        (Lsm_error.corruption ~file:name ~offset:off
           "valid frames beyond a damaged frame: bit rot, not a torn tail")
    | false, _ -> ()
    | true, Framed_log.Bad_frame off ->
      raise
        (Lsm_error.corruption ~file:name ~offset:off
           "bad frame in cleanly-closed WAL")
    | true, Framed_log.Unsealed_end ->
      (* The tail is a valid seal frame yet the forward scan never reached
         it: frame boundaries are misaligned. *)
      raise (Lsm_error.corruption ~file:name "sealed WAL with misaligned frames"));
    batches
  end

let salvage dev ~name f =
  if not (Device.exists dev name) then (0, [])
  else begin
    let data = Framed_log.load dev ~name in
    let len = String.length data in
    let batches, gaps =
      Framed_log.scan_salvage data (fun ~off:_ p -> decode_batch p f)
    in
    (* A final gap reaching end-of-file with none of the rot tells is an
       ordinary crash-torn tail: recovery truncates those silently (as
       [replay] does), so it is not a disclosed loss. Every other gap is
       mid-log damage with intact batches beyond it — real, reportable
       loss. *)
    let gaps =
      List.filter
        (fun (g0, g1) -> g1 < len || Framed_log.bad_frame_is_rot data ~off:g0)
        gaps
    in
    (batches, gaps)
  end
