module Codec = Lsm_util.Codec
module Crc32c = Lsm_util.Crc32c
module Lsm_error = Lsm_util.Lsm_error

(* The unsigned little-endian 32-bit word at [pos]. *)
let u32_at data pos = Int32.to_int (String.get_int32_le data pos) land 0xffffffff

(* Does the masked CRC of [data[pos, pos+len)] equal [stored]? Frames
   are verified where they lie; only a payload that passes is copied. *)
let crc_matches data ~pos ~len stored =
  Int.equal (Crc32c.mask (Crc32c.sub data ~pos ~len)) stored

(* Fill the 8-byte header of the frame whose payload already lies at
   [b[8, 8+plen)]: the payload is CRC'd where it lies. *)
let set_header b plen =
  Bytes.set_int32_le b 0
    (Int32.of_int (Crc32c.mask (Crc32c.sub (Bytes.unsafe_to_string b) ~pos:8 ~len:plen)));
  Bytes.set_int32_le b 4 (Int32.of_int plen)

(* A clean close stamps this sentinel as the final frame. No real WAL or
   manifest payload can collide with it: WAL payloads start with a varint
   entry count and a count of 0x4c ('L') would need far more than 7 more
   bytes of entry encodings; manifest payloads start with a varint
   added-files count with the same argument. *)
let seal_payload = "LSM!SEAL"
let seal_size = 8 + String.length seal_payload

let seal_frame =
  let b = Bytes.create seal_size in
  Bytes.blit_string seal_payload 0 b 8 (String.length seal_payload);
  set_header b (String.length seal_payload);
  Bytes.unsafe_to_string b

(* ---------------- writing ---------------- *)

type writer = {
  dw : Device.writer;
  payload : Buffer.t;  (** the record being encoded; cleared, never shrunk *)
  mutable frame : Bytes.t;  (** header + payload, grown to the largest record *)
  mutable closed : bool;
}

let create dev ~cls name =
  {
    dw = Device.open_writer dev ~cls name;
    payload = Buffer.create 256;
    frame = Bytes.create 264;
    closed = false;
  }

(* Encode the record into the reused payload buffer, blit it behind the
   header slot of the reused frame bytes, frame it in place, and hand
   the device one window of those bytes. The device copies what it
   keeps. *)
let append t encode x =
  if t.closed then invalid_arg "Framed_log.append: closed";
  Buffer.clear t.payload;
  encode t.payload x;
  let plen = Buffer.length t.payload in
  if Bytes.length t.frame < plen + 8 then
    t.frame <- Bytes.create (max (plen + 8) (2 * Bytes.length t.frame));
  Buffer.blit t.payload 0 t.frame 8 plen;
  set_header t.frame plen;
  Device.append_sub t.dw (Bytes.unsafe_to_string t.frame) ~off:0 ~len:(plen + 8)

let sync t = Device.sync t.dw

let close t =
  if not t.closed then begin
    (* The seal is best-effort: a writer whose file was sealed by a crash
       plan (and the device revived) stays closable. *)
    (try Device.append t.dw seal_frame with Invalid_argument _ -> ());
    Device.close t.dw;
    t.closed <- true
  end

(* ---------------- reading ---------------- *)

let load dev ~name =
  let len = Device.size dev name in
  Device.read dev ~cls:Io_stats.C_misc name ~off:0 ~len

(* The payload length in the header of the frame at [pos]. *)
let length_at data pos = u32_at data (pos + 4)

(* The payload length of the frame that starts at [pos] if it is
   complete and its CRC holds, else -1. *)
let valid_frame data pos =
  let len = String.length data in
  if len - pos < 8 then -1
  else begin
    let plen = length_at data pos in
    if plen <= len - pos - 8 && crc_matches data ~pos:(pos + 8) ~len:plen (u32_at data pos)
    then plen
    else -1
  end

(* Is the payload at [data[pos, pos+plen)] the seal's? The seal payload
   is 8 bytes, compared in place as one int64. *)
let is_seal data pos plen =
  plen = String.length seal_payload
  && String.get_int64_le data pos = String.get_int64_le seal_payload 0

(* Offset of the first complete, CRC-valid, non-empty frame strictly
   after [off]. The probe slides byte by byte, so it re-synchronizes
   even though a damaged frame's length field is untrustworthy; a false
   positive needs four arbitrary bytes to match a CRC-32C — 2^-32 per
   candidate offset. *)
let find_frame_after data ~off =
  let len = String.length data in
  let rec probe pos =
    if pos + 8 > len then None
    else if valid_frame data pos > 0 then Some pos
    else probe (pos + 1)
  in
  probe (off + 1)

(* Walk the frames in order, calling [f data ~off ~len] on the payload
   window of each valid non-seal frame; nothing is copied. At an
   undecodable frame (bad CRC, cut short, or a payload [f] rejects with
   [Codec.Corrupt]) a [strict] walk stops, a tolerant one
   skips to the next decodable frame; either way the skipped range is
   recorded. A seal ends the walk; bytes after it are a gap. Returns the
   frames delivered, the gaps in file order, and whether the walk ended
   at a seal. *)
let walk data ~strict f =
  let len = String.length data in
  let frames = ref 0 and gaps = ref [] and pos = ref 0 and sealed = ref false in
  let skip p =
    let stop =
      if strict then len else Option.value (find_frame_after data ~off:p) ~default:len
    in
    gaps := (p, stop) :: !gaps;
    pos := stop
  in
  while !pos < len do
    let p = !pos in
    let plen = valid_frame data p in
    if plen < 0 then skip p
    else if is_seal data (p + 8) plen then begin
      sealed := true;
      if p + 8 + plen < len then gaps := (p + 8 + plen, len) :: !gaps;
      pos := len
    end
    else begin
      match f data ~off:(p + 8) ~len:plen with
      | () ->
        incr frames;
        pos := p + 8 + plen
      | exception Codec.Corrupt _ -> skip p
    end
  done;
  (!frames, List.rev !gaps, !sealed)

let is_seal_tail data = String.ends_with ~suffix:seal_frame data

(* The last [seal_size] bytes differ from the seal frame in at most two
   bytes: a seal that took a bit flip or two. A crash cannot fabricate
   this — an unsynced seal either survives whole (then [is_seal_tail]
   holds) or is cut short, shifting the tail out of alignment. *)
let tail_is_damaged_seal data =
  let len = String.length data in
  len >= seal_size
  &&
  let diff = ref 0 in
  for i = 0 to seal_size - 1 do
    if data.[len - seal_size + i] <> seal_frame.[i] then incr diff
  done;
  !diff > 0 && !diff <= 2

(* Is the undecodable frame at [off] of an *unsealed* log bit rot (which
   must be a typed corruption) rather than a legitimate crash-torn tail
   (which recovery may truncate)? Three independent tells, each
   impossible for a torn tail:
   - the bad frame is complete — its length field fits the file, so the
     payload is all there and the CRC simply disagrees; a torn frame is
     cut short (crashes tear at most a few unsynced bytes, well under a
     minimal frame);
   - an intact frame is decodable beyond the damage;
   - the file ends in a seal frame damaged by a flip or two. *)
let is_rot data ~off =
  let len = String.length data in
  let complete = len - off >= 8 && length_at data off <= len - off - 8 in
  complete || find_frame_after data ~off <> None || tail_is_damaged_seal data

let replay dev ~name f =
  if not (Device.exists dev name) then 0
  else begin
    let data = load dev ~name in
    let frames, gaps, sealed_end = walk data ~strict:true f in
    let corrupt ?offset detail = raise (Lsm_error.corruption ~file:name ?offset detail) in
    (match gaps with
    | [] ->
      (* The tail is a valid seal frame yet the walk never reached it:
         frame boundaries are misaligned. *)
      if (not sealed_end) && is_seal_tail data then corrupt "sealed log with misaligned frames"
    | (off, _) :: _ ->
      if is_seal_tail data then corrupt ~offset:off "bad frame in cleanly-closed log"
      else if is_rot data ~off then
        (* Intact frames beyond the damage (or a rotted seal): mid-log
           bit rot, not a crash-torn tail. Replaying the prefix and
           dropping acknowledged records after it would be silent data
           loss; only [salvage] may truncate, and it reports doing so. *)
        corrupt ~offset:off "valid frames beyond a damaged frame: bit rot, not a torn tail");
    frames
  end

let salvage dev ~name f =
  if not (Device.exists dev name) then (0, [])
  else begin
    let data = load dev ~name in
    let len = String.length data in
    let frames, gaps, _ = walk data ~strict:false f in
    (* A final gap reaching end-of-file with none of the rot tells is an
       ordinary crash-torn tail: recovery truncates those silently (as
       [replay] does), so it is not a disclosed loss. Every other gap is
       mid-log damage with intact records beyond it — real, reportable
       loss. *)
    (frames, List.filter (fun (g0, g1) -> g1 < len || is_rot data ~off:g0) gaps)
  end

let damage dev ~name =
  let _, gaps, _ = walk (load dev ~name) ~strict:false (fun _ ~off:_ ~len:_ -> ()) in
  gaps

let findings ~name gaps =
  List.map
    (fun (g0, g1) ->
      Lsm_error.Corruption
        { file = name; offset = Some g0; detail = Printf.sprintf "bad frames in [%d,%d)" g0 g1 })
    gaps
