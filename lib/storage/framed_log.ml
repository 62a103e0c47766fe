module Codec = Lsm_util.Codec
module Crc32c = Lsm_util.Crc32c

(* Does the masked CRC of [data[pos, pos+len)] equal [stored]? Frames
   are verified where they lie; only a payload that passes is copied. *)
let crc_matches data ~pos ~len stored = Crc32c.mask (Crc32c.sub data ~pos ~len) = stored

let frame payload =
  let b = Buffer.create (String.length payload + 8) in
  let crc = Crc32c.mask (Crc32c.string payload) in
  Codec.put_u32 b (Int32.to_int crc land 0xffffffff);
  Codec.put_u32 b (String.length payload);
  Buffer.add_string b payload;
  Buffer.contents b

(* A clean close stamps this sentinel as the final frame. No real WAL or
   manifest payload can collide with it: WAL payloads start with a varint
   entry count and a count of 0x4c ('L') would need far more than 7 more
   bytes of entry encodings; manifest payloads start with a varint
   added-files count with the same argument. *)
let seal_payload = "LSM!SEAL"
let seal_size = 8 + String.length seal_payload
let seal_frame = frame seal_payload
let seal_crc = Crc32c.mask (Crc32c.string seal_payload)

let is_seal_tail data =
  let len = String.length data in
  len >= seal_size
  &&
  let r = Codec.reader ~pos:(len - seal_size) data in
  let crc = Int32.of_int (Codec.get_u32 r) in
  let plen = Codec.get_u32 r in
  plen = String.length seal_payload
  && Codec.get_raw r plen = seal_payload
  && seal_crc = crc

type scan_end =
  | Sealed_clean
  | Unsealed_end
  | Bad_frame of int

let scan data f =
  let r = Codec.reader data in
  let frames = ref 0 in
  let stop = ref None in
  (try
     while Codec.remaining r >= 8 do
       let frame_off = r.Codec.pos in
       let stored_crc = Int32.of_int (Codec.get_u32 r) in
       let plen = Codec.get_u32 r in
       if plen > Codec.remaining r then begin
         stop := Some (Bad_frame frame_off);
         raise Exit
       end;
       if not (crc_matches data ~pos:r.Codec.pos ~len:plen stored_crc) then begin
         stop := Some (Bad_frame frame_off);
         raise Exit
       end;
       let payload = Codec.get_raw r plen in
       if payload = seal_payload then begin
         stop := Some (if Codec.at_end r then Sealed_clean else Bad_frame r.Codec.pos);
         raise Exit
       end;
       (try f ~off:frame_off payload
        with Codec.Corrupt _ ->
          stop := Some (Bad_frame frame_off);
          raise Exit);
       incr frames
     done
   with Exit -> ());
  let ending =
    match !stop with
    | Some e -> e
    | None -> if Codec.at_end r then Unsealed_end else Bad_frame r.Codec.pos
  in
  (!frames, ending)

(* Is any complete frame decodable strictly after [off]? Distinguishes
   mid-log bit rot (intact frames follow the damage) from a genuine
   crash-torn tail (nothing decodable beyond it: a tear keeps at most a
   few bytes past the synced prefix, far short of a valid frame). The
   probe slides byte by byte, so it re-synchronizes even though the bad
   frame's length field is untrustworthy; a false positive needs four
   arbitrary bytes to match a CRC-32C — 2^-32 per candidate offset. *)
let find_frame_after data ~off =
  let len = String.length data in
  let rec probe pos =
    if pos + 8 > len then None
    else begin
      let r = Codec.reader ~pos data in
      let stored_crc = Int32.of_int (Codec.get_u32 r) in
      let plen = Codec.get_u32 r in
      if
        plen > 0
        && plen <= len - pos - 8
        && crc_matches data ~pos:(pos + 8) ~len:plen stored_crc
      then Some pos
      else probe (pos + 1)
    end
  in
  probe (off + 1)

let has_frame_after data ~off = find_frame_after data ~off <> None

(* Tolerant scan: where [scan] stops at the first undecodable frame,
   this re-synchronizes past it to the next decodable frame boundary
   (the same sliding probe as [find_frame_after]) and keeps going,
   recording every skipped byte range. Frames past a seal are not
   replayed — a seal means "log ends here" — but trailing junk is still
   disclosed. The caller decides which gaps are losses (mid-log rot)
   and which are benign (a crash-torn tail). *)
let scan_salvage data f =
  let len = String.length data in
  let frames = ref 0 in
  let gaps = ref [] in
  let resync pos =
    match find_frame_after data ~off:pos with
    | Some j ->
      gaps := (pos, j) :: !gaps;
      j
    | None ->
      gaps := (pos, len) :: !gaps;
      len
  in
  let pos = ref 0 in
  (try
     while !pos < len do
       if len - !pos < 8 then pos := resync !pos
       else begin
         let r = Codec.reader ~pos:!pos data in
         let stored_crc = Int32.of_int (Codec.get_u32 r) in
         let plen = Codec.get_u32 r in
         if plen > len - !pos - 8 then pos := resync !pos
         else if not (crc_matches data ~pos:(!pos + 8) ~len:plen stored_crc) then
           pos := resync !pos
         else begin
           let payload = Codec.get_raw r plen in
           if payload = seal_payload then begin
             if not (Codec.at_end r) then gaps := (r.Codec.pos, len) :: !gaps;
             raise Exit
           end
           else
             match f ~off:!pos payload with
             | () ->
               incr frames;
               pos := r.Codec.pos
             | exception Codec.Corrupt _ -> pos := resync !pos
         end
       end
     done
   with Exit -> ());
  (!frames, List.rev !gaps)

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

(* Classify a [Bad_frame off] on an *unsealed* log: is this bit rot
   (which must be a typed corruption) rather than a legitimate
   crash-torn tail (which recovery may truncate)? Three independent
   tells, each impossible for a torn tail:
   - the bad frame is complete — its length field fits the file, so the
     payload is all there and the CRC simply disagrees; a torn frame is
     cut short (crashes tear at most a few unsynced bytes, well under a
     minimal frame);
   - an intact frame is decodable beyond the damage;
   - the file ends in a seal frame damaged by a flip or two. *)
let bad_frame_is_rot data ~off =
  let len = String.length data in
  let complete =
    len - off >= 8
    &&
    let r = Codec.reader ~pos:(off + 4) data in
    let plen = Codec.get_u32 r in
    plen <= len - off - 8
  in
  complete || has_frame_after data ~off || tail_is_damaged_seal data

let load dev ~name =
  let len = Device.size dev name in
  Device.read dev ~cls:Io_stats.C_misc name ~off:0 ~len

let is_sealed dev ~name = Device.exists dev name && is_seal_tail (load dev ~name)
