(* Token stream: [u8 token | (ext lit len varint) | literals
                  | u16 offset | (ext match len varint)]...
   token = lit_len(4 bits) << 4 | (match_len - 4)(4 bits); nibble 15 means
   "15 plus a varint continues". The final token carries literals only
   (no offset follows because the input ends). Offsets are 1..65535 back
   references; matches are >= 4 bytes. *)

let hash_bits = 14
let table_size = 1 lsl hash_bits

let hash4 s i =
  let v =
    Char.code s.[i]
    lor (Char.code s.[i + 1] lsl 8)
    lor (Char.code s.[i + 2] lsl 16)
    lor (Char.code s.[i + 3] lsl 24)
  in
  (v * 2654435761) lsr (32 - hash_bits) land (table_size - 1)

(* One match table per domain, reused by every call and never cleared:
   a call stores [base + (i - pos)] for input position [i] and reads an
   entry below its own [base] as empty, then moves [base] past every
   value it stored. So stale entries from earlier blocks never match,
   and a block compresses to the same bytes whatever came before it. *)
type matcher = { table : int array; mutable base : int }

let matcher = Domain.DLS.new_key (fun () -> { table = Array.make table_size (-1); base = 0 })

let compress_into out s ~pos ~len =
  let n = pos + len in
  if pos < 0 || len < 0 || n > String.length s then invalid_arg "Lz.compress_into: bad range";
  let m = Domain.DLS.get matcher in
  let table = m.table and base = m.base - pos in
  m.base <- m.base + len;
  let anchor = ref pos in
  let i = ref pos in
  let emit_token lit_len match_len_opt =
    let lit_nib = min 15 lit_len in
    let m_nib = match match_len_opt with None -> 0 | Some m -> min 15 (m - 4) in
    Codec.put_u8 out ((lit_nib lsl 4) lor m_nib);
    if lit_nib = 15 then Codec.put_varint out (lit_len - 15);
    Buffer.add_substring out s !anchor lit_len
  in
  while !i + 4 <= n do
    let h = hash4 s !i in
    let cand = table.(h) - base in
    table.(h) <- base + !i;
    let ok =
      cand >= pos
      && !i - cand <= 0xffff
      && s.[cand] = s.[!i]
      && s.[cand + 1] = s.[!i + 1]
      && s.[cand + 2] = s.[!i + 2]
      && s.[cand + 3] = s.[!i + 3]
    in
    if ok then begin
      (* extend the match *)
      let m = ref 4 in
      while !i + !m < n && s.[cand + !m] = s.[!i + !m] do
        incr m
      done;
      emit_token (!i - !anchor) (Some !m);
      Codec.put_u16 out (!i - cand);
      if min 15 (!m - 4) = 15 then Codec.put_varint out (!m - 4 - 15);
      i := !i + !m;
      anchor := !i
    end
    else incr i
  done;
  (* trailing literals *)
  emit_token (n - !anchor) None

let corrupt () = raise (Codec.Corrupt "lz: malformed stream")

(* Bounded readers over [s.[pos, stop)], for [decompress_into]: the
   stream may lie inside a larger buffer, so [Codec.reader]'s end of
   string is not its end. *)
type src = { s : string; mutable at : int; stop : int }

let byte r =
  if r.at >= r.stop then corrupt ();
  let c = Char.code (String.unsafe_get r.s r.at) in
  r.at <- r.at + 1;
  c

let rec varint_from r shift acc =
  if shift > 63 then corrupt ();
  let b = byte r in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc else varint_from r (shift + 7) acc

let decompress_into s ~pos ~len dst ~expected_len =
  if pos < 0 || len < 0 || pos + len > String.length s || expected_len < 0
     || expected_len > Bytes.length dst
  then invalid_arg "Lz.decompress_into: bad range";
  let r = { s; at = pos; stop = pos + len } in
  let o = ref 0 in
  while r.at < r.stop do
    let token = byte r in
    let lit_nib = token lsr 4 in
    let lit_len = if lit_nib = 15 then 15 + varint_from r 0 0 else lit_nib in
    if lit_len < 0 || lit_len > r.stop - r.at || lit_len > expected_len - !o then corrupt ();
    Bytes.blit_string s r.at dst !o lit_len;
    r.at <- r.at + lit_len;
    o := !o + lit_len;
    if r.at < r.stop then begin
      let m_nib = token land 0xf in
      let lo = byte r in
      let offset = lo lor (byte r lsl 8) in
      let mlen = (if m_nib = 15 then 15 + varint_from r 0 0 else m_nib) + 4 in
      let start = !o - offset in
      if offset = 0 || start < 0 || mlen < 4 || mlen > expected_len - !o then corrupt ();
      (* overlapping copies must go byte by byte *)
      for k = 0 to mlen - 1 do
        Bytes.unsafe_set dst (!o + k) (Bytes.unsafe_get dst (start + k))
      done;
      o := !o + mlen
    end
  done;
  if !o <> expected_len then corrupt ()
