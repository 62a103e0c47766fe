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

let compress ?(pos = 0) s =
  let n = String.length s in
  if pos < 0 || pos > n then invalid_arg "Lz.compress: bad pos";
  let out = Buffer.create ((n - pos) / 2) in
  let table = Array.make table_size (-1) in
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
    let cand = table.(h) in
    table.(h) <- !i;
    let ok =
      cand >= 0
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
  emit_token (n - !anchor) None;
  Buffer.contents out

let corrupt () = raise (Codec.Corrupt "lz: malformed stream")

let decompress s ~expected_len =
  let out = Buffer.create expected_len in
  let r = Codec.reader s in
  (try
     while not (Codec.at_end r) do
       let token = Codec.get_u8 r in
       let lit_nib = token lsr 4 in
       let lit_len = if lit_nib = 15 then 15 + Codec.get_varint r else lit_nib in
       Buffer.add_string out (Codec.get_raw r lit_len);
       if not (Codec.at_end r) then begin
         let m_nib = token land 0xf in
         let offset = Codec.get_u16 r in
         let mlen = (if m_nib = 15 then 15 + Codec.get_varint r else m_nib) + 4 in
         let start = Buffer.length out - offset in
         if offset = 0 || start < 0 then corrupt ();
         (* overlapping copies must go byte by byte *)
         for k = 0 to mlen - 1 do
           Buffer.add_char out (Buffer.nth out (start + k))
         done
       end
     done
   with Invalid_argument _ -> corrupt ());
  if Buffer.length out <> expected_len then corrupt ();
  Buffer.contents out
