exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun s -> raise (Corrupt s)) fmt

let put_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let put_u16 b v =
  put_u8 b v;
  put_u8 b (v lsr 8)

let put_u32 b v =
  put_u16 b v;
  put_u16 b (v lsr 16)

let put_u64 b v = Buffer.add_int64_le b v

let rec put_varint b v =
  if v < 0 then invalid_arg "Codec.put_varint: negative"
  else if v < 0x80 then put_u8 b v
  else begin
    put_u8 b (0x80 lor (v land 0x7f));
    put_varint b (v lsr 7)
  end

let put_lp_string b s =
  put_varint b (String.length s);
  Buffer.add_string b s

type reader = { src : string; mutable pos : int }

let reader ?(pos = 0) src = { src; pos }
let remaining r = String.length r.src - r.pos
let at_end r = remaining r <= 0

let check r n = if remaining r < n then corrupt "truncated input at %d (need %d)" r.pos n

let get_u8 r =
  check r 1;
  let v = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  v

let get_u16 r =
  let lo = get_u8 r in
  let hi = get_u8 r in
  lo lor (hi lsl 8)

let get_u32 r =
  let lo = get_u16 r in
  let hi = get_u16 r in
  lo lor (hi lsl 16)

let get_u64 r =
  check r 8;
  let v = String.get_int64_le r.src r.pos in
  r.pos <- r.pos + 8;
  v

(* A top-level recursion: a local loop would capture [r] and allocate a
   closure per varint, several per decoded index entry or log record. *)
let rec varint_from r shift acc =
  if shift > 63 then corrupt "varint too long at %d" r.pos;
  let byte = get_u8 r in
  let acc = acc lor ((byte land 0x7f) lsl shift) in
  if byte land 0x80 = 0 then acc else varint_from r (shift + 7) acc

let get_varint r = varint_from r 0 0

let get_raw r n =
  check r n;
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let get_lp_string r =
  let n = get_varint r in
  get_raw r n

let varint_size v =
  let rec loop v n = if v < 0x80 then n else loop (v lsr 7) (n + 1) in
  if v < 0 then invalid_arg "Codec.varint_size: negative" else loop v 1
