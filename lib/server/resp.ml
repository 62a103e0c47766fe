(* RESP2 framing. Incremental by construction: every parser either
   consumes a whole frame or returns [None] ("need more bytes") without
   side effects, so the caller can retry with a longer buffer. Malformed
   bytes — as opposed to merely short — raise {!Malformed}; the server
   treats that as connection-fatal, matching Redis.

   Length headers are bounded by [max_bulk_len] before any allocation
   happens: a hostile [$9999999999] costs the attacker a closed
   connection, not the server a 10 GB buffer. *)

exception Malformed of string

let max_bulk_len = 64 * 1024 * 1024

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

(* ---------------- encoding ---------------- *)

type reply =
  | Simple of string
  | Error of string
  | Int of int
  | Bulk of string
  | Nil
  | Array of reply list

(* The pending bytes (replies not yet sent, or requests not yet
   parsed) are [bytes[pos, len)]: one contiguous slice, so a socket
   write takes them, and the parser reads them, where they lie.
   Appending first slides the slice to the front when that makes room,
   and grows the store only when it does not, so the store's size
   follows the backlog, not the bytes the connection has ever moved. *)
type buf = { mutable bytes : Bytes.t; mutable pos : int; mutable len : int }

let buf_default = 4096
let buf_shrink_above = 64 * 1024

let make_buf n = { bytes = Bytes.create n; pos = 0; len = 0 }
let buf_create () = make_buf buf_default
let buf_bytes o = o.bytes
let buf_pos o = o.pos
let pending o = o.len - o.pos
let capacity o = Bytes.length o.bytes

let reserve o n =
  let live = o.len - o.pos in
  if o.len + n > Bytes.length o.bytes then begin
    let dst =
      if live + n <= Bytes.length o.bytes then o.bytes
      else Bytes.create (max (live + n) (2 * Bytes.length o.bytes))
    in
    Bytes.blit o.bytes o.pos dst 0 live;
    o.bytes <- dst;
    o.pos <- 0;
    o.len <- live
  end

let consume o n =
  o.pos <- o.pos + n;
  if o.pos = o.len then begin
    o.pos <- 0;
    o.len <- 0;
    if Bytes.length o.bytes > buf_shrink_above then o.bytes <- Bytes.create buf_default
  end

(* A read gets at least 16 KiB of free room, and at least half the
   store: a pipelined window of up to 16 KiB takes one read call, and
   a backlog past half a larger store doubles it. *)
let read_chunk = 16 * 1024

let fill o read =
  reserve o (max read_chunk (Bytes.length o.bytes / 2));
  let got = read o.bytes o.len (Bytes.length o.bytes - o.len) in
  o.len <- o.len + got;
  got

let add_char o c =
  reserve o 1;
  Bytes.unsafe_set o.bytes o.len c;
  o.len <- o.len + 1

let add_string o s =
  let n = String.length s in
  reserve o n;
  Bytes.unsafe_blit_string s 0 o.bytes o.len n;
  o.len <- o.len + n

let add_crlf o =
  reserve o 2;
  Bytes.unsafe_set o.bytes o.len '\r';
  Bytes.unsafe_set o.bytes (o.len + 1) '\n';
  o.len <- o.len + 2

(* Decimal digits written in place, without [string_of_int]'s string.
   [min_int] has no positive counterpart, so it takes the slow path. *)
let add_int o n =
  if n = min_int then add_string o (string_of_int n)
  else begin
    if n < 0 then add_char o '-';
    let n = abs n in
    let rec width n = if n < 10 then 1 else 1 + width (n / 10) in
    let w = width n in
    reserve o w;
    let r = ref n in
    for i = o.len + w - 1 downto o.len do
      Bytes.unsafe_set o.bytes i (Char.unsafe_chr (48 + (!r mod 10)));
      r := !r / 10
    done;
    o.len <- o.len + w
  end

(* [$len\r\ndata\r\n] *)
let add_bulk o s =
  add_char o '$';
  add_int o (String.length s);
  add_crlf o;
  add_string o s;
  add_crlf o

let rec add_reply o = function
  | Simple s ->
    add_char o '+';
    add_string o s;
    add_crlf o
  | Error s ->
    add_char o '-';
    add_string o s;
    add_crlf o
  | Int n ->
    add_char o ':';
    add_int o n;
    add_crlf o
  | Bulk s -> add_bulk o s
  | Nil -> add_string o "$-1\r\n"
  | Array rs ->
    add_char o '*';
    add_int o (List.length rs);
    add_crlf o;
    List.iter (add_reply o) rs

let contents o = Bytes.sub_string o.bytes o.pos (pending o)

let encode_command args =
  let o = make_buf 64 in
  add_char o '*';
  add_int o (List.length args);
  add_crlf o;
  List.iter (add_bulk o) args;
  contents o

let encode_reply r =
  let o = make_buf 64 in
  add_reply o r;
  contents o

(* ---------------- decoding ---------------- *)

(* Find "\r\n" starting at [pos]; the line body is [pos, i). *)
let find_crlf buf ~pos ~len =
  let rec go i =
    if i + 1 >= len then None
    else if Bytes.get buf i = '\r' then
      if Bytes.get buf (i + 1) = '\n' then Some i
      else malformed "bare CR in frame header"
    else go (i + 1)
  in
  go pos

(* Decode a decimal integer line (sign allowed) ending in CRLF. *)
let parse_int_line buf ~pos ~len =
  match find_crlf buf ~pos ~len with
  | None -> None
  | Some stop ->
    if stop = pos then malformed "empty length header";
    let neg = Bytes.get buf pos = '-' in
    let start = if neg then pos + 1 else pos in
    if start = stop then malformed "sign with no digits";
    let n = ref 0 in
    for i = start to stop - 1 do
      let c = Bytes.get buf i in
      if c < '0' || c > '9' then malformed "non-digit %C in length header" c;
      n := (!n * 10) + (Char.code c - Char.code '0');
      if !n > max_bulk_len then malformed "length header exceeds %d" max_bulk_len
    done;
    Some ((if neg then - !n else !n), stop + 2)

(* [$len\r\ndata\r\n] at [pos]. [$-1] maps to [None] payload. *)
let parse_bulk buf ~pos ~len =
  if pos >= len then None
  else if Bytes.get buf pos <> '$' then
    malformed "expected bulk string, got %C" (Bytes.get buf pos)
  else
    match parse_int_line buf ~pos:(pos + 1) ~len with
    | None -> None
    | Some (-1, pos') -> Some (None, pos')
    | Some (n, _) when n < 0 -> malformed "negative bulk length %d" n
    | Some (n, pos') ->
      if pos' + n + 2 > len then None
      else if Bytes.get buf (pos' + n) <> '\r' || Bytes.get buf (pos' + n + 1) <> '\n' then
        malformed "bulk payload not CRLF-terminated"
      else Some (Some (Bytes.sub_string buf pos' n), pos' + n + 2)

let parse_command buf ~pos ~len =
  if pos >= len then None
  else if Bytes.get buf pos <> '*' then
    malformed "expected array, got %C" (Bytes.get buf pos)
  else
    match parse_int_line buf ~pos:(pos + 1) ~len with
    | None -> None
    | Some (n, _) when n <= 0 -> malformed "command arity %d" n
    | Some (n, pos') ->
      let rec go k pos acc =
        if k = 0 then Some (List.rev acc, pos)
        else
          match parse_bulk buf ~pos ~len with
          | None -> None
          | Some (None, _) -> malformed "nil bulk inside command"
          | Some (Some s, pos') -> go (k - 1) pos' (s :: acc)
      in
      go n pos' []

let next_command o =
  match parse_command o.bytes ~pos:o.pos ~len:o.len with
  | Some (args, pos') ->
    consume o (pos' - o.pos);
    Some args
  | None -> None

let rec parse_reply buf ~pos ~len =
  if pos >= len then None
  else
    match Bytes.get buf pos with
    | '+' | '-' -> (
      match find_crlf buf ~pos:(pos + 1) ~len with
      | None -> None
      | Some stop ->
        let s = Bytes.sub_string buf (pos + 1) (stop - pos - 1) in
        Some ((if Bytes.get buf pos = '+' then Simple s else Error s), stop + 2))
    | ':' -> (
      match parse_int_line buf ~pos:(pos + 1) ~len with
      | None -> None
      | Some (n, pos') -> Some (Int n, pos'))
    | '$' -> (
      match parse_bulk buf ~pos ~len with
      | None -> None
      | Some (None, pos') -> Some (Nil, pos')
      | Some (Some s, pos') -> Some (Bulk s, pos'))
    | '*' -> (
      match parse_int_line buf ~pos:(pos + 1) ~len with
      | None -> None
      | Some (n, _) when n < 0 -> malformed "negative array arity %d" n
      | Some (n, pos') ->
        let rec go k pos acc =
          if k = 0 then Some (Array (List.rev acc), pos)
          else
            match parse_reply buf ~pos ~len with
            | None -> None
            | Some (r, pos') -> go (k - 1) pos' (r :: acc)
        in
        go n pos' [])
    | c -> malformed "unknown reply type byte %C" c

let error_code = function
  | Error s -> (
    match String.index_opt s ' ' with
    | Some i -> Some (String.sub s 0 i)
    | None -> Some s)
  | _ -> None
