type t = { name : string; compare : string -> string -> int }

let bytewise = { name = "bytewise"; compare = String.compare }

let common_prefix_len a b =
  let n = min (String.length a) (String.length b) in
  let rec loop i = if i < n && a.[i] = b.[i] then loop (i + 1) else i in
  loop 0

let shortest_separator c a b =
  if c.name <> bytewise.name then a
  else
    let p = common_prefix_len a b in
    if p >= String.length a then a (* a is a prefix of b *)
    else
      let byte = Char.code a.[p] in
      if byte < 0xff && (p + 1 > String.length b || byte + 1 < Char.code b.[p]) then begin
        let s = Bytes.of_string (String.sub a 0 (p + 1)) in
        Bytes.set s p (Char.chr (byte + 1));
        let s = Bytes.to_string s in
        assert (c.compare a s <= 0 && c.compare s b < 0);
        s
      end
      else a

let short_successor c k =
  if c.name <> bytewise.name then k
  else
    let n = String.length k in
    let rec find i = if i >= n then None else if k.[i] <> '\xff' then Some i else find (i + 1) in
    match find 0 with
    | None -> k (* all 0xff: no short successor *)
    | Some i ->
      let s = Bytes.of_string (String.sub k 0 (i + 1)) in
      Bytes.set s i (Char.chr (Char.code k.[i] + 1));
      Bytes.to_string s

let min_key c a b = if c.compare a b <= 0 then a else b
let max_key c a b = if c.compare a b >= 0 then a else b

(* Allocation-free slice comparisons for the built-in comparators; the
   zero-copy block cursor compares prefix-reassembled keys and raw body
   spans against targets without materializing strings. Custom
   comparators fall back to materializing the slice. *)

(* The loops below are top-level recursions, not nested [let rec]s: a
   local loop capturing the operands would allocate a closure on every
   comparison, and the block cursor does several per seek. *)
let rec sub_loop s pos len b nb n i =
  if i >= n then Int.compare len nb
  else
    let c = Char.compare (String.unsafe_get s (pos + i)) (String.unsafe_get b i) in
    if c <> 0 then c else sub_loop s pos len b nb n (i + 1)

let bytewise_sub s pos len b =
  let nb = String.length b in
  sub_loop s pos len b nb (min len nb) 0

let compare_sub c s ~pos ~len b =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Comparator.compare_sub: slice out of bounds";
  if c.name = "bytewise" then bytewise_sub s pos len b
  else c.compare (String.sub s pos len) b

let rec bytes_loop s len b nb n i =
  if i >= n then Int.compare len nb
  else
    let c = Char.compare (Bytes.unsafe_get s i) (String.unsafe_get b i) in
    if c <> 0 then c else bytes_loop s len b nb n (i + 1)

let bytewise_bytes s len b =
  let nb = String.length b in
  bytes_loop s len b nb (min len nb) 0

let compare_bytes c s ~len b =
  if len < 0 || len > Bytes.length s then
    invalid_arg "Comparator.compare_bytes: length out of bounds";
  if c.name = "bytewise" then bytewise_bytes s len b
  else c.compare (Bytes.sub_string s 0 len) b
