module Codec = Lsm_util.Codec

type t = { plen : int; bloom : Bloom.t }

let cut plen key =
  if String.length key >= plen then String.sub key 0 plen
  else key ^ String.make (plen - String.length key) '\000'

let build ~prefix_len ~bits_per_key ~keys =
  if prefix_len <= 0 then invalid_arg "Prefix_bloom.build: prefix_len must be positive";
  let distinct = Hashtbl.create 256 in
  List.iter (fun k -> Hashtbl.replace distinct (cut prefix_len k) ()) keys;
  let bloom = Bloom.create ~bits_per_key ~expected:(Hashtbl.length distinct) in
  Hashtbl.iter (fun p () -> Bloom.add bloom p) distinct;
  { plen = prefix_len; bloom }

let may_contain_prefix t p = Bloom.mem t.bloom (cut t.plen p)

let common_prefix_len a b =
  let n = min (String.length a) (String.length b) in
  let rec loop i = if i < n && a.[i] = b.[i] then loop (i + 1) else i in
  loop 0

let may_overlap t ~lo ~hi =
  match hi with
  | None -> true (* unbounded ranges span arbitrarily many prefixes *)
  | Some hi ->
    if common_prefix_len lo hi >= t.plen then may_contain_prefix t lo
    else begin
      (* Range spans prefix blocks. If hi's block is the immediate successor
         of lo's block we can answer with two probes: the range is the tail
         of lo's block plus (when hi > phi) the head of hi's block. Any wider
         span contains whole blocks we cannot enumerate — answer "maybe". *)
      let plo = cut t.plen lo and phi = cut t.plen hi in
      let succ_plo =
        let b = Bytes.of_string plo in
        let rec inc i =
          if i < 0 then None
          else if Bytes.get b i = '\xff' then begin
            Bytes.set b i '\000';
            inc (i - 1)
          end
          else begin
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) + 1));
            Some (Bytes.to_string b)
          end
        in
        inc (t.plen - 1)
      in
      match succ_plo with
      | Some s when s = phi ->
        may_contain_prefix t plo || (hi > phi && may_contain_prefix t phi)
      | Some _ | None -> true
    end

let bit_count t = Bloom.bit_count t.bloom

let encode t =
  let b = Buffer.create 64 in
  Codec.put_varint b t.plen;
  Codec.put_lp_string b (Bloom.encode t.bloom);
  Buffer.contents b

let decode s =
  let r = Codec.reader s in
  let plen = Codec.get_varint r in
  let bloom = Bloom.decode (Codec.get_lp_string r) in
  { plen; bloom }
