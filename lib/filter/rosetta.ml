module Codec = Lsm_util.Codec

type t = {
  min_level : int;  (** shallowest bit-prefix length with a Bloom filter *)
  blooms : Bloom.t array;  (** index i = level (min_level + i) *)
}

let key_to_int key =
  let v = ref 0L in
  for i = 0 to 7 do
    let byte = if i < String.length key then Char.code key.[i] else 0 in
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int byte)
  done;
  !v

(* Node at [level] (1..64) with canonical base [b]: probe key tags the
   level so the same Bloom array position never aliases across levels. *)
let probe_key level base =
  let b = Bytes.create 9 in
  Bytes.set b 0 (Char.chr level);
  Bytes.set_int64_be b 1 base;
  Bytes.unsafe_to_string b

let mask_to_level level v =
  if level >= 64 then v
  else Int64.logand v (Int64.shift_left (-1L) (64 - level))

let build ?(levels = 64) ?(bits_per_key = 10.0) ~keys () =
  let levels = max 1 (min 64 levels) in
  let min_level = 64 - levels + 1 in
  let values = List.map key_to_int keys in
  let n = List.length keys in
  let blooms =
    Array.init levels (fun _ -> Bloom.create ~bits_per_key ~expected:(max 1 n))
  in
  List.iter
    (fun v ->
      for level = min_level to 64 do
        Bloom.add blooms.(level - min_level) (probe_key level (mask_to_level level v))
      done)
    values;
  { min_level; blooms }

let ( <=^ ) a b = Int64.unsigned_compare a b <= 0
let ( <^ ) a b = Int64.unsigned_compare a b < 0

(* Is any key present in the node [base, base + 2^(64-level))? Probe this
   level, then doubt positives by recursing into both children until a
   leaf (level 64) confirms. *)
let rec doubt t base level =
  if level < t.min_level then true
  else if not (Bloom.mem t.blooms.(level - t.min_level) (probe_key level base)) then false
  else if level = 64 then true
  else
    let child_off = Int64.shift_left 1L (63 - level) in
    doubt t base (level + 1) || doubt t (Int64.add base child_off) (level + 1)

(* Dyadic decomposition of the inclusive value range [lo, hi]. *)
let range_query t lo hi =
  let rec go base level =
    (* node covers [base, node_hi] inclusive *)
    let node_hi =
      if level = 0 then -1L (* all ones: whole domain *)
      else Int64.add base (Int64.sub (Int64.shift_left 1L (64 - level)) 1L)
    in
    if hi <^ base || node_hi <^ lo then false
    else if level > 0 && lo <=^ base && node_hi <=^ hi then doubt t base level
    else begin
      (* level = 64 nodes are single values: always disjoint or inside *)
      assert (level < 64);
      let child_off = Int64.shift_left 1L (63 - level) in
      go base (level + 1) || go (Int64.add base child_off) (level + 1)
    end
  in
  go 0L 0

let may_overlap t ~lo ~hi =
  let lo_v = key_to_int lo in
  match hi with
  | None -> range_query t lo_v (-1L)
  | Some hi ->
    (* [lo, hi) on keys maps to values [lo_v, hi_v']; the 8-byte projection
       is coarse, so include hi's own value unless hi projects strictly
       above lo (conservative on ties and truncation). *)
    let hi_v = key_to_int hi in
    if Int64.unsigned_compare hi_v lo_v < 0 then false
    else
      let hi_inclusive =
        (* keys strictly below hi can still share hi's 8-byte projection
           when hi is longer than 8 bytes *)
        if String.length hi > 8 then hi_v
        else if Int64.unsigned_compare hi_v 0L = 0 then 0L
        else Int64.sub hi_v 1L
      in
      if Int64.unsigned_compare hi_inclusive lo_v < 0 then false
      else range_query t lo_v hi_inclusive

let bit_count t = Array.fold_left (fun acc b -> acc + Bloom.bit_count b) 0 t.blooms

let encode t =
  let b = Buffer.create 1024 in
  Codec.put_varint b t.min_level;
  Codec.put_varint b (Array.length t.blooms);
  Array.iter (fun bl -> Codec.put_lp_string b (Bloom.encode bl)) t.blooms;
  Buffer.contents b

let decode s =
  let r = Codec.reader s in
  let min_level = Codec.get_varint r in
  let n = Codec.get_varint r in
  { min_level; blooms = Array.init n (fun _ -> Bloom.decode (Codec.get_lp_string r)) }
