module Codec = Lsm_util.Codec

type t = { prefixes : string array (* sorted, distinct *) }

let common_prefix_len a b =
  let n = min (String.length a) (String.length b) in
  let rec loop i = if i < n && a.[i] = b.[i] then loop (i + 1) else i in
  loop 0

let build ?(max_prefix = max_int) ?(suffix_len = 2) ~keys () =
  let sorted = List.sort_uniq String.compare keys in
  let arr = Array.of_list sorted in
  let n = Array.length arr in
  let trunc i =
    let k = arr.(i) in
    let lcp_prev = if i = 0 then 0 else common_prefix_len arr.(i - 1) k in
    let lcp_next = if i = n - 1 then 0 else common_prefix_len k arr.(i + 1) in
    let keep =
      min (String.length k) (min max_prefix (1 + max lcp_prev lcp_next + suffix_len))
    in
    String.sub k 0 keep
  in
  let truncated = Array.init n trunc in
  (* Truncation can merge adjacent keys (same minimal prefix under
     max_prefix capping); dedupe while preserving order. *)
  let out = ref [] in
  Array.iter
    (fun p -> match !out with q :: _ when String.equal q p -> () | _ -> out := p :: !out)
    truncated;
  { prefixes = Array.of_list (List.rev !out) }

(* A stored prefix [p] denotes the key interval [p, p·0xff∞]. The interval
   reaches at-or-above [lo] iff [p >= lo] or [p] is a proper prefix of
   [lo]. Those two cases split cleanly: the first is a contiguous tail of
   the sorted array (binary search), the second is checked by membership
   of each proper prefix of [lo] (at most |lo| probes). *)

let lower_bound t target =
  let n = Array.length t.prefixes in
  let l = ref 0 and r = ref n in
  while !l < !r do
    let mid = (!l + !r) / 2 in
    if String.compare t.prefixes.(mid) target < 0 then l := mid + 1 else r := mid
  done;
  !l

let contains_exact t p =
  let i = lower_bound t p in
  i < Array.length t.prefixes && String.equal t.prefixes.(i) p

let has_proper_prefix_of t s =
  let rec loop len =
    len < String.length s && (contains_exact t (String.sub s 0 len) || loop (len + 1))
  in
  loop 1

let may_overlap t ~lo ~hi =
  if has_proper_prefix_of t lo then true
    (* that prefix's interval contains lo itself, and lo < hi *)
  else
    let i = lower_bound t lo in
    if i >= Array.length t.prefixes then false
    else
      match hi with
      | None -> true
      | Some hi -> String.compare t.prefixes.(i) hi < 0

let bit_count t =
  8 * Array.fold_left (fun acc p -> acc + String.length p + 1) 0 t.prefixes

let encode t =
  let b = Buffer.create 1024 in
  Codec.put_varint b (Array.length t.prefixes);
  Array.iter (Codec.put_lp_string b) t.prefixes;
  Buffer.contents b

let decode s =
  let r = Codec.reader s in
  let n = Codec.get_varint r in
  { prefixes = Array.init n (fun _ -> Codec.get_lp_string r) }
