(* Buckets: values 0..63 map to their own bucket; above that, each power of
   two is split into 16 sub-buckets, giving geometric resolution. *)

let sub_bits = 4
let linear_limit = 1 lsl (sub_bits + 2)

let rec high_bit n acc = if n <= 1 then acc else high_bit (n lsr 1) (acc + 1)

let bucket_of_value v =
  if v < linear_limit then v
  else
    let exp = high_bit v 0 in
    let sub = (v lsr (exp - sub_bits)) land ((1 lsl sub_bits) - 1) in
    linear_limit + (((exp - (sub_bits + 2)) lsl sub_bits) lor sub)

let value_of_bucket b =
  if b < linear_limit then b
  else
    let rel = b - linear_limit in
    let exp = (rel lsr sub_bits) + sub_bits + 2 in
    let sub = rel land ((1 lsl sub_bits) - 1) in
    (* Upper bound of the bucket. A sum, not an [lor]: for the top
       sub-bucket, [(sub + 1) lsl (exp - sub_bits)] is [1 lsl exp] and
       must carry into the next power of two. *)
    (1 lsl exp) + ((sub + 1) lsl (exp - sub_bits)) - 1

let num_buckets = bucket_of_value max_int + 1

type t = {
  mutable counts : int array;
  mutable count : int;
  mutable total : int;
  mutable min_v : int;
  mutable max_v : int;
}

let create () =
  { counts = Array.make num_buckets 0; count = 0; total = 0; min_v = max_int; max_v = 0 }

let clear t =
  Array.fill t.counts 0 num_buckets 0;
  t.count <- 0;
  t.total <- 0;
  t.min_v <- max_int;
  t.max_v <- 0

let copy t = { t with counts = Array.copy t.counts }

let add t v =
  if v < 0 then invalid_arg "Histogram.add: negative value";
  let b = bucket_of_value v in
  t.counts.(b) <- t.counts.(b) + 1;
  t.count <- t.count + 1;
  t.total <- t.total + v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.count
let total t = t.total
let min_value t = if t.count = 0 then 0 else t.min_v
let max_value t = t.max_v
let mean t = if t.count = 0 then 0.0 else float_of_int t.total /. float_of_int t.count

let percentile t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Histogram.percentile: p out of range";
  if t.count = 0 then 0
  else begin
    let threshold = p /. 100.0 *. float_of_int t.count in
    let seen = ref 0 in
    let result = ref t.max_v in
    (try
       for b = 0 to num_buckets - 1 do
         seen := !seen + t.counts.(b);
         if float_of_int !seen >= threshold && t.counts.(b) > 0 then begin
           result := min (value_of_bucket b) t.max_v;
           raise Exit
         end
       done
     with Exit -> ());
    !result
  end

let merge ~into src =
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) src.counts;
  into.count <- into.count + src.count;
  into.total <- into.total + src.total;
  if src.count > 0 then begin
    if src.min_v < into.min_v then into.min_v <- src.min_v;
    if src.max_v > into.max_v then into.max_v <- src.max_v
  end

let pp_summary ppf t =
  Format.fprintf ppf "n=%d mean=%.1f p50=%d p95=%d p99=%d max=%d" t.count (mean t)
    (percentile t 50.0) (percentile t 95.0) (percentile t 99.0) (max_value t)
