module Monkey = Lsm_filter.Monkey

type design = {
  layout : [ `Leveling | `Tiering | `Lazy_leveling ];
  size_ratio : int;
  buffer_bytes : int;
  filter_bits_per_key : float;
}

type workload = {
  entries : int;
  entry_bytes : int;
  page_bytes : int;
  f_insert : float;
  f_point_lookup_hit : float;
  f_point_lookup_miss : float;
  f_short_scan : float;
  f_long_scan : float;
  long_scan_pages : float;
}

let mix_total w =
  w.f_insert +. w.f_point_lookup_hit +. w.f_point_lookup_miss +. w.f_short_scan +. w.f_long_scan

let entries_per_page w = max 1 (w.page_bytes / max 1 w.entry_bytes)

let levels d w =
  let data_bytes = float_of_int w.entries *. float_of_int w.entry_bytes in
  let buffer = float_of_int (max 1 d.buffer_bytes) in
  let t = float_of_int (max 2 d.size_ratio) in
  if data_bytes <= buffer then 1
  else max 1 (int_of_float (ceil (Float.log (data_bytes /. buffer) /. Float.log t)))

let runs_per_level d w =
  let l = levels d w in
  let t = max 2 d.size_ratio in
  Array.init l (fun i ->
      match d.layout with
      | `Leveling -> 1
      | `Tiering -> t - 1
      | `Lazy_leveling -> if i = l - 1 then 1 else t - 1)

(* Entries resident per level: level l holds ~ buffer * T^l entries-worth
   of data (l from 1); expressed in entries for filter allocation. *)
let level_entries d w =
  let l = levels d w in
  let buffer_entries = max 1 (d.buffer_bytes / max 1 w.entry_bytes) in
  let t = max 2 d.size_ratio in
  Array.init l (fun i ->
      let cap = float_of_int buffer_entries *. Float.pow (float_of_int t) (float_of_int (i + 1)) in
      int_of_float (Float.min cap (float_of_int w.entries)))

(* Per-run false-positive rates under a Monkey allocation of the design's
   total filter budget across levels. *)
let run_fprs d w =
  let le = level_entries d w in
  let total_bits = d.filter_bits_per_key *. float_of_int w.entries in
  let bits = Monkey.allocate ~total_bits ~level_entries:le in
  let caps = runs_per_level d w in
  Array.mapi (fun i b -> (caps.(i), Monkey.fpr_of_bits b)) bits

let write_cost d w =
  let l = float_of_int (levels d w) in
  let t = float_of_int (max 2 d.size_ratio) in
  let b = float_of_int (entries_per_page w) in
  match d.layout with
  | `Leveling -> l *. t /. (2.0 *. b)
  | `Tiering -> l /. b
  | `Lazy_leveling -> ((l -. 1.0) /. b) +. (t /. (2.0 *. b))

let point_lookup_miss_cost d w =
  Array.fold_left (fun acc (runs, fpr) -> acc +. (float_of_int runs *. fpr)) 0.0 (run_fprs d w)

let point_lookup_hit_cost d w =
  (* The hit itself costs one page; runs probed before reaching it cost
     their false-positive rate. Model the hit in the last level (worst
     case): all shallower runs contribute. *)
  let fprs = run_fprs d w in
  let above =
    Array.to_list fprs |> List.rev
    |> function
    | [] -> 0.0
    | _last :: shallower ->
      List.fold_left (fun acc (runs, fpr) -> acc +. (float_of_int runs *. fpr)) 0.0 shallower
  in
  1.0 +. above

let total_runs d w = Array.fold_left ( + ) 0 (runs_per_level d w)

let short_scan_cost d w = float_of_int (total_runs d w)

let long_scan_cost d w =
  let t = float_of_int (max 2 d.size_ratio) in
  match d.layout with
  | `Leveling -> w.long_scan_pages *. (1.0 +. (1.0 /. t))
  | `Tiering -> w.long_scan_pages *. t
  | `Lazy_leveling -> w.long_scan_pages *. (1.0 +. (1.0 /. t)) (* last level dominates *)

let mixed_cost d w =
  (w.f_insert *. write_cost d w)
  +. (w.f_point_lookup_hit *. point_lookup_hit_cost d w)
  +. (w.f_point_lookup_miss *. point_lookup_miss_cost d w)
  +. (w.f_short_scan *. short_scan_cost d w)
  +. (w.f_long_scan *. long_scan_cost d w)

let describe_design d =
  Printf.sprintf "%s T=%d buf=%dKiB bloom=%.1fb/key"
    (match d.layout with
    | `Leveling -> "leveling"
    | `Tiering -> "tiering"
    | `Lazy_leveling -> "lazy-leveling")
    d.size_ratio (d.buffer_bytes / 1024) d.filter_bits_per_key

let run_caps_cost ~caps ~size_ratio ~buffer_bytes ~filter_bits_per_key w =
  let t = float_of_int (max 2 size_ratio) in
  let b = float_of_int (entries_per_page w) in
  let l = Array.length caps in
  let buffer_entries = max 1 (buffer_bytes / max 1 w.entry_bytes) in
  (* Write: entering level i, an entry is rewritten ~T/K_i times before
     the level spills (merging K_i runs costs one pass; a leveled level
     (K=1) re-merges arriving data ~T/2 times). *)
  let write =
    Array.fold_left
      (fun acc k ->
        let k = float_of_int (max 1 k) in
        acc +. (Float.max 1.0 (t /. (2.0 *. k)) /. b))
      0.0 caps
  in
  (* Lookup: Monkey allocation over levels, K_i runs each. *)
  let level_entries =
    Array.init l (fun i ->
        let cap =
          float_of_int buffer_entries *. Float.pow t (float_of_int (i + 1))
        in
        int_of_float (Float.min cap (float_of_int w.entries)))
  in
  let bits =
    Monkey.allocate
      ~total_bits:(filter_bits_per_key *. float_of_int w.entries)
      ~level_entries
  in
  let lookup = ref 0.0 in
  Array.iteri
    (fun i b -> lookup := !lookup +. (float_of_int (max 1 caps.(i)) *. Monkey.fpr_of_bits b))
    bits;
  (write, !lookup)
