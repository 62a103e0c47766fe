type data_layout =
  | Leveling
  | Tiering of { runs : int }
  | Lazy_leveling of { runs : int }
  | Hybrid of { tiered_levels : int; runs : int }
  | Run_caps of int array
  | Guarded of { stride_base : int }

type granularity = Whole_level | Single_file

type movement =
  | Round_robin
  | Least_overlap
  | Oldest_file
  | Most_tombstones
  | Expired_ttl of { ttl : int }

type t = {
  layout : data_layout;
  granularity : granularity;
  movement : movement;
  size_ratio : int;
  level0_limit : int;
}

let default =
  {
    layout = Leveling;
    granularity = Single_file;
    movement = Least_overlap;
    size_ratio = 10;
    level0_limit = 4;
  }

let leveled ?(size_ratio = 10) () = { default with layout = Leveling; size_ratio }

let tiered ?(size_ratio = 10) () =
  {
    default with
    layout = Tiering { runs = size_ratio };
    granularity = Whole_level;
    size_ratio;
  }

let lazy_leveled ?(size_ratio = 10) () =
  { default with layout = Lazy_leveling { runs = size_ratio }; size_ratio }

let run_cap t ~level ~last_level =
  if level <= 0 then t.level0_limit
  else
    match t.layout with
    | Leveling -> 1
    | Tiering { runs } -> max 1 runs
    | Lazy_leveling { runs } -> if level >= last_level then 1 else max 1 runs
    | Hybrid { tiered_levels; runs } -> if level <= tiered_levels then max 1 runs else 1
    | Run_caps caps ->
      if Array.length caps = 0 then 1
      else if level - 1 < Array.length caps then max 1 caps.(level - 1)
      else max 1 caps.(Array.length caps - 1)
    | Guarded _ -> max_int

(* Strides shrink by [size_ratio] per level, so a guard of level [l] is a
   guard of every deeper level; the floor of 64 bounds guard density far
   below the data. *)
let guard_stride ~stride_base ~size_ratio ~level =
  let rec div s n = if n <= 0 || s <= 64 then max 64 s else div (s / size_ratio) (n - 1) in
  div stride_base (level - 1)

let is_guard ~stride_base ~size_ratio ~level key =
  let h = Int64.to_int (Lsm_util.Hashing.string64 ~seed:0x9aadL key) land max_int in
  h mod guard_stride ~stride_base ~size_ratio ~level = 0

let layout_name = function
  | Leveling -> "leveling"
  | Tiering { runs } -> Printf.sprintf "tiering(%d)" runs
  | Lazy_leveling { runs } -> Printf.sprintf "lazy-leveling(%d)" runs
  | Hybrid { tiered_levels; runs } -> Printf.sprintf "hybrid(%d tiered,%d)" tiered_levels runs
  | Run_caps caps ->
    Printf.sprintf "run-caps[%s]"
      (String.concat "," (Array.to_list (Array.map string_of_int caps)))
  | Guarded { stride_base } -> Printf.sprintf "guarded(%d)" stride_base

let movement_name = function
  | Round_robin -> "round-robin"
  | Least_overlap -> "least-overlap"
  | Oldest_file -> "oldest"
  | Most_tombstones -> "most-tombstones"
  | Expired_ttl { ttl } -> Printf.sprintf "expired-ttl(%d)" ttl

let granularity_name = function Whole_level -> "whole-level" | Single_file -> "single-file"

let describe t =
  Printf.sprintf "%s/%s/%s T=%d L0=%d" (layout_name t.layout)
    (granularity_name t.granularity) (movement_name t.movement) t.size_ratio t.level0_limit
