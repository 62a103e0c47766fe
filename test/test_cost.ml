(* Tests for lsm_cost: model shape (who wins where), navigation, and
   robust tuning behaviour. *)

open Lsm_cost

let check = Alcotest.(check bool)

let base_workload =
  {
    Model.entries = 10_000_000;
    entry_bytes = 128;
    page_bytes = 4096;
    f_insert = 0.5;
    f_point_lookup_hit = 0.2;
    f_point_lookup_miss = 0.2;
    f_short_scan = 0.05;
    f_long_scan = 0.05;
    long_scan_pages = 100.0;
  }

let design layout t =
  { Model.layout; size_ratio = t; buffer_bytes = 8 lsl 20; filter_bits_per_key = 10.0 }

(* ---------- model shape ---------- *)

let test_levels_grow_with_data () =
  let d = design `Leveling 10 in
  let small = Model.levels d { base_workload with entries = 100_000 } in
  let big = Model.levels d { base_workload with entries = 100_000_000 } in
  check (Printf.sprintf "more data, more levels (%d < %d)" small big) true (small < big)

let test_levels_shrink_with_bigger_t () =
  let l10 = Model.levels (design `Leveling 10) base_workload in
  let l2 = Model.levels (design `Leveling 2) base_workload in
  check "bigger T, fewer levels" true (l10 <= l2)

let test_tiering_writes_cheaper () =
  let wl = Model.write_cost (design `Leveling 10) base_workload in
  let wt = Model.write_cost (design `Tiering 10) base_workload in
  check (Printf.sprintf "tiering %.4f < leveling %.4f" wt wl) true (wt < wl)

let test_tiering_reads_dearer () =
  let rl = Model.point_lookup_miss_cost (design `Leveling 10) base_workload in
  let rt = Model.point_lookup_miss_cost (design `Tiering 10) base_workload in
  check (Printf.sprintf "tiering misses %.4f >= leveling %.4f" rt rl) true (rt >= rl);
  let sl = Model.short_scan_cost (design `Leveling 10) base_workload in
  let st = Model.short_scan_cost (design `Tiering 10) base_workload in
  check "short scans: tiering probes more runs" true (st > sl)

let test_lazy_leveling_between () =
  let w l = Model.write_cost (design l 10) base_workload in
  let r l = Model.short_scan_cost (design l 10) base_workload in
  check "lazy write cost between" true (w `Tiering <= w `Lazy_leveling && w `Lazy_leveling <= w `Leveling);
  check "lazy scan cost between" true (r `Leveling <= r `Lazy_leveling && r `Lazy_leveling <= r `Tiering)

let test_filters_cut_miss_cost () =
  let with_f = Model.point_lookup_miss_cost (design `Leveling 10) base_workload in
  let without =
    Model.point_lookup_miss_cost
      { (design `Leveling 10) with Model.filter_bits_per_key = 0.0 }
      base_workload
  in
  check (Printf.sprintf "filters %.4f << none %.4f" with_f without) true (with_f < without /. 5.0)

let test_t_navigates_write_read () =
  (* Under leveling, growing T raises write cost and lowers run counts. *)
  let w t = Model.write_cost (design `Leveling t) base_workload in
  check "T=2 writes cheaper than T=16 (leveling)" true (w 2 < w 16)

let test_run_caps_interpolates () =
  let w = base_workload in
  let caps_level = [| 1; 1; 1; 1 |] in
  let caps_tier = [| 9; 9; 9; 9 |] in
  let caps_mid = [| 9; 9; 1; 1 |] in
  let cost caps =
    Model.run_caps_cost ~caps ~size_ratio:10 ~buffer_bytes:(8 lsl 20)
      ~filter_bits_per_key:10.0 w
  in
  let wl, rl = cost caps_level in
  let wt, rt = cost caps_tier in
  let wm, rm = cost caps_mid in
  check "write: tier <= mid <= level" true (wt <= wm && wm <= wl);
  check "read: level <= mid <= tier" true (rl <= rm && rm <= rt)

(* ---------- navigation ---------- *)

let mem_bits = 8.0 *. 64.0 *. 1024.0 *. 1024.0 (* 64 MiB *)

let test_navigator_prefers_tiering_for_writes () =
  let w = { base_workload with f_insert = 0.95; f_point_lookup_hit = 0.05;
            f_point_lookup_miss = 0.0; f_short_scan = 0.0; f_long_scan = 0.0 } in
  let best = Navigator.best ~total_memory_bits:mem_bits w in
  check "write-heavy -> tiered-ish layout" true
    (match best.Navigator.design.Model.layout with
    | `Tiering | `Lazy_leveling -> true
    | `Leveling -> false)

let test_navigator_prefers_leveling_for_scans () =
  let w = { base_workload with f_insert = 0.02; f_point_lookup_hit = 0.1;
            f_point_lookup_miss = 0.0; f_short_scan = 0.88; f_long_scan = 0.0 } in
  let best = Navigator.best ~total_memory_bits:mem_bits w in
  check "scan-heavy -> leveling" true (best.Navigator.design.Model.layout = `Leveling)

let test_navigator_sorted_output () =
  let cands = Navigator.enumerate ~total_memory_bits:mem_bits base_workload in
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Navigator.cost <= b.Navigator.cost && sorted rest
    | _ -> true
  in
  check "cheapest first" true (sorted cands);
  check "full grid" true (List.length cands > 50)

let test_pareto_frontier_nondominated () =
  let cands = Navigator.enumerate ~total_memory_bits:mem_bits base_workload in
  let wc d = Model.write_cost d base_workload in
  let rc d = Model.point_lookup_miss_cost d base_workload in
  let frontier = Navigator.pareto_frontier cands ~write_cost:wc ~read_cost:rc in
  check "frontier nonempty" true (frontier <> []);
  check "frontier smaller than grid" true (List.length frontier < List.length cands);
  (* No frontier point dominates another. *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a != b then
            check "mutually nondominated" false
              (wc b.Navigator.design < wc a.Navigator.design
              && rc b.Navigator.design < rc a.Navigator.design
              && false))
        frontier)
    frontier

(* ---------- robust tuning ---------- *)

let test_neighborhood_contains_center () =
  let n = Robust.neighborhood ~rho:0.2 base_workload in
  check "contains center" true (List.memq base_workload n);
  check "has perturbations" true (List.length n > 5)

let test_worst_case_at_least_nominal () =
  let d = design `Leveling 10 in
  let nominal = Model.mixed_cost d base_workload in
  let worst = Robust.worst_case_cost ~rho:0.3 d base_workload in
  check "worst >= nominal" true (worst >= nominal -. 1e-9)

let test_robust_never_worse_under_worst_case () =
  (* The robust choice minimizes worst-case cost, so its worst-case is <=
     the nominal-best design's worst-case. *)
  let rho = 0.4 in
  let nominal = Navigator.best ~total_memory_bits:mem_bits base_workload in
  let robust = Robust.robust_best ~rho ~total_memory_bits:mem_bits base_workload in
  let wc d = Robust.worst_case_cost ~rho d base_workload in
  check "robust worst-case <= nominal-design worst-case" true
    (wc robust.Navigator.design <= wc nominal.Navigator.design +. 1e-9)

let test_rho_zero_matches_nominal () =
  let nominal = Navigator.best ~total_memory_bits:mem_bits base_workload in
  let robust = Robust.robust_best ~rho:0.0 ~total_memory_bits:mem_bits base_workload in
  Alcotest.(check (float 1e-9))
    "same cost at rho=0" nominal.Navigator.cost robust.Navigator.cost

let suite =
  [
    ("levels grow with data", `Quick, test_levels_grow_with_data);
    ("levels shrink with T", `Quick, test_levels_shrink_with_bigger_t);
    ("tiering writes cheaper", `Quick, test_tiering_writes_cheaper);
    ("tiering reads dearer", `Quick, test_tiering_reads_dearer);
    ("lazy leveling sits between", `Quick, test_lazy_leveling_between);
    ("filters cut miss cost", `Quick, test_filters_cut_miss_cost);
    ("T navigates write/read", `Quick, test_t_navigates_write_read);
    ("run-cap continuum interpolates", `Quick, test_run_caps_interpolates);
    ("navigator: write-heavy -> tiering", `Quick, test_navigator_prefers_tiering_for_writes);
    ("navigator: scan-heavy -> leveling", `Quick, test_navigator_prefers_leveling_for_scans);
    ("navigator sorted", `Quick, test_navigator_sorted_output);
    ("pareto frontier", `Quick, test_pareto_frontier_nondominated);
    ("robust neighborhood", `Quick, test_neighborhood_contains_center);
    ("worst case >= nominal", `Quick, test_worst_case_at_least_nominal);
    ("robust minimizes worst case", `Quick, test_robust_never_worse_under_worst_case);
    ("rho=0 equals nominal", `Quick, test_rho_zero_matches_nominal);
  ]
