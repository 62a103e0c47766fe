(* Tests for lsm_compaction: run caps per layout, file-picking policies;
   and the compaction planner's picks on hand-built trees. *)

module Policy = Lsm_compaction.Policy
module Picker = Lsm_compaction.Picker
module Table_meta = Lsm_sstable.Table_meta
module Config = Lsm_core.Config
module Version = Lsm_core.Version
module Planner = Lsm_core.Planner

let cmp = Lsm_util.Comparator.bytewise
let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let meta ?(tombs = 0) ?(created = 0) ?(size = 100) id lo hi =
  {
    Table_meta.file_id = id;
    file_name = Printf.sprintf "%d.sst" id;
    size;
    entries = 100;
    point_tombstones = tombs;
    range_tombstones = 0;
    min_key = lo;
    max_key = hi;
    min_seqno = 0;
    max_seqno = 0;
    created_at = created;
    data_bytes = size;
    ecc = None;
  }

(* ---------- run caps ---------- *)

let test_run_caps_leveling () =
  let p = Policy.leveled () in
  for l = 1 to 6 do
    check_int "always 1" 1 (Policy.run_cap p ~level:l ~last_level:6)
  done

let test_run_caps_tiering () =
  let p = Policy.tiered ~size_ratio:6 () in
  for l = 1 to 6 do
    check_int "always T" 6 (Policy.run_cap p ~level:l ~last_level:6)
  done

let test_run_caps_lazy_leveling () =
  let p = Policy.lazy_leveled ~size_ratio:5 () in
  check_int "intermediate tiered" 5 (Policy.run_cap p ~level:2 ~last_level:4);
  check_int "last leveled" 1 (Policy.run_cap p ~level:4 ~last_level:4)

let test_run_caps_hybrid () =
  let p =
    { (Policy.leveled ()) with Policy.layout = Policy.Hybrid { tiered_levels = 2; runs = 4 } }
  in
  check_int "level 1 tiered" 4 (Policy.run_cap p ~level:1 ~last_level:5);
  check_int "level 2 tiered" 4 (Policy.run_cap p ~level:2 ~last_level:5);
  check_int "level 3 leveled" 1 (Policy.run_cap p ~level:3 ~last_level:5)

let test_run_caps_custom () =
  let p = { (Policy.leveled ()) with Policy.layout = Policy.Run_caps [| 3; 2; 1 |] } in
  check_int "level 1" 3 (Policy.run_cap p ~level:1 ~last_level:5);
  check_int "level 2" 2 (Policy.run_cap p ~level:2 ~last_level:5);
  check_int "level 3" 1 (Policy.run_cap p ~level:3 ~last_level:5);
  check_int "beyond array reuses last" 1 (Policy.run_cap p ~level:5 ~last_level:5)

let test_level0_cap () =
  let p = Policy.leveled () in
  check_int "level 0 uses level0_limit" p.Policy.level0_limit
    (Policy.run_cap p ~level:0 ~last_level:3)

(* ---------- picking ---------- *)

let next_level =
  [ meta 10 "a" "f" ~size:500; meta 11 "g" "m" ~size:300; meta 12 "n" "z" ~size:800 ]

let candidates ?(ttl = None) ?(now = 100) files =
  Picker.annotate ~cmp ~now ~ttl ~next_level files

let test_annotate_overlap () =
  let cands = candidates [ meta 1 "a" "e"; meta 2 "f" "h"; meta 3 "x" "y" ] in
  match cands with
  | [ a; b; c ] ->
    check_int "file 1 overlaps first next file" 500 a.Picker.overlap_bytes;
    check_int "file 2 spans two next files" 800 b.Picker.overlap_bytes;
    check_int "file 3 overlaps last" 800 c.Picker.overlap_bytes
  | _ -> Alcotest.fail "expected 3 candidates"

let test_pick_least_overlap () =
  let cands = candidates [ meta 1 "a" "e"; meta 2 "f" "h"; meta 3 "x" "y" ] in
  match Picker.pick Policy.Least_overlap ~cursor:None cands with
  | Some m -> check_int "file 1 has least overlap" 1 m.Table_meta.file_id
  | None -> Alcotest.fail "no pick"

let test_pick_oldest () =
  let cands =
    candidates [ meta 1 "a" "b" ~created:50; meta 2 "c" "d" ~created:10; meta 3 "e" "f" ~created:30 ]
  in
  match Picker.pick Policy.Oldest_file ~cursor:None cands with
  | Some m -> check_int "oldest file" 2 m.Table_meta.file_id
  | None -> Alcotest.fail "no pick"

let test_pick_most_tombstones () =
  let cands =
    candidates [ meta 1 "a" "b" ~tombs:5; meta 2 "c" "d" ~tombs:50; meta 3 "e" "f" ~tombs:0 ]
  in
  match Picker.pick Policy.Most_tombstones ~cursor:None cands with
  | Some m -> check_int "densest tombstones" 2 m.Table_meta.file_id
  | None -> Alcotest.fail "no pick"

let test_pick_round_robin_cursor () =
  let files = [ meta 1 "a" "c"; meta 2 "d" "f"; meta 3 "g" "i" ] in
  let cands = candidates files in
  (match Picker.pick Policy.Round_robin ~cursor:None cands with
  | Some m -> check_int "starts at smallest" 1 m.Table_meta.file_id
  | None -> Alcotest.fail "no pick");
  (match Picker.pick Policy.Round_robin ~cursor:(Some "c") cands with
  | Some m -> check_int "continues past cursor" 2 m.Table_meta.file_id
  | None -> Alcotest.fail "no pick");
  match Picker.pick Policy.Round_robin ~cursor:(Some "z") cands with
  | Some m -> check_int "wraps around" 1 m.Table_meta.file_id
  | None -> Alcotest.fail "no pick"

let test_pick_expired_ttl () =
  (* now=100, ttl=40: files created before 60 with tombstones are expired. *)
  let files =
    [ meta 1 "a" "b" ~tombs:1 ~created:90; meta 2 "c" "d" ~tombs:3 ~created:10;
      meta 3 "e" "f" ~tombs:0 ~created:5 ]
  in
  let cands = candidates ~ttl:(Some 40) files in
  (match Picker.pick (Policy.Expired_ttl { ttl = 40 }) ~cursor:None cands with
  | Some m -> check_int "expired tombstone file wins" 2 m.Table_meta.file_id
  | None -> Alcotest.fail "no pick");
  (* Without any expired file, falls back to least overlap. *)
  let fresh =
    candidates ~ttl:(Some 40) [ meta 1 "a" "e" ~tombs:1 ~created:90; meta 2 "x" "y" ~created:95 ]
  in
  match Picker.pick (Policy.Expired_ttl { ttl = 40 }) ~cursor:None fresh with
  | Some m -> check_int "fallback least overlap" 1 m.Table_meta.file_id
  | None -> Alcotest.fail "no pick"

let test_pick_empty () =
  check "empty yields none" true (Picker.pick Policy.Least_overlap ~cursor:None [] = None)

let test_describe () =
  check "describes leveling" true
    (String.length (Policy.describe (Policy.leveled ())) > 0);
  let d =
    Policy.describe { (Policy.leveled ()) with Policy.movement = Policy.Expired_ttl { ttl = 7 } }
  in
  Alcotest.(check string) "movement names" "expired-ttl(7)"
    (List.nth (String.split_on_char '/' (List.hd (String.split_on_char ' ' d))) 2)

(* ---------- planner picks on hand-built trees ---------- *)

(* [files]: (level, group, meta); within a level, higher groups are
   newer runs. *)
let tree files =
  Version.apply Version.empty { Version.added = files; removed = []; seqno_watermark = 0 }

let planner_config ?(l1 = 1000) policy =
  { Config.default with level1_capacity = l1; compaction = { policy with Policy.level0_limit = 2 } }

let no_reach (f : Table_meta.t) = f.max_key

(* The pick due in [files], checked for the planner's one promise to the
   scheduler: the conflict span covers every input's [min_key, reach]
   (on these trees a tombstone's reach always ends inside a next-level
   input, which the reach-widened overlap pulls in). *)
let pick ?(now = 0) ?(cursor = fun _ -> None) ?(reach = no_reach) cfg files =
  match Planner.next cfg (tree files) ~now ~cursor ~reach with
  | None -> Alcotest.fail "nothing picked"
  | Some (p : Planner.pick) ->
    List.iter
      (fun (f : Table_meta.t) ->
        check
          (Printf.sprintf "span [%s, %s] covers file %d" p.lo p.hi f.file_id)
          true
          (String.compare p.lo f.min_key <= 0 && String.compare (reach f) p.hi <= 0))
      (Planner.input_files p);
    p

(* Input file ids per run, newest run first. *)
let input_ids (p : Planner.pick) =
  List.map (fun (r : Version.run) -> List.map (fun f -> f.Table_meta.file_id) r.files) p.inputs

let check_ids = Alcotest.(check (list (list int)))

let check_shape name (p : Planner.pick) ~level ~target ~output ~bottom ~trivial_move =
  check_int (name ^ ": level") level p.level;
  check_int (name ^ ": target") target p.target;
  check (name ^ ": output") true (p.output = output);
  check (name ^ ": bottom") bottom p.bottom;
  check (name ^ ": trivial move") trivial_move p.trivial_move

let test_plan_level0 () =
  let files =
    [ (0, 5, meta 1 "a" "m"); (0, 4, meta 2 "c" "z"); (1, 1, meta 10 "a" "f");
      (1, 1, meta 11 "g" "y") ]
  in
  let p = pick (planner_config (Policy.leveled ~size_ratio:4 ())) files in
  check_shape "into leveled" p ~level:0 ~target:1 ~output:(Planner.Join 1) ~bottom:true
    ~trivial_move:false;
  check_ids "L0 runs then L1's" [ [ 1 ]; [ 2 ]; [ 10; 11 ] ] (input_ids p);
  let p = pick (planner_config (Policy.tiered ~size_ratio:4 ())) files in
  check_shape "into tiered" p ~level:0 ~target:1 ~output:Planner.Fresh_run ~bottom:false
    ~trivial_move:false;
  check_ids "L0 runs only" [ [ 1 ]; [ 2 ] ] (input_ids p);
  Alcotest.(check (pair string string)) "span still covers L1" ("a", "z") (p.lo, p.hi)

let test_plan_tier_run_count () =
  let cfg = planner_config (Policy.tiered ~size_ratio:3 ()) in
  let runs = [ (1, 3, meta 1 "a" "k"); (1, 2, meta 2 "b" "m"); (1, 1, meta 3 "c" "z") ] in
  let p = pick cfg runs in
  check_shape "last level" p ~level:1 ~target:2 ~output:Planner.Fresh_run ~bottom:true
    ~trivial_move:false;
  check_ids "every run" [ [ 1 ]; [ 2 ]; [ 3 ] ] (input_ids p);
  let p = pick cfg (runs @ [ (2, 7, meta 20 "a" "b") ]) in
  check "older runs below: not bottom" false p.bottom;
  check "under the cap: nothing due" true
    (Planner.next cfg (tree (List.tl runs)) ~now:0 ~cursor:(fun _ -> None) ~reach:no_reach
     = None)

let test_plan_level_bytes () =
  (* L1 (capacity 1000) holds 1200 bytes; file 2 overlaps L2 least. *)
  let files =
    [ (1, 4, meta 1 "a" "c" ~size:600); (1, 4, meta 2 "d" "f" ~size:600);
      (2, 2, meta 10 "a" "b"); (2, 2, meta 11 "c" "e"); (2, 2, meta 12 "x" "z") ]
  in
  let single = planner_config (Policy.leveled ~size_ratio:4 ()) in
  let p = pick single files in
  check_shape "single file" p ~level:1 ~target:2 ~output:(Planner.Join 2) ~bottom:true
    ~trivial_move:false;
  check_ids "file and its overlap" [ [ 2 ]; [ 11 ] ] (input_ids p);
  check "cursor at the file's max key" true (p.cursor = Some (1, "f"));
  (* Round robin from a cursor past file 1; a range tombstone in file 2
     reaching to "xa" widens its overlap to file 12. *)
  let reach (f : Table_meta.t) = if f.file_id = 2 then "xa" else f.max_key in
  let p =
    pick ~reach
      ~cursor:(function 1 -> Some "c" | _ -> None)
      { single with compaction = { single.compaction with Policy.movement = Policy.Round_robin } }
      files
  in
  check_ids "reach-widened overlap" [ [ 2 ]; [ 11; 12 ] ] (input_ids p);
  let p = pick single [ (1, 4, meta 1 "a" "c" ~size:1200); (2, 2, meta 12 "x" "z") ] in
  check "no overlap: may move" true p.trivial_move;
  let whole =
    planner_config
      { (Policy.leveled ~size_ratio:4 ()) with Policy.granularity = Policy.Whole_level }
  in
  let p = pick whole files in
  check_shape "whole level" p ~level:1 ~target:2 ~output:(Planner.Join 2) ~bottom:true
    ~trivial_move:false;
  check_ids "both levels" [ [ 1; 2 ]; [ 10; 11; 12 ] ] (input_ids p);
  (* Leveled L1 over a tiered L2: the lone run may move unchanged. *)
  let p =
    pick
      (planner_config
         { (Policy.leveled ~size_ratio:4 ()) with Policy.layout = Policy.Run_caps [| 1; 3 |] })
      files
  in
  check_shape "into tiered" p ~level:1 ~target:2 ~output:Planner.Fresh_run ~bottom:false
    ~trivial_move:true;
  check_ids "L1's run only" [ [ 1; 2 ] ] (input_ids p)

let ttl_policy policy = { policy with Policy.movement = Policy.Expired_ttl { ttl = 10 } }

let test_plan_ttl () =
  (* Under capacity everywhere; file 2 holds tombstones 100 ticks old. *)
  let leveled = planner_config (ttl_policy (Policy.leveled ~size_ratio:4 ())) in
  let files =
    [ (1, 4, meta 1 "a" "c"); (1, 4, meta 2 "d" "f" ~tombs:3); (2, 2, meta 10 "e" "g") ]
  in
  check "not expired yet: nothing due" true
    (Planner.next leveled (tree files) ~now:5 ~cursor:(fun _ -> None) ~reach:no_reach = None);
  let p = pick ~now:100 leveled files in
  check_shape "leveled: single file" p ~level:1 ~target:2 ~output:(Planner.Join 2)
    ~bottom:true ~trivial_move:false;
  check_ids "the expired file and its overlap" [ [ 2 ]; [ 10 ] ] (input_ids p);
  (* Tiered: the expired file sits in L1's newer run; it must not move
     below the older run, so the whole level merges. *)
  let tiered = planner_config (ttl_policy (Policy.tiered ~size_ratio:4 ())) in
  let files =
    [ (1, 5, meta 1 "a" "c"); (1, 5, meta 2 "d" "f" ~tombs:3); (1, 4, meta 3 "a" "z");
      (2, 2, meta 10 "e" "g") ]
  in
  let p = pick ~now:100 tiered files in
  check_shape "tiered: tier merge" p ~level:1 ~target:2 ~output:Planner.Fresh_run
    ~bottom:false ~trivial_move:false;
  check_ids "every run of L1" [ [ 1; 2 ]; [ 3 ] ] (input_ids p);
  check "no cursor" true (p.cursor = None)

let guarded = planner_config (Policy.leveled ~size_ratio:2 ()) |> fun c ->
  { c with
    compaction = { c.compaction with Policy.layout = Policy.Guarded { stride_base = 4096 } } }

let test_plan_guard_fragments () =
  (* Guard [a, c] holds three fragments (> size_ratio 2); guard [x, z]
     one. File 2's range tombstone reaches "cz", into L2's file 10. *)
  let frags =
    [ (1, 3, meta 1 "a" "b"); (1, 2, meta 2 "b" "c"); (1, 1, meta 3 "a" "c");
      (1, 1, meta 4 "x" "z") ]
  in
  let reach (f : Table_meta.t) = if f.file_id = 2 then "cz" else f.max_key in
  let p = pick ~reach guarded (frags @ [ (2, 1, meta 10 "ca" "d") ]) in
  check_shape "appended below" p ~level:1 ~target:2 ~output:Planner.Fresh_run ~bottom:false
    ~trivial_move:false;
  check_ids "the guard's fragments" [ [ 1 ]; [ 2 ]; [ 3 ] ] (input_ids p);
  Alcotest.(check (pair string string)) "span reaches L2's overlap" ("a", "d") (p.lo, p.hi);
  let p = pick guarded frags in
  check_shape "in place at the last level" p ~level:1 ~target:1 ~output:Planner.Fresh_run
    ~bottom:true ~trivial_move:false

let test_plan_guard_capacity () =
  (* No guard over its fragment count, but L1 (capacity 800) holds 1000
     bytes: the heaviest guard, [m, o] at 700 bytes, moves down. *)
  let files =
    [ (1, 2, meta 1 "a" "b" ~size:300); (1, 2, meta 2 "m" "n" ~size:500);
      (1, 1, meta 3 "m" "o" ~size:200) ]
  in
  let p = pick (planner_config ~l1:800 guarded.compaction) files in
  check_shape "heaviest guard" p ~level:1 ~target:2 ~output:Planner.Fresh_run ~bottom:true
    ~trivial_move:false;
  check_ids "its runs" [ [ 2 ]; [ 3 ] ] (input_ids p)

let test_plan_major () =
  let cfg = planner_config (Policy.leveled ~size_ratio:4 ()) in
  check "empty tree: none" true (Planner.major cfg Version.empty = None);
  let files = [ (0, 9, meta 1 "k" "p"); (1, 4, meta 2 "a" "c"); (3, 2, meta 3 "m" "z") ] in
  (match Planner.major cfg (tree files) with
  | None -> Alcotest.fail "nothing picked"
  | Some p ->
    check_shape "all runs" p ~level:0 ~target:3 ~output:Planner.Fresh_run ~bottom:true
      ~trivial_move:false;
    check_ids "level by level" [ [ 1 ]; [ 2 ]; [ 3 ] ] (input_ids p);
    Alcotest.(check (pair string string)) "span" ("a", "z") (p.lo, p.hi));
  match Planner.major cfg (tree [ (2, 1, meta 3 "m" "z") ]) with
  | None -> Alcotest.fail "a lone bottom run still rewrites"
  | Some p -> check_shape "lone run" p ~level:0 ~target:2 ~output:Planner.Fresh_run
                ~bottom:true ~trivial_move:false

let suite =
  [
    ("run caps: leveling", `Quick, test_run_caps_leveling);
    ("run caps: tiering", `Quick, test_run_caps_tiering);
    ("run caps: lazy leveling", `Quick, test_run_caps_lazy_leveling);
    ("run caps: hybrid", `Quick, test_run_caps_hybrid);
    ("run caps: custom vector", `Quick, test_run_caps_custom);
    ("run caps: level 0", `Quick, test_level0_cap);
    ("annotate computes overlap", `Quick, test_annotate_overlap);
    ("pick least overlap", `Quick, test_pick_least_overlap);
    ("pick oldest", `Quick, test_pick_oldest);
    ("pick most tombstones", `Quick, test_pick_most_tombstones);
    ("pick round robin with cursor", `Quick, test_pick_round_robin_cursor);
    ("pick expired ttl (Lethe)", `Quick, test_pick_expired_ttl);
    ("pick on empty", `Quick, test_pick_empty);
    ("policy descriptions", `Quick, test_describe);
    ("planner: level-0 limit", `Quick, test_plan_level0);
    ("planner: tier run count", `Quick, test_plan_tier_run_count);
    ("planner: level bytes", `Quick, test_plan_level_bytes);
    ("planner: ttl", `Quick, test_plan_ttl);
    ("planner: guard fragments", `Quick, test_plan_guard_fragments);
    ("planner: heaviest guard", `Quick, test_plan_guard_capacity);
    ("planner: major compaction", `Quick, test_plan_major);
  ]
