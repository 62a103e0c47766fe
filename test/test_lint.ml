(* lsm-lint behaves as specified on the checked-in fixture snippets.

   Parse frontend (R1–R8): each rule has a failing and a passing
   fixture, suppressions need a reason, stale suppressions are
   reported, and the real lib/ tree is clean. Those fixtures are
   parsed, never compiled, so they can use raw Mutex / Obj.magic
   freely.

   Typed frontend (R9–R10): the fixtures under lint_fixtures/typed/
   are real dune libraries (listed in this test's dependencies so
   their .cmt output exists before the test runs); the passes load the
   .cmt files exactly as `lsm-lint --typed` does. The capstone test
   re-derives the full lock hierarchy from the built lib/ tree and
   checks it against the Rank table. *)

module Driver = Lsm_lint.Driver
module Finding = Lsm_lint.Finding
module Typed_rules = Lsm_lint.Typed_rules
module Lock_summary = Lsm_lint.Lock_summary

let fixture dir = Filename.concat "lint_fixtures" dir

let lint ~rules dirs = Driver.lint_paths ~rules (List.map fixture dirs)

let rules_of findings = List.map (fun (f : Finding.t) -> f.Finding.rule) findings

let check_rules = Alcotest.(check (list string))

let check_flagged rule ~bad ~ok ~expect () =
  let findings = lint ~rules:[ rule ] [ bad ] in
  check_rules
    (Printf.sprintf "%s flags %s" rule bad)
    (List.init expect (fun _ -> rule))
    (rules_of findings);
  check_rules (Printf.sprintf "%s passes %s" rule ok) [] (rules_of (lint ~rules:[ rule ] [ ok ]))

let test_r1 = check_flagged "R1" ~bad:"r1_bad" ~ok:"r1_ok" ~expect:2
let test_r2 = check_flagged "R2" ~bad:"r2_bad" ~ok:"r2_ok" ~expect:2
let test_r3 = check_flagged "R3" ~bad:"r3_bad" ~ok:"r3_ok" ~expect:1
let test_r4 = check_flagged "R4" ~bad:"r4_bad" ~ok:"r4_ok" ~expect:4
let test_r5 = check_flagged "R5" ~bad:"r5_bad" ~ok:"r5_ok" ~expect:2
let test_r6 = check_flagged "R6" ~bad:"r6_bad" ~ok:"r6_ok" ~expect:2
let test_r7 = check_flagged "R7" ~bad:"r7_bad" ~ok:"r7_ok" ~expect:3
let test_r8 = check_flagged "R8" ~bad:"r8_bad" ~ok:"r8_ok" ~expect:2

(* r12_ok also contains other_module.ml carrying the same bad idioms
   under a non-hot file name: a clean pass proves both the blessed
   arena idioms and the file-name scoping. *)
let test_r12 = check_flagged "R12" ~bad:"r12_bad" ~ok:"r12_ok" ~expect:5

(* r13_ok holds a C external under the exempt name crc32c.ml and %
   primitives elsewhere; r13_bad binds C symbols at top level, in a
   nested module and in a signature. *)
let test_r13 = check_flagged "R13" ~bad:"r13_bad" ~ok:"r13_ok" ~expect:3

let test_r2_only_in_cache_modules () =
  (* The same I/O-under-lock shape in a non-cache module is not R2's
     business: the rule is about the fan-out hot-path locks. *)
  let findings =
    Driver.lint_paths ~rules:[ "R2" ] [ Filename.concat (fixture "r1_bad") "raw_mutex.ml" ]
  in
  check_rules "non-cache module ignored" [] (rules_of findings)

let test_finding_positions () =
  let findings = lint ~rules:[ "R1" ] [ "r1_bad" ] in
  Alcotest.(check (list int))
    "R1 lines" [ 7; 9 ]
    (List.map (fun (f : Finding.t) -> f.Finding.line) findings)

let test_suppression_with_reason () =
  check_rules "explained suppression silences R1" []
    (rules_of (lint ~rules:[ "R1" ] [ "suppress_ok" ]))

let test_suppression_without_reason () =
  (* Reasonless: the suppression is rejected (R0) AND the underlying
     finding survives. *)
  check_rules "reasonless suppression rejected" [ "R0"; "R1" ]
    (rules_of (lint ~rules:[ "R1" ] [ "suppress_bad" ]))

let test_unused_suppression () =
  (* The fixture allows R7 but raises nothing: with R7 active the
     suppression demonstrably suppressed nothing, so it is reported. *)
  check_rules "stale suppression reported" [ "R0" ]
    (rules_of (lint ~rules:[ "R7" ] [ "suppress_unused" ]));
  (* With R7 inactive staleness cannot be judged — stay silent. *)
  check_rules "unjudgeable suppression kept quiet" []
    (rules_of (lint ~rules:[ "R1" ] [ "suppress_unused" ]))

let test_rule_filter () =
  (* r4_bad also contains no R1 material; an R1-only run over it is clean. *)
  check_rules "rule filter" [] (rules_of (lint ~rules:[ "R1" ] [ "r4_bad" ]))

let test_json_output () =
  let f =
    Finding.v ~file:"lib/x.ml" ~line:3 ~rule:"R9" ~chain:[ "A.f"; "B.g" ]
      "say \"hi\""
  in
  Alcotest.(check string)
    "finding serializes"
    {|{"file":"lib/x.ml","line":3,"rule":"R9","message":"say \"hi\"","chain":["A.f","B.g"]}|}
    (Finding.to_json f);
  Alcotest.(check bool)
    "list is a JSON array" true
    (let s = Finding.list_to_json [ f; f ] in
     String.length s > 2 && s.[0] = '[' && s.[String.length s - 1] = ']')

let test_repo_lib_clean () =
  (* The real tree, all parse rules: this is exactly what the CI lint
     job gates on. Under `dune runtest` the cwd is _build/default/test,
     so the built lib/ sources sit one level up. *)
  if Sys.file_exists "../lib" && Sys.is_directory "../lib" then
    check_rules "lib/ lint-clean" []
      (rules_of (Driver.lint_paths ~rules:Lsm_lint.Parse_rules.all_rules [ "../lib" ]))

(* ---------------- typed frontend ---------------- *)

let typed ?rules dir = Driver.typed_analysis ?rules [ fixture (Filename.concat "typed" dir) ]

let base_of (f : Finding.t) = Filename.basename f.Finding.file

let test_r9_inversion_reported () =
  let t = typed ~rules:[ "R9" ] "r9_bad" in
  let fs = Typed_rules.findings t in
  check_rules "one inversion" [ "R9" ] (rules_of fs);
  let f = List.hd fs in
  (* Anchored at the descending acquisition itself (Engine's lock);
     the chain carries the outer context. *)
  Alcotest.(check string) "reported at the acquiring site" "engine.ml" (base_of f);
  let chain = String.concat " -> " f.Finding.chain in
  let has needle =
    let nh = String.length chain and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub chain i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "chain crosses into Engine.kick" true (has "Cache.refill" && has "Engine.kick")

let test_r9_ascending_clean () =
  let t = typed ~rules:[ "R9" ] "r9_ok" in
  check_rules "ascending ranks pass" [] (rules_of (Typed_rules.findings t));
  (* ...but the acquired-before edge itself is still derived. *)
  Alcotest.(check int) "edge recorded" 1 (List.length t.Typed_rules.lock_order.Lock_summary.edges)

let test_r10_escapes_reported () =
  let t = typed ~rules:[ "R10" ] "r10_bad" in
  let fs = Typed_rules.findings t in
  check_rules "three escapes" [ "R10"; "R10"; "R10" ] (rules_of fs);
  List.iter (fun f -> Alcotest.(check string) "all in leak.ml" "leak.ml" (base_of f)) fs

let test_r10_contained_clean () =
  let t = typed ~rules:[ "R10" ] "r10_ok" in
  check_rules "pin-scoped uses pass" [] (rules_of (Typed_rules.findings t))

let expected_classes =
  [
    ("db.buffers", 8);
    ("db.snapshots", 9);
    ("db.id", 10);
    ("version.pins", 12);
    ("table_cache", 20);
    ("block_cache.shard", 30);
    ("device", 40);
    ("io_stats", 50);
    ("scheduler", 55);
    ("scheduler.lane", 55);
    ("domain_pool.queue", 60);
    ("domain_pool.future", 70);
  ]

let test_typed_lib_clean_and_order_derived () =
  (* The acceptance bar from the issue: R9 over the built lib/ tree
     independently re-derives the Rank ordering of ordered_mutex.ml
     with zero findings, and every acquired-before edge it finds
     ascends in rank. *)
  if Sys.file_exists "../lib" && Sys.is_directory "../lib" then begin
    let t = Driver.typed_analysis [ "../lib" ] in
    check_rules "lib/ typed-clean" [] (rules_of (Typed_rules.findings t));
    let order = t.Typed_rules.lock_order in
    Alcotest.(check (list (pair string int)))
      "derived classes match the Rank table" expected_classes
      (List.map
         (fun (name, rank) -> (name, Option.value rank ~default:(-1)))
         order.Lock_summary.classes);
    Alcotest.(check bool) "edges exist" true (order.Lock_summary.edges <> []);
    List.iter
      (fun (e : Lock_summary.edge) ->
        match (e.Lock_summary.e_src_rank, e.Lock_summary.e_dst_rank) with
        | Some sr, Some dr ->
          if sr > dr then
            Alcotest.failf "descending edge %s (%d) -> %s (%d)" e.Lock_summary.e_src sr
              e.Lock_summary.e_dst dr
        | _ -> Alcotest.failf "unranked edge %s -> %s" e.Lock_summary.e_src e.Lock_summary.e_dst)
      order.Lock_summary.edges;
    Alcotest.(check bool)
      "lane -> pool queue edge witnessed" true
      (List.exists
         (fun (e : Lock_summary.edge) ->
           e.Lock_summary.e_src = "scheduler.lane" && e.Lock_summary.e_dst = "domain_pool.queue")
         order.Lock_summary.edges)
  end

let suite =
  [
    Alcotest.test_case "R1: raw mutex fixtures" `Quick test_r1;
    Alcotest.test_case "R2: I/O under lock fixtures" `Quick test_r2;
    Alcotest.test_case "R3: missing mli fixtures" `Quick test_r3;
    Alcotest.test_case "R4: shared state fixtures" `Quick test_r4;
    Alcotest.test_case "R5: atomic pair fixtures" `Quick test_r5;
    Alcotest.test_case "R6: raw spawn fixtures" `Quick test_r6;
    Alcotest.test_case "R7: untyped failwith fixtures" `Quick test_r7;
    Alcotest.test_case "R8: unlooped condition wait fixtures" `Quick test_r8;
    Alcotest.test_case "R12: allocation-heavy idiom fixtures" `Quick test_r12;
    Alcotest.test_case "R13: C stubs outside the one module" `Quick test_r13;
    Alcotest.test_case "R2 scoped to cache modules" `Quick test_r2_only_in_cache_modules;
    Alcotest.test_case "findings carry line numbers" `Quick test_finding_positions;
    Alcotest.test_case "suppression with reason" `Quick test_suppression_with_reason;
    Alcotest.test_case "suppression without reason" `Quick test_suppression_without_reason;
    Alcotest.test_case "unused suppression" `Quick test_unused_suppression;
    Alcotest.test_case "rule filtering" `Quick test_rule_filter;
    Alcotest.test_case "JSON output" `Quick test_json_output;
    Alcotest.test_case "repo lib/ is clean" `Quick test_repo_lib_clean;
    Alcotest.test_case "R9: seeded inversion fixture" `Quick test_r9_inversion_reported;
    Alcotest.test_case "R9: ascending fixture clean" `Quick test_r9_ascending_clean;
    Alcotest.test_case "R10: seeded escape fixture" `Quick test_r10_escapes_reported;
    Alcotest.test_case "R10: pin-scoped fixture clean" `Quick test_r10_contained_clean;
    Alcotest.test_case "R9 derives the Rank table from lib/" `Quick test_typed_lib_clean_and_order_derived;
  ]
