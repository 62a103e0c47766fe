(* Tests for lsm_filter: no false negatives anywhere, bounded false
   positives, Monkey allocation shape, range-filter soundness. *)

open Lsm_filter
module Rng = Lsm_util.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let keys_of n prefix = List.init n (fun i -> Printf.sprintf "%s%06d" prefix i)

(* ---------- Bloom ---------- *)

let test_bloom_no_false_negatives () =
  let keys = keys_of 2000 "key" in
  let f = Bloom.create ~bits_per_key:10.0 ~expected:2000 in
  List.iter (Bloom.add f) keys;
  List.iter (fun k -> check ("present " ^ k) true (Bloom.mem f k)) keys

let test_bloom_fpr_close_to_theory () =
  let n = 5000 in
  let f = Bloom.create ~bits_per_key:10.0 ~expected:n in
  List.iter (Bloom.add f) (keys_of n "in");
  let trials = 20000 in
  let fp = ref 0 in
  for i = 0 to trials - 1 do
    if Bloom.mem f (Printf.sprintf "out%06d" i) then incr fp
  done;
  let fpr = float_of_int !fp /. float_of_int trials in
  let theory = Bloom.theoretical_fpr ~bits_per_key:10.0 in
  check
    (Printf.sprintf "fpr %.4f within 3x of theory %.4f" fpr theory)
    true
    (fpr < 3.0 *. theory +. 0.001)

let test_bloom_zero_bits_always_true () =
  let f = Bloom.create ~bits_per_key:0.0 ~expected:100 in
  check "always true" true (Bloom.mem f "anything");
  check_int "zero bits" 0 (Bloom.bit_count f)

let test_bloom_encode_decode () =
  let f = Bloom.create ~bits_per_key:8.0 ~expected:100 in
  List.iter (Bloom.add f) (keys_of 100 "k");
  let g = Bloom.decode (Bloom.encode f) in
  List.iter (fun k -> check "decoded retains members" true (Bloom.mem g k)) (keys_of 100 "k");
  check_int "same size" (Bloom.bit_count f) (Bloom.bit_count g)

let test_bloom_more_bits_fewer_fps () =
  let count_fps bits =
    let f = Bloom.create ~bits_per_key:bits ~expected:2000 in
    List.iter (Bloom.add f) (keys_of 2000 "in");
    let fp = ref 0 in
    for i = 0 to 9999 do
      if Bloom.mem f (Printf.sprintf "no%06d" i) then incr fp
    done;
    !fp
  in
  let fp4 = count_fps 4.0 and fp12 = count_fps 12.0 in
  check (Printf.sprintf "12 bits (%d fps) beats 4 bits (%d fps)" fp12 fp4) true (fp12 < fp4)

(* ---------- Blocked bloom ---------- *)

let test_blocked_bloom_no_false_negatives () =
  let keys = keys_of 3000 "bk" in
  let f = Blocked_bloom.create ~bits_per_key:10.0 ~expected:3000 in
  List.iter (Blocked_bloom.add f) keys;
  List.iter (fun k -> check "present" true (Blocked_bloom.mem f k)) keys

let test_blocked_bloom_roundtrip () =
  let f = Blocked_bloom.create ~bits_per_key:10.0 ~expected:500 in
  List.iter (Blocked_bloom.add f) (keys_of 500 "k");
  let g = Blocked_bloom.decode (Blocked_bloom.encode f) in
  List.iter (fun k -> check "decoded member" true (Blocked_bloom.mem g k)) (keys_of 500 "k")

let test_blocked_bloom_fpr_reasonable () =
  let f = Blocked_bloom.create ~bits_per_key:10.0 ~expected:5000 in
  List.iter (Blocked_bloom.add f) (keys_of 5000 "in");
  let fp = ref 0 in
  for i = 0 to 9999 do
    if Blocked_bloom.mem f (Printf.sprintf "no%d" i) then incr fp
  done;
  (* Blocked filters trade FPR for locality; accept up to ~5%. *)
  check (Printf.sprintf "fpr %d/10000 below 5%%" !fp) true (!fp < 500)

(* ---------- Cuckoo ---------- *)

let test_cuckoo_membership_and_delete () =
  let f = Cuckoo.create ~expected:1000 () in
  let keys = keys_of 1000 "ck" in
  List.iter (fun k -> check "inserted" true (Cuckoo.add f k)) keys;
  List.iter (fun k -> check "member" true (Cuckoo.mem f k)) keys

let test_cuckoo_fpr () =
  let f = Cuckoo.create ~fingerprint_bits:12 ~expected:4000 () in
  List.iter (fun k -> ignore (Cuckoo.add f k)) (keys_of 4000 "in");
  let fp = ref 0 in
  for i = 0 to 19999 do
    if Cuckoo.mem f (Printf.sprintf "no%06d" i) then incr fp
  done;
  (* 12-bit fingerprints, 4-way buckets: ~2*4/2^12 ≈ 0.2%; allow 1%. *)
  check (Printf.sprintf "fpr %d/20000 below 1%%" !fp) true (!fp < 200)

let test_cuckoo_roundtrip () =
  let f = Cuckoo.create ~expected:200 () in
  List.iter (fun k -> ignore (Cuckoo.add f k)) (keys_of 200 "k");
  let g = Cuckoo.decode (Cuckoo.encode f) in
  List.iter (fun k -> check "decoded member" true (Cuckoo.mem g k)) (keys_of 200 "k")

(* ---------- Point_filter wrapper ---------- *)

let test_point_filter_policies () =
  List.iter
    (fun policy ->
      let f = Point_filter.create policy ~expected:300 in
      List.iter (Point_filter.add f) (keys_of 300 "pk");
      List.iter
        (fun k ->
          check (Point_filter.policy_name policy ^ " no false negative") true
            (Point_filter.mem f k))
        (keys_of 300 "pk");
      let g = Point_filter.decode (Point_filter.encode f) in
      List.iter
        (fun k ->
          check (Point_filter.policy_name policy ^ " decode keeps members") true
            (Point_filter.mem g k))
        (keys_of 300 "pk"))
    [
      Point_filter.No_filter;
      Point_filter.Bloom { bits_per_key = 10.0 };
      Point_filter.Blocked_bloom { bits_per_key = 10.0 };
      Point_filter.Cuckoo { fingerprint_bits = 12 };
    ]

(* ---------- Monkey ---------- *)

let test_monkey_respects_budget () =
  let entries = [| 1000; 10_000; 100_000; 1_000_000 |] in
  let budget = 5_000_000.0 in
  let bits = Monkey.allocate ~total_bits:budget ~level_entries:entries in
  let used =
    Array.to_list (Array.mapi (fun i b -> b *. float_of_int entries.(i)) bits)
    |> List.fold_left ( +. ) 0.0
  in
  check (Printf.sprintf "uses %.0f <= budget" used) true (used <= budget *. 1.01)

let test_monkey_shallow_levels_get_more_bits () =
  let entries = [| 1000; 10_000; 100_000; 1_000_000 |] in
  let bits = Monkey.allocate ~total_bits:2_000_000.0 ~level_entries:entries in
  check "L0 >= L1" true (bits.(0) >= bits.(1));
  check "L1 >= L2" true (bits.(1) >= bits.(2));
  check "L2 >= L3" true (bits.(2) >= bits.(3))

let test_monkey_beats_uniform_on_expected_probes () =
  let entries = [| 1000; 10_000; 100_000; 1_000_000 |] in
  let budget = 2_000_000.0 in
  let probes alloc =
    Monkey.expected_probes ~fprs:(Array.map Monkey.fpr_of_bits alloc)
  in
  let monkey = probes (Monkey.allocate ~total_bits:budget ~level_entries:entries) in
  let uniform = probes (Monkey.uniform ~total_bits:budget ~level_entries:entries) in
  check (Printf.sprintf "monkey %.4f <= uniform %.4f" monkey uniform) true (monkey <= uniform)

let test_monkey_zero_budget () =
  let bits = Monkey.allocate ~total_bits:0.0 ~level_entries:[| 10; 20 |] in
  Array.iter (fun b -> check "no bits" true (b = 0.0)) bits

let test_monkey_skips_empty_levels () =
  let bits = Monkey.allocate ~total_bits:1000.0 ~level_entries:[| 0; 50; 0 |] in
  check "empty levels get zero" true (bits.(0) = 0.0 && bits.(2) = 0.0);
  check "non-empty level gets bits" true (bits.(1) > 0.0)

(* ---------- Range filters ---------- *)

let int_key i = Printf.sprintf "%08d" i
let sparse_keys = List.init 500 (fun i -> int_key (i * 100))

let range_policies =
  [
    ("prefix", Range_filter.Prefix { prefix_len = 5; bits_per_key = 12.0 });
    ("surf", Range_filter.Surf { max_prefix = 16; suffix_len = 2 });
    ("rosetta", Range_filter.Rosetta { levels = 64; bits_per_key = 12.0 });
  ]

let test_range_filters_no_false_negatives () =
  List.iter
    (fun (nm, policy) ->
      let f = Range_filter.build policy ~keys:sparse_keys in
      (* Every window around an existing key must report overlap. *)
      List.iter
        (fun i ->
          let lo = int_key ((i * 100) - 5) and hi = int_key ((i * 100) + 5) in
          check
            (Printf.sprintf "%s: window over key %d" nm (i * 100))
            true
            (Range_filter.may_overlap f ~lo ~hi:(Some hi)))
        [ 0; 1; 7; 100; 499 ])
    range_policies

let test_range_filters_point_windows () =
  List.iter
    (fun (nm, policy) ->
      let f = Range_filter.build policy ~keys:sparse_keys in
      (* exact singleton range [k, k+1) on a present key *)
      let k = int_key 300 in
      check (nm ^ ": singleton present") true
        (Range_filter.may_overlap f ~lo:k ~hi:(Some (k ^ "\x00"))))
    range_policies

let test_surf_rejects_empty_gaps () =
  let f = Range_filter.build (Range_filter.Surf { max_prefix = 16; suffix_len = 2 }) ~keys:sparse_keys in
  (* A short window in the middle of a gap: SuRF with full-ish prefixes
     should reject most of these. *)
  let rejected = ref 0 in
  for i = 0 to 99 do
    let base = (i * 100) + 40 in
    if not (Range_filter.may_overlap f ~lo:(int_key base) ~hi:(Some (int_key (base + 5)))) then
      incr rejected
  done;
  check (Printf.sprintf "rejects %d/100 short gap windows" !rejected) true (!rejected > 50)

let test_rosetta_rejects_short_gaps () =
  let f =
    Range_filter.build (Range_filter.Rosetta { levels = 64; bits_per_key = 14.0 })
      ~keys:sparse_keys
  in
  let rejected = ref 0 in
  for i = 0 to 99 do
    let base = (i * 100) + 40 in
    if not (Range_filter.may_overlap f ~lo:(int_key base) ~hi:(Some (int_key (base + 3)))) then
      incr rejected
  done;
  check (Printf.sprintf "rejects %d/100 short gap windows" !rejected) true (!rejected > 50)

let test_range_filter_roundtrip () =
  List.iter
    (fun (nm, policy) ->
      let f = Range_filter.build policy ~keys:sparse_keys in
      let g = Range_filter.decode (Range_filter.encode f) in
      let lo = int_key 995 and hi = int_key 1005 in
      Alcotest.(check bool)
        (nm ^ ": decode preserves answer")
        (Range_filter.may_overlap f ~lo ~hi:(Some hi))
        (Range_filter.may_overlap g ~lo ~hi:(Some hi)))
    range_policies

let prop_surf_sound =
  QCheck.Test.make ~name:"surf never false-negative" ~count:200
    QCheck.(pair (list (int_bound 5000)) (pair (int_bound 5000) (int_bound 200)))
    (fun (ks, (lo, width)) ->
      let keys = List.map int_key ks in
      let f = Surf.build ~keys () in
      let hi = lo + 1 + width in
      let answer = Surf.may_overlap f ~lo:(int_key lo) ~hi:(Some (int_key hi)) in
      let truth = List.exists (fun k -> k >= lo && k < hi) ks in
      (not truth) || answer)

let prop_rosetta_sound =
  QCheck.Test.make ~name:"rosetta never false-negative" ~count:100
    QCheck.(pair (list (int_bound 5000)) (pair (int_bound 5000) (int_bound 50)))
    (fun (ks, (lo, width)) ->
      let keys = List.map int_key ks in
      let f = Rosetta.build ~keys () in
      let hi = lo + 1 + width in
      let answer = Rosetta.may_overlap f ~lo:(int_key lo) ~hi:(Some (int_key hi)) in
      let truth = List.exists (fun k -> k >= lo && k < hi) ks in
      (not truth) || answer)

let prop_prefix_bloom_sound =
  QCheck.Test.make ~name:"prefix bloom never false-negative" ~count:200
    QCheck.(pair (list (int_bound 5000)) (pair (int_bound 5000) (int_bound 200)))
    (fun (ks, (lo, width)) ->
      let keys = List.map int_key ks in
      let f = Prefix_bloom.build ~prefix_len:6 ~bits_per_key:12.0 ~keys in
      let hi = lo + 1 + width in
      let answer = Prefix_bloom.may_overlap f ~lo:(int_key lo) ~hi:(Some (int_key hi)) in
      let truth = List.exists (fun k -> k >= lo && k < hi) ks in
      (not truth) || answer)

let qt t =
  let name, _speed, fn = QCheck_alcotest.to_alcotest t in
  (name, `Quick, fn)

let suite =
  [
    ("bloom no false negatives", `Quick, test_bloom_no_false_negatives);
    ("bloom fpr near theory", `Quick, test_bloom_fpr_close_to_theory);
    ("bloom zero bits", `Quick, test_bloom_zero_bits_always_true);
    ("bloom encode/decode", `Quick, test_bloom_encode_decode);
    ("bloom monotone in bits", `Quick, test_bloom_more_bits_fewer_fps);
    ("blocked bloom no false negatives", `Quick, test_blocked_bloom_no_false_negatives);
    ("blocked bloom roundtrip", `Quick, test_blocked_bloom_roundtrip);
    ("blocked bloom fpr", `Quick, test_blocked_bloom_fpr_reasonable);
    ("cuckoo membership & delete", `Quick, test_cuckoo_membership_and_delete);
    ("cuckoo fpr", `Quick, test_cuckoo_fpr);
    ("cuckoo roundtrip", `Quick, test_cuckoo_roundtrip);
    ("point filter policies", `Quick, test_point_filter_policies);
    ("monkey respects budget", `Quick, test_monkey_respects_budget);
    ("monkey favors shallow levels", `Quick, test_monkey_shallow_levels_get_more_bits);
    ("monkey beats uniform", `Quick, test_monkey_beats_uniform_on_expected_probes);
    ("monkey zero budget", `Quick, test_monkey_zero_budget);
    ("monkey skips empty levels", `Quick, test_monkey_skips_empty_levels);
    ("range filters no false negatives", `Quick, test_range_filters_no_false_negatives);
    ("range filters point windows", `Quick, test_range_filters_point_windows);
    ("surf rejects gaps", `Quick, test_surf_rejects_empty_gaps);
    ("rosetta rejects short gaps", `Quick, test_rosetta_rejects_short_gaps);
    ("range filter roundtrip", `Quick, test_range_filter_roundtrip);
    qt prop_surf_sound;
    qt prop_rosetta_sound;
    qt prop_prefix_bloom_sound;
  ]
