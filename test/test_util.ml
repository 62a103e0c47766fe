(* Unit and property tests for lsm_util: codecs, checksums, hashing, rng,
   zipf, histograms, comparators. *)

open Lsm_util

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ---------- Codec ---------- *)

let test_codec_fixed () =
  let b = Buffer.create 16 in
  Codec.put_u8 b 0xab;
  Codec.put_u16 b 0xbeef;
  Codec.put_u32 b 0xdeadbeef;
  Codec.put_u64 b 0x1122334455667788L;
  let r = Codec.reader (Buffer.contents b) in
  check_int "u8" 0xab (Codec.get_u8 r);
  check_int "u16" 0xbeef (Codec.get_u16 r);
  check_int "u32" 0xdeadbeef (Codec.get_u32 r);
  Alcotest.(check int64) "u64" 0x1122334455667788L (Codec.get_u64 r);
  check "at end" true (Codec.at_end r)

let test_codec_varint_known () =
  let enc v =
    let b = Buffer.create 8 in
    Codec.put_varint b v;
    Buffer.contents b
  in
  check_str "0" "\x00" (enc 0);
  check_str "127" "\x7f" (enc 127);
  check_str "128" "\x80\x01" (enc 128);
  check_str "300" "\xac\x02" (enc 300)

let test_codec_truncated () =
  let r = Codec.reader "\x80" in
  Alcotest.check_raises "truncated varint" (Codec.Corrupt "truncated input at 1 (need 1)")
    (fun () -> ignore (Codec.get_varint r))

let test_codec_negative_rejected () =
  let b = Buffer.create 4 in
  Alcotest.check_raises "negative" (Invalid_argument "Codec.put_varint: negative") (fun () ->
      Codec.put_varint b (-1))

let prop_varint_roundtrip =
  QCheck.Test.make ~name:"varint roundtrip" ~count:1000
    QCheck.(map abs small_int)
    (fun v ->
      let b = Buffer.create 8 in
      Codec.put_varint b v;
      let s = Buffer.contents b in
      String.length s = Codec.varint_size v && Codec.get_varint (Codec.reader s) = v)

let prop_varint_roundtrip_large =
  QCheck.Test.make ~name:"varint roundtrip (64-bit)" ~count:1000
    QCheck.(map Int64.abs int64)
    (fun v64 ->
      let v = Int64.to_int v64 |> abs in
      let b = Buffer.create 10 in
      Codec.put_varint b v;
      Codec.get_varint (Codec.reader (Buffer.contents b)) = v)

let prop_lp_string_roundtrip =
  QCheck.Test.make ~name:"lp_string roundtrip" ~count:500 QCheck.string (fun s ->
      let b = Buffer.create 16 in
      Codec.put_lp_string b s;
      Codec.get_lp_string (Codec.reader (Buffer.contents b)) = s)

let prop_mixed_stream =
  QCheck.Test.make ~name:"mixed codec stream" ~count:300
    QCheck.(
      list_of_size
        Gen.(0 -- 20)
        (pair (map abs small_int) (string_gen_of_size Gen.(0 -- 40) Gen.printable)))
    (fun items ->
      let b = Buffer.create 64 in
      List.iter
        (fun (n, s) ->
          Codec.put_varint b n;
          Codec.put_lp_string b s)
        items;
      let r = Codec.reader (Buffer.contents b) in
      List.for_all (fun (n, s) -> Codec.get_varint r = n && Codec.get_lp_string r = s) items
      && Codec.at_end r)

(* ---------- Crc32c ---------- *)

let test_crc_known_vectors () =
  (* Standard CRC-32C test vector: "123456789" -> 0xE3069283. *)
  Alcotest.(check int32) "check value" 0xE3069283l (Crc32c.string "123456789");
  Alcotest.(check int32) "empty" 0l (Crc32c.string "")

(* RFC 3720 (iSCSI) appendix B.4 CRC-32C examples. *)
let test_crc_rfc3720_vectors () =
  let check32 name want s = Alcotest.(check int32) name want (Crc32c.string s) in
  check32 "32 x 0x00" 0x8A9136AAl (String.make 32 '\x00');
  check32 "32 x 0xFF" 0x62A8AB43l (String.make 32 '\xff');
  check32 "0x00..0x1F" 0x46DD794El (String.init 32 Char.chr);
  check32 "0x1F..0x00" 0x113FDB5Cl (String.init 32 (fun i -> Char.chr (31 - i)))

(* Bytewise reference CRC-32C: the textbook one-table loop over boxed
   [int32], kept only here as the oracle the slicing-by-8 kernel in
   [Crc32c] must match bit for bit. *)
let reference_crc =
  let table =
    Array.init 256 (fun i ->
        let c = ref (Int32.of_int i) in
        for _ = 0 to 7 do
          let lsb = Int32.logand !c 1l in
          c := Int32.shift_right_logical !c 1;
          if lsb = 1l then c := Int32.logxor !c 0x82f63b78l
        done;
        !c)
  in
  fun ~init s ~pos ~len ->
    let c = ref (Int32.lognot init) in
    for i = pos to pos + len - 1 do
      let idx =
        Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code s.[i]))) 0xffl)
      in
      c := Int32.logxor (Int32.shift_right_logical !c 8) table.(idx)
    done;
    Int32.lognot !c

(* Every window of a 64-byte string: every unaligned start and every
   length, so each split between the 8-byte main loop and the bytewise
   tail (lengths 0-17 included) is covered, under several [init]s. *)
let test_crc_every_window () =
  let rng = Random.State.make [| 21 |] in
  let s = String.init 64 (fun _ -> Char.chr (Random.State.int rng 256)) in
  List.iter
    (fun init ->
      for pos = 0 to 64 do
        for len = 0 to 64 - pos do
          let want = reference_crc ~init s ~pos ~len in
          if Crc32c.sub ~init s ~pos ~len <> want then
            Alcotest.failf "init=%lx pos=%d len=%d" init pos len
        done
      done)
    [ 0l; 0xE3069283l; -1l; 0x7fffffffl; Random.State.int32 rng Int32.max_int ]

let prop_crc_matches_reference =
  QCheck.Test.make ~name:"crc32c kernel = bytewise reference" ~count:500
    QCheck.(quad (string_of_size Gen.(0 -- 300)) small_nat small_nat int32)
    (fun (s, a, b, init) ->
      let n = String.length s in
      let pos = a mod (n + 1) in
      let len = b mod (n - pos + 1) in
      Crc32c.sub ~init s ~pos ~len = reference_crc ~init s ~pos ~len
      && Crc32c.string ~init s = reference_crc ~init s ~pos:0 ~len:n)

let prop_crc_chaining =
  QCheck.Test.make ~name:"crc32c chains: sub ~init:(string a) b = string (a ^ b)" ~count:300
    QCheck.(pair (string_of_size Gen.(0 -- 100)) (string_of_size Gen.(0 -- 100)))
    (fun (a, b) ->
      Crc32c.sub ~init:(Crc32c.string a) b ~pos:0 ~len:(String.length b)
      = Crc32c.string (a ^ b))

let test_crc_mask_roundtrip () =
  let crc = Crc32c.string "hello world" in
  Alcotest.(check int32) "unmask . mask = id" crc (Crc32c.unmask (Crc32c.mask crc));
  check "mask changes value" true (Crc32c.mask crc <> crc)

let prop_crc_detects_flip =
  QCheck.Test.make ~name:"crc detects single-byte flip" ~count:300
    QCheck.(pair (string_of_size Gen.(1 -- 64)) (int_bound 1000))
    (fun (s, r) ->
      String.length s = 0
      ||
      let i = r mod String.length s in
      let flipped = Bytes.of_string s in
      Bytes.set flipped i (Char.chr (Char.code s.[i] lxor 0x01));
      Crc32c.string s <> Crc32c.string (Bytes.to_string flipped))

let test_crc_sub () =
  let s = "abcdefgh" in
  Alcotest.(check int32) "sub = sub string" (Crc32c.string "cdef")
    (Crc32c.sub s ~pos:2 ~len:4)

(* ---------- Hashing ---------- *)

let test_hash_deterministic () =
  Alcotest.(check int64) "stable across calls" (Hashing.string64 "key1") (Hashing.string64 "key1");
  check "different keys differ" true (Hashing.string64 "key1" <> Hashing.string64 "key2");
  check "seed changes hash" true
    (Hashing.string64 ~seed:1L "key1" <> Hashing.string64 ~seed:2L "key1")

let test_double_hash_properties () =
  let h1, h2 = Hashing.double_hash "some key" in
  check "h1 non-negative" true (h1 >= 0);
  check "h2 positive odd" true (h2 > 0 && h2 land 1 = 1)

(* Filters on disk, shard routing, memtable hash buckets and guard
   selection all depend on these exact values: a rewrite of the hash
   loop must reproduce them bit for bit. Recorded from the original
   [String.iter] implementation. *)
let test_hash_goldens () =
  let goldens =
    [
      ("", -3750763034362895579L, -4359066618775142608L, -5206754407241891973L,
       (252619399652245296, 2448385507222971125), 3142, 773270598);
      ("a", -5808556873153909620L, 6857225946766476583L, -6221328849573856893L,
       (2245539928339088679, 1637206505037242155), 2805, 1031219957);
      ("abc", -1792535898324117685L, 3018304574923447344L, -7477251394381199385L,
       (3018304574923447344, 3703981268217922623), 924, 415040412);
      ("k000012345", 1790788318923952833L, 4992115126190130911L, 4619633976827267493L,
       (380429107762743007, 3184816197722724361), 3450, 107208058);
      ("user:42", 7788164824035369410L, 4659431455776223581L, 8467437498103753828L,
       (47745437348835677, 451191871518500885), 1579, 665794091);
      (String.make 100 'x', 372847128541728821L, -1262187416113149077L, 4467383341144024021L,
       (3349498602314238827, 1588694470217335341), 3421, 395418973);
      ("\000\255\128", -2971117807906288224L, 8410457994513606289L, -1453984765586957581L,
       (3798771976086218385, 2656520553201893263), 2053, 370333701);
    ]
  in
  List.iter
    (fun (s, fnv, h, seeded, dh, fp12, fp30) ->
      let name what = Printf.sprintf "%s %S" what s in
      Alcotest.(check int64) (name "fnv1a64") fnv (Hashing.fnv1a64 s);
      Alcotest.(check int64) (name "string64") h (Hashing.string64 s);
      Alcotest.(check int64) (name "string64 ~seed") seeded (Hashing.string64 ~seed:0x9aadL s);
      Alcotest.(check (pair int int)) (name "double_hash") dh (Hashing.double_hash s);
      Alcotest.(check (pair int int))
        (name "double_hash_with") dh
        (Hashing.double_hash_with s () (fun () h1 h2 -> (h1, h2)));
      Alcotest.(check int) (name "fingerprint 12") fp12 (Hashing.fingerprint s ~bits:12);
      Alcotest.(check int) (name "fingerprint 30") fp30 (Hashing.fingerprint s ~bits:30))
    goldens

let test_fingerprint_range () =
  for i = 0 to 199 do
    let fp = Hashing.fingerprint (string_of_int i) ~bits:8 in
    check "in range" true (fp >= 1 && fp < 256)
  done

(* ---------- Rng ---------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 50 do
    check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    check "bound" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let f = Rng.float r 2.5 in
    check "float bound" true (f >= 0.0 && f < 2.5)
  done

let test_rng_split_independent () =
  let r = Rng.create 1 in
  let s = Rng.split r in
  let xs = List.init 20 (fun _ -> Rng.int r 1000000) in
  let ys = List.init 20 (fun _ -> Rng.int s 1000000) in
  check "streams differ" true (xs <> ys)

let test_rng_shuffle_permutation () =
  let r = Rng.create 3 in
  let a = Array.init 100 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is permutation" (Array.init 100 Fun.id) sorted

let test_rng_uniformity_rough () =
  let r = Rng.create 99 in
  let buckets = Array.make 10 0 in
  let n = 20000 in
  for _ = 1 to n do
    let i = Rng.int r 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun c ->
      check "each bucket within 20% of expected" true
        (abs (c - (n / 10)) < n / 10 / 5))
    buckets

(* ---------- Zipf ---------- *)

let test_zipf_skew () =
  let z = Zipf.create 1000 in
  let r = Rng.create 5 in
  let counts = Array.make 1000 0 in
  let n = 50000 in
  for _ = 1 to n do
    let i = Zipf.next z r in
    counts.(i) <- counts.(i) + 1
  done;
  (* Rank 0 must dominate: with theta=0.99 it draws >5% of mass. *)
  check "rank 0 hot" true (counts.(0) > n / 20);
  check "rank 0 > rank 10" true (counts.(0) > counts.(10));
  check "rank 1 > rank 100" true (counts.(1) > counts.(100))

let test_zipf_bounds () =
  let z = Zipf.create ~theta:0.5 37 in
  let r = Rng.create 6 in
  for _ = 1 to 5000 do
    let i = Zipf.next z r in
    check "in range" true (i >= 0 && i < 37);
    let j = Zipf.next_scrambled z r in
    check "scrambled in range" true (j >= 0 && j < 37)
  done

let test_zipf_scrambled_spreads () =
  let z = Zipf.create 1000 in
  let r = Rng.create 8 in
  let hot = Hashtbl.create 16 in
  for _ = 1 to 10000 do
    let i = Zipf.next_scrambled z r in
    Hashtbl.replace hot i (1 + Option.value ~default:0 (Hashtbl.find_opt hot i))
  done;
  (* The hottest scrambled key should not be rank 0 of the key space in
     general; at minimum, heat must exist away from the low ranks. *)
  let heavy_high = Hashtbl.fold (fun k c acc -> acc || (k > 100 && c > 100)) hot false in
  check "some hot key above rank 100" true heavy_high

(* ---------- Histogram ---------- *)

let test_histogram_basic () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
  check_int "count" 10 (Histogram.count h);
  check_int "total" 55 (Histogram.total h);
  check_int "min" 1 (Histogram.min_value h);
  check_int "max" 10 (Histogram.max_value h);
  Alcotest.(check (float 0.001)) "mean" 5.5 (Histogram.mean h)

let test_histogram_percentiles_small () =
  let h = Histogram.create () in
  for i = 1 to 100 do
    Histogram.add h i
  done;
  (* Values below 64 are exact buckets. *)
  check_int "p50" 50 (Histogram.percentile h 50.0);
  check_int "p1" 1 (Histogram.percentile h 1.0);
  check_int "p100" 100 (Histogram.percentile h 100.0)

let test_histogram_percentile_error_bounded () =
  let h = Histogram.create () in
  let values = List.init 500 (fun i -> (i * 7919) mod 100000) in
  List.iter (Histogram.add h) values;
  let sorted = List.sort compare values |> Array.of_list in
  List.iter
    (fun p ->
      let exact = sorted.(int_of_float (p /. 100.0 *. 499.0)) in
      let est = Histogram.percentile h p in
      (* Geometric buckets with 16 sub-buckets: <= ~7% relative error. *)
      check
        (Printf.sprintf "p%.0f within 8%%" p)
        true
        (abs (est - exact) <= max 2 (exact / 12)))
    [ 50.0; 90.0; 99.0 ]

(* A lone sample reports as itself (percentiles clamp to the maximum),
   including the top sub-bucket of an octave, whose upper bound carries
   into the next power of two. *)
let test_histogram_bucket_bounds () =
  List.iter
    (fun v ->
      let h = Histogram.create () in
      Histogram.add h v;
      check_int (Printf.sprintf "p50 of {%d}" v) v (Histogram.percentile h 50.0);
      (* With a larger maximum the estimate is the bucket's upper bound,
         which must not fall below the sample. *)
      Histogram.add h (16 * v);
      Histogram.add h (16 * v);
      check
        (Printf.sprintf "p10 of {%d, ...} >= %d" v v)
        true
        (Histogram.percentile h 10.0 >= v))
    [ 4095; 4096; 8000; 8191; 16000 ]

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  List.iter (Histogram.add a) [ 1; 2; 3 ];
  List.iter (Histogram.add b) [ 100; 200 ];
  Histogram.merge ~into:a b;
  check_int "count" 5 (Histogram.count a);
  check_int "max" 200 (Histogram.max_value a);
  check_int "min" 1 (Histogram.min_value a)

let test_histogram_empty () =
  let h = Histogram.create () in
  check_int "p50 empty" 0 (Histogram.percentile h 50.0);
  check_int "min empty" 0 (Histogram.min_value h);
  Alcotest.(check (float 0.0)) "mean empty" 0.0 (Histogram.mean h)

(* ---------- Comparator ---------- *)

let test_comparator_orders () =
  check "bytewise" true (Comparator.bytewise.compare "a" "b" < 0);
  check "reverse" true (Comparator.reverse_bytewise.compare "a" "b" > 0)

let test_shortest_separator () =
  let c = Comparator.bytewise in
  let s = Comparator.shortest_separator c "abcdef" "abzz" in
  check "a <= s" true (c.compare "abcdef" s <= 0);
  check "s < b" true (c.compare s "abzz" < 0);
  check "short" true (String.length s <= 3);
  (* Prefix case: no shorter separator exists. *)
  check_str "prefix falls back" "ab" (Comparator.shortest_separator c "ab" "abc")

let test_short_successor () =
  let c = Comparator.bytewise in
  check "successor >= key" true (c.compare (Comparator.short_successor c "abc") "abc" >= 0);
  check_str "plain" "b" (Comparator.short_successor c "abc");
  check_str "all-ff unchanged" "\xff\xff" (Comparator.short_successor c "\xff\xff")

let prop_separator_sound =
  QCheck.Test.make ~name:"shortest_separator sound" ~count:500
    QCheck.(pair (string_of_size Gen.(1 -- 12)) (string_of_size Gen.(1 -- 12)))
    (fun (a, b) ->
      let c = Comparator.bytewise in
      if c.compare a b >= 0 then true
      else
        let s = Comparator.shortest_separator c a b in
        c.compare a s <= 0 && c.compare s b < 0)

let qt t =
  let name, _speed, fn = QCheck_alcotest.to_alcotest t in
  (name, `Quick, fn)

let suite =
  [
    ("codec fixed-width roundtrip", `Quick, test_codec_fixed);
    ("codec varint known encodings", `Quick, test_codec_varint_known);
    ("codec truncated input raises", `Quick, test_codec_truncated);
    ("codec rejects negative varint", `Quick, test_codec_negative_rejected);
    ("crc32c known vectors", `Quick, test_crc_known_vectors);
    ("crc32c RFC 3720 vectors", `Quick, test_crc_rfc3720_vectors);
    ("crc32c every window = reference", `Quick, test_crc_every_window);
    ("crc32c mask roundtrip", `Quick, test_crc_mask_roundtrip);
    ("crc32c substring", `Quick, test_crc_sub);
    ("hashing deterministic", `Quick, test_hash_deterministic);
    ("double hash shape", `Quick, test_double_hash_properties);
    ("fingerprint range", `Quick, test_fingerprint_range);
    ("hash goldens", `Quick, test_hash_goldens);
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng bounds", `Quick, test_rng_bounds);
    ("rng split independence", `Quick, test_rng_split_independent);
    ("rng shuffle is permutation", `Quick, test_rng_shuffle_permutation);
    ("rng rough uniformity", `Quick, test_rng_uniformity_rough);
    ("zipf skew", `Quick, test_zipf_skew);
    ("zipf bounds", `Quick, test_zipf_bounds);
    ("zipf scrambled spreads heat", `Quick, test_zipf_scrambled_spreads);
    ("histogram basics", `Quick, test_histogram_basic);
    ("histogram small percentiles exact", `Quick, test_histogram_percentiles_small);
    ("histogram percentile error bounded", `Quick, test_histogram_percentile_error_bounded);
    ("histogram bucket upper bounds carry", `Quick, test_histogram_bucket_bounds);
    ("histogram merge", `Quick, test_histogram_merge);
    ("histogram empty", `Quick, test_histogram_empty);
    ("comparator orders", `Quick, test_comparator_orders);
    ("shortest separator", `Quick, test_shortest_separator);
    ("short successor", `Quick, test_short_successor);
    qt prop_varint_roundtrip;
    qt prop_varint_roundtrip_large;
    qt prop_lp_string_roundtrip;
    qt prop_mixed_stream;
    qt prop_crc_detects_flip;
    qt prop_crc_matches_reference;
    qt prop_crc_chaining;
    qt prop_separator_sound;
  ]
