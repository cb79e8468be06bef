open Xt_prelude

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_pow2 () =
  check "2^0" 1 (Bits.pow2 0);
  check "2^10" 1024 (Bits.pow2 10);
  Alcotest.check_raises "negative" (Invalid_argument "Bits.pow2") (fun () -> ignore (Bits.pow2 (-1)))

let test_ilog2 () =
  check "log2 1" 0 (Bits.ilog2 1);
  check "log2 2" 1 (Bits.ilog2 2);
  check "log2 3" 1 (Bits.ilog2 3);
  check "log2 1024" 10 (Bits.ilog2 1024);
  check "log2 1023" 9 (Bits.ilog2 1023)

let test_is_pow2 () =
  checkb "1" true (Bits.is_pow2 1);
  checkb "64" true (Bits.is_pow2 64);
  checkb "63" false (Bits.is_pow2 63);
  checkb "0" false (Bits.is_pow2 0);
  checkb "-4" false (Bits.is_pow2 (-4))

let test_popcount () =
  check "0" 0 (Bits.popcount 0);
  check "255" 8 (Bits.popcount 255);
  check "0b1010" 2 (Bits.popcount 0b1010)

let test_trailing () =
  check "ones of 0111" 3 (Bits.trailing_ones ~width:4 0b0111);
  check "ones of 1110" 0 (Bits.trailing_ones ~width:4 0b1110);
  check "ones of 1111" 4 (Bits.trailing_ones ~width:4 0b1111);
  check "zeros of 1000" 3 (Bits.trailing_zeros ~width:4 0b1000);
  check "zeros of 0000" 4 (Bits.trailing_zeros ~width:4 0);
  check "empty width" 0 (Bits.trailing_ones ~width:0 0)

let test_string_of_bits () =
  Alcotest.(check string) "5 as 4 bits" "0101" (Bits.string_of_bits ~width:4 5);
  Alcotest.(check string) "empty" "" (Bits.string_of_bits ~width:0 0)

let test_gray_bijective () =
  let seen = Hashtbl.create 256 in
  for i = 0 to 255 do
    Hashtbl.replace seen (Bits.gray i) ()
  done;
  check "gray is a bijection on 8 bits" 256 (Hashtbl.length seen)

let test_gray_adjacent () =
  for i = 0 to 254 do
    Alcotest.(check int)
      (Printf.sprintf "gray %d vs %d" i (i + 1))
      1
      (Bits.hamming (Bits.gray i) (Bits.gray (i + 1)))
  done

let test_rng_deterministic () =
  let a = Rng.make ~seed:5 and b = Rng.make ~seed:5 in
  for _ = 1 to 100 do
    check "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let rng = Rng.make ~seed:1 in
  for _ = 1 to 1000 do
    let x = Rng.int_in rng 3 7 in
    checkb "in range" true (x >= 3 && x <= 7)
  done

let test_shuffle_permutes () =
  let rng = Rng.make ~seed:9 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted

let test_stats_summary () =
  let s = Stats.of_ints [| 1; 2; 3; 4 |] in
  check "count" 4 s.Stats.count;
  Alcotest.(check (float 1e-9)) "mean" 2.5 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 4.0 s.Stats.max

let test_stats_empty () =
  let s = Stats.of_floats [||] in
  check "count" 0 s.Stats.count

let test_histogram () =
  let h = Stats.histogram ~width:10 [| 1; 5; 11; 12; 25 |] in
  Alcotest.(check (list (pair int int))) "buckets" [ (0, 2); (10, 2); (20, 1) ] h

let test_histogram_negative () =
  (* Buckets cover [start, start+width): -1 belongs to bucket -10, -10
     to bucket -10, -11 to bucket -20, and 0 to bucket 0. *)
  let h = Stats.histogram ~width:10 [| -1; -10; -11; -20; 0; 9 |] in
  Alcotest.(check (list (pair int int))) "negative buckets" [ (-20, 2); (-10, 2); (0, 2) ] h;
  let h1 = Stats.histogram ~width:1 [| -3; -1; -1; 2 |] in
  Alcotest.(check (list (pair int int))) "width 1" [ (-3, 1); (-1, 2); (2, 1) ] h1

let test_percentile () =
  let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "median" 50.0 (Stats.percentile 50. xs);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Stats.percentile 100. xs)

let test_percentile_exact () =
  (* Nearest-rank: the result is always one of the samples, never an
     interpolation. *)
  let xs = [| 10.; 20.; 30.; 40. |] in
  Alcotest.(check (float 1e-9)) "p50 of 4" 20.0 (Stats.percentile 50. xs);
  Alcotest.(check (float 1e-9)) "p51 of 4" 30.0 (Stats.percentile 51. xs);
  Alcotest.(check (float 1e-9)) "p0" 10.0 (Stats.percentile 0. xs);
  check "int p99 of 1..100" 99 (Stats.percentile_ints 99. (Array.init 100 (fun i -> i + 1)));
  check "int singleton" 7 (Stats.percentile_ints 90. [| 7 |]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile") (fun () ->
      ignore (Stats.percentile 50. [||]));
  Alcotest.check_raises "p>100" (Invalid_argument "Stats.percentile") (fun () ->
      ignore (Stats.percentile 101. [| 1. |]))

let test_quantiles () =
  let xs = Array.init 1000 (fun i -> 999 - i) (* unsorted on purpose *) in
  let q = Stats.quantiles_of_ints xs in
  Alcotest.(check (float 1e-9)) "p50" 499.0 q.Stats.p50;
  Alcotest.(check (float 1e-9)) "p90" 899.0 q.Stats.p90;
  Alcotest.(check (float 1e-9)) "p99" 989.0 q.Stats.p99;
  let one = Stats.quantiles_of_floats [| 42. |] in
  Alcotest.(check (float 1e-9)) "singleton p99" 42.0 one.Stats.p99

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

let test_tab_renders () =
  let t = Tab.create ~title:"demo" [ "a"; "bb" ] in
  Tab.add_row t [ "1"; "2" ];
  Tab.add_int_row t "x" [ 3 ];
  let s = Tab.to_string t in
  checkb "has title" true (contains_sub s "demo");
  checkb "mentions header" true (contains_sub s "bb");
  checkb "has padded short row" true (contains_sub s "x ")

let test_tab_row_too_long () =
  let t = Tab.create ~title:"t" [ "a" ] in
  Alcotest.check_raises "too long" (Invalid_argument "Tab.add_row: too many cells") (fun () ->
      Tab.add_row t [ "1"; "2" ])

let suite =
  [
    ("pow2", `Quick, test_pow2);
    ("ilog2", `Quick, test_ilog2);
    ("is_pow2", `Quick, test_is_pow2);
    ("popcount", `Quick, test_popcount);
    ("trailing bits", `Quick, test_trailing);
    ("string_of_bits", `Quick, test_string_of_bits);
    ("gray bijective", `Quick, test_gray_bijective);
    ("gray adjacent", `Quick, test_gray_adjacent);
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng bounds", `Quick, test_rng_bounds);
    ("shuffle permutes", `Quick, test_shuffle_permutes);
    ("stats summary", `Quick, test_stats_summary);
    ("stats empty", `Quick, test_stats_empty);
    ("histogram", `Quick, test_histogram);
    ("histogram negative", `Quick, test_histogram_negative);
    ("percentile", `Quick, test_percentile);
    ("percentile exact", `Quick, test_percentile_exact);
    ("quantiles", `Quick, test_quantiles);
    ("tab renders", `Quick, test_tab_renders);
    ("tab row too long", `Quick, test_tab_row_too_long);
  ]

(* ---------------- CSV ---------------- *)

let test_csv_basic () =
  let t = Tab.create ~title:"T" [ "a"; "b" ] in
  Tab.add_row t [ "1"; "x,y" ];
  Tab.add_row t [ "he said \"hi\""; "2" ];
  let csv = Tab.to_csv t in
  Alcotest.(check string) "csv" "a,b\n1,\"x,y\"\n\"he said \"\"hi\"\"\",2\n" csv;
  Alcotest.(check string) "title" "T" (Tab.title t)

let suite = suite @ [ ("csv rendering", `Quick, test_csv_basic) ]
