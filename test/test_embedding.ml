open Xt_topology
open Xt_bintree
open Xt_embedding

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* guest: path 0-1-2; host: path of 4 vertices *)
let tiny () =
  let tree = Gen.path 3 in
  let host = Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  (tree, host)

let test_make_validates () =
  let tree, host = tiny () in
  Alcotest.check_raises "size" (Invalid_argument "Embedding.make: place size does not match guest size")
    (fun () -> ignore (Embedding.make ~tree ~host ~place:[| 0; 1 |]));
  Alcotest.check_raises "range" (Invalid_argument "Embedding.make: place out of host range")
    (fun () -> ignore (Embedding.make ~tree ~host ~place:[| 0; 1; 9 |]))

let test_identityish_metrics () =
  let tree, host = tiny () in
  let e = Embedding.make ~tree ~host ~place:[| 0; 1; 2 |] in
  check "dilation" 1 (Embedding.dilation ~dist:(Graph.distance host) e);
  check "load" 1 (Embedding.load e);
  checkb "injective" true (Embedding.is_injective e);
  Alcotest.(check (float 1e-9)) "expansion" (4. /. 3.) (Embedding.expansion e);
  check "congestion" 1 (Embedding.congestion e)

let test_stretched_metrics () =
  let tree, host = tiny () in
  (* 0 -> 0, 1 -> 3, 2 -> 0: edges dilate to 3 and 3 *)
  let e = Embedding.make ~tree ~host ~place:[| 0; 3; 0 |] in
  let dist = Graph.distance host in
  check "dilation" 3 (Embedding.dilation ~dist e);
  Alcotest.(check (float 1e-9)) "avg" 3.0 (Embedding.average_dilation ~dist e);
  check "load" 2 (Embedding.load e);
  checkb "not injective" false (Embedding.is_injective e);
  (* both guest edges route over every host edge *)
  check "congestion" 2 (Embedding.congestion e)

let test_collapsed_embedding () =
  let tree, host = tiny () in
  let e = Embedding.make ~tree ~host ~place:[| 1; 1; 1 |] in
  check "dilation 0" 0 (Embedding.dilation ~dist:(Graph.distance host) e);
  check "congestion 0" 0 (Embedding.congestion e);
  check "load 3" 3 (Embedding.load e)

let test_custom_distance () =
  let tree, host = tiny () in
  let e = Embedding.make ~tree ~host ~place:[| 0; 1; 2 |] in
  (* an (incorrect) metric that doubles distances, to prove dist is used *)
  let dist u v = 2 * abs (u - v) in
  check "custom dilation" 2 (Embedding.dilation ~dist e)

let test_loads_vector () =
  let tree, host = tiny () in
  let e = Embedding.make ~tree ~host ~place:[| 0; 0; 2 |] in
  Alcotest.(check (array int)) "loads" [| 2; 0; 1; 0 |] (Embedding.loads e)

let test_verify_bounds () =
  let tree, host = tiny () in
  let e = Embedding.make ~tree ~host ~place:[| 0; 3; 0 |] in
  let dist = Graph.distance host in
  checkb "dilation bound fails" true (Embedding.verify ~dist ~max_dilation:2 e <> Ok ());
  checkb "load bound fails" true (Embedding.verify ~dist ~max_load:1 e <> Ok ());
  checkb "loose bounds pass" true (Embedding.verify ~dist ~max_dilation:3 ~max_load:2 e = Ok ())

let test_report_consistent () =
  let tree, host = tiny () in
  let e = Embedding.make ~tree ~host ~place:[| 0; 2; 3 |] in
  let dist = Graph.distance host in
  let r = Embedding.report ~dist e in
  check "dilation" (Embedding.dilation ~dist e) r.Embedding.dilation;
  check "load" (Embedding.load e) r.Embedding.load;
  check "congestion" (Embedding.congestion e) r.Embedding.congestion;
  checkb "pp works" true (String.length (Format.asprintf "%a" Embedding.pp_report r) > 0)

let test_single_node_guest () =
  let tree = Gen.path 1 in
  let host = Graph.of_edges ~n:1 [] in
  let e = Embedding.make ~tree ~host ~place:[| 0 |] in
  let dist = Graph.distance host in
  check "dilation" 0 (Embedding.dilation ~dist e);
  check "congestion" 0 (Embedding.congestion e);
  Alcotest.(check (float 1e-9)) "avg" 0.0 (Embedding.average_dilation ~dist e)

(* A 3-node path guest on vertices 1, 2 and 3 of a 4-vertex host whose
   only edge is {0, 1}: both guest edges join disconnected vertices, and
   every metric must name the first of them in [Bintree.edges] order
   instead of reading BFS's -1 as a distance. *)
let test_disconnected_guest_edge () =
  let tree = Gen.path 3 in
  let host = Graph.of_edges ~n:4 [ (0, 1) ] in
  let e = Embedding.make ~tree ~host ~place:[| 1; 2; 3 |] in
  let dist = Graph.distance host in
  let raises what expected f =
    Alcotest.check_raises what (Invalid_argument expected) (fun () -> ignore (f ()))
  in
  let msg fn =
    Printf.sprintf
      "Embedding.%s: guest edge 1-2 lies on host vertices 2 and 3, which are disconnected" fn
  in
  raises "dilation" (msg "dilation") (fun () -> Embedding.dilation ~dist e);
  raises "verify" (msg "dilation") (fun () -> Embedding.verify ~dist ~max_dilation:1 e);
  raises "report" (msg "dilation") (fun () -> Embedding.report ~dist e);
  raises "congestion" (msg "congestion") (fun () -> Embedding.congestion e)

let suite =
  [
    ("make validates", `Quick, test_make_validates);
    ("identity metrics", `Quick, test_identityish_metrics);
    ("stretched metrics", `Quick, test_stretched_metrics);
    ("collapsed embedding", `Quick, test_collapsed_embedding);
    ("custom distance", `Quick, test_custom_distance);
    ("loads vector", `Quick, test_loads_vector);
    ("verify bounds", `Quick, test_verify_bounds);
    ("report consistent", `Quick, test_report_consistent);
    ("single node guest", `Quick, test_single_node_guest);
    ("disconnected guest edge", `Quick, test_disconnected_guest_edge);
  ]
