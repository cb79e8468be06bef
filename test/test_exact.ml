open Xt_topology
open Xt_bintree
open Xt_embedding

let check = Alcotest.(check int)

let check_opt name expected got =
  Alcotest.(check (option int)) name expected got

let path_host n = Graph.of_edges ~n (List.init (n - 1) (fun i -> (i, i + 1)))

let test_identity_cases () =
  (* a guest that IS the host embeds with dilation 1 *)
  check_opt "path into path" (Some 1)
    (Exact.optimal_dilation ~guest:(Gen.path 5) ~host:(path_host 5) ());
  check_opt "cbt into cbt" (Some 1)
    (Exact.optimal_dilation ~guest:(Gen.complete 7) ~host:(Cbt.graph (Cbt.create ~height:2)) ())

let test_does_not_fit () =
  check_opt "too big" None (Exact.optimal_dilation ~guest:(Gen.path 5) ~host:(path_host 4) ())

let test_single_node () =
  match Exact.optimal_embedding ~guest:(Gen.path 1) ~host:(path_host 3) () with
  | Some (place, d) ->
      check "dilation 0" 0 d;
      check "one node" 1 (Array.length place)
  | None -> Alcotest.fail "single node must embed"

let test_complete_into_path_needs_stretch () =
  (* B_2 (7 nodes) in a path of 7: known to need dilation > 1 *)
  match Exact.optimal_dilation ~guest:(Gen.complete 7) ~host:(path_host 7) () with
  | Some d -> Alcotest.(check bool) "dilation > 1" true (d > 1)
  | None -> Alcotest.fail "must fit"

let test_respects_max_dilation () =
  check_opt "bounded out" None
    (Exact.optimal_dilation ~max_dilation:1 ~guest:(Gen.complete 7) ~host:(path_host 7) ())

let test_result_is_valid_embedding () =
  let guest = Gen.caterpillar 9 in
  let host = Xtree.graph (Xtree.create ~height:3) in
  match Exact.optimal_embedding ~guest ~host () with
  | None -> Alcotest.fail "should fit"
  | Some (place, d) ->
      let e = Embedding.make ~tree:guest ~host ~place in
      Alcotest.(check bool) "injective" true (Embedding.is_injective e);
      check "dilation agrees" d (Embedding.dilation ~dist:(Graph.distance host) e)

let test_matches_brute_force () =
  let rng = Xt_prelude.Rng.make ~seed:77 in
  let hosts =
    [ path_host 6; Xtree.graph (Xtree.create ~height:2); Hypercube.graph (Hypercube.create ~dim:3) ]
  in
  for _ = 1 to 8 do
    let guest = Gen.uniform rng (4 + Xt_prelude.Rng.int rng 3) in
    List.iter
      (fun host ->
        check_opt "agrees with brute force"
          (Exact.brute_force_dilation ~guest ~host)
          (Exact.optimal_dilation ~guest ~host ()))
      hosts
  done

let test_context_separation () =
  (* the BCHLR-style observation the paper cites: a complete tree is a
     subgraph of its X-tree but needs stretching in CCC / hypercube *)
  let b3 = Gen.complete 15 in
  check_opt "X-tree holds B_3" (Some 1)
    (Exact.optimal_dilation ~guest:b3 ~host:(Xtree.graph (Xtree.create ~height:3)) ());
  (match Exact.optimal_dilation ~guest:b3 ~host:(Ccc.graph (Ccc.create ~dim:3)) () with
  | Some d -> Alcotest.(check bool) "CCC needs more" true (d >= 2)
  | None -> Alcotest.fail "fits in CCC(3)");
  match Exact.optimal_dilation ~guest:b3 ~host:(Hypercube.graph (Hypercube.create ~dim:4)) () with
  | Some d -> Alcotest.(check bool) "Q4 needs more" true (d >= 2)
  | None -> Alcotest.fail "fits in Q4"

let suite =
  [
    ("identity cases", `Quick, test_identity_cases);
    ("does not fit", `Quick, test_does_not_fit);
    ("single node", `Quick, test_single_node);
    ("complete into path", `Quick, test_complete_into_path_needs_stretch);
    ("respects max dilation", `Quick, test_respects_max_dilation);
    ("result is valid", `Quick, test_result_is_valid_embedding);
    ("matches brute force", `Slow, test_matches_brute_force);
    ("context separation", `Slow, test_context_separation);
  ]

(* ---------------- graph guests ---------------- *)

let test_graph_guest_xtree_in_cube () =
  let x2 = Xtree.graph (Xtree.create ~height:2) in
  check_opt "X(2) in Q3 needs 2" (Some 2)
    (Exact.optimal_dilation_graph ~guest:x2 ~host:(Hypercube.graph (Hypercube.create ~dim:3)) ());
  check_opt "X(2) in X(2) is 1" (Some 1) (Exact.optimal_dilation_graph ~guest:x2 ~host:x2 ())

let test_graph_guest_disconnected () =
  let guest = Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  check_opt "disconnected guest rejected" None
    (Exact.optimal_dilation_graph ~guest ~host:(Hypercube.graph (Hypercube.create ~dim:3)) ())

let test_graph_guest_matches_tree_api () =
  let tree = Gen.complete 7 in
  let host = Xtree.graph (Xtree.create ~height:2) in
  let via_graph =
    Exact.optimal_dilation_graph ~guest:(Graph.of_edges ~n:7 (Bintree.edges tree)) ~host ()
  in
  check_opt "agree" (Exact.optimal_dilation ~guest:tree ~host ()) via_graph

let test_grid_guest () =
  let g = Grid.graph (Grid.create ~rows:2 ~cols:4) in
  check_opt "2x4 grid is a subgraph of Q3" (Some 1)
    (Exact.optimal_dilation_graph ~guest:g ~host:(Hypercube.graph (Hypercube.create ~dim:3)) ())

let suite =
  suite
  @ [
      ("graph guest: xtree in cube", `Quick, test_graph_guest_xtree_in_cube);
      ("graph guest: disconnected", `Quick, test_graph_guest_disconnected);
      ("graph guest matches tree api", `Quick, test_graph_guest_matches_tree_api);
      ("grid guest subgraph of Q3", `Quick, test_grid_guest);
    ]
