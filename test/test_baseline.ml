open Xt_bintree
open Xt_core
open Xt_embedding
open Xt_baseline

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let rng () = Xt_prelude.Rng.make ~seed:55

(* ---------------- recursive bisection ---------------- *)

let test_bisection_places_everything () =
  let rng = rng () in
  List.iter
    (fun fname ->
      let t = (Gen.family fname).generate rng (Theorem1.optimal_size 4) in
      let res = Recursive_bisection.embed t in
      checkb (fname ^ " placed") true
        (Array.for_all (fun p -> p >= 0) res.Recursive_bisection.embedding.Embedding.place))
    [ "path"; "uniform"; "caterpillar" ]

let test_bisection_load_grows () =
  (* the whole point: without ADJUST the load exceeds 16 as r grows *)
  let rng = rng () in
  let exceeded = ref false in
  List.iter
    (fun r ->
      let t = Gen.path (Theorem1.optimal_size r) in
      let res = Recursive_bisection.embed t in
      if Embedding.load res.Recursive_bisection.embedding > 16 then exceeded := true;
      ignore rng)
    [ 4; 5; 6 ];
  checkb "load exceeds 16 somewhere" true !exceeded

let test_bisection_same_host_size () =
  let rng = rng () in
  let t = Gen.uniform rng (Theorem1.optimal_size 3) in
  let res = Recursive_bisection.embed t in
  check "host" (Theorem1.optimal_size 3 / 16) (Xt_topology.Xtree.order res.Recursive_bisection.xt)

(* ---------------- order layouts ---------------- *)

let test_order_layouts_valid () =
  let rng = rng () in
  List.iter
    (fun order ->
      let t = Gen.uniform rng (Theorem1.optimal_size 3) in
      let res = Order_layout.embed ~order t in
      checkb "placed" true (Array.for_all (fun p -> p >= 0) res.Order_layout.embedding.Embedding.place);
      checkb "load" true (Embedding.load res.Order_layout.embedding <= 16))
    [ Order_layout.Dfs; Order_layout.Bfs ]

let test_order_layout_dilation_grows () =
  let d_at r =
    let t = Gen.complete (Theorem1.optimal_size r) in
    let res = Order_layout.embed ~order:Order_layout.Bfs t in
    Embedding.dilation ~dist:(Xt_topology.Xtree.distance res.Order_layout.xt) res.Order_layout.embedding
  in
  checkb "dilation grows with r" true (d_at 6 > d_at 3)

let test_dfs_layout_chunks () =
  let t = Gen.path 48 in
  let res = Order_layout.embed ~order:Order_layout.Dfs t in
  (* a path in DFS order fills vertices 0,1,2 in order *)
  check "first chunk" 0 res.Order_layout.embedding.Embedding.place.(0);
  check "second chunk" 1 res.Order_layout.embedding.Embedding.place.(16);
  check "third chunk" 2 res.Order_layout.embedding.Embedding.place.(47)

(* ---------------- CBT classics ---------------- *)

let test_cbt_identity_dilation_1 () =
  List.iter
    (fun r ->
      let e = Cbt_embeddings.cbt_into_xtree r in
      let dist = Xt_topology.Xtree.distance (Xt_topology.Xtree.create ~height:r) in
      check (Printf.sprintf "r=%d" r) 1 (Embedding.dilation ~dist e);
      checkb "injective" true (Embedding.is_injective e))
    [ 1; 3; 5 ]

let test_inorder_dilation_2 () =
  List.iter
    (fun r ->
      let e = Cbt_embeddings.inorder_into_hypercube r in
      let dist = Xt_topology.Hypercube.distance (Xt_topology.Hypercube.create ~dim:(r + 1)) in
      check (Printf.sprintf "r=%d" r) 2 (Embedding.dilation ~dist e);
      checkb "injective" true (Embedding.is_injective e))
    [ 1; 3; 5; 7 ]

let test_inorder_distance_property () =
  List.iter
    (fun r -> checkb (Printf.sprintf "r=%d" r) true (Cbt_embeddings.inorder_distance_bound_holds ~height:r))
    [ 1; 2; 3; 4; 5 ]

let test_inorder_vertex_values () =
  (* root of B_2 -> 100, leftmost leaf "00" -> 001 *)
  check "root" 0b100 (Cbt_embeddings.inorder_vertex ~height:2 0);
  check "leaf 00" 0b001 (Cbt_embeddings.inorder_vertex ~height:2 3);
  check "leaf 11" 0b111 (Cbt_embeddings.inorder_vertex ~height:2 6)

let suite =
  [
    ("bisection places everything", `Quick, test_bisection_places_everything);
    ("bisection load grows", `Slow, test_bisection_load_grows);
    ("bisection host size", `Quick, test_bisection_same_host_size);
    ("order layouts valid", `Quick, test_order_layouts_valid);
    ("order layout dilation grows", `Slow, test_order_layout_dilation_grows);
    ("dfs layout chunks", `Quick, test_dfs_layout_chunks);
    ("cbt identity dilation 1", `Quick, test_cbt_identity_dilation_1);
    ("inorder dilation 2", `Quick, test_inorder_dilation_2);
    ("inorder distance property", `Slow, test_inorder_distance_property);
    ("inorder vertex values", `Quick, test_inorder_vertex_values);
  ]

(* ---------------- grid classics ---------------- *)

let test_grid_into_hypercube_dilation_1 () =
  List.iter
    (fun (rows, cols) ->
      let e = Grid_embeddings.embed ~rows ~cols in
      check (Printf.sprintf "%dx%d dilation" rows cols) 1 (Grid_embeddings.dilation e);
      checkb "injective" true (Grid_embeddings.is_injective e))
    [ (2, 2); (4, 4); (3, 5); (8, 8); (5, 9); (1, 7) ]

let test_grid_embedding_expansion () =
  (* power-of-two grids are optimal: expansion exactly 1 *)
  let e = Grid_embeddings.embed ~rows:4 ~cols:8 in
  Alcotest.(check (float 1e-9)) "expansion 1" 1.0 (Grid_embeddings.expansion e);
  (* otherwise bounded by 4 *)
  let e = Grid_embeddings.embed ~rows:5 ~cols:5 in
  checkb "expansion < 4" true (Grid_embeddings.expansion e < 4.0)

let suite =
  suite
  @ [
      ("grid into hypercube dilation 1", `Quick, test_grid_into_hypercube_dilation_1);
      ("grid embedding expansion", `Quick, test_grid_embedding_expansion);
    ]
