open Xt_topology

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ---------------- Graph ---------------- *)

let triangle () = Graph.of_edges ~n:3 [ (0, 1); (1, 2); (2, 0) ]

let test_graph_basic () =
  let g = triangle () in
  check "n" 3 (Graph.n g);
  check "m" 3 (Graph.m g);
  check "deg" 2 (Graph.degree g 0);
  checkb "edge 0-1" true (Graph.has_edge g 0 1);
  checkb "edge 1-0" true (Graph.has_edge g 1 0);
  checkb "no self" false (Graph.has_edge g 0 0)

let test_graph_dedup () =
  let g = Graph.of_edges ~n:2 [ (0, 1); (1, 0); (0, 1); (0, 0) ] in
  check "m" 1 (Graph.m g);
  check "deg 0" 1 (Graph.degree g 0)

let test_graph_bfs () =
  let g = Graph.of_edges ~n:5 [ (0, 1); (1, 2); (2, 3) ] in
  let d = Graph.bfs g 0 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3; -1 |] d;
  check "distance" 3 (Graph.distance g 0 3);
  check "unreachable" (-1) (Graph.distance g 0 4);
  checkb "not connected" false (Graph.is_connected g);
  check "diameter disconnected" (-1) (Graph.diameter g)

let test_graph_bfs_parents () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (0, 3) ] in
  let dist, parent = Graph.bfs_parents g 0 in
  check "dist to 2" 2 dist.(2);
  check "parent of 0" 0 parent.(0);
  (* walking parents from any vertex reaches the source in dist steps *)
  let rec walk v steps = if v = 0 then steps else walk parent.(v) (steps + 1) in
  check "walk length" dist.(2) (walk 2 0)

let test_graph_diameter () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  check "path diameter" 3 (Graph.diameter g);
  check "triangle diameter" 1 (Graph.diameter (triangle ()))

let test_graph_iter_edges () =
  let g = triangle () in
  let count = ref 0 in
  Graph.iter_edges g (fun u v ->
      incr count;
      checkb "ordered" true (u < v));
  check "each edge once" 3 !count

let test_graph_validation () =
  Alcotest.check_raises "out of range"
    (Invalid_argument "Graph.of_edges: endpoint out of range") (fun () ->
      ignore (Graph.of_edges ~n:2 [ (0, 5) ]))

let test_subgraph_respects () =
  let g = triangle () in
  checkb "subset ok" true (Graph.subgraph_respects g [ (0, 1); (2, 1) ]);
  checkb "missing edge" false (Graph.subgraph_respects g [ (0, 1); (0, 0) ])

(* ---------------- X-tree ---------------- *)

let test_xtree_order () =
  List.iter
    (fun r -> check (Printf.sprintf "order h=%d" r) ((2 * Xt_prelude.Bits.pow2 r) - 1) (Xtree.order (Xtree.create ~height:r)))
    [ 0; 1; 2; 5; 8 ]

(* Figure 1: X(3) has 15 vertices and 14 + 11 = 25 edges
   (tree edges 2^4-2 = 14, horizontal edges (2^l - 1) summed = 1+3+7 = 11). *)
let test_xtree_figure1 () =
  let t = Xtree.create ~height:3 in
  check "vertices" 15 (Xtree.order t);
  check "edges" 25 (Graph.m (Xtree.graph t));
  check "max degree" 5 (Graph.max_degree (Xtree.graph t));
  checkb "connected" true (Graph.is_connected (Xtree.graph t))

let test_xtree_addressing () =
  check "root" 0 Xtree.root;
  check "level of root" 0 (Xtree.level Xtree.root);
  let v = Xtree.id ~level:3 ~index:5 in
  check "level" 3 (Xtree.level v);
  check "index" 5 (Xtree.index v);
  Alcotest.(check string) "address" "101" (Xtree.to_string v);
  check "roundtrip" v (Xtree.of_string "101");
  check "of e" 0 (Xtree.of_string "e");
  check "of empty" 0 (Xtree.of_string "")

let test_xtree_family () =
  let v = Xtree.of_string "10" in
  Alcotest.(check (option int)) "parent" (Some (Xtree.of_string "1")) (Xtree.parent v);
  check "left child" (Xtree.of_string "100") (Xtree.child v 0);
  check "right child" (Xtree.of_string "101") (Xtree.child v 1);
  Alcotest.(check (option int)) "successor" (Some (Xtree.of_string "11")) (Xtree.successor v);
  Alcotest.(check (option int)) "predecessor" (Some (Xtree.of_string "01")) (Xtree.predecessor v);
  Alcotest.(check (option int)) "last has no successor" None (Xtree.successor (Xtree.of_string "11"));
  Alcotest.(check (option int)) "first has no predecessor" None (Xtree.predecessor (Xtree.of_string "00"));
  Alcotest.(check (option int)) "root parent" None (Xtree.parent Xtree.root)

let test_xtree_ancestor () =
  checkb "prefix" true (Xtree.is_ancestor (Xtree.of_string "10") (Xtree.of_string "1011"));
  checkb "self" true (Xtree.is_ancestor (Xtree.of_string "10") (Xtree.of_string "10"));
  checkb "not prefix" false (Xtree.is_ancestor (Xtree.of_string "11") (Xtree.of_string "1011"));
  checkb "root of all" true (Xtree.is_ancestor Xtree.root (Xtree.of_string "0101"))

let test_xtree_distance () =
  let t = Xtree.create ~height:4 in
  check "self" 0 (Xtree.distance t 0 0);
  check "child" 1 (Xtree.distance t 0 (Xtree.of_string "1"));
  check "siblings via horizontal" 1
    (Xtree.distance t (Xtree.of_string "0") (Xtree.of_string "1"));
  (* leftmost to rightmost leaf: up and down is shortest for height 4 *)
  let d = Xtree.distance t (Xtree.of_string "0000") (Xtree.of_string "1111") in
  checkb "long distance sane" true (d >= 2 && d <= 8)

(* Figure 2: |N(a) - {a}| <= 20 with equality for interior vertices. *)
let test_neighbourhood_bound () =
  let t = Xtree.create ~height:6 in
  let maxn = ref 0 in
  for a = 0 to Xtree.order t - 1 do
    let n = List.length (Xtree.neighbourhood t a) - 1 in
    if n > !maxn then maxn := n;
    checkb "bound" true (n <= Xtree.neighbourhood_closure_bound)
  done;
  check "bound attained" 20 !maxn

let test_neighbourhood_contains_self () =
  let t = Xtree.create ~height:4 in
  for a = 0 to Xtree.order t - 1 do
    checkb "self in N(a)" true (List.mem a (Xtree.neighbourhood t a))
  done

(* Every element of N(a) is within distance 4 in the X-tree (3 horizontal,
   or 2 down + 2 horizontal). *)
let test_neighbourhood_distance () =
  let t = Xtree.create ~height:5 in
  for a = 0 to Xtree.order t - 1 do
    List.iter
      (fun b -> checkb "close" true (Xtree.distance t a b <= 4))
      (Xtree.neighbourhood t a)
  done

(* The paper: at most 5 vertices b with a in N(b) but b not in N(a). *)
let test_neighbourhood_asymmetry () =
  let t = Xtree.create ~height:6 in
  let order = Xtree.order t in
  let n_of = Array.init order (fun a -> Xtree.neighbourhood t a) in
  for a = 0 to order - 1 do
    let incoming = ref 0 in
    for b = 0 to order - 1 do
      if b <> a && List.mem a n_of.(b) && not (List.mem b n_of.(a)) then incr incoming
    done;
    checkb (Printf.sprintf "asymmetric in-neighbours of %s" (Xtree.to_string a)) true (!incoming <= 5)
  done

(* ---------------- Hypercube / CBT / CCC / Butterfly / Grid ---------------- *)

let test_hypercube () =
  let q = Hypercube.create ~dim:4 in
  check "order" 16 (Hypercube.order q);
  check "m" 32 (Graph.m (Hypercube.graph q));
  check "degree" 4 (Graph.max_degree (Hypercube.graph q));
  check "distance" 3 (Hypercube.distance q 0b0000 0b0111);
  check "flip" 0b0100 (Hypercube.flip 0 2);
  check "diameter" 4 (Graph.diameter (Hypercube.graph q))

let test_hypercube_distance_is_bfs () =
  let q = Hypercube.create ~dim:4 in
  let g = Hypercube.graph q in
  for u = 0 to 15 do
    let row = Graph.bfs g u in
    for v = 0 to 15 do
      check "hamming = bfs" row.(v) (Hypercube.distance q u v)
    done
  done

let test_cbt () =
  let t = Cbt.create ~height:3 in
  check "order" 15 (Cbt.order t);
  check "m" 14 (Graph.m (Cbt.graph t));
  check "lca" 0 (Cbt.lca 7 14);
  check "lca ancestor" 3 (Cbt.lca 7 3);
  check "lca cousins" 1 (Cbt.lca 7 4);
  check "distance siblings" 2 (Cbt.distance t 1 2);
  check "distance leaf to root" 3 (Cbt.distance t 7 0)

let test_cbt_distance_is_bfs () =
  let t = Cbt.create ~height:4 in
  let g = Cbt.graph t in
  for u = 0 to Cbt.order t - 1 do
    let row = Graph.bfs g u in
    for v = 0 to Cbt.order t - 1 do
      check "arith = bfs" row.(v) (Cbt.distance t u v)
    done
  done

let test_ccc () =
  let c = Ccc.create ~dim:3 in
  check "order" 24 (Ccc.order c);
  check "degree" 3 (Graph.max_degree (Ccc.graph c));
  checkb "connected" true (Graph.is_connected (Ccc.graph c));
  let v = Ccc.vertex c ~word:5 ~pos:1 in
  check "word" 5 (Ccc.word c v);
  check "pos" 1 (Ccc.pos c v)

let test_butterfly () =
  let b = Butterfly.create ~dim:3 in
  check "order" 32 (Butterfly.order b);
  checkb "connected" true (Graph.is_connected (Butterfly.graph b));
  check "degree" 4 (Graph.max_degree (Butterfly.graph b));
  let v = Butterfly.vertex b ~word:2 ~level:3 in
  check "word" 2 (Butterfly.word b v);
  check "level" 3 (Butterfly.level b v)

let test_grid () =
  let g = Grid.create ~rows:3 ~cols:4 in
  check "order" 12 (Grid.order g);
  check "m" 17 (Graph.m (Grid.graph g));
  let v = Grid.vertex g ~row:2 ~col:1 in
  check "row" 2 (Grid.row g v);
  check "col" 1 (Grid.col g v);
  check "manhattan" 5 (Grid.distance g (Grid.vertex g ~row:0 ~col:0) (Grid.vertex g ~row:2 ~col:3));
  check "diameter" 5 (Graph.diameter (Grid.graph g))

let test_grid_distance_is_bfs () =
  let g = Grid.create ~rows:4 ~cols:5 in
  let gr = Grid.graph g in
  for u = 0 to Grid.order g - 1 do
    let row = Graph.bfs gr u in
    for v = 0 to Grid.order g - 1 do
      check "manhattan = bfs" row.(v) (Grid.distance g u v)
    done
  done

let suite =
  [
    ("graph basic", `Quick, test_graph_basic);
    ("graph dedup", `Quick, test_graph_dedup);
    ("graph bfs", `Quick, test_graph_bfs);
    ("graph bfs parents", `Quick, test_graph_bfs_parents);
    ("graph diameter", `Quick, test_graph_diameter);
    ("graph iter edges", `Quick, test_graph_iter_edges);
    ("graph validation", `Quick, test_graph_validation);
    ("subgraph respects", `Quick, test_subgraph_respects);
    ("xtree order", `Quick, test_xtree_order);
    ("xtree figure 1", `Quick, test_xtree_figure1);
    ("xtree addressing", `Quick, test_xtree_addressing);
    ("xtree family", `Quick, test_xtree_family);
    ("xtree ancestor", `Quick, test_xtree_ancestor);
    ("xtree distance", `Quick, test_xtree_distance);
    ("neighbourhood bound (fig 2)", `Quick, test_neighbourhood_bound);
    ("neighbourhood has self", `Quick, test_neighbourhood_contains_self);
    ("neighbourhood distance", `Quick, test_neighbourhood_distance);
    ("neighbourhood asymmetry", `Quick, test_neighbourhood_asymmetry);
    ("hypercube", `Quick, test_hypercube);
    ("hypercube distance = bfs", `Quick, test_hypercube_distance_is_bfs);
    ("cbt", `Quick, test_cbt);
    ("cbt distance = bfs", `Quick, test_cbt_distance_is_bfs);
    ("ccc", `Quick, test_ccc);
    ("butterfly", `Quick, test_butterfly);
    ("grid", `Quick, test_grid);
    ("grid distance = bfs", `Quick, test_grid_distance_is_bfs);
  ]

(* ---------------- analytic routing ---------------- *)

(* [Xtree.distance] and [analytic_distance] equal a plain graph BFS on
   every vertex pair of X(1)-X(10) (5.6 M pairs). *)
let test_analytic_distance_exact () =
  for h = 1 to 10 do
    let t = Xtree.create ~height:h in
    let g = Xtree.graph t in
    for a = 0 to Xtree.order t - 1 do
      let row = Graph.bfs g a in
      for b = 0 to Xtree.order t - 1 do
        let analytic = Xtree.analytic_distance a b and d = Xtree.distance t a b in
        if analytic <> row.(b) || d <> row.(b) then
          Alcotest.failf "X(%d) %s-%s: bfs %d, analytic_distance %d, distance %d" h
            (Xtree.to_string a) (Xtree.to_string b) row.(b) analytic d
      done
    done
  done

(* The same check of [Xtree.distance] on X(6) alone, as a [`Quick] test,
   so runs that skip the slow exhaustive sweep above still cover it. *)
let test_xtree_distance_matches_bfs () =
  let t = Xtree.create ~height:6 in
  let g = Xtree.graph t in
  for a = 0 to Xtree.order t - 1 do
    let row = Graph.bfs g a in
    for b = 0 to Xtree.order t - 1 do
      check
        (Printf.sprintf "%s-%s" (Xtree.to_string a) (Xtree.to_string b))
        row.(b) (Xtree.distance t a b)
    done
  done

let test_route_is_shortest () =
  let t = Xtree.create ~height:5 in
  let g = Xtree.graph t in
  let rng = Xt_prelude.Rng.make ~seed:3 in
  for _ = 1 to 300 do
    let a = Xt_prelude.Rng.int rng (Xtree.order t) and b = Xt_prelude.Rng.int rng (Xtree.order t) in
    if a <> b then begin
      let path = Xtree.route t ~src:a ~dst:b in
      check "length = distance" (Xtree.distance t a b) (List.length path - 1);
      let rec adjacent = function
        | x :: (y :: _ as rest) ->
            checkb "consecutive adjacent" true (Graph.has_edge g x y);
            adjacent rest
        | _ -> ()
      in
      adjacent path;
      check "starts at src" a (List.hd path);
      check "ends at dst" b (List.nth path (List.length path - 1))
    end
  done

let test_graph_edge_ids () =
  let g = Graph.of_edges ~n:5 [ (0, 1); (1, 2); (2, 3); (3, 0); (1, 3) ] in
  let m = Graph.m g in
  let seen = Array.make m 0 in
  for v = 0 to 4 do
    Graph.iter_neighbours_e g v (fun w eid ->
        checkb "id in range" true (eid >= 0 && eid < m);
        check "same id both directions" eid (Graph.edge_index g w v);
        seen.(eid) <- seen.(eid) + 1)
  done;
  Array.iter (fun c -> check "each id on exactly two arcs" 2 c) seen;
  Alcotest.check_raises "not an edge" (Invalid_argument "Graph.edge_index: not an edge")
    (fun () -> ignore (Graph.edge_index g 0 2))

let test_route_next_hop_validation () =
  let t = Xtree.create ~height:3 in
  Alcotest.check_raises "same vertex" (Invalid_argument "Xtree.route_next_hop: already there")
    (fun () -> ignore (Xtree.route_next_hop t ~src:3 ~dst:3))

(* [Xtree.distance] and [analytic_distance] are the hot path of every
   embedding metric; assert they stay allocation-free on same-level,
   ancestor and cross-level non-ancestor pairs alike. *)
let test_distance_allocation_free () =
  let t = Xtree.create ~height:10 in
  let leaf0 = 1023 and n = 2047 in
  ignore (Xtree.distance t leaf0 2046);
  Gc.minor ();
  let before = Gc.minor_words () in
  let total = ref 0 in
  for v = leaf0 to n - 1 do
    for _rep = 1 to 32 do
      total := !total + Xtree.distance t leaf0 v (* same level *)
    done;
    total := !total + Xtree.distance t 0 v (* ancestor *)
  done;
  for v = 0 to n - 1 do
    (* 1000 is "111101001" on level 9: almost every v is on another
       level and neither its ancestor nor its descendant *)
    total := !total + Xtree.distance t 1000 v;
    total := !total + Xtree.distance t v 1000;
    total := !total + Xtree.analytic_distance 1000 v
  done;
  let allocated = Gc.minor_words () -. before in
  ignore !total;
  checkb
    (Printf.sprintf "~40k distance queries allocated %.0f words" allocated)
    true (allocated < 256.)

(* [Xtree.in_neighbourhood] is membership in [Xtree.neighbourhood], on
   every vertex pair of X(1)-X(8). *)
let test_in_neighbourhood_exact () =
  for h = 1 to 8 do
    let t = Xtree.create ~height:h in
    for a = 0 to Xtree.order t - 1 do
      let n_a = Xtree.neighbourhood t a in
      for b = 0 to Xtree.order t - 1 do
        if Xtree.in_neighbourhood t a b <> List.mem b n_a then
          Alcotest.failf "X(%d): %s in N(%s) is %b" h (Xtree.to_string b) (Xtree.to_string a)
            (List.mem b n_a)
      done
    done
  done

let suite =
  suite
  @ [
      ("analytic distance exact", `Slow, test_analytic_distance_exact);
      ("xtree distance = bfs on X(6)", `Quick, test_xtree_distance_matches_bfs);
      ("graph edge ids", `Quick, test_graph_edge_ids);
      ("greedy route is shortest", `Quick, test_route_is_shortest);
      ("route next hop validation", `Quick, test_route_next_hop_validation);
      ("closed-form distance allocation free", `Quick, test_distance_allocation_free);
      ("in_neighbourhood = membership in N(a)", `Quick, test_in_neighbourhood_exact);
    ]
