open Xt_prelude
open Xt_topology
open Xt_bintree
open Xt_core
open Xt_embedding
open Xt_baseline

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ---------------- Heap ---------------- *)

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter (fun k -> Heap.push h ~key:k (k * 10)) [ 5; 1; 4; 2; 3 ];
  check "size" 5 (Heap.size h);
  let popped = List.init 5 (fun _ -> Heap.pop_min h) in
  Alcotest.(check (list (option (pair int int))))
    "sorted"
    [ Some (1, 10); Some (2, 20); Some (3, 30); Some (4, 40); Some (5, 50) ]
    popped;
  checkb "empty" true (Heap.is_empty h);
  Alcotest.(check (option (pair int int))) "pop empty" None (Heap.pop_min h)

let test_heap_duplicates_and_peek () =
  let h = Heap.create () in
  Heap.push h ~key:7 "a";
  Heap.push h ~key:7 "b";
  Heap.push h ~key:3 "c";
  Alcotest.(check (option (pair int string))) "peek" (Some (3, "c")) (Heap.peek_min h);
  ignore (Heap.pop_min h);
  let k1 = Option.map fst (Heap.pop_min h) and k2 = Option.map fst (Heap.pop_min h) in
  Alcotest.(check (option int)) "dup key 1" (Some 7) k1;
  Alcotest.(check (option int)) "dup key 2" (Some 7) k2

let test_heap_random () =
  let rng = Rng.make ~seed:44 in
  let h = Heap.create () in
  let keys = List.init 500 (fun _ -> Rng.int rng 10_000) in
  List.iter (fun k -> Heap.push h ~key:k k) keys;
  let rec drain acc = match Heap.pop_min h with None -> List.rev acc | Some (k, _) -> drain (k :: acc) in
  let drained = drain [] in
  Alcotest.(check (list int)) "heap sorts" (List.sort compare keys) drained

(* ---------------- Congestion ---------------- *)

let guest fname n = (Gen.family fname).generate (Rng.make ~seed:12) n
let theorem1_for fname r = Theorem1.embed (guest fname (Theorem1.optimal_size r))
let embedding_for fname r = (theorem1_for fname r).Theorem1.embedding

(* [Embedding.congestion] stops each BFS once it finds the edge's other
   end; [Congestion.baseline] runs every BFS to the end. Both must route
   each guest edge on the same BFS-tree path: equal congestion, and
   route lengths equal to the edges' dilations. *)
let matches_baseline what ~dist e =
  let base = Congestion.baseline e in
  let ds = Embedding.edge_dilations ~dist e in
  check (what ^ ": congestion") base.Congestion.congestion (Embedding.congestion e);
  check (what ^ ": max route = dilation") (Array.fold_left max 0 ds) base.Congestion.max_route_length;
  check (what ^ ": total route = sum of dilations") (Array.fold_left ( + ) 0 ds)
    base.Congestion.total_route_length

(* Each case builds an embedding and names its host's metric. The
   capacity-1 layouts on X(11) have routes of up to 20 (DFS) and 15
   (bisection) hops. *)
let baseline_cases =
  let theorem1 fname r () =
    let res = theorem1_for fname r in
    (res.Theorem1.embedding, Theorem1.distance_oracle res)
  in
  let theorem2 fname r () =
    let res = Theorem2.embed (guest fname (Theorem1.optimal_size r)) in
    (res.Theorem2.embedding, Theorem2.distance_oracle res)
  in
  let theorem3 ~injective fname r () =
    let tree = guest fname (Theorem1.optimal_size r) in
    let res = if injective then Hypercube_transfer.embed_injective tree else Hypercube_transfer.embed tree in
    (res.Hypercube_transfer.embedding, Hypercube_transfer.distance_oracle res)
  in
  let layout order fname n () =
    let res = Order_layout.embed ~capacity:1 ~order (guest fname n) in
    (res.Order_layout.embedding, Xtree.distance res.Order_layout.xt)
  in
  let bisection fname n () =
    let res = Recursive_bisection.embed ~capacity:1 (guest fname n) in
    (res.Recursive_bisection.embedding, Xtree.distance res.Recursive_bisection.xt)
  in
  [
    ("theorem1 uniform r=4", theorem1 "uniform" 4);
    ("theorem1 path r=6", theorem1 "path" 6);
    ("theorem1 caterpillar r=6", theorem1 "caterpillar" 6);
    ("theorem2 path r=4", theorem2 "path" 4);
    ("theorem2 random-bst r=5", theorem2 "random-bst" 5);
    ("theorem3 uniform r=5", theorem3 ~injective:false "uniform" 5);
    ("theorem3 injective path r=4", theorem3 ~injective:true "path" 4);
    ("dfs path n=4095", layout Order_layout.Dfs "path" 4095);
    ("bfs random-bst n=2047", layout Order_layout.Bfs "random-bst" 2047);
    ("bisection uniform n=4095", bisection "uniform" 4095);
  ]

let test_baseline_matches_embedding_congestion () =
  List.iter
    (fun (what, build) ->
      let e, dist = build () in
      matches_baseline what ~dist e)
    baseline_cases

(* Random guests placed at random on random connected graphs (a random
   spanning tree plus chords) and on X-trees of heights 1-12. On X(12) a
   40-node guest placed at random has routes of up to 23 hops, the
   X-tree's diameter. *)
type placement_case = { host : string; height : int; guest_size : int; pseed : int }

let print_placement_case c =
  Printf.sprintf "%s(%d) guest=%d seed=%d" c.host c.height c.guest_size c.pseed

let placement_case_gen =
  QCheck2.Gen.(
    let* host = oneofl [ "connected"; "xtree" ] in
    let* height = map (fun k -> k + 1) (int_bound 11) in
    let* guest_size = map (fun k -> k + 1) (int_bound 47) in
    let* pseed = int_bound 1_000_000 in
    return { host; height; guest_size; pseed })

let qcheck_random_placements =
  QCheck2.Test.make ~count:150 ~name:"random placements: congestion = baseline"
    ~print:print_placement_case placement_case_gen (fun c ->
      let rng = Rng.make ~seed:c.pseed in
      let host, dist =
        if c.host = "xtree" then
          let xt = Xtree.create ~height:c.height in
          (Xtree.graph xt, Xtree.distance xt)
        else
          let n = 2 + Rng.int rng 47 in
          let g = Graph.of_edges ~n (Test_netsim.random_connected rng ~base:0 n) in
          (g, Graph.distance g)
      in
      let tree = Gen.uniform rng c.guest_size in
      let place = Array.init c.guest_size (fun _ -> Rng.int rng (Graph.n host)) in
      matches_baseline (print_placement_case c) ~dist (Embedding.make ~tree ~host ~place);
      true)

let test_route_never_worse () =
  List.iter
    (fun fname ->
      let e = embedding_for fname 5 in
      let base = Congestion.baseline e in
      let smart = Congestion.route e in
      checkb (fname ^ " congestion <= baseline") true
        (smart.Congestion.congestion <= base.Congestion.congestion))
    [ "caterpillar"; "uniform"; "complete"; "path" ]

let test_route_detour_bounded () =
  let res = theorem1_for "caterpillar" 5 in
  let e = res.Theorem1.embedding in
  let dil = Embedding.dilation ~dist:(Theorem1.distance_oracle res) e in
  let smart = Congestion.route e in
  checkb "maxlen <= dilation + 4" true (smart.Congestion.max_route_length <= dil + 4)

let test_route_total_length_sane () =
  let e = embedding_for "uniform" 4 in
  let base = Congestion.baseline e in
  let smart = Congestion.route e in
  (* smart routes are never shorter in total than shortest paths *)
  checkb "total >= baseline" true
    (smart.Congestion.total_route_length >= base.Congestion.total_route_length)

let test_collapsed_embedding_routes () =
  (* everything on one vertex: no demands at all *)
  let tree = Gen.complete 7 in
  let host = Graph.of_edges ~n:2 [ (0, 1) ] in
  let e = Embedding.make ~tree ~host ~place:(Array.make 7 0) in
  let r = Congestion.route e in
  check "no congestion" 0 r.Congestion.congestion;
  check "no routes" 0 r.Congestion.total_route_length

(* ---------------- Enum ---------------- *)

let test_catalan_values () =
  Alcotest.(check (list int)) "catalan 0..8"
    [ 1; 1; 2; 5; 14; 42; 132; 429; 1430 ]
    (List.map Enum.catalan [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ])

let test_enumeration_counts () =
  List.iter (fun n -> check (Printf.sprintf "n=%d" n) (Enum.catalan n) (Enum.count_shapes n)) [ 1; 2; 3; 4; 5; 6; 7 ]

let test_enumeration_distinct_and_valid () =
  let seen = Hashtbl.create 64 in
  Seq.iter
    (fun t ->
      checkb "valid" true (Bintree.check t = Ok ());
      check "size" 6 (Bintree.n t);
      let sig_ = Codec.to_string t in
      checkb "distinct" true (not (Hashtbl.mem seen sig_));
      Hashtbl.replace seen sig_ ())
    (Enum.all_shapes 6);
  check "all there" 132 (Hashtbl.length seen)

let test_enumeration_guard () =
  checkb "guard" true
    (try
       let (_ : Bintree.t Seq.t) = Enum.all_shapes 19 in
       false
     with Invalid_argument _ -> true)

(* exhaustive Theorem 1 over every 6-node tree at capacity 2 *)
let test_exhaustive_tiny_theorem1 () =
  Seq.iter
    (fun tree ->
      let res = Theorem1.embed ~capacity:2 tree in
      checkb "placed" true (Array.for_all (fun p -> p >= 0) res.Theorem1.embedding.Embedding.place);
      checkb "load" true (Embedding.load res.Theorem1.embedding <= 2);
      checkb "dilation" true
        (Embedding.dilation ~dist:(Theorem1.distance_oracle res) res.Theorem1.embedding <= 3))
    (Enum.all_shapes 6)

let suite =
  [
    ("heap ordering", `Quick, test_heap_ordering);
    ("heap duplicates and peek", `Quick, test_heap_duplicates_and_peek);
    ("heap random", `Quick, test_heap_random);
    ("baseline = embedding congestion", `Slow, test_baseline_matches_embedding_congestion);
    QCheck_alcotest.to_alcotest ~long:false qcheck_random_placements;
    ("route never worse", `Quick, test_route_never_worse);
    ("route detour bounded", `Quick, test_route_detour_bounded);
    ("route total length sane", `Quick, test_route_total_length_sane);
    ("collapsed embedding routes", `Quick, test_collapsed_embedding_routes);
    ("catalan values", `Quick, test_catalan_values);
    ("enumeration counts", `Quick, test_enumeration_counts);
    ("enumeration distinct/valid", `Quick, test_enumeration_distinct_and_valid);
    ("enumeration guard", `Quick, test_enumeration_guard);
    ("exhaustive tiny theorem1", `Slow, test_exhaustive_tiny_theorem1);
  ]
