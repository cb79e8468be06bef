open Xt_bintree
open Xt_core
open Xt_embedding

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let families_under_test = [ "complete"; "path"; "caterpillar"; "uniform"; "random-bst"; "skewed" ]

let gen name rng n = (Gen.family name).generate rng n

(* ---------------- height arithmetic ---------------- *)

let test_height_for () =
  check "n=1" 0 (Theorem1.height_for 1);
  check "n=16" 0 (Theorem1.height_for 16);
  check "n=17" 1 (Theorem1.height_for 17);
  check "n=48" 1 (Theorem1.height_for 48);
  check "n=49" 2 (Theorem1.height_for 49);
  check "optimal r=3" 240 (Theorem1.optimal_size 3);
  check "custom capacity" 2 (Theorem1.height_for ~capacity:1 7)

(* A capacity below one fits nothing at any height: rejected by name,
   not by running the height search into [Bits.pow2]'s range check. *)
let test_height_for_bad_capacity () =
  List.iter
    (fun capacity ->
      Alcotest.check_raises
        (Printf.sprintf "height_for capacity %d" capacity)
        (Invalid_argument "Theorem1.height_for: capacity must be positive")
        (fun () -> ignore (Theorem1.height_for ~capacity 100));
      Alcotest.check_raises
        (Printf.sprintf "optimal_size capacity %d" capacity)
        (Invalid_argument "Theorem1.optimal_size: capacity must be positive")
        (fun () -> ignore (Theorem1.optimal_size ~capacity 3)))
    [ 0; -1; min_int ]

(* ---------------- Theorem 1 core guarantees ---------------- *)

let embed_all f =
  let rng = Xt_prelude.Rng.make ~seed:77 in
  List.iter
    (fun fname ->
      List.iter
        (fun r ->
          let n = Theorem1.optimal_size r in
          let t = gen fname rng n in
          let res = Theorem1.embed t in
          f fname r res)
        [ 1; 2; 3; 4 ])
    families_under_test

let test_t1_every_node_placed () =
  embed_all (fun fname r res ->
      Array.iteri
        (fun v p ->
          if p < 0 then Alcotest.failf "%s r=%d: node %d unplaced" fname r v)
        res.Theorem1.embedding.Embedding.place)

let test_t1_load_exact_16 () =
  (* at the paper's exact sizes every vertex holds exactly 16 nodes *)
  embed_all (fun fname r res ->
      Array.iteri
        (fun a l ->
          if l <> 16 then Alcotest.failf "%s r=%d: vertex %d has load %d" fname r a l)
        (Embedding.loads res.Theorem1.embedding))

let test_t1_dilation_constant () =
  embed_all (fun fname r res ->
      let d = Embedding.dilation ~dist:(Theorem1.distance_oracle res) res.Theorem1.embedding in
      if d > 4 then Alcotest.failf "%s r=%d: dilation %d" fname r d)

let test_t1_optimal_expansion () =
  embed_all (fun fname r res ->
      check
        (Printf.sprintf "%s r=%d host size" fname r)
        (Xt_topology.Xtree.order res.Theorem1.xt)
        (Theorem1.optimal_size r / 16))

let test_t1_slack_sizes () =
  (* non-optimal n: load <= 16 still enforced, everything placed *)
  let rng = Xt_prelude.Rng.make ~seed:3 in
  List.iter
    (fun n ->
      let t = Gen.uniform rng n in
      let res = Theorem1.embed t in
      checkb "all placed" true
        (Array.for_all (fun p -> p >= 0) res.Theorem1.embedding.Embedding.place);
      checkb "load bound" true (Embedding.load res.Theorem1.embedding <= 16))
    [ 1; 2; 15; 17; 100; 241; 500; 1000 ]

let test_t1_small_capacity () =
  (* the algorithm generalises to other capacities *)
  let rng = Xt_prelude.Rng.make ~seed:4 in
  List.iter
    (fun capacity ->
      let n = capacity * 15 in
      let t = Gen.uniform rng n in
      let res = Theorem1.embed ~capacity t in
      checkb "load bound" true (Embedding.load res.Theorem1.embedding <= capacity);
      let d = Embedding.dilation ~dist:(Theorem1.distance_oracle res) res.Theorem1.embedding in
      checkb "dilation finite" true (d <= 8))
    [ 4; 8; 32 ]

let test_t1_explicit_height () =
  let rng = Xt_prelude.Rng.make ~seed:5 in
  let t = Gen.uniform rng 100 in
  let res = Theorem1.embed ~height:5 t in
  check "height respected" 5 res.Theorem1.height;
  Alcotest.check_raises "too small"
    (Invalid_argument "Theorem1.embed: X-tree too small for this guest") (fun () ->
      ignore (Theorem1.embed ~height:1 t))

let test_t1_trace_decays () =
  let rng = Xt_prelude.Rng.make ~seed:6 in
  let t = Gen.uniform rng (Theorem1.optimal_size 5) in
  let res = Theorem1.embed ~record_trace:true t in
  match res.Theorem1.trace with
  | None -> Alcotest.fail "trace missing"
  | Some tr ->
      check "one row per round" res.Theorem1.height (Array.length tr.Theorem1.rounds);
      (* after the final round every sibling pair at levels <= r-2 is balanced *)
      let last = tr.Theorem1.rounds.(Array.length tr.Theorem1.rounds - 1) in
      for j = 0 to res.Theorem1.height - 2 do
        checkb (Printf.sprintf "level %d settled" j) true (last.(j) <= 16)
      done

let test_t1_deterministic () =
  let rng1 = Xt_prelude.Rng.make ~seed:9 and rng2 = Xt_prelude.Rng.make ~seed:9 in
  let t1 = Gen.uniform rng1 500 and t2 = Gen.uniform rng2 500 in
  let r1 = Theorem1.embed t1 and r2 = Theorem1.embed t2 in
  Alcotest.(check (array int))
    "same placement" r1.Theorem1.embedding.Embedding.place r2.Theorem1.embedding.Embedding.place

(* ---------------- State invariants under the real run ---------------- *)

let test_state_invariants_after_rounds () =
  (* replicate embed's setup, checking invariants between phases *)
  let rng = Xt_prelude.Rng.make ~seed:13 in
  let tree = Gen.uniform rng (Theorem1.optimal_size 3) in
  let res = Theorem1.embed tree in
  (* final state is not exposed; instead re-run on a fresh state manually *)
  ignore res;
  let st = State.create (Bintree.mirror_copy tree) ~height:3 ~capacity:16 in
  (match State.check_invariants st with
  | Ok () -> Alcotest.fail "empty state should fail coverage (nothing placed)"
  | Error _ -> ());
  (* placing everything via the public algorithm keeps the ledger exact;
     verified indirectly through load/placement tests above *)
  ()

let test_state_lay_and_weights () =
  let tree = Gen.complete 31 in
  let st = State.create (Bintree.mirror_copy tree) ~height:2 ~capacity:16 in
  State.lay st ~max_level:0 ~node:0 ~vertex:0;
  check "weight at root" 1 (State.weight_of st 0);
  State.lay st ~max_level:2 ~node:1 ~vertex:5;
  check "root weight counts descendants" 2 (State.weight_of st 0);
  check "leaf weight" 1 (State.weight_of st 5);
  Alcotest.check_raises "double placement" (Invalid_argument "State.lay: node already placed")
    (fun () -> State.lay st ~max_level:0 ~node:0 ~vertex:0)

let test_state_lay_fallback () =
  let tree = Gen.complete 31 in
  let st = State.create (Bintree.mirror_copy tree) ~height:2 ~capacity:1 in
  State.lay st ~max_level:1 ~node:0 ~vertex:0;
  (* vertex 0 is full: next placement diverts to a neighbour *)
  State.lay st ~max_level:1 ~node:1 ~vertex:0;
  check "fallback counted" 1 st.State.fallbacks;
  checkb "placed somewhere else" true (st.State.place.(1) <> 0 && st.State.place.(1) >= 0)

(* With capacity 1, nodes laid one by one at the full root fill the
   X-tree in the FIFO order of a BFS from the root over sorted adjacency;
   once the search's scratch exists, a fallback allocates nothing in the
   major heap (a fresh [seen] array of X(10)'s order would be 2047
   words there). *)
let test_state_fallback_order_and_allocation () =
  let height = 10 in
  let xt = Xt_topology.Xtree.create ~height in
  let order = Xt_topology.Xtree.order xt in
  let tree = Gen.complete order in
  let st = State.create (Bintree.mirror_copy tree) ~height ~capacity:1 in
  let g = Xt_topology.Xtree.graph xt in
  let bfs = Array.make order 0 and seen = Array.make order false in
  let tail = ref 1 in
  seen.(0) <- true;
  for head = 0 to order - 1 do
    Array.iter
      (fun w ->
        if not seen.(w) then begin
          seen.(w) <- true;
          bfs.(!tail) <- w;
          incr tail
        end)
      (Xt_topology.Graph.neighbours g bfs.(head))
  done;
  State.lay st ~max_level:height ~node:0 ~vertex:0;
  State.lay st ~max_level:height ~node:1 ~vertex:0;
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.major_words in
  for node = 2 to 201 do
    State.lay st ~max_level:height ~node ~vertex:0
  done;
  let major = (Gc.quick_stat ()).Gc.major_words -. before in
  for node = 0 to 201 do
    check (Printf.sprintf "node %d at the BFS's %dth vertex" node node) bfs.(node) st.State.place.(node)
  done;
  check "fallbacks" 201 st.State.fallbacks;
  checkb (Printf.sprintf "200 fallbacks allocated %.0f major words" major) true (major = 0.)

(* A state numbers the guest in mirror preorder: in the complete 31-node
   guest the root's right child is 1, with children 2 and 9. *)
let test_state_attach_detach () =
  let tree = Gen.complete 31 in
  let st = State.create (Bintree.mirror_copy tree) ~height:2 ~capacity:16 in
  let piece = { State.pid = 0; size = 3; bounds = []; start = 1; top = 1 } in
  State.attach st ~vertex:3 piece;
  check "weight" 3 (State.weight_of st 3);
  check "root sees it" 3 (State.weight_of st 0);
  check "pieces there" 1 (List.length (State.pieces_at st 3));
  State.detach st ~vertex:3 piece;
  check "weight gone" 0 (State.weight_of st 0);
  Alcotest.check_raises "double detach" (Invalid_argument "State.detach: piece not attached here")
    (fun () -> State.detach st ~vertex:3 piece)

(* In the mirror-preorder complete 7-node guest the root's right child is
   1, with children 2 and 3: once the root is laid they are a maximal
   piece, which [State.new_piece] forms from its top, start and one
   boundary node. *)
let test_make_piece_boundaries () =
  let tree = Gen.complete 7 in
  let st = State.create (Bintree.mirror_copy tree) ~height:1 ~capacity:16 in
  State.lay st ~max_level:0 ~node:0 ~vertex:0;
  let piece = State.new_piece st ~top:1 ~start:3 [ 1 ] in
  check "size" 3 piece.State.size;
  check "one boundary" 1 (List.length piece.State.bounds);
  let b = List.hd piece.State.bounds in
  check "boundary node" 1 b.State.bnode;
  check "anchor" 0 b.State.anchor;
  let sp = State.separator_piece piece in
  check "r1" 1 sp.Separator.r1;
  Alcotest.(check (option int)) "no r2" None sp.Separator.r2

let suite =
  [
    ("height arithmetic", `Quick, test_height_for);
    ("height_for rejects non-positive capacity", `Quick, test_height_for_bad_capacity);
    ("T1: every node placed", `Slow, test_t1_every_node_placed);
    ("T1: load exactly 16 at optimal sizes", `Slow, test_t1_load_exact_16);
    ("T1: constant dilation", `Slow, test_t1_dilation_constant);
    ("T1: optimal expansion", `Slow, test_t1_optimal_expansion);
    ("T1: slack sizes", `Quick, test_t1_slack_sizes);
    ("T1: other capacities", `Quick, test_t1_small_capacity);
    ("T1: explicit height", `Quick, test_t1_explicit_height);
    ("T1: trace decays", `Quick, test_t1_trace_decays);
    ("T1: deterministic", `Quick, test_t1_deterministic);
    ("state invariants", `Quick, test_state_invariants_after_rounds);
    ("state lay and weights", `Quick, test_state_lay_and_weights);
    ("state lay fallback", `Quick, test_state_lay_fallback);
    ("state fallback: BFS order, no major words", `Quick, test_state_fallback_order_and_allocation);
    ("state attach/detach", `Quick, test_state_attach_detach);
    ("make_piece boundaries", `Quick, test_make_piece_boundaries);
  ]
