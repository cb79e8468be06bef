(* White-box tests for the core machinery: hand-built states driven
   through Moves / Adjust / Split directly, with the intermediate
   invariants asserted (the black-box pipeline tests live in
   test_core.ml). *)

open Xt_bintree
open Xt_core

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* A state over a path guest with the first [k] nodes laid at the root.
   A path numbered from its root is already in mirror preorder, so the
   state's ids are the path's. *)
let path_state ~n ~height ~capacity ~rooted =
  let m = Bintree.mirror_copy (Gen.path n) in
  let tree = m.copy in
  let st = State.create m ~height ~capacity in
  for v = 0 to rooted - 1 do
    State.lay st ~max_level:0 ~node:v ~vertex:0
  done;
  (tree, st)

let range lo hi = List.init (hi - lo + 1) (fun i -> lo + i)

let test_clamp_vertex () =
  let _, st = path_state ~n:40 ~height:2 ~capacity:16 ~rooted:16 in
  (* make the left grandchild branch heavier *)
  let p = State.make_piece st (range 16 25) in
  State.attach st ~vertex:3 p;
  (* clamping the root to floor 1 goes to the lighter child (vertex 2) *)
  check "clamps to lighter child" 2 (Moves.clamp_vertex st ~floor_level:1 0);
  (* vertices already at the floor stay put *)
  check "at floor" 1 (Moves.clamp_vertex st ~floor_level:1 1);
  check "below floor stays" 3 (Moves.clamp_vertex st ~floor_level:1 3)

let test_adjust_balances_hand_built_imbalance () =
  let _, st = path_state ~n:100 ~height:2 ~capacity:16 ~rooted:16 in
  (* the whole 84-node residual hangs on the left child *)
  let piece = State.make_piece st (range 16 99) in
  check "one boundary" 1 (List.length piece.State.bounds);
  State.attach st ~vertex:1 piece;
  check "left heavy" 84 (State.weight_of st 1);
  check "right empty" 0 (State.weight_of st 2);
  Adjust.run st ~round:2 ~a:0;
  let w1 = State.weight_of st 1 and w2 = State.weight_of st 2 in
  check "nothing lost" 84 (w1 + w2);
  checkb
    (Printf.sprintf "balanced (%d vs %d)" w1 w2)
    true
    (abs (w1 - w2) <= 2 * (((84 / 2) + 4) / 9));
  (* separator nodes went to the two horizontally adjacent new leaves,
     at most 4 each (the ADJUST budget) *)
  checkb "donor-side layout within budget" true (st.State.occ.(4) <= 4);
  checkb "receiver-side layout within budget" true (st.State.occ.(5) <= 4);
  match State.check_invariants st with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariants: %s" e

let test_adjust_noop_when_balanced () =
  let _, st = path_state ~n:48 ~height:2 ~capacity:16 ~rooted:16 in
  let left = State.make_piece st (range 16 31) in
  State.attach st ~vertex:1 left;
  (* a second piece of the same size on the right; its boundary node is
     16's neighbour so build it from the path tail *)
  let right = State.make_piece st (range 32 47) in
  State.attach st ~vertex:2 right;
  (* the right piece's boundary anchors inside the left piece region, but
     weights are what ADJUST reads *)
  Adjust.run st ~round:2 ~a:0;
  check "left unchanged" 16 (State.weight_of st 1);
  check "right unchanged" 16 (State.weight_of st 2);
  check "nothing laid by adjust" 16 st.State.placed

let test_split_distributes_and_fills () =
  let _, st = path_state ~n:100 ~height:2 ~capacity:16 ~rooted:16 in
  let piece = State.make_piece st (range 16 99) in
  State.attach st ~vertex:0 piece;
  Split.run st ~round:1 ~alpha:0;
  (* the root's attachment list is drained *)
  check "root drained" 0 (List.length (State.pieces_at st 0));
  (* both children are filled to capacity *)
  check "left full" 16 st.State.occ.(1);
  check "right full" 16 st.State.occ.(2);
  (* and the leftover weight is split roughly in half *)
  let w1 = State.weight_of st 1 and w2 = State.weight_of st 2 in
  check "all weight below" 84 (w1 + w2);
  checkb (Printf.sprintf "halved (%d vs %d)" w1 w2) true (abs (w1 - w2) <= 14);
  match State.check_invariants st with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariants: %s" e

let test_split_lays_old_anchored_bounds () =
  (* a piece anchored two levels up MUST have its boundary node laid *)
  let _, st = path_state ~n:60 ~height:2 ~capacity:16 ~rooted:16 in
  let piece = State.make_piece st (range 16 59) in
  (* attach it directly at level-1 vertex 1, anchor stays at the root *)
  State.attach st ~vertex:1 piece;
  Split.run st ~round:2 ~alpha:1;
  (* boundary node 16 is now placed (its anchor was at level 0 = i-2) *)
  checkb "boundary node laid" true (st.State.place.(16) >= 0);
  check "vertex 1 drained" 0 (List.length (State.pieces_at st 1));
  match State.check_invariants st with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariants: %s" e

let test_split_respects_capacity () =
  let _, st = path_state ~n:100 ~height:2 ~capacity:16 ~rooted:16 in
  let piece = State.make_piece st (range 16 99) in
  State.attach st ~vertex:0 piece;
  Split.run st ~round:1 ~alpha:0;
  Array.iter (fun o -> checkb "occupancy bound" true (o <= 16)) st.State.occ;
  match State.check_invariants st with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariants: %s" e

(* The complete 31-node guest, in mirror preorder, with its root at
   X-tree vertex 1 and the root's grandchildren (2, 9, 17 and 24) laid
   beside it: the root's children, nodes 1 and 16, are then two maximal
   unplaced sets of one node each. *)
let two_singletons () =
  let st = State.create (Bintree.mirror_copy (Gen.complete 31)) ~height:2 ~capacity:16 in
  List.iter (fun v -> State.lay st ~max_level:1 ~node:v ~vertex:1) [ 0; 2; 9; 17; 24 ];
  st

let test_reattach_components_by_anchor () =
  let st = two_singletons () in
  (* nodes 1,16 are the root's children: two separate components, both
     anchored at vertex 1 *)
  Moves.reattach st ~floor_level:1 ~fallback:2 [ 1; 16 ];
  check "two pieces at anchor" 2 (List.length (State.pieces_at st 1));
  check "none at fallback" 0 (List.length (State.pieces_at st 2))

let test_reattach_to_explicit_vertex () =
  let st = two_singletons () in
  Moves.reattach_to st ~vertex:2 [ 1; 16 ];
  check "both pieces at explicit vertex" 2 (List.length (State.pieces_at st 2));
  check "weight follows" 2 (State.weight_of st 2)

let test_move_whole_lays_designated () =
  let _, st = path_state ~n:40 ~height:2 ~capacity:16 ~rooted:16 in
  let piece = State.make_piece st (range 16 39) in
  State.attach st ~vertex:1 piece;
  State.detach st ~vertex:1 piece;
  Moves.move_whole st ~max_level:2 ~floor_level:2 piece ~dest:5;
  (* the boundary node (16) was laid at the destination *)
  check "designated laid at dest" 5 st.State.place.(16);
  (* the remainder is attached below, anchored at the destination *)
  check "rest attached at dest" 1 (List.length (State.pieces_at st 5));
  check "weight accounted" 24 (State.weight_of st 5)

(* ---------------- re-forming pieces in one walk ---------------- *)

(* [State.reform] must equal the two-pass pipeline it replaces — a
   filtered copy, [Separator.components], then [State.make_piece] per
   component — down to piece order, node order, sizes, boundary order,
   piece ids and the [wide_pieces] count. Cases: a random tree, a random
   connected node set in random order with every neighbour outside it
   placed (the maximal unplaced set [State.reform] requires), random
   placements further out, and 0-4 set nodes laid as a caller lays
   them before re-forming. *)
type reform_case = { fam : string; n : int; seed : int; removed_count : int }

let print_reform_case c = Printf.sprintf "%s(%d) seed=%d removed=%d" c.fam c.n c.seed c.removed_count

let reform_case_gen =
  QCheck2.Gen.(
    let* fam = oneofl [ "uniform"; "path"; "caterpillar"; "complete"; "random-bst"; "skewed" ] in
    let* n = int_range 2 400 in
    let* seed = int_bound 1_000_000 in
    let* removed_count = int_range 0 4 in
    return { fam; n; seed; removed_count })

(* A random connected set of 1 to [max_k] nodes, grown from a random
   node one random frontier pick at a time: its membership, and its
   nodes in random order. *)
let random_connected_set rng tree ~max_k =
  let open Xt_prelude in
  let n = Bintree.n tree in
  let inset = Array.make n false in
  let pool = Array.make ((3 * n) + 1) 0 and m = ref 1 in
  pool.(0) <- Rng.int rng n;
  let k = Rng.int_in rng 1 max_k and members = ref [] and count = ref 0 in
  while !count < k && !m > 0 do
    let i = Rng.int rng !m in
    let v = pool.(i) in
    pool.(i) <- pool.(!m - 1);
    decr m;
    if not inset.(v) then begin
      inset.(v) <- true;
      members := v :: !members;
      incr count;
      Bintree.iter_neighbours tree v (fun w ->
          if not inset.(w) then begin
            pool.(!m) <- w;
            incr m
          end)
    end
  done;
  let nodes = Array.of_list !members in
  Rng.shuffle rng nodes;
  (inset, nodes)

(* Everything derives from the case seed, so two calls build identical
   states: one for each side of the comparison. *)
let reform_scenario c =
  let open Xt_prelude in
  let rng = Rng.make ~seed:c.seed in
  let m = Bintree.mirror_copy ((Gen.family c.fam).generate (Rng.split rng) c.n) in
  let tree = m.copy in
  let n = Bintree.n tree in
  let inset, nodes = random_connected_set rng tree ~max_k:n in
  let height = 5 in
  let st = State.create m ~height ~capacity:16 in
  let order = Xt_topology.Xtree.order st.State.xt in
  let lay v = State.lay st ~max_level:height ~node:v ~vertex:(Rng.int rng order) in
  let next_to_set v =
    let near = ref false in
    Bintree.iter_neighbours tree v (fun w -> if inset.(w) then near := true);
    !near
  in
  for v = 0 to n - 1 do
    if (not inset.(v)) && (next_to_set v || Rng.bool rng) then lay v
  done;
  let picks = Array.copy nodes in
  Rng.shuffle rng picks;
  let removed = List.filteri (fun i _ -> i < c.removed_count) (Array.to_list picks) in
  List.iter lay removed;
  (st, Array.to_list nodes, removed)

let run_reform_case c =
  let st1, nodes, removed = reform_scenario c in
  let kept = List.filter (fun v -> not (List.mem v removed)) nodes in
  let comps = Separator.components st1.State.ws ~nodes:kept ~removed:[] in
  (* rev_map applies make_piece front to back, drawing ids in list order *)
  let expected = List.rev (List.rev_map (State.make_piece st1) comps) in
  let st2, nodes, _ = reform_scenario c in
  let got = State.reform st2 nodes in
  got = expected
  && st1.State.wide_pieces = st2.State.wide_pieces
  && st1.State.next_pid = st2.State.next_pid

let qcheck_reform =
  QCheck2.Test.make ~count:500 ~name:"reform == components + make_piece" ~print:print_reform_case
    reform_case_gen run_reform_case

(* ---------------- the SPLIT fill against its per-peel loop ---------------- *)

(* [Split.fill] must leave exactly what re-forming the rest of the head
   piece after every peel leaves: the same nodes laid, and the same
   attached pieces — ids, sizes, node order, bounds, starts, tops — in
   the same order, with the same id counter and wide-piece count. The
   oracle is that per-peel loop. Cases: a random tree, a laid prefix
   (breadth-first from the root, or scattered nodes, which cut pieces
   below their boundary nodes and give pieces several boundaries), the
   rest re-formed along a plain or shuffled node list and attached at
   one vertex, which the fill then tops up. *)
type fill_case = { ffam : string; fn : int; fcap : int; fseed : int; scattered : bool; shuffled : bool }

let print_fill_case c =
  Printf.sprintf "%s(%d) cap=%d seed=%d scattered=%b shuffled=%b" c.ffam c.fn c.fcap c.fseed
    c.scattered c.shuffled

let fill_case_gen =
  QCheck2.Gen.(
    let* ffam = oneofl [ "path"; "caterpillar"; "broom"; "uniform"; "random-bst"; "random-split" ] in
    let* fn = int_range 20 2000 in
    let* fcap = int_range 2 16 in
    let* fseed = int_bound 1_000_000 in
    let* scattered = bool in
    let* shuffled = bool in
    return { ffam; fn; fcap; fseed; scattered; shuffled })

let oracle_fill st ~round:i ~vertex:child =
  let continue_ = ref true in
  while !continue_ && st.State.occ.(child) < st.State.capacity do
    match State.pieces_at st child with
    | [] -> continue_ := false
    | (p : State.piece) :: _ ->
        State.detach st ~vertex:child p;
        let peel =
          match p.State.bounds with b :: _ -> b.State.bnode | [] -> List.hd p.State.nodes
        in
        State.lay st ~max_level:i ~node:peel ~vertex:child;
        Moves.reattach_to st ~vertex:child p.State.nodes
  done

(* Everything derives from the case seed: two calls build identical states. *)
let fill_scenario c =
  let open Xt_prelude in
  let rng = Rng.make ~seed:c.fseed in
  let m = Bintree.mirror_copy ((Gen.family c.ffam).generate (Rng.split rng) c.fn) in
  let tree = m.copy in
  let n = Bintree.n tree in
  let height = Theorem1.height_for ~capacity:c.fcap n + 1 in
  let st = State.create m ~height ~capacity:c.fcap in
  let round = Rng.int_in rng 1 height in
  let level = Xt_topology.Xtree.vertices_at_level st.State.xt round in
  let child = List.nth level (Rng.int rng (List.length level)) in
  let order = Xt_topology.Xtree.order st.State.xt in
  let k = Rng.int_in rng 1 (n / 2) in
  let laid =
    if c.scattered then begin
      let ids = Array.init n Fun.id in
      Rng.shuffle rng ids;
      Array.to_list (Array.sub ids 0 k)
    end
    else begin
      (* the first k nodes breadth-first from the root *)
      let queue = Queue.create () and taken = ref [] in
      Queue.add (Bintree.root tree) queue;
      for _ = 1 to k do
        let v = Queue.pop queue in
        taken := v :: !taken;
        List.iter (fun w -> Queue.add w queue) (Bintree.children tree v)
      done;
      !taken
    end
  in
  List.iter
    (fun v ->
      let vertex = if Rng.int rng 8 = 0 then child else Rng.int rng order in
      State.lay st ~max_level:height ~node:v ~vertex)
    laid;
  let nodes = Array.init n Fun.id in
  if c.shuffled then Rng.shuffle rng nodes;
  Moves.reattach_to st ~vertex:child (Array.to_list nodes);
  (st, round, child)

let run_fill_case c =
  let st1, round, child = fill_scenario c in
  oracle_fill st1 ~round ~vertex:child;
  let st2, _, _ = fill_scenario c in
  Split.fill st2 ~round ~vertex:child;
  st1.State.place = st2.State.place
  && st1.State.occ = st2.State.occ
  && st1.State.weight = st2.State.weight
  && st1.State.attached = st2.State.attached
  && st1.State.next_pid = st2.State.next_pid
  && st1.State.wide_pieces = st2.State.wide_pieces
  && State.check_invariants st2 = Ok ()

let qcheck_fill =
  QCheck2.Test.make ~count:600 ~name:"fill == per-peel re-forming loop" ~print:print_fill_case
    fill_case_gen run_fill_case

(* ---------------- Lemma splits in one walk ---------------- *)

(* A cut loaded from [place] and applied by [Moves.apply_split] must
   leave exactly what the list lemma leaves when its side lists are
   re-formed as filtered copies — [Separator.components], then
   [State.make_piece] per component, attached as [Moves.reattach]
   attaches: the same nodes laid, the same pieces (ids, sizes, node
   order, bounds, starts, tops) in the same order at every vertex, the
   same id counter and wide-piece count. Cases: a random tree, a random
   connected set in it with every node outside it placed (a maximal
   piece, its node list shuffled), designated nodes among its boundary
   nodes, and a target in each branch of the lemma: [target >= n], the
   direct carve ([3n > 4 target]) and the swapped complement. *)
type split_case = { sfam : string; sn : int; sseed : int; lemma : int; branch : int }

let branch_name = [| "move-all"; "direct"; "swapped" |]

let print_split_case c =
  Printf.sprintf "%s(%d) seed=%d lemma%d %s" c.sfam c.sn c.sseed c.lemma branch_name.(c.branch)

let split_case_gen =
  QCheck2.Gen.(
    let* sfam = oneofl [ "uniform"; "path"; "caterpillar"; "broom"; "random-bst"; "random-split" ] in
    let* sn = int_range 2 400 in
    let* sseed = int_bound 1_000_000 in
    let* lemma = int_range 1 2 in
    let* branch = int_range 0 2 in
    return { sfam; sn; sseed; lemma; branch })

(* Everything derives from the case seed: two calls build identical
   states. Returns the state, the piece (not attached, as a caller holds
   it after detaching), its separator view, the target, the floor level
   and the two destinations. *)
let split_scenario c =
  let open Xt_prelude in
  let rng = Rng.make ~seed:c.sseed in
  let m = Bintree.mirror_copy ((Gen.family c.sfam).generate (Rng.split rng) c.sn) in
  let tree = m.copy in
  let n = Bintree.n tree in
  let inset, nodes = random_connected_set rng tree ~max_k:(n - 1) in
  let height = 5 in
  let st = State.create m ~height ~capacity:16 in
  let order = Xt_topology.Xtree.order st.State.xt in
  for v = 0 to n - 1 do
    if not inset.(v) then State.lay st ~max_level:height ~node:v ~vertex:(Rng.int rng order)
  done;
  let piece = State.make_piece st (Array.to_list nodes) in
  let bnodes = Array.of_list (List.sort_uniq compare (List.map (fun b -> b.State.bnode) piece.bounds)) in
  let pick () = bnodes.(Rng.int rng (Array.length bnodes)) in
  let r1 = pick () in
  let r2 = if Rng.int rng 3 = 0 then None else Some (pick ()) in
  let size = piece.State.size in
  (* the direct carve needs 1 <= target <= (3n - 1) / 4, the swapped one
     ceil(3n / 4) <= target <= n - 1; too small a piece moves whole *)
  let direct_hi = ((3 * size) - 1) / 4 and swapped_lo = ((3 * size) + 3) / 4 in
  let target =
    match c.branch with
    | 1 when direct_hi >= 1 -> Rng.int_in rng 1 direct_hi
    | 2 when swapped_lo <= size - 1 -> Rng.int_in rng swapped_lo (size - 1)
    | _ -> size + Rng.int rng 3
  in
  let floor_level = Rng.int_in rng 0 height in
  let dest1 = Rng.int rng order and dest2 = Rng.int rng order in
  (st, piece, { Separator.nodes = piece.nodes; r1; r2 }, target, floor_level, dest1, dest2)

let run_split_case c =
  let max_level = 5 in
  let st1, _, sep, target, floor_level, dest1, dest2 = split_scenario c in
  let sp = (if c.lemma = 1 then Separator.lemma1 else Separator.lemma2) st1.State.ws sep ~target in
  List.iter (fun v -> State.lay st1 ~max_level ~node:v ~vertex:dest1) sp.s1;
  List.iter (fun v -> State.lay st1 ~max_level ~node:v ~vertex:dest2) sp.s2;
  let reattach ~fallback t =
    let comps = Separator.components st1.State.ws ~nodes:t ~removed:[] in
    List.iter
      (fun (p : State.piece) ->
        let vertex =
          match p.bounds with
          | b :: _ -> Moves.clamp_vertex st1 ~floor_level b.anchor
          | [] -> fallback
        in
        State.attach st1 ~vertex p)
      (List.rev (List.rev_map (State.make_piece st1) comps))
  in
  reattach ~fallback:dest1 sp.t1;
  reattach ~fallback:dest2 sp.t2;
  let st2, piece, sep, target, floor_level, dest1, dest2 = split_scenario c in
  let place = st2.State.place in
  let cut = (if c.lemma = 1 then Separator.cut1 else Separator.cut2) st2.State.ws ~place sep ~target in
  Moves.apply_split st2 ~max_level ~floor_level piece cut ~dest1 ~dest2;
  st1.State.place = st2.State.place
  && st1.State.occ = st2.State.occ
  && st1.State.weight = st2.State.weight
  && st1.State.attached = st2.State.attached
  && st1.State.next_pid = st2.State.next_pid
  && st1.State.wide_pieces = st2.State.wide_pieces
  && State.check_invariants st2 = Ok ()

let qcheck_split =
  QCheck2.Test.make ~count:600 ~name:"one-walk split == list lemma + filtered re-form"
    ~print:print_split_case split_case_gen run_split_case

let suite =
  [
    ("clamp vertex", `Quick, test_clamp_vertex);
    ("adjust balances imbalance", `Quick, test_adjust_balances_hand_built_imbalance);
    ("adjust noop when balanced", `Quick, test_adjust_noop_when_balanced);
    ("split distributes and fills", `Quick, test_split_distributes_and_fills);
    ("split lays old-anchored bounds", `Quick, test_split_lays_old_anchored_bounds);
    ("split respects capacity", `Quick, test_split_respects_capacity);
    ("reattach by anchor", `Quick, test_reattach_components_by_anchor);
    ("reattach to explicit vertex", `Quick, test_reattach_to_explicit_vertex);
    ("move whole lays designated", `Quick, test_move_whole_lays_designated);
    QCheck_alcotest.to_alcotest ~long:false qcheck_reform;
    QCheck_alcotest.to_alcotest ~long:false qcheck_fill;
    QCheck_alcotest.to_alcotest ~long:false qcheck_split;
  ]
