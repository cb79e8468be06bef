open Xt_bintree

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let ok_tree t =
  match Bintree.check t with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "invalid tree: %s" msg

(* ---------------- Builder / structure ---------------- *)

let test_builder () =
  let b = Bintree.Builder.create () in
  let root = Bintree.Builder.add_root b in
  let l = Bintree.Builder.add_left b root in
  let r = Bintree.Builder.add_right b root in
  let ll = Bintree.Builder.add_left b l in
  let t = Bintree.Builder.finish b in
  ok_tree t;
  check "n" 4 (Bintree.n t);
  check "root" root (Bintree.root t);
  Alcotest.(check (option int)) "left" (Some l) (Bintree.left t root);
  Alcotest.(check (option int)) "right" (Some r) (Bintree.right t root);
  Alcotest.(check (option int)) "parent" (Some l) (Bintree.parent t ll);
  Alcotest.(check (list int)) "children" [ l; r ] (Bintree.children t root);
  checkb "leaf" true (Bintree.is_leaf t r);
  checkb "not leaf" false (Bintree.is_leaf t l);
  check "degree root" 2 (Bintree.degree t root);
  check "degree l" 2 (Bintree.degree t l);
  check "edges" 3 (List.length (Bintree.edges t))

let test_builder_errors () =
  let b = Bintree.Builder.create () in
  let root = Bintree.Builder.add_root b in
  ignore (Bintree.Builder.add_left b root);
  Alcotest.check_raises "occupied" (Invalid_argument "Bintree.Builder.add_left: occupied")
    (fun () -> ignore (Bintree.Builder.add_left b root));
  Alcotest.check_raises "double root" (Invalid_argument "Bintree.Builder.add_root: root exists")
    (fun () -> ignore (Bintree.Builder.add_root b))

let test_of_arrays_rejects () =
  (* 1 is nobody's child *)
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Bintree.of_arrays ~root:0 ~parent:[| -1; 0 |] ~left:[| -1; -1 |] ~right:[| -1; -1 |]);
       false
     with Invalid_argument _ -> true)

(* Both cells of the cycle 1 <-> 2 name each other as parent and left
   child, so every node-local check passes; only the walk from the root
   sees that they hang from nothing. A node whose left and right child
   are one node is no binary tree either. *)
let test_check_rejects () =
  Alcotest.check_raises "detached cycle"
    (Invalid_argument "Bintree.of_arrays: tree not connected (preorder reached 1 of 3)")
    (fun () ->
      ignore
        (Bintree.of_arrays ~root:0 ~parent:[| -1; 2; 1 |] ~left:[| -1; 2; 1 |]
           ~right:[| -1; -1; -1 |]));
  Alcotest.check_raises "one child twice"
    (Invalid_argument "Bintree.of_arrays: left and right child of 0 coincide")
    (fun () ->
      ignore (Bintree.of_arrays ~root:0 ~parent:[| -1; 0 |] ~left:[| 1; -1 |] ~right:[| 1; -1 |]))

let test_traversals () =
  (* tree: 0(1(3,_),2) in heap shape *)
  let t = Gen.complete 4 in
  Alcotest.(check (list int)) "preorder" [ 0; 1; 3; 2 ] (Bintree.preorder t);
  Alcotest.(check (list int)) "postorder" [ 3; 1; 2; 0 ] (Bintree.postorder t);
  check "fold count" 4 (Bintree.fold_preorder t ~init:0 ~f:(fun acc _ -> acc + 1))

let test_depth_sizes () =
  let t = Gen.complete 7 in
  let d = Bintree.depth t in
  check "root depth" 0 d.(0);
  check "leaf depth" 2 d.(6);
  let s = Bintree.subtree_sizes t in
  check "root size" 7 s.(0);
  check "internal size" 3 s.(1);
  check "leaf size" 1 s.(5);
  check "height" 2 (Bintree.height t)

let test_stats () =
  let t = Gen.complete 7 in
  let s = Bintree.stats t in
  check "size" 7 s.Bintree.size;
  check "height" 2 s.Bintree.height;
  check "leaves" 4 s.Bintree.leaves;
  check "max degree" 3 s.Bintree.max_degree

(* ---------------- Generators ---------------- *)

let test_generator_sizes () =
  let rng = Xt_prelude.Rng.make ~seed:42 in
  List.iter
    (fun (f : Gen.family) ->
      List.iter
        (fun n ->
          let t = f.generate rng n in
          ok_tree t;
          check (Printf.sprintf "%s size %d" f.name n) n (Bintree.n t))
        [ 1; 2; 3; 7; 10; 64; 100 ])
    Gen.families

let test_path_shape () =
  let t = Gen.path 10 in
  check "height" 9 (Bintree.height t);
  check "leaves" 1 (Bintree.stats t).Bintree.leaves

let test_zigzag_shape () =
  let t = Gen.zigzag 10 in
  check "height" 9 (Bintree.height t)

let test_complete_shape () =
  let t = Gen.complete 15 in
  check "height" 3 (Bintree.height t);
  check "leaves" 8 (Bintree.stats t).Bintree.leaves

let test_caterpillar_has_legs () =
  let t = Gen.caterpillar 20 in
  let stats = Bintree.stats t in
  checkb "taller than balanced" true (stats.Bintree.height > 8);
  checkb "has legs" true (stats.Bintree.leaves > 1)

let test_broom () =
  let t = Gen.broom 32 in
  ok_tree t;
  checkb "has bushy head" true ((Bintree.stats t).Bintree.leaves >= 8)

let test_fibonacci_exact_n () =
  List.iter
    (fun n -> check "size" n (Bintree.n (Gen.fibonacci n)))
    [ 1; 2; 4; 7; 12; 20; 33; 50 ]

let test_uniform_distribution_sane () =
  (* all 5 shapes of 3-node binary trees occur in 500 draws *)
  let rng = Xt_prelude.Rng.make ~seed:5 in
  let shapes = Hashtbl.create 8 in
  for _ = 1 to 500 do
    let t = Gen.uniform rng 3 in
    let sig_ = Format.asprintf "%a" Bintree.pp t in
    Hashtbl.replace shapes sig_ (1 + Option.value ~default:0 (Hashtbl.find_opt shapes sig_))
  done;
  check "catalan(3) = 5 shapes" 5 (Hashtbl.length shapes);
  (* uniform: each shape should get roughly 100 of 500 *)
  Hashtbl.iter (fun _ c -> checkb "roughly uniform" true (c > 50 && c < 170)) shapes

let test_random_bst_log_height () =
  let rng = Xt_prelude.Rng.make ~seed:17 in
  let t = Gen.random_bst rng 1024 in
  checkb "height O(log n)" true (Bintree.height t < 60)

let test_skewed_deeper_than_random () =
  let rng = Xt_prelude.Rng.make ~seed:23 in
  let sk = Gen.skewed_grow rng ~bias:0.95 512 in
  let rd = Gen.random_grow rng 512 in
  checkb "skewed is deeper" true (Bintree.height sk > Bintree.height rd)

let test_family_lookup () =
  checkb "found" true ((Gen.family "uniform").name = "uniform");
  Alcotest.check_raises "missing" Not_found (fun () -> ignore (Gen.family "nope"))

(* qcheck: structural invariants over uniform random trees *)
let qcheck_tests =
  let gen_tree =
    QCheck2.Gen.(
      map
        (fun (seed, n) ->
          let rng = Xt_prelude.Rng.make ~seed in
          Gen.uniform rng (n + 1))
        (pair (int_bound 1_000_000) (int_bound 300)))
  in
  [
    QCheck2.Test.make ~count:100 ~name:"uniform trees validate" gen_tree (fun t ->
        match Bintree.check t with Ok () -> true | Error _ -> false);
    QCheck2.Test.make ~count:100 ~name:"edges = n - 1" gen_tree (fun t ->
        List.length (Bintree.edges t) = Bintree.n t - 1);
    QCheck2.Test.make ~count:100 ~name:"max degree <= 3" gen_tree (fun t ->
        (Bintree.stats t).Bintree.max_degree <= 3);
    QCheck2.Test.make ~count:100 ~name:"preorder is a permutation" gen_tree (fun t ->
        let p = List.sort compare (Bintree.preorder t) in
        p = List.init (Bintree.n t) Fun.id);
    QCheck2.Test.make ~count:100 ~name:"postorder is a permutation" gen_tree (fun t ->
        let p = List.sort compare (Bintree.postorder t) in
        p = List.init (Bintree.n t) Fun.id);
    QCheck2.Test.make ~count:100 ~name:"subtree sizes consistent" gen_tree (fun t ->
        let s = Bintree.subtree_sizes t in
        s.(Bintree.root t) = Bintree.n t
        && Array.for_all (fun x -> x >= 1) s);
    QCheck2.Test.make ~count:100 ~name:"depth consistent with parent" gen_tree (fun t ->
        let d = Bintree.depth t in
        List.for_all (fun (u, v) -> d.(v) = d.(u) + 1) (Bintree.edges t));
  ]

(* The list-based check [Bintree.of_arrays] ran before its walk, on raw
   arrays, with the one rule the walk added (a node's two children
   coincide) in its place in the node scan. *)
let reference_check ~root ~parent ~left ~right =
  let size = Array.length parent in
  if size = 0 then Error "empty tree"
  else if root < 0 || root >= size then Error "root out of range"
  else if parent.(root) >= 0 then Error "root has a parent"
  else begin
    let bad = ref None in
    for v = 0 to size - 1 do
      let check_child c label =
        if c >= size then bad := Some (Printf.sprintf "%s child of %d out of range" label v)
        else if c >= 0 && parent.(c) <> v then
          bad := Some (Printf.sprintf "%s child of %d has wrong parent" label v)
      in
      check_child left.(v) "left";
      check_child right.(v) "right";
      if left.(v) >= 0 && left.(v) = right.(v) then
        bad := Some (Printf.sprintf "left and right child of %d coincide" v);
      if v <> root && parent.(v) < 0 then bad := Some (Printf.sprintf "node %d has no parent" v);
      if v <> root && parent.(v) >= 0 then begin
        let p = parent.(v) in
        if p >= size then bad := Some (Printf.sprintf "parent of %d out of range" v)
        else if left.(p) <> v && right.(p) <> v then
          bad := Some (Printf.sprintf "node %d not a child of its parent" v)
      end
    done;
    match !bad with
    | Some msg -> Error msg
    | None ->
        let seen = Array.make size false and count = ref 0 in
        let stack = Stack.create () in
        Stack.push root stack;
        while not (Stack.is_empty stack) do
          let v = Stack.pop stack in
          if not seen.(v) then begin
            seen.(v) <- true;
            incr count
          end;
          if right.(v) >= 0 then Stack.push right.(v) stack;
          if left.(v) >= 0 then Stack.push left.(v) stack
        done;
        if !count <> size then
          Error (Printf.sprintf "tree not connected (preorder reached %d of %d)" !count size)
        else Ok ()
  end

(* Valid trees of up to 12 nodes with 0-3 cells (or the root) set to
   values from -2 to n: [of_arrays] must accept exactly what the
   reference accepts and name the same defect. *)
let qcheck_check_reference =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 1 12 in
      let* seed = int_bound 1_000_000 in
      let* edits = list_size (int_bound 3) (triple (int_bound 3) (int_bound (n - 1)) (int_range (-2) n)) in
      return (n, seed, edits))
  in
  let print (n, seed, edits) =
    Printf.sprintf "n=%d seed=%d edits=[%s]" n seed
      (String.concat "; " (List.map (fun (a, i, x) -> Printf.sprintf "%d.(%d)<-%d" a i x) edits))
  in
  QCheck2.Test.make ~count:2000 ~name:"check == list-based reference" ~print gen
    (fun (n, seed, edits) ->
      let t = Gen.uniform (Xt_prelude.Rng.make ~seed) n in
      let parent = Array.init n (Bintree.parent_id t)
      and left = Array.init n (Bintree.left_id t)
      and right = Array.init n (Bintree.right_id t) in
      let root = ref (Bintree.root t) in
      List.iter
        (fun (a, i, x) ->
          match a with 0 -> parent.(i) <- x | 1 -> left.(i) <- x | 2 -> right.(i) <- x | _ -> root := x)
        edits;
      let root = !root in
      let got =
        match Bintree.of_arrays ~root ~parent ~left ~right with
        | _ -> Ok ()
        | exception Invalid_argument m -> Error m
      in
      let want =
        Result.map_error
          (fun m -> "Bintree.of_arrays: " ^ m)
          (reference_check ~root ~parent ~left ~right)
      in
      if got <> want then
        QCheck2.Test.fail_reportf "got %s, want %s"
          (match got with Ok () -> "Ok" | Error m -> m)
          (match want with Ok () -> "Ok" | Error m -> m);
      true)

(* ---------------- mirror-preorder copy ---------------- *)

(* [t] with node [v] renamed [perm.(v)]. *)
let relabel t perm =
  let n = Bintree.n t in
  let parent = Array.make n (-1) and left = Array.make n (-1) and right = Array.make n (-1) in
  let map x = if x < 0 then -1 else perm.(x) in
  for v = 0 to n - 1 do
    parent.(perm.(v)) <- map (Bintree.parent_id t v);
    left.(perm.(v)) <- map (Bintree.left_id t v);
    right.(perm.(v)) <- map (Bintree.right_id t v)
  done;
  Bintree.of_arrays ~root:perm.(Bintree.root t) ~parent ~left ~right

(* [t] with its node ids shuffled by [seed]. *)
let shuffled t seed =
  let perm = Array.init (Bintree.n t) Fun.id in
  Xt_prelude.Rng.shuffle (Xt_prelude.Rng.make ~seed) perm;
  relabel t perm

(* What is wrong with [Bintree.mirror_copy t], if anything: the copy must
   be a valid tree isomorphic to [t] under [to_copy], numbered in mirror
   preorder (root 0, a right child its parent + 1, a left child its
   parent + 1 + the size of the right subtree), with [to_copy] and
   [to_caller] inverse bijections and [last.(k)] the id [k] + the size of
   [k]'s subtree - 1. *)
let mirror_copy_defect t =
  let { Bintree.copy; to_copy; to_caller; last } = Bintree.mirror_copy t in
  let n = Bintree.n t in
  let mapped x = if x < 0 then -1 else to_copy.(x) in
  let bad = ref None in
  let note fmt = Printf.ksprintf (fun s -> bad := Some s) fmt in
  if
    Bintree.n copy <> n
    || Array.length to_copy <> n
    || Array.length to_caller <> n
    || Array.length last <> n
  then note "sizes differ"
  else if Bintree.check copy <> Ok () then note "the copy is not a valid tree"
  else if Bintree.root copy <> 0 || to_copy.(Bintree.root t) <> 0 then note "root is not 0"
  else begin
    for v = 0 to n - 1 do
      let k = to_copy.(v) in
      if k < 0 || k >= n || to_caller.(k) <> v then note "maps not inverse at node %d" v
      else if
        Bintree.parent_id copy k <> mapped (Bintree.parent_id t v)
        || Bintree.left_id copy k <> mapped (Bintree.left_id t v)
        || Bintree.right_id copy k <> mapped (Bintree.right_id t v)
      then note "not isomorphic at node %d" v
    done;
    let sizes = Bintree.subtree_sizes copy in
    for k = 0 to n - 1 do
      let l = Bintree.left_id copy k and r = Bintree.right_id copy k in
      if r >= 0 && r <> k + 1 then note "right child of %d is %d" k r;
      if l >= 0 && l <> k + 1 + if r >= 0 then sizes.(r) else 0 then
        note "left child of %d is %d" k l;
      if last.(k) <> k + sizes.(k) - 1 then note "subtree of %d ends at %d" k last.(k)
    done
  end;
  !bad

let no_defect what t =
  match mirror_copy_defect t with
  | None -> ()
  | Some msg -> Alcotest.failf "%s: %s" (what ()) msg

let test_mirror_copy_shapes () =
  for n = 1 to 8 do
    Seq.iteri
      (fun i t ->
        let what () = Format.asprintf "%d-node shape %a" n Bintree.pp t in
        no_defect what t;
        no_defect (fun () -> what () ^ ", shuffled") (shuffled t ((100 * n) + i)))
      (Enum.all_shapes n)
  done

(* A million-node spine, left or right, climbs a million parents back to
   the root; both spines are already in mirror preorder. *)
let test_mirror_copy_spines () =
  let n = 1_000_000 in
  let right_spine =
    let b = Bintree.Builder.create ~capacity:n () in
    let v = ref (Bintree.Builder.add_root b) in
    for _ = 2 to n do
      v := Bintree.Builder.add_right b !v
    done;
    Bintree.Builder.finish b
  in
  List.iter
    (fun (what, t) ->
      let { Bintree.copy; to_copy; to_caller; last } = Bintree.mirror_copy t in
      check (what ^ ": size") n (Bintree.n copy);
      let identity = ref true in
      for v = 0 to n - 1 do
        if to_copy.(v) <> v || to_caller.(v) <> v || last.(v) <> n - 1 then identity := false
      done;
      checkb (what ^ ": identity maps, every subtree to the end") true !identity;
      checkb (what ^ ": valid") true (Bintree.check copy = Ok ()))
    [ ("left spine", Gen.path n); ("right spine", right_spine) ]

let suite =
  [
    ("builder", `Quick, test_builder);
    ("builder errors", `Quick, test_builder_errors);
    ("of_arrays rejects", `Quick, test_of_arrays_rejects);
    ("check rejects a detached cycle or a doubled child", `Quick, test_check_rejects);
    ("mirror copy: shapes <= 8", `Quick, test_mirror_copy_shapes);
    ("mirror copy: million-node spines", `Quick, test_mirror_copy_spines);
    QCheck_alcotest.to_alcotest ~long:false qcheck_check_reference;
    ("traversals", `Quick, test_traversals);
    ("depth and sizes", `Quick, test_depth_sizes);
    ("stats", `Quick, test_stats);
    ("generator sizes", `Quick, test_generator_sizes);
    ("path shape", `Quick, test_path_shape);
    ("zigzag shape", `Quick, test_zigzag_shape);
    ("complete shape", `Quick, test_complete_shape);
    ("caterpillar legs", `Quick, test_caterpillar_has_legs);
    ("broom", `Quick, test_broom);
    ("fibonacci exact n", `Quick, test_fibonacci_exact_n);
    ("uniform shapes", `Quick, test_uniform_distribution_sane);
    ("random bst height", `Quick, test_random_bst_log_height);
    ("skewed deeper", `Quick, test_skewed_deeper_than_random);
    ("family lookup", `Quick, test_family_lookup);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests

(* Every generator family yields valid trees of the requested size, for
   random sizes — not just the fixed sizes of test_generator_sizes. *)
let family_qcheck =
  let gen_case =
    QCheck2.Gen.(
      let families = Array.of_list Gen.families in
      let* fi = int_bound (Array.length families - 1) in
      let* n = map (fun k -> k + 1) (int_bound 400) in
      let* seed = int_bound 1_000_000 in
      return (families.(fi), n, seed))
  in
  let print_case ((f : Gen.family), n, seed) = Printf.sprintf "%s n=%d seed=%d" f.name n seed in
  [
    QCheck2.Test.make ~count:200 ~name:"all families: valid tree of exact size" ~print:print_case
      gen_case (fun (f, n, seed) ->
        let t = f.generate (Xt_prelude.Rng.make ~seed) n in
        Bintree.n t = n && Bintree.check t = Ok ());
    QCheck2.Test.make ~count:200 ~name:"all families: height < n" ~print:print_case gen_case
      (fun (f, n, seed) ->
        let t = f.generate (Xt_prelude.Rng.make ~seed) n in
        Bintree.height t < n);
    QCheck2.Test.make ~count:200 ~name:"all families: mirror copy" ~print:print_case gen_case
      (fun (f, n, seed) ->
        let t = f.generate (Xt_prelude.Rng.make ~seed) n in
        no_defect (fun () -> "generated") t;
        no_defect (fun () -> "shuffled") (shuffled t seed);
        true);
  ]

let suite = suite @ List.map (QCheck_alcotest.to_alcotest ~long:false) family_qcheck
