open Xt_bintree

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let all_nodes t = List.init (Bintree.n t) Fun.id

let verify ws piece sp =
  match Separator.verify_split ws piece sp with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "split verification failed: %s" msg

(* ---------------- deterministic cases ---------------- *)

let test_lemma1_path () =
  let t = Gen.path 100 in
  let ws = Separator.make_ws t in
  let piece = { Separator.nodes = all_nodes t; r1 = 0; r2 = Some 99 } in
  let sp = Separator.lemma1 ws piece ~target:30 in
  verify ws piece sp;
  let _, n2 = Separator.side_sizes sp in
  checkb "size error" true (abs (n2 - 30) <= 10);
  checkb "s1 small" true (List.length sp.Separator.s1 <= 4);
  checkb "s2 small" true (List.length sp.Separator.s2 <= 2)

(* on a path, Lemma 2's error bound (A+4)/9 still applies and is tiny *)
let test_lemma2_path_exact () =
  let t = Gen.path 64 in
  let ws = Separator.make_ws t in
  let piece = { Separator.nodes = all_nodes t; r1 = 0; r2 = Some 63 } in
  List.iter
    (fun target ->
      let sp = Separator.lemma2 ws piece ~target in
      verify ws piece sp;
      let _, n2 = Separator.side_sizes sp in
      checkb
        (Printf.sprintf "target %d got %d" target n2)
        true
        (abs (n2 - target) <= (target + 4) / 9))
    [ 1; 2; 5; 16; 31; 32; 40; 63 ]

let test_move_all () =
  let t = Gen.complete 31 in
  let ws = Separator.make_ws t in
  let piece = { Separator.nodes = all_nodes t; r1 = 30; r2 = None } in
  let sp = Separator.lemma2 ws piece ~target:31 in
  let n1, n2 = Separator.side_sizes sp in
  check "all moved" 31 n2;
  check "nothing stays" 0 n1;
  checkb "designated laid" true (List.mem 30 sp.Separator.s2)

let test_single_node_piece () =
  let t = Gen.complete 7 in
  let ws = Separator.make_ws t in
  let piece = { Separator.nodes = [ 3 ]; r1 = 3; r2 = None } in
  let sp = Separator.lemma2 ws piece ~target:1 in
  let _, n2 = Separator.side_sizes sp in
  check "single node moves" 1 n2

let test_subtree_piece () =
  (* piece = left subtree of a complete tree *)
  let t = Gen.complete 31 in
  let sizes = Bintree.subtree_sizes t in
  let in_left_subtree v =
    let rec anc u = u = 1 || (u > 0 && anc ((u - 1) / 2)) in
    anc v
  in
  let nodes = List.filter in_left_subtree (all_nodes t) in
  check "piece size" sizes.(1) (List.length nodes);
  let ws = Separator.make_ws t in
  let piece = { Separator.nodes; r1 = 1; r2 = None } in
  let sp = Separator.lemma2 ws piece ~target:5 in
  verify ws piece sp;
  let _, n2 = Separator.side_sizes sp in
  checkb "error bound" true (abs (n2 - 5) <= 1)

let test_target_validation () =
  let t = Gen.complete 7 in
  let ws = Separator.make_ws t in
  let piece = { Separator.nodes = all_nodes t; r1 = 0; r2 = None } in
  Alcotest.check_raises "zero target" (Invalid_argument "Separator.lemma2: target must be positive")
    (fun () -> ignore (Separator.lemma2 ws piece ~target:0));
  Alcotest.check_raises "missing r2" (Invalid_argument "Separator.lemma1: r2 not in piece")
    (fun () -> ignore (Separator.lemma1 ws { piece with r2 = Some 6; nodes = [ 0; 1; 2 ] } ~target:1))

let test_components () =
  let t = Gen.complete 7 in
  let ws = Separator.make_ws t in
  let comps = Separator.components ws ~nodes:(all_nodes t) ~removed:[ 0 ] in
  check "two components" 2 (List.length comps);
  let comps2 = Separator.components ws ~nodes:(all_nodes t) ~removed:[ 0; 1; 2 ] in
  check "four leaves" 4 (List.length comps2);
  let comps3 = Separator.components ws ~nodes:(all_nodes t) ~removed:[] in
  check "connected whole" 1 (List.length comps3)

(* ---------------- qcheck properties ---------------- *)

(* A random scenario: a uniform tree, designated nodes with at most two
   neighbours inside the piece (the paper's situation — designated nodes
   always touch the embedded region), and a target. *)
type scenario = {
  tree : Bintree.t;
  piece : Separator.piece;
  target : int;
}

let scenario_gen ~lemma1 =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* n = map (fun k -> k + 2) (int_bound 400) in
    let rng = Xt_prelude.Rng.make ~seed in
    let tree = Gen.uniform rng n in
    (* r1: a node of degree <= 2 (always exists: any leaf) *)
    let low_degree =
      List.filter (fun v -> Bintree.degree tree v <= 2) (List.init n Fun.id)
    in
    let* i1 = int_bound (List.length low_degree - 1) in
    let r1 = List.nth low_degree i1 in
    let* r2_raw = int_bound (n - 1) in
    let r2 = if r2_raw = r1 then None else Some r2_raw in
    let max_target = if lemma1 then max 1 ((3 * n / 4) - 1) else n in
    let* target = map (fun k -> 1 + (k mod max_target)) (int_bound 10_000) in
    return { tree; piece = { Separator.nodes = List.init n Fun.id; r1; r2 }; target })

let print_scenario s =
  Printf.sprintf "n=%d r1=%d r2=%s target=%d" (Bintree.n s.tree) s.piece.Separator.r1
    (match s.piece.Separator.r2 with None -> "-" | Some r -> string_of_int r)
    s.target

let qcheck_tests =
  [
    QCheck2.Test.make ~count:300 ~name:"lemma1: structural validity" ~print:print_scenario
      (scenario_gen ~lemma1:true) (fun s ->
        let ws = Separator.make_ws s.tree in
        let sp = Separator.lemma1 ws s.piece ~target:s.target in
        Separator.verify_split ws s.piece sp = Ok ());
    QCheck2.Test.make ~count:300 ~name:"lemma1: size error <= (A+1)/3" ~print:print_scenario
      (scenario_gen ~lemma1:true) (fun s ->
        let ws = Separator.make_ws s.tree in
        let sp = Separator.lemma1 ws s.piece ~target:s.target in
        let _, n2 = Separator.side_sizes sp in
        abs (n2 - s.target) <= (s.target + 1) / 3);
    QCheck2.Test.make ~count:300 ~name:"lemma1: |s1|<=4, |s2|<=2" ~print:print_scenario
      (scenario_gen ~lemma1:true) (fun s ->
        let ws = Separator.make_ws s.tree in
        let sp = Separator.lemma1 ws s.piece ~target:s.target in
        List.length sp.Separator.s1 <= 4 && List.length sp.Separator.s2 <= 2);
    QCheck2.Test.make ~count:300 ~name:"lemma2: structural validity" ~print:print_scenario
      (scenario_gen ~lemma1:false) (fun s ->
        let ws = Separator.make_ws s.tree in
        let sp = Separator.lemma2 ws s.piece ~target:s.target in
        Separator.verify_split ws s.piece sp = Ok ());
    QCheck2.Test.make ~count:300 ~name:"lemma2: size error <= (A+4)/9" ~print:print_scenario
      (scenario_gen ~lemma1:false) (fun s ->
        let ws = Separator.make_ws s.tree in
        let sp = Separator.lemma2 ws s.piece ~target:s.target in
        let _, n2 = Separator.side_sizes sp in
        abs (n2 - s.target) <= (s.target + 4) / 9);
    QCheck2.Test.make ~count:300 ~name:"lemma2: |s1|,|s2| <= 4" ~print:print_scenario
      (scenario_gen ~lemma1:false) (fun s ->
        let ws = Separator.make_ws s.tree in
        let sp = Separator.lemma2 ws s.piece ~target:s.target in
        List.length sp.Separator.s1 <= 4 && List.length sp.Separator.s2 <= 4);
    QCheck2.Test.make ~count:300 ~name:"splits partition the piece" ~print:print_scenario
      (scenario_gen ~lemma1:false) (fun s ->
        let ws = Separator.make_ws s.tree in
        let sp = Separator.lemma2 ws s.piece ~target:s.target in
        let n1, n2 = Separator.side_sizes sp in
        n1 + n2 = Bintree.n s.tree);
  ]

(* ---------------- the piece view against an explicit load ---------------- *)

(* A random mirror copy — any family, up to 300 nodes, its ids shuffled
   before copying — and a random placement: each node is placed with a
   probability drawn per case. *)
type view_case = { vfam : string; vn : int; vseed : int }

let view_case_gen =
  QCheck2.Gen.(
    let* vfam = oneofl (List.map (fun (f : Gen.family) -> f.name) Gen.families) in
    let* vn = int_range 1 300 in
    let* vseed = int_bound 1_000_000 in
    return { vfam; vn; vseed })

let print_view_case c = Printf.sprintf "%s(%d) seed=%d" c.vfam c.vn c.vseed

let view_scenario c =
  let open Xt_prelude in
  let rng = Rng.make ~seed:c.vseed in
  let t = (Gen.family c.vfam).generate (Rng.split rng) c.vn in
  let m = Bintree.mirror_copy (Test_bintree.shuffled t c.vseed) in
  let p = Rng.int_in rng 5 50 in
  let place = Array.init (Bintree.n m.copy) (fun _ -> if Rng.int rng 100 < p then 0 else -1) in
  (rng, m, place)

(* An explicit load of the unplaced component of [r], as the lemmas'
   DFS loaded a piece before the view: each member's parent ([-1] for
   [r], [-2] off the component) and subtree size with the component
   rooted at [r], and the members in DFS order. *)
let dfs_load tree place r =
  let n = Bintree.n tree in
  let par = Array.make n (-2) and size = Array.make n 0 in
  let stack = Stack.create () and popped = ref [] in
  par.(r) <- -1;
  Stack.push r stack;
  while not (Stack.is_empty stack) do
    let v = Stack.pop stack in
    popped := v :: !popped;
    Bintree.iter_neighbours tree v (fun w ->
        if place.(w) < 0 && par.(w) = -2 then begin
          par.(w) <- v;
          Stack.push w stack
        end)
  done;
  (* children are popped after their parent *)
  List.iter
    (fun v ->
      size.(v) <- size.(v) + 1;
      if par.(v) >= 0 then size.(par.(v)) <- size.(par.(v)) + size.(v))
    !popped;
  (par, size, List.rev !popped)

(* [e] is in [v]'s subtree of a load. *)
let rec in_load par v e = e = v || (par.(e) >= 0 && in_load par v par.(e))

(* Each unplaced component of a scenario, once: its members, its top
   and its bounds (one entry per placed neighbour). *)
let iter_pieces tree place f =
  let n = Bintree.n tree in
  let seen = Array.make n false in
  for v0 = 0 to n - 1 do
    if place.(v0) < 0 && not seen.(v0) then begin
      let par, _, members = dfs_load tree place v0 in
      List.iter (fun v -> seen.(v) <- true) members;
      let inside v = v >= 0 && par.(v) <> -2 in
      let top = List.find (fun v -> not (inside (Bintree.parent_id tree v))) members in
      let bounds =
        List.concat_map
          (fun v ->
            List.filter_map
              (fun w -> if place.(w) >= 0 then Some { Separator.bnode = v; anchor = 0 } else None)
              (Bintree.neighbours tree v))
          members
      in
      f ~members ~inside ~top ~bounds
    end
  done

let run_view_case c =
  let rng, m, place = view_scenario c in
  let tree = m.copy in
  let n = Bintree.n tree in
  let ws = Separator.mirror_ws m in
  let pick = function
    | [] -> None
    | l -> Some (List.nth l (Xt_prelude.Rng.int rng (List.length l)))
  in
  let check what ok = if not ok then QCheck2.Test.fail_reportf "%s" what in
  iter_pieces tree place (fun ~members ~inside ~top ~bounds ->
      let bnodes = List.sort_uniq compare (List.map (fun b -> b.Separator.bnode) bounds) in
      List.iter
        (fun r1 ->
          let par, size, _ = dfs_load tree place r1 in
          (* r1's tree ancestors in the piece, and the members off that path *)
          let rec up v = if v = top then [] else Bintree.parent_id tree v :: up (Bintree.parent_id tree v) in
          let path = up r1 in
          let off = List.filter (fun v -> v <> r1 && not (List.mem v path)) members in
          List.iter
            (fun r2 ->
              let at = Printf.sprintf "r1=%d r2=%s" r1 (match r2 with None -> "-" | Some r -> string_of_int r) in
              Separator.View.set ws ~place { Separator.top; bounds; r1; r2 };
              check (at ^ ": size") (Separator.View.size ws = List.length members);
              for v = 0 to n - 1 do
                if Separator.View.mem ws v <> inside v then
                  QCheck2.Test.fail_reportf "%s: membership of %d" at v
              done;
              List.iter
                (fun v ->
                  if Separator.View.rooted_parent ws v <> par.(v) then
                    QCheck2.Test.fail_reportf "%s: rooted parent of %d: %d, load %d" at v
                      (Separator.View.rooted_parent ws v) par.(v);
                  if Separator.View.rooted_size ws v <> size.(v) then
                    QCheck2.Test.fail_reportf "%s: rooted size of %d: %d, load %d" at v
                      (Separator.View.rooted_size ws v) size.(v);
                  Bintree.iter_neighbours tree v (fun w ->
                      check
                        (Printf.sprintf "%s: neighbour %d of %d" at w v)
                        (place.(w) < 0 = inside w)))
                members;
              let ex = List.filter_map (fun _ -> pick members) (List.init (Xt_prelude.Rng.int rng 3) Fun.id) in
              List.iter (Separator.View.exclude ws) ex;
              List.iter
                (fun v ->
                  let want =
                    List.fold_left (fun acc e -> if in_load par v e then acc - size.(e) else acc) size.(v) ex
                  in
                  if Separator.View.effective_size ws v <> want then
                    QCheck2.Test.fail_reportf "%s excluding [%s]: effective size of %d: %d, load %d" at
                      (String.concat ";" (List.map string_of_int ex))
                      v (Separator.View.effective_size ws v) want)
                members)
            [ None; pick path; pick off ])
        (if bnodes = [] then [ top ] else bnodes));
  true

(* The fill's pick of a held piece's first boundary node, against the
   DFS from the held start that stops at the first node it pops with a
   placed neighbour (neighbours pushed parent, left, right). *)
let dfs_first_bound tree place s =
  let n = Bintree.n tree in
  let seen = Array.make n false and stack = Stack.create () and found = ref (-1) in
  seen.(s) <- true;
  Stack.push s stack;
  while !found < 0 && not (Stack.is_empty stack) do
    let v = Stack.pop stack in
    let near = ref false in
    Bintree.iter_neighbours tree v (fun w -> if place.(w) >= 0 then near := true);
    if !near then found := v
    else
      List.iter
        (fun w ->
          if w >= 0 && place.(w) < 0 && not seen.(w) then begin
            seen.(w) <- true;
            Stack.push w stack
          end)
        [ Bintree.parent_id tree v; Bintree.left_id tree v; Bintree.right_id tree v ]
  done;
  !found

let run_first_bound_case c =
  let rng, m, place = view_scenario c in
  let tree = m.copy in
  let st = Xt_core.State.create m ~height:1 ~capacity:16 in
  iter_pieces tree place (fun ~members ~inside:_ ~top:_ ~bounds ->
      if bounds <> [] then begin
        (* the held list in any order *)
        let bnodes = Array.of_list (List.map (fun b -> b.Separator.bnode) bounds) in
        Xt_prelude.Rng.shuffle rng bnodes;
        let bnodes = Array.to_list bnodes in
        List.iter
          (fun s ->
            let want = dfs_first_bound tree place s and got = Xt_core.Split.first_bnode st s bnodes in
            if got <> want then QCheck2.Test.fail_reportf "start %d: picked %d, DFS %d" s got want)
          members
      end);
  true

let view_tests =
  [
    QCheck2.Test.make ~count:200 ~name:"view == explicit load" ~print:print_view_case view_case_gen
      run_view_case;
    QCheck2.Test.make ~count:200 ~name:"fill's first boundary == DFS from the start"
      ~print:print_view_case view_case_gen run_first_bound_case;
  ]

let suite =
  [
    ("lemma1 on a path", `Quick, test_lemma1_path);
    ("lemma2 on a path", `Quick, test_lemma2_path_exact);
    ("move all", `Quick, test_move_all);
    ("single node piece", `Quick, test_single_node_piece);
    ("subtree piece", `Quick, test_subtree_piece);
    ("target validation", `Quick, test_target_validation);
    ("components", `Quick, test_components);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) (qcheck_tests @ view_tests)
