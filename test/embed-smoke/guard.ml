(* Work guards for the @embed-smoke alias:

   - on the mirror copy of one 4 093-node tree, [Separator.cut2 ~place]
     of the whole tree as one piece, the Lemma 2 split every balance
     split of the Theorem 1 pipeline makes, may allocate 256 words
     whatever the piece's size: its lay sets, the cut with its carved
     roots and the carve's small tuples (130 words; the view it reads
     the piece through allocates nothing, and it lists neither side);
   - there, [Separator.components], the list API's component walk, must
     allocate only its output: one cons cell (3 words) per node plus a
     few words per component;
   - a Theorem 1 embed of the 8 176-node path guest (X(8)'s paper size)
     must allocate at most 106 minor words per guest node (alloc
     guard), and at most 60 (reform guard, 16 % above the 51.8 it
     allocates now that pieces are re-formed from subtree ranges and
     list no nodes: 69.6 words per node when re-forms walked node
     lists, 72.2 when each split still loaded its piece, 115.9 with the
     list copies).

   Prints one parseable line per check and one verdict per guard for
   check.sh; the richer equivalence suite lives in
   test_theorem1_ref.ml. *)

let minor_words f =
  for _ = 1 to 4 do
    ignore (f ())
  done;
  Gc.minor ();
  let before = Gc.minor_words () in
  let r = f () in
  (Gc.minor_words () -. before, r)

let () =
  let open Xt_prelude in
  let open Xt_bintree in
  let tree = Gen.uniform (Rng.make ~seed:11) 4093 in
  let n = Bintree.n tree in
  let mws = Separator.mirror_ws (Bintree.mirror_copy tree) in
  let place = Array.make n (-1) in
  (* rooted at a leaf, so the carve also flips the leaf-to-top path *)
  let region = { Separator.top = 0; bounds = []; r1 = n - 1; r2 = None } in
  let cut_words, _ = minor_words (fun () -> Separator.cut2 mws ~place region ~target:(n / 3)) in
  let cut_bound = 256. in
  Printf.printf "cut2-minor-words = %.0f (bound %.0f, whatever the piece's size)\n" cut_words
    cut_bound;
  let ws = Separator.make_ws tree in
  let nodes = Bintree.preorder tree in
  (* cutting every 512th preorder node leaves several components *)
  let removed = List.filteri (fun i _ -> i mod 512 = 0) nodes in
  let walked, comps = minor_words (fun () -> Separator.components ws ~nodes ~removed) in
  let kept = List.fold_left (fun acc c -> acc + List.length c) 0 comps in
  let bound = float_of_int ((3 * kept) + (16 * List.length comps) + 64) in
  Printf.printf "components-minor-words = %.0f (bound %.0f: %d nodes, %d components)\n" walked
    bound kept (List.length comps);
  print_endline (if cut_words <= cut_bound && walked <= bound then "guard PASS" else "guard FAIL")

let () =
  let reform_bound = 60. in
  let tree = Xt_bintree.Gen.path (Xt_core.Theorem1.optimal_size 8) in
  let words, _ = minor_words (fun () -> Xt_core.Theorem1.embed tree) in
  let per_node = words /. float_of_int (Xt_bintree.Bintree.n tree) in
  Printf.printf "embed-minor-words-per-node = %.1f (bound 106)\n" per_node;
  print_endline (if per_node <= 106. then "alloc guard PASS" else "alloc guard FAIL");
  Printf.printf "reform-minor-words-per-node = %.1f (bound %.0f)\n" per_node reform_bound;
  print_endline (if per_node <= reform_bound then "reform guard PASS" else "reform guard FAIL")
