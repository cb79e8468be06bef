(* Work guards for the @embed-smoke alias:

   - on one 4 093-node tree, [Separator.prepare ~place], the O(n) hot
     path under every lemma call of the Theorem 1 pipeline (one DFS over
     the unplaced nodes), must not allocate on a warm workspace;
   - there, [Separator.components], which re-forms pieces after every
     placement, must allocate only its output: one cons cell (3 words)
     per node plus a few words per component;
   - a Theorem 1 embed of the 8 176-node path guest (X(8)'s paper size)
     must re-form at most 20 guest nodes per node SPLIT's fill lays:
     the fill re-forms each surviving piece once, not the rest of its
     piece after every peel (58.5 per laid node);
   - that embed must allocate at most 106 minor words per guest node:
     its Lemma splits load, carve and re-form each piece without copying
     its node list (72.2 words per node; 115.9 with the copies).

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
  let ws = Separator.make_ws tree in
  let nodes = Bintree.preorder tree in
  let piece = { Separator.nodes; r1 = Bintree.root tree; r2 = None } in
  let place = Array.make (Bintree.n tree) (-1) in
  let prepared, _ = minor_words (fun () -> Separator.prepare ws ~place piece) in
  Printf.printf "prepare-minor-words = %.0f\n" prepared;
  (* cutting every 512th preorder node leaves several components *)
  let removed = List.filteri (fun i _ -> i mod 512 = 0) nodes in
  let walked, comps = minor_words (fun () -> Separator.components ws ~nodes ~removed) in
  let kept = List.fold_left (fun acc c -> acc + List.length c) 0 comps in
  let bound = float_of_int ((3 * kept) + (16 * List.length comps) + 64) in
  Printf.printf "components-minor-words = %.0f (bound %.0f: %d nodes, %d components)\n" walked
    bound kept (List.length comps);
  print_endline (if prepared < 256. && walked <= bound then "guard PASS" else "guard FAIL")

let () =
  let open Xt_obs in
  let tree = Xt_bintree.Gen.path (Xt_core.Theorem1.optimal_size 8) in
  let words, _ = minor_words (fun () -> Xt_core.Theorem1.embed tree) in
  let per_node = words /. float_of_int (Xt_bintree.Bintree.n tree) in
  Printf.printf "embed-minor-words-per-node = %.1f (bound 106)\n" per_node;
  print_endline (if per_node <= 106. then "alloc guard PASS" else "alloc guard FAIL");
  Obs.enable_metrics ();
  ignore (Xt_core.Theorem1.embed tree);
  let counters = (Obs.snapshot ()).Obs.counters in
  let reformed = List.assoc "state.reform_nodes" counters
  and laid = List.assoc "split.fill_laid" counters in
  Printf.printf "reform-nodes = %d (bound %d: 20 x %d fill-laid nodes)\n" reformed (20 * laid) laid;
  print_endline
    (if laid > 0 && reformed <= 20 * laid then "reform guard PASS" else "reform guard FAIL")
