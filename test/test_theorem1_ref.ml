(* Equivalence of the Theorem 1 core against the frozen reference
   [Theorem1_ref]: the production pipeline — carves read from subtree
   ranges, pieces that list no nodes and are re-formed from ranges,
   SPLIT's once-per-piece fill — must produce bit-identical placements. Checked
   exhaustively over every binary-tree shape up to 14 nodes, by qcheck
   over random family x size x capacity cases, and on deterministic
   large trees. Plus the [Gc.minor_words] guards pinning
   [Separator.cut2 ~place] to a constant and [Separator.components] to
   its output. *)

open Xt_prelude
open Xt_bintree
open Xt_core
open Xt_embedding

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* Capacity 2 for the exhaustive pass: the smallest capacity that keeps
   the paper's slack assumptions alive (capacity 1 overfills the host on
   some shapes, in both implementations alike), while forcing far more
   splitting and fallback traffic per node than the paper's 16. *)
let exhaustive_capacity = 2

(* Compare every observable of the two cores; [what] is built lazily so
   the exhaustive pass doesn't pay a format call per shape. *)
let same_result ?capacity ~what tree =
  let rf = Theorem1_ref.embed ?capacity tree in
  let r = Theorem1.embed ?capacity tree in
  let e = r.Theorem1.embedding in
  if rf.Theorem1_ref.place <> e.Embedding.place then
    Alcotest.failf "%s: placements diverge from the reference" (what ());
  if
    rf.Theorem1_ref.height <> r.Theorem1.height
    || rf.Theorem1_ref.capacity <> r.Theorem1.capacity
    || rf.Theorem1_ref.fallbacks <> r.Theorem1.fallbacks
    || rf.Theorem1_ref.wide_pieces <> r.Theorem1.wide_pieces
  then Alcotest.failf "%s: run statistics diverge from the reference" (what ());
  rf

(* ---------------- exhaustive: every shape up to 14 nodes ------------- *)

(* Enumerate all binary-tree shapes on [n] nodes in a preorder arena:
   the subtree filling [lo, lo+sz) is rooted at [lo], its left subtree
   takes the next [k] indices for every [k]. The arrays are reused across
   shapes — each recursion step rewrites exactly the cells it owns. *)
let iter_shapes n f =
  let parent = Array.make n (-1) and left = Array.make n (-1) and right = Array.make n (-1) in
  let rec fill lo sz cont =
    if sz = 0 then cont ()
    else
      for k = 0 to sz - 1 do
        if k > 0 then begin
          left.(lo) <- lo + 1;
          parent.(lo + 1) <- lo
        end
        else left.(lo) <- -1;
        if sz - 1 - k > 0 then begin
          right.(lo) <- lo + 1 + k;
          parent.(lo + 1 + k) <- lo
        end
        else right.(lo) <- -1;
        fill (lo + 1) k (fun () -> fill (lo + 1 + k) (sz - 1 - k) cont)
      done
  in
  fill 0 n (fun () -> f (Bintree.of_arrays ~root:0 ~parent ~left ~right))

let catalan n =
  let c = Array.make (n + 1) 0 in
  c.(0) <- 1;
  for i = 1 to n do
    for k = 0 to i - 1 do
      c.(i) <- c.(i) + (c.(k) * c.(i - 1 - k))
    done
  done;
  c.(n)

let exhaustive lo hi () =
  for n = lo to hi do
    let count = ref 0 in
    iter_shapes n (fun t ->
        incr count;
        ignore
          (same_result ~capacity:exhaustive_capacity
             ~what:(fun () -> Format.asprintf "shape %a" Bintree.pp t)
             t));
    check (Printf.sprintf "all %d-node shapes enumerated" n) (catalan n) !count
  done

(* ---------------- qcheck: random cases ---------------- *)

let families = [ "complete"; "path"; "caterpillar"; "random-bst"; "uniform"; "skewed"; "random-split" ]

type eq_case = { fname : string; size : int; cap : int; seed : int }

let print_case c = Printf.sprintf "%s(%d) capacity=%d seed=%d" c.fname c.size c.cap c.seed

let case_gen =
  QCheck2.Gen.(
    let* fi = int_bound (List.length families - 1) in
    let* size = map (fun k -> 32 + k) (int_bound 8160) in
    let* cap = oneofl [ 2; 4; 16 ] in
    let* seed = int_bound 1_000_000 in
    return { fname = List.nth families fi; size; cap; seed })

(* At capacity 2 some big shapes legitimately overfill the host (the
   paper's slack assumes capacity 16); both cores must then raise the
   same [Invalid_argument] — equivalence extends to the failure mode. *)
let run_eq_case c =
  let tree = (Gen.family c.fname).generate (Rng.make ~seed:c.seed) c.size in
  let outcome f = match f () with r -> Ok r | exception Invalid_argument m -> Error m in
  let rf = outcome (fun () -> Theorem1_ref.embed ~capacity:c.cap tree) in
  let r = outcome (fun () -> Theorem1.embed ~capacity:c.cap tree) in
  (match (rf, r) with
  | Ok rf, Ok r ->
      if rf.Theorem1_ref.place <> r.Theorem1.embedding.Embedding.place then
        Alcotest.failf "%s: placements diverge" (print_case c);
      if rf.Theorem1_ref.fallbacks <> r.Theorem1.fallbacks then
        Alcotest.failf "%s: fallbacks diverge" (print_case c)
  | Error m, Error m' ->
      if m <> m' then Alcotest.failf "%s: failure modes diverge (%s vs %s)" (print_case c) m m'
  | Ok _, Error m -> Alcotest.failf "%s: only the core fails (%s)" (print_case c) m
  | Error m, Ok _ -> Alcotest.failf "%s: only the reference fails (%s)" (print_case c) m);
  true

let qcheck_equivalence =
  QCheck2.Test.make ~count:100 ~name:"theorem1: core == reference" ~print:print_case case_gen
    run_eq_case

(* ---------------- deterministic large trees -------------------------- *)

(* Guests of 30k-100k nodes on X-trees of height 10-12 at the paper's
   capacity 16, where every late round sweeps hundreds of vertices per
   level. Beyond placements, the
   derived metrics the paper cares about — dilation and load — are
   compared through [Embedding] with the memoised distance oracle. *)
let test_large_trees () =
  List.iter
    (fun (fname, n) ->
      let tree = (Gen.family fname).generate (Rng.make ~seed:(Hashtbl.hash (fname, n))) n in
      let rf = Theorem1_ref.embed tree in
      let what = Printf.sprintf "%s(%d)" fname n in
      let r = Theorem1.embed tree in
      let e = r.Theorem1.embedding in
      if rf.Theorem1_ref.place <> e.Embedding.place then Alcotest.failf "%s: placements diverge" what;
      check (what ^ ": height") rf.Theorem1_ref.height r.Theorem1.height;
      check (what ^ ": fallbacks") rf.Theorem1_ref.fallbacks r.Theorem1.fallbacks;
      check (what ^ ": wide pieces") rf.Theorem1_ref.wide_pieces r.Theorem1.wide_pieces;
      let dist = Theorem1.distance_oracle r in
      let ef = Embedding.make ~tree ~host:e.Embedding.host ~place:rf.Theorem1_ref.place in
      check (what ^ ": dilation") (Embedding.dilation ~dist ef) (Embedding.dilation ~dist e);
      check (what ^ ": load") (Embedding.load ef) (Embedding.load e))
    (* path: the family with the most fallbacks, where every fill peel
       reverses the remaining piece's node order *)
    [ ("uniform", 30_000); ("path", 30_000); ("caterpillar", 60_000); ("random-split", 100_000) ]

(* ---------------- numbering-sensitive guests ------------------------- *)

(* The core embeds a copy of the guest renumbered in mirror preorder, and
   keeps on the caller's ids every decision that reads id order. These
   guests show it when one of them slips onto the copy's ids: round 0's
   piece discovery changes the heap-numbered complete and fibonacci
   trees; the lay order of a cut's laid sets, which decides which node
   falls back, changes the seed-5 guests at capacities 1 and 2; and
   every decision, SPLIT's settle and the whole-piece move included,
   changes some of the guests whose ids are shuffled. *)
let test_numbering_sensitive () =
  let guest ?(seed = 5) ?(shuffle = false) ~capacity r fname =
    let t = (Gen.family fname).generate (Rng.make ~seed) (Theorem1.optimal_size ~capacity r) in
    ( Printf.sprintf "%s r=%d capacity=%d seed=%d%s" fname r capacity seed
        (if shuffle then " shuffled" else ""),
      capacity,
      if shuffle then Test_bintree.shuffled t 78 else t )
  in
  List.iter
    (fun (what, capacity, tree) -> ignore (same_result ~capacity ~what:(fun () -> what) tree))
    (List.concat_map
       (fun r -> [ guest ~capacity:16 r "complete"; guest ~capacity:16 r "fibonacci" ])
       [ 4; 6; 8 ]
    @ List.map (guest ~capacity:1 7)
        [ "broom"; "fibonacci"; "random-bst"; "uniform"; "random-grow"; "skewed"; "random-split" ]
    @ List.map (guest ~capacity:2 7)
        [ "broom"; "random-bst"; "uniform"; "random-grow"; "skewed"; "random-split" ]
    @ [
        guest ~seed:1 ~shuffle:true ~capacity:2 7 "caterpillar";
        guest ~seed:1 ~shuffle:true ~capacity:2 7 "uniform";
        guest ~seed:1 ~shuffle:true ~capacity:1 6 "path";
        guest ~seed:1 ~shuffle:true ~capacity:1 7 "random-bst";
      ])

(* ---------------- separator hot path allocates only its output ------- *)

(* [Separator.cut2 ~place] reads a maximal piece through the view of its
   region and the copy's subtree ranges, which allocates nothing, and
   names its carved part by roots and exclusions instead of listing it:
   it may allocate only its lay sets, the cut and the carve's small
   tuples, 256 words whatever the piece's size. The piece is the whole
   4 093-node tree, rooted at a leaf so that the carve also flips its
   path; the carved part's size, read back through the view, must be
   within Lemma 2's error bound of a third. *)
let test_cut2_allocation () =
  let m = Bintree.mirror_copy (Gen.uniform (Rng.make ~seed:5) 4093) in
  let n = Bintree.n m.copy in
  let ws = Separator.mirror_ws m in
  let place = Array.make n (-1) in
  let region = { Separator.top = 0; bounds = []; r1 = n - 1; r2 = None } in
  let cut () = Separator.cut2 ws ~place region ~target:(n / 3) in
  (* warm up: first call settles any lazy sizing *)
  for _ = 1 to 4 do
    ignore (cut ())
  done;
  Gc.minor ();
  let before = Gc.minor_words () in
  let c = cut () in
  let allocated = Gc.minor_words () -. before in
  let size v = Separator.View.rooted_size ws v in
  let carved =
    List.fold_left (fun acc v -> acc + size v) 0 c.Separator.roots
    - List.fold_left (fun acc v -> acc + size v) 0 c.Separator.excluded
  in
  checkb "not swapped" false c.Separator.swapped;
  checkb "carves a third" true (abs (carved - (n / 3)) <= ((n / 3) + 4) / 9);
  checkb
    (Printf.sprintf "cut2 allocated %.0f minor words (bound 256)" allocated)
    true (allocated <= 256.)

(* [Separator.components] re-forms pieces after every placement, so it
   must allocate only its output: one cons cell (3 words) per node, plus
   a few words per component. A closure per visited node would cost 9
   words per node. *)
let test_components_allocation () =
  let tree = Gen.uniform (Rng.make ~seed:5) 4093 in
  let ws = Separator.make_ws tree in
  let nodes = Bintree.preorder tree in
  (* cutting every 512th preorder node leaves several components *)
  let removed = List.filteri (fun i _ -> i mod 512 = 0) nodes in
  for _ = 1 to 4 do
    ignore (Separator.components ws ~nodes ~removed)
  done;
  Gc.minor ();
  let before = Gc.minor_words () in
  let comps = Separator.components ws ~nodes ~removed in
  let allocated = Gc.minor_words () -. before in
  let kept = List.fold_left (fun acc c -> acc + List.length c) 0 comps in
  let ncomps = List.length comps in
  check "every kept node in a component" (4093 - 8) kept;
  checkb "several components" true (ncomps > 1);
  let bound = float_of_int ((3 * kept) + (16 * ncomps) + 64) in
  checkb
    (Printf.sprintf "components allocated %.0f minor words (bound %.0f)" allocated bound)
    true (allocated <= bound)

let suite =
  [
    ("exhaustive shapes <= 11", `Quick, exhaustive 1 11);
    ("exhaustive shapes 12-14", `Slow, exhaustive 12 14);
    QCheck_alcotest.to_alcotest ~long:false qcheck_equivalence;
    ("large trees == reference", `Slow, test_large_trees);
    ("numbering-sensitive guests == reference", `Quick, test_numbering_sensitive);
    ("separator cut2 allocates only its output", `Quick, test_cut2_allocation);
    ("separator components allocates only its output", `Quick, test_components_allocation);
  ]
