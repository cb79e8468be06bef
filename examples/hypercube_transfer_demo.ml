(* Theorem 3: the X-tree result transfers to hypercubes.

   The classical inorder embedding handles COMPLETE binary trees in a
   hypercube with dilation 2 (shown below as the baseline); Lemma 3 + the
   X-tree embedding handle ARBITRARY binary trees in their optimal
   hypercube with load 16 and dilation 4 — something the inorder trick
   cannot do at all.

   Run with:  dune exec examples/hypercube_transfer_demo.exe *)

open Xt_bintree
open Xt_core
open Xt_embedding
open Xt_baseline

let () =
  (* Baseline: complete trees via inorder, dilation 2. *)
  Printf.printf "complete trees, inorder embedding into the optimal hypercube:\n";
  List.iter
    (fun r ->
      let e = Cbt_embeddings.inorder_into_hypercube r in
      let dist = Xt_topology.Hypercube.distance (Xt_topology.Hypercube.create ~dim:(r + 1)) in
      Printf.printf "  B_%d -> Q_%d: dilation %d, injective %b\n" r (r + 1)
        (Embedding.dilation ~dist e) (Embedding.is_injective e))
    [ 3; 5; 7 ];

  (* Lemma 3 distance property, verified exhaustively. *)
  Printf.printf "\nLemma 3 (X(r) -> Q_(r+1), distance <= Delta + 1): ";
  Printf.printf "%s\n"
    (if List.for_all (fun h -> Hypercube_transfer.lemma3_distance_bound_holds ~height:h) [ 2; 4; 6 ]
     then "verified for heights 2, 4, 6"
     else "VIOLATED");

  (* Theorem 3 on trees the inorder trick cannot touch. *)
  let rng = Xt_prelude.Rng.make ~seed:3 in
  Printf.printf "\narbitrary trees via Theorem 1 + Lemma 3 (optimal hypercube, load 16):\n";
  List.iter
    (fun fname ->
      let n = Theorem1.optimal_size 5 in
      let tree = (Gen.family fname).generate rng n in
      let res = Hypercube_transfer.embed tree in
      let dist = Hypercube_transfer.distance_oracle res in
      Printf.printf "  %-12s n=%d -> Q_%d: dilation %d, load %d\n" fname n
        res.Hypercube_transfer.dim
        (Embedding.dilation ~dist res.Hypercube_transfer.embedding)
        (Embedding.load res.Hypercube_transfer.embedding);
      let inj = Hypercube_transfer.embed_injective tree in
      let dist = Hypercube_transfer.distance_oracle inj in
      Printf.printf "  %-12s   injective corollary -> Q_%d: dilation %d\n" "" inj.Hypercube_transfer.dim
        (Embedding.dilation ~dist inj.Hypercube_transfer.embedding))
    [ "path"; "caterpillar"; "uniform" ]
