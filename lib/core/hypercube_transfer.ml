open Xt_obs
open Xt_prelude
open Xt_topology
open Xt_embedding

let chi = Bits.gray

let map_vertex ~height a =
  let l = Xtree.level a in
  if l > height then invalid_arg "Hypercube_transfer.map_vertex";
  let k = Xtree.index a in
  (* MSB-first word chi(a) · 1 · 0^(height - l) of height+1 bits *)
  ((chi k * 2) + 1) * Bits.pow2 (height - l)

let lemma3_distance_bound_holds ~height =
  let xt = Xtree.create ~height in
  let order = Xtree.order xt in
  let ok = ref true in
  for a = 0 to order - 1 do
    let row = Graph.bfs (Xtree.graph xt) a in
    for b = 0 to order - 1 do
      let dq = Bits.hamming (map_vertex ~height a) (map_vertex ~height b) in
      if dq > row.(b) + 1 then ok := false
    done
  done;
  !ok

let siblings_adjacent ~height =
  let xt = Xtree.create ~height in
  let ok = ref true in
  for a = 0 to Xtree.order xt - 1 do
    match Xtree.successor a with
    | Some b ->
        if Bits.hamming (map_vertex ~height a) (map_vertex ~height b) <> 1 then ok := false
    | None -> ()
  done;
  !ok

type result = {
  embedding : Embedding.t;
  cube : Hypercube.t;
  dim : int;
  base : Theorem1.result;
}

let embed ?capacity tree =
  Obs.span ~arg:(Xt_bintree.Bintree.n tree) "theorem3.embed" @@ fun () ->
  let base = Theorem1.embed ?capacity tree in
  let dim = base.Theorem1.height + 1 in
  let cube = Hypercube.create ~dim in
  let tree = base.Theorem1.embedding.Embedding.tree in
  let place =
    Array.map (fun a -> map_vertex ~height:base.Theorem1.height a)
      base.Theorem1.embedding.Embedding.place
  in
  let embedding = Embedding.make ~tree ~host:(Hypercube.graph cube) ~place in
  { embedding; cube; dim; base }

let embed_injective ?capacity tree =
  Obs.span ~arg:(Xt_bintree.Bintree.n tree) "theorem3.embed" @@ fun () ->
  let base = Theorem1.embed ?capacity tree in
  let extra =
    let rec find k = if Bits.pow2 k >= base.Theorem1.capacity then k else find (k + 1) in
    find 0
  in
  let dim = base.Theorem1.height + 1 + extra in
  let cube = Hypercube.create ~dim in
  let tree = base.Theorem1.embedding.Embedding.tree in
  let n = Xt_bintree.Bintree.n tree in
  let next_slot = Array.make (Xtree.order base.Theorem1.xt) 0 in
  let place = Array.make n (-1) in
  for v = 0 to n - 1 do
    let a = base.Theorem1.embedding.Embedding.place.(v) in
    let mu = next_slot.(a) in
    next_slot.(a) <- mu + 1;
    place.(v) <- (map_vertex ~height:base.Theorem1.height a * Bits.pow2 extra) + mu
  done;
  let embedding = Embedding.make ~tree ~host:(Hypercube.graph cube) ~place in
  { embedding; cube; dim; base }

let distance_oracle result = Hypercube.distance result.cube
