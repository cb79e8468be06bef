open Xt_topology
open Xt_bintree
open Xt_embedding
open Xt_core

type order = Dfs | Bfs

type result = { embedding : Embedding.t; xt : Xtree.t; height : int }

type cache_meta = { m_xt : Xtree.t; m_height : int }

type cache = cache_meta Shape_memo.t

let make_cache ?capacity ?max_bytes () = Shape_memo.create ?capacity ?max_bytes ()

let bfs_order tree =
  let queue = Queue.create () in
  Queue.add (Bintree.root tree) queue;
  let acc = ref [] in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    acc := v :: !acc;
    List.iter (fun c -> Queue.add c queue) (Bintree.children tree v)
  done;
  List.rev !acc

let embed_uncached ~capacity ~order tree =
  let n = Bintree.n tree in
  let height = Theorem1.height_for ~capacity n in
  let xt = Xtree.create ~height in
  let sequence = match order with Dfs -> Bintree.preorder tree | Bfs -> bfs_order tree in
  let place = Array.make n (-1) in
  List.iteri (fun i v -> place.(v) <- i / capacity) sequence;
  let embedding = Embedding.make ~tree ~host:(Xtree.graph xt) ~place in
  { embedding; xt; height }

let embed ?(capacity = 16) ?cache ~order tree =
  match cache with
  | None -> embed_uncached ~capacity ~order tree
  | Some memo ->
      let prefix =
        Printf.sprintf "base-%s|c=%d" (match order with Dfs -> "dfs" | Bfs -> "bfs") capacity
      in
      let place, m =
        Shape_memo.memo memo ~prefix ~tree ~compute:(fun () ->
            let r = embed_uncached ~capacity ~order tree in
            (r.embedding.Embedding.place, { m_xt = r.xt; m_height = r.height }))
      in
      {
        embedding = Embedding.make ~tree ~host:(Xtree.graph m.m_xt) ~place;
        xt = m.m_xt;
        height = m.m_height;
      }
