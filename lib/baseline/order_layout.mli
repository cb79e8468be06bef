(** Contiguous-order baselines: write the guest nodes in DFS (preorder) or
    BFS order and cut the sequence into chunks of [capacity], one chunk per
    X-tree vertex in heap order.

    These are the "obvious" layouts a compiler might emit. They respect
    the load bound by construction but their dilation grows with the tree
    size — benchmark E6 contrasts this with Theorem 1's constant 3. *)

type order = Dfs | Bfs

type result = {
  embedding : Xt_embedding.Embedding.t;
  xt : Xt_topology.Xtree.t;
  height : int;
}

type cache
(** Canonical-shape memo shared by both orders (the order is part of the
    key); see {!Xt_embedding.Shape_memo}. *)

val make_cache : ?capacity:int -> ?max_bytes:int -> unit -> cache

val embed : ?capacity:int -> ?cache:cache -> order:order -> Xt_bintree.Bintree.t -> result
