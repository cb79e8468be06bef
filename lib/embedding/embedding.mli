(** Embeddings of a guest binary tree into a host graph, and their quality
    measures as defined in the paper:

    - {e dilation}: maximum host distance between the images of adjacent
      guest nodes — the number of clock cycles needed to simulate one guest
      communication step;
    - {e load factor}: maximum number of guest nodes mapped to one host
      vertex;
    - {e expansion}: host size divided by guest size;
    - {e congestion} (not in the paper, standard in the literature): when
      every guest edge is routed along one shortest host path, the maximum
      number of routes sharing a host edge. *)

type t = private {
  tree : Xt_bintree.Bintree.t;
  host : Xt_topology.Graph.t;
  place : int array; (** [place.(v)] is the host vertex of guest node [v]. *)
}

val make : tree:Xt_bintree.Bintree.t -> host:Xt_topology.Graph.t -> place:int array -> t
(** Validates that [place] has one in-range host vertex per guest node.
    Raises [Invalid_argument] otherwise. *)

val guest_size : t -> int
val host_size : t -> int

(** {1 Metrics}

    [dist] is the host's metric: [Xtree.distance] for X-trees,
    [Hypercube.distance] for hypercubes, [Graph.distance] (a BFS per
    query) for small general graphs. A negative distance means the two
    images are disconnected, and every metric then raises
    [Invalid_argument] naming the guest edge. *)

val edge_dilations : dist:(int -> int -> int) -> t -> int array
(** Host distance of every guest edge, in [Bintree.edges] order. *)

val dilation : dist:(int -> int -> int) -> t -> int
(** Maximum over {!edge_dilations}; 0 for a single-node guest. *)

val average_dilation : dist:(int -> int -> int) -> t -> float

val loads : t -> int array
(** Per-host-vertex multiplicities. *)

val load : t -> int

val expansion : t -> float

val is_injective : t -> bool

val congestion : t -> int
(** Shortest-path routing congestion: every guest edge is routed along
    the FIFO BFS tree of its source's image over sorted adjacency (the
    parents of [Graph.bfs_parents]), and the result is the largest number
    of routes on one host edge. Each BFS stops once the edge's other end
    is found, so a check costs the balls around the edges, not a BFS of
    the whole host per source. Raises [Invalid_argument] naming the first
    guest edge whose images are disconnected. *)

type report = {
  dilation : int;
  average_dilation : float;
  load : int;
  expansion : float;
  congestion : int;
  injective : bool;
}

val report : dist:(int -> int -> int) -> t -> report
(** Every metric above, in one [embedding.report] span. *)

val pp_report : Format.formatter -> report -> unit

val verify :
  dist:(int -> int -> int) ->
  ?max_dilation:int ->
  ?max_load:int ->
  t ->
  (unit, string) result
(** Checks the stated bounds and that every guest node is placed; returns a
    human-readable reason on failure. *)
