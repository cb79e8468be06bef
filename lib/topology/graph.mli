(** Immutable undirected graphs in compressed-sparse-row form.

    All host networks (X-trees, hypercubes, butterflies, …) and the
    universal graph of Theorem 4 are values of this type. Vertices are the
    integers [0 .. n-1]. Parallel edges and self-loops given to the
    constructor are removed.

    The one mutable part of a graph is the next-hop table behind
    {!route_slot}, filled on demand without locks. One domain routes on
    a graph at a time; a graph passes to another domain only through
    [Domain.spawn] or [Domain.join]. *)

type t

val of_edges : n:int -> (int * int) list -> t
(** [of_edges ~n edges] builds the graph on vertices [0..n-1] in
    O(n + |edges|) time: two counting passes, with no comparison sort.
    Edge ids number the edges [{u < v}] in order of [u], then [v].
    Raises [Invalid_argument] if an endpoint is out of range or
    [n < 0]. *)

val n : t -> int
(** Number of vertices. *)

val m : t -> int
(** Number of (undirected) edges after deduplication. *)

val degree : t -> int -> int

val max_degree : t -> int
(** 0 for an edgeless graph. *)

val neighbours : t -> int -> int array
(** Sorted adjacency of a vertex. The returned array must not be mutated. *)

(** {2 Slots}

    The adjacency lists are stored back to back as [2m] {e slots}, one
    per direction of each edge: vertex [v]'s neighbours, in ascending
    order, fill slots [first_slot g v] to [first_slot g (v + 1) - 1]. A
    slot is therefore a directed edge, named by one integer; all three
    accessors are O(1). *)

val first_slot : t -> int -> int
(** [first_slot g v] for [v] in [0 .. n]; [first_slot g n = 2m]. *)

val slot_target : t -> int -> int
(** The neighbour a slot points at. *)

val slot_edge : t -> int -> int
(** The undirected edge id of a slot, as {!iter_neighbours_e} gives it. *)

val iter_neighbours : t -> int -> (int -> unit) -> unit

val iter_neighbours_e : t -> int -> (int -> int -> unit) -> unit
(** [iter_neighbours_e g v f] calls [f w eid] for every neighbour [w],
    where [eid] is the undirected edge id of [{v,w}] — a dense index in
    [0 .. m-1] shared by both directions, suitable for edge-keyed
    arrays. *)

val edge_index : t -> int -> int -> int
(** The undirected edge id of [{u,v}] (order-insensitive). O(log degree).
    Raises [Invalid_argument] if [{u,v}] is not an edge. *)

val has_edge : t -> int -> int -> bool
(** Binary search in the sorted adjacency: O(log degree). *)

val iter_edges : t -> (int -> int -> unit) -> unit
(** Iterate every undirected edge once, with [u < v]. *)

val bfs : t -> int -> int array
(** [bfs g s] is the array of hop distances from [s]; [-1] marks vertices
    unreachable from [s]. *)

val bfs_parents : t -> int -> int array * int array
(** [bfs_parents g s] returns [(dist, parent)] where [parent.(s) = s] and
    [parent.(v) = -1] for unreachable [v]; otherwise [parent.(v)] is the
    predecessor of [v] on some shortest path from [s]. *)

val route_slot : t -> current:int -> dst:int -> int
(** The slot from [current] to its neighbour on the BFS route to [dst],
    or [-1] when [current = dst] or [dst] is unreachable from [current].
    The neighbour, [slot_target g (route_slot g ~current ~dst)], is
    exactly [(snd (bfs_parents g dst)).(current)].

    Routes come from a next-hop table stored on the graph and shared by
    every caller: one row per destination, 2 bytes per vertex (the hop's
    position in [current]'s sorted adjacency, so the slot is
    [first_slot g current] plus that port), 2n{^2} bytes once every row
    exists, freed with the graph. Nothing is allocated until the first
    call; the first call for a destination builds its row with one BFS
    and stores it in the table. Allocation-free once [dst]'s row exists.
    Raises [Invalid_argument] if a vertex has more than 65535
    neighbours. *)

val warm_routes : t -> unit
(** Build every row of the {!route_slot} table not built yet, so that no
    later call pays a BFS. *)

val distance : t -> int -> int -> int
(** Hop distance, [-1] if disconnected. A full BFS per call; for bulk
    queries prefer [bfs]. *)

val is_connected : t -> bool

val diameter : t -> int
(** Maximum eccentricity; [-1] if the graph is disconnected or empty.
    O(n·(n+m)). *)

val subgraph_respects : t -> (int * int) list -> bool
(** [subgraph_respects g edges] is [true] iff every pair in [edges] is an
    edge of [g] — used to check spanning-subgraph claims of Theorem 4. *)
