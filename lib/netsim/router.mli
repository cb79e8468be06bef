(** Shortest-path next-hop routing over a host graph.

    Routes follow the BFS tree of each destination, so every message takes
    a true shortest path and routing is deterministic. On general hosts
    the router reads the host graph's shared next-hop table
    ({!Xt_topology.Graph.route_slot}): each destination's row is built
    once per host, 2 bytes per vertex (2n{^2} bytes for the whole table,
    freed with the graph), and every router on that graph reuses it.
    On tree hosts (where the shortest path is unique, so the
    next hop is forced) one preorder DFS replaces the per-destination
    rows: each vertex keeps its preorder number, the last number in its
    subtree and its parent edge, O(n) memory instead of O(n{^2}) for
    large native guests, and a hop goes down into the child whose
    subtree holds the destination (a binary search over the children)
    or else up.

    Every hop is a slot of the host graph, so it maps in O(1) to the
    directed link [2 * edge_id + direction] (direction 0 points at the
    higher-numbered endpoint) that the simulator queues on. Either way
    {!next_hop} and {!next_link} are allocation-free once the rows they
    read exist — the simulator calls {!next_link} once per message
    hop. *)

type t

val create : Xt_topology.Graph.t -> t
(** Tree mode when the graph is a tree (n - 1 edges, connected),
    general mode otherwise. Builds no general-mode rows; O(n + m). *)

val warm : t -> unit
(** Build every row of the host graph's next-hop table that is not
    built yet, so routing never pays a row build (no-op in tree mode).
    Lets a caller time route building apart from a replay. *)

val next_hop : t -> current:int -> dst:int -> int
(** The neighbour to forward to. Raises [Invalid_argument] if
    [current = dst] or the destination is unreachable. *)

val next_link : t -> current:int -> dst:int -> int
(** The directed link from [current] to {!next_hop}:
    [2 * Graph.edge_index g current hop + (if current < hop then 0 else 1)].
    Raises exactly what {!next_hop} raises. *)

val link_dst : t -> int -> int
(** The vertex a directed link points at. *)

val path_length : t -> src:int -> dst:int -> int
(** Hop count of the route ([-1] if unreachable), walked hop by hop. *)
