(** Shortest-path next-hop routing over a host graph.

    Routes follow the BFS tree of each destination, so every message takes
    a true shortest path and routing is deterministic. On general hosts
    the router reads the host graph's shared next-hop table
    ({!Xt_topology.Graph.next_hop}): each destination's row is built once
    per host, 2 bytes per vertex (2n{^2} bytes for the whole table, freed
    with the graph), and every router on that graph reuses it, from any
    domain. On tree hosts (where the shortest path is unique, so the next
    hop is forced) a single binary-lifting ancestor table replaces the
    per-destination rows, keeping memory O(n log n) instead of O(n{^2})
    for large native guests. Either way {!next_hop} is allocation-free
    once the rows it reads exist — the simulator calls it once per
    message hop. *)

type t

val create : Xt_topology.Graph.t -> t
(** Tree mode when the graph is a tree (n - 1 edges, connected),
    general mode otherwise. Builds no general-mode rows. *)

val warm : t -> unit
(** Build every row of the host graph's next-hop table that is not
    built yet, so routing never pays a row build (no-op in tree mode).
    Lets a caller time route building apart from a replay. *)

val next_hop : t -> current:int -> dst:int -> int
(** The neighbour to forward to. Raises [Invalid_argument] if
    [current = dst] or the destination is unreachable. *)

val path_length : t -> src:int -> dst:int -> int
(** Hop count of the route ([-1] if unreachable). *)
