(** Shortest-path next-hop routing over a host graph.

    Routes follow the BFS tree of each destination, so every message takes
    a true shortest path and routing is deterministic. On general hosts
    next-hop rows are computed lazily per destination and memoised in
    dense arrays; on tree hosts (where the shortest path is unique, so
    the next hop is forced) a single binary-lifting ancestor table
    replaces the per-destination rows, keeping memory O(n log n) instead
    of O(n^2) for large native guests. Either way {!next_hop} is
    allocation-free after warm-up — the simulator calls it once per
    message hop. *)

type t

val create : ?dense:bool -> Xt_topology.Graph.t -> t
(** [~dense:true] (default false) forces the dense per-destination rows
    even on a tree host — the two modes provably agree on trees (the
    unique path is the BFS path; a qcheck suite pins it), so this only
    trades memory for the table-free lifting walk. Used by the
    equivalence tests and as the escape hatch for hosts about to lose
    tree-ness (fault injection). *)

val warm : t -> unit
(** Precompute every lazy next-hop row (fanned over the domain pool;
    no-op in tree mode). After [warm] the router is never mutated, so it
    can be shared read-only across domains, and routing never pays a
    row build. *)

val next_hop : t -> current:int -> dst:int -> int
(** The neighbour to forward to. Raises [Invalid_argument] if
    [current = dst] or the destination is unreachable. *)

val path_length : t -> src:int -> dst:int -> int
(** Hop count of the route ([-1] if unreachable). *)
