(** The X-tree network [X(r)] of the paper.

    [X(r)] is the complete binary tree of height [r] (all binary strings of
    length at most [r], each string [x] connected to [x0] and [x1])
    augmented with the {e horizontal} edges connecting each vertex to its
    successor on the same level, i.e. the string whose binary value is one
    larger, provided [x] is not the last vertex of its level.

    Vertices are encoded in heap order: the string of length [l] and binary
    value [k] has id [2{^l} - 1 + k]. The root (empty string) is id 0. *)

type vertex = int
(** Heap-order id of an X-tree vertex. *)

type t
(** An X-tree of some height [r >= 0], with its graph built eagerly. *)

val create : height:int -> t
(** [create ~height:r] is [X(r)]. Raises [Invalid_argument] if [r < 0] or
    [r > 24]. *)

val height : t -> int

val order : t -> int
(** Number of vertices, [2{^r+1} - 1]. *)

val graph : t -> Graph.t
(** The underlying undirected graph (tree edges plus horizontal edges). *)

(** {1 Address arithmetic} — independent of any particular [t]. *)

val id : level:int -> index:int -> vertex
(** Raises [Invalid_argument] if [index] is out of range for [level]. *)

val level : vertex -> int
val index : vertex -> int

val root : vertex
(** Id 0, the empty string. *)

val parent : vertex -> vertex option
(** [None] for the root. *)

val child : vertex -> int -> vertex
(** [child v b] with [b] 0 or 1 appends bit [b] to the address. *)

val successor : vertex -> vertex option
(** Next vertex of the same level, [None] at the right end (all-ones). *)

val predecessor : vertex -> vertex option

val is_ancestor : vertex -> vertex -> bool
(** [is_ancestor a v]: the address of [a] is a prefix of that of [v]
    (including [a = v]). *)

val to_string : vertex -> string
(** Binary-string address; ["e"] for the root. *)

val of_string : string -> vertex
(** Inverse of [to_string]; accepts [""] or ["e"] for the root. Raises
    [Invalid_argument] on non-binary characters or length > 24. *)

(** {1 Per-tree queries} *)

val vertices_at_level : t -> int -> vertex list
(** Left-to-right vertex ids of one level. Raises [Invalid_argument] if the
    level exceeds the height. *)

val leaves : t -> vertex list
(** [vertices_at_level t (height t)]. *)

val mem : t -> vertex -> bool
(** Does this vertex id exist in [X(r)]? *)

val distance : t -> vertex -> vertex -> int
(** Exact hop distance in [X(r)]: {!analytic_distance} after a range
    check, by address arithmetic alone (no BFS, no table, no
    allocation). Raises [Invalid_argument] if either vertex is not in
    [X(r)]. *)

val neighbourhood : t -> vertex -> vertex list
(** The set [N(a)] of the paper's Figure 2: vertices of [X(r)] reachable
    from [a] by a path of at most three horizontal edges, or by at most two
    downward edges followed by at most two horizontal edges. Contains [a]
    itself. Sorted, duplicate-free. *)

val neighbourhood_closure_bound : int
(** 20 — the paper's bound on [|N(a) - {a}|]. *)

val in_neighbourhood : t -> vertex -> vertex -> bool
(** [in_neighbourhood t a b] is [List.mem b (neighbourhood t a)] in O(1),
    by address arithmetic: [b] lies 0, 1 or 2 levels below [a], at an
    index in [[k-3, k+3]], [[2k-2, 2k+3]] or [[4k-2, 4k+5]] for [a]'s
    index [k]. Raises [Invalid_argument] if [a] is not in [X(r)]. *)

val in_window : gap:int -> int -> int -> bool
(** [in_window ~gap ka kb] is that window test on addresses already split:
    a vertex of index [kb] lying [gap] levels below one of index [ka].
    [in_neighbourhood t a b] is
    [mem t b && in_window ~gap:(level b - level a) (index a) (index b)],
    so a caller that knows the levels need not recompute them. *)

(** {1 Table-free routing}

    Large X-trees make per-destination BFS tables expensive; the address
    structure supports an O(levels) alternative. The {e analytic distance}

    [D(a,b) = min over meeting levels l <= min(level a, level b) of
       (level a - l) + (level b - l) + gap_l(a,b)]

    (where [gap_l] is the index difference of the two level-[l] ancestors)
    is the length of a climb–run–descend path, so the true distance is at
    most [D(a,b)]. It is also at least [D(a,b)]. Take any [a]–[b] path and
    the smallest level [l] it visits, and project each of its vertices
    onto that vertex's level-[l] ancestor. A vertical edge keeps
    the projection and a horizontal edge moves it by at most 1. So the
    path has at least [(level a - l) + (level b - l)] vertical edges and
    at least [gap_l(a,b)] horizontal ones, which is at least [D(a,b)].
    Greedily stepping to any neighbour that reduces [D] strictly
    decreases it, so greedy routes are shortest paths. *)

val analytic_distance : vertex -> vertex -> int
(** The distance [D(a,b)], by pure address arithmetic in O(levels),
    without a range check: it is the distance in any X-tree that holds
    both vertices. The test suite compares it with BFS on every vertex
    pair of X(1)–X(10), and bench E17 on every pair of X(3)–X(7). *)

val route_next_hop : t -> src:vertex -> dst:vertex -> vertex
(** The neighbour of [src] chosen by the greedy [D]-descent. Raises
    [Invalid_argument] if [src = dst]. *)

val route : t -> src:vertex -> dst:vertex -> vertex list
(** The full greedy route, [src] inclusive to [dst] inclusive, of
    exactly [analytic_distance src dst] edges. *)
