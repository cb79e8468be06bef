(** Mutable state of the X-TREE embedding algorithm (Theorem 1).

    The state tracks, per X-tree vertex: its occupancy (at most [capacity]
    guest nodes), the {e pieces} (residual connected subtrees of the guest)
    attached to it, and the cached total weight of its X-subtree (embedded
    plus attached guest nodes) — the quantity ADJUST balances.

    A piece carries its {e boundaries}: residual nodes adjacent to an
    already-embedded node, together with that neighbour's X-tree vertex
    (the {e anchor}). Under the paper's invariant (6) a piece has at most
    two boundaries sharing one anchor; this implementation tolerates more
    anchors and simply measures the resulting dilation. *)

type boundary = Xt_bintree.Separator.boundary = { bnode : int; anchor : int }

type piece = {
  pid : int;
  size : int;
  nodes : int list;  (** Reverse DFS preorder from [start] (neighbours pushed parent, left, right). *)
  bounds : boundary list; (** Usually one or two. *)
  start : int;  (** The node the piece's DFS starts at: the last of [nodes]. *)
  top : int;  (** The node whose tree parent is not in the piece. *)
}
(** Every attached piece is a maximal connected set of unplaced guest
    nodes: its nodes' unplaced neighbours are its own. *)

type held = {
  h_start : int array;
  h_top : int array;
  h_pid : int array;
  h_bnodes : int list array;
  mutable h_len : int;
}
(** Scratch stack of the pieces one SPLIT fill holds without their node
    lists (see {!Split.fill}): start, top, reserved id and boundary nodes
    (one entry per placed neighbour). Sized for one fill: at most
    [2 × min capacity n + 2] pieces, for an [n]-node guest. *)

type search = {
  seen : int array;
  queue : int array;
  mutable stamp : int;
  mutable tail : int;
}
(** Scratch of the nearest-free-slot search behind {!lay}'s fallback: a
    BFS queue over the X-tree's vertices and, per vertex, the stamp of
    the last search that reached it. Kept in the state, so a fallback
    allocates nothing in the major heap. *)

type t = {
  tree : Xt_bintree.Bintree.t;  (** the guest's mirror copy, whose ids every field uses *)
  xt : Xt_topology.Xtree.t;
  height : int;
  capacity : int;
  place : int array;            (** guest node -> X-tree vertex, [-1] unplaced *)
  occ : int array;              (** per-vertex occupancy *)
  weight : int array;           (** cached X-subtree weights *)
  attached : piece list array;  (** pieces attached per vertex *)
  last : int array;             (** node v's subtree is the id range [v .. last.(v)] *)
  ws : Xt_bintree.Separator.ws;
  held : held;                  (** the fill's scratch *)
  search : search;              (** the fallback's scratch *)
  mutable placed : int;
  mutable next_pid : int;
  mutable fallbacks : int;      (** placements that had to divert to a free slot *)
  mutable wide_pieces : int;    (** pieces created with more than two boundaries *)
}

val create : Xt_bintree.Bintree.mirror -> height:int -> capacity:int -> t
(** A state over a guest's mirror copy ({!Xt_bintree.Bintree.mirror_copy}):
    nodes are the copy's ids, so every subtree is a contiguous id range,
    and the workspace ({!Xt_bintree.Separator.mirror_ws}) sorts lay orders
    by the guest's own ids. *)

val weight_of : t -> int -> int
(** Cached weight of a vertex's X-subtree. *)

val lay : t -> max_level:int -> node:int -> vertex:int -> unit
(** Place a guest node at (or, when the vertex is full, at the nearest
    vertex of level <= [max_level] with a free slot — counted in
    [fallbacks]). Raises [Invalid_argument] if the node is already placed
    or no slot exists. *)

val attach : t -> vertex:int -> piece -> unit
val detach : t -> vertex:int -> piece -> unit

val make_piece : t -> int list -> piece
(** Builds a piece from its node list, scanning for boundaries against the
    current placement; [start] is the last node, [top] the least id, the
    one first in preorder. *)

val reform : t -> ?outside:Xt_bintree.Separator.cut -> int list -> piece list
(** The unplaced components that the unplaced nodes of the list meet,
    wrapped as pieces in one walk over [place]
    ({!Xt_bintree.Separator.unplaced_components}); given [outside], the
    last cut made in the state's workspace, the nodes of its carved part
    start none. Precondition: every unplaced component the walk meets
    lies inside the list (minus that carved part) — as when the list is
    the rest of a maximal piece after nodes of it were laid, for every
    neighbour of such a piece outside it is placed. Then it is exactly
    [List.map (make_piece st) (Separator.components st.ws ~nodes:kept ~removed:[])]
    with [kept] the list's unplaced nodes — the same pieces in the same
    order, node order, sizes, boundary order, ids and [wide_pieces]
    count — without the filtered copy or the second boundary scan.
    Counts the nodes walked in [state.reform_nodes]. *)

val draw_pid : t -> int
(** The next piece id. *)

val regrow : t -> pid:int -> int -> piece
(** [regrow st ~pid v] is the piece with id [pid] holding the unplaced
    component of [v], walked from [v] ({!Xt_bintree.Separator.component_at}):
    what {!reform} makes of that component when [v] is its first node.
    Draws no id and counts no wide piece; counts the nodes walked in
    [state.reform_nodes]. *)

val pieces_at : t -> int -> piece list

val separator_piece : piece -> Xt_bintree.Separator.region
(** View a piece as input for {!Xt_bintree.Separator.cut1} and [cut2]:
    its top and bounds, [r1] its first boundary node and [r2] the first
    other one. Raises [Invalid_argument] on a boundary-less piece. *)

val check_invariants : t -> (unit, string) result
(** Expensive consistency check used by tests: occupancy, weights and
    piece bookkeeping all agree with [place], and every attached piece is
    maximal and canonical — re-growing it from its [start] over the
    unplaced nodes gives back its nodes, size, bounds and [top]. *)
