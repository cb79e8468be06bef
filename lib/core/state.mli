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

type t = {
  tree : Xt_bintree.Bintree.t;
  xt : Xt_topology.Xtree.t;
  height : int;
  capacity : int;
  place : int array;            (** guest node -> X-tree vertex, [-1] unplaced *)
  occ : int array;              (** per-vertex occupancy *)
  weight : int array;           (** cached X-subtree weights *)
  attached : piece list array;  (** pieces attached per vertex *)
  mirror : Bytes.t;             (** the guest's mirror preorder; read with {!mpos} *)
  ws : Xt_bintree.Separator.ws;
  held : held;                  (** the fill's scratch *)
  mutable placed : int;
  mutable next_pid : int;
  mutable fallbacks : int;      (** placements that had to divert to a free slot *)
  mutable wide_pieces : int;    (** pieces created with more than two boundaries *)
}

val create : tree:Xt_bintree.Bintree.t -> height:int -> capacity:int -> t

val mpos : t -> int -> int
(** A guest node's index in the mirror preorder: node, right subtree,
    left subtree. Numbered once per state, in O(n). *)

val mend : t -> int -> int
(** The last mirror index of a guest node's subtree. *)

val mnode : t -> int -> int
(** The guest node with a given mirror index. *)

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
    current placement; [start] is the last node, [top] the one first in
    preorder. *)

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

val first_bound : t -> int -> int
(** [first_bound st v] is the boundary node of [regrow st ~pid v]'s
    first boundary, found by walking only as far as it; counts the nodes
    walked in [state.reform_nodes]. *)

val pieces_at : t -> int -> piece list

val separator_piece : piece -> Xt_bintree.Separator.piece
(** View a piece as input for the separator lemmas ([r1]/[r2] are the
    boundary nodes). Raises [Invalid_argument] on a boundary-less piece. *)

val check_invariants : t -> (unit, string) result
(** Expensive consistency check used by tests: occupancy, weights and
    piece bookkeeping all agree with [place], and every attached piece is
    maximal and canonical — re-growing it from its [start] over the
    unplaced nodes gives back its nodes, size, bounds and [top]. *)
