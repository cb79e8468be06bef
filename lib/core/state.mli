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
  bounds : boundary list;
      (** Usually one or two; in the order the piece's DFS pops their
          nodes, right, left, parent within a node. *)
  start : int;
      (** The node the piece's DFS starts at; it visits a node's
          neighbours right, left, parent. *)
  top : int;  (** The node whose tree parent is not in the piece. *)
}
(** Every attached piece is a maximal connected set of unplaced guest
    nodes — its nodes' unplaced neighbours are its own — so its nodes
    are [top]'s subtree id range minus the ranges of its cut roots, the
    placed children of its boundary nodes. It lists none of them. *)

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
  rg : Xt_bintree.Ranges.t;     (** the copy's subtree ranges *)
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

val draw_pid : t -> int
(** The next piece id. *)

val form : t -> pid:int -> top:int -> start:int -> int list -> piece
(** [form st ~pid ~top ~start bnodes] is the maximal piece with this top
    and start whose boundary nodes are [bnodes] (repeats allowed, any
    order): its size is [top]'s range minus those of the placed children
    of [bnodes], and its bounds are every placed neighbour of theirs,
    ordered as its DFS pops them ({!Xt_bintree.Ranges.before}). Reads no
    other node; draws no id. *)

val new_piece : t -> top:int -> start:int -> int list -> piece
(** {!form} with the next id, counted in [wide_pieces] when it has more
    than two bounds. *)

val remnants : t -> piece -> laid:int list -> piece list
(** The pieces a maximal piece leaves once [laid], nodes of it, are
    placed: exactly what re-growing its unplaced components along its
    nodes in reverse DFS order from its start gives — each started at
    its node met first, in the reverse of that order, with ids drawn in
    list order and wide pieces counted. Derived from ranges, with work
    per remnant that grows with [laid] and the bounds, not with the
    piece's size. *)

val split_remnants : t -> piece -> Xt_bintree.Separator.cut -> piece list * piece list
(** Side 1's and side 2's remnants once the cut's [lay1] and [lay2] are
    placed, ids drawn side 1 first. The rest of the piece comes out as
    {!remnants} gives it; the carved part as re-growing it along its
    nodes listed root by root gives it, each rooted subtree in the
    reverse of the order in which the DFS from the cut's [r1] pops it. *)

val pieces_at : t -> int -> piece list

val separator_piece : piece -> Xt_bintree.Separator.region
(** View a piece as input for {!Xt_bintree.Separator.cut1} and [cut2]:
    its top and bounds, [r1] its first boundary node and [r2] the first
    other one. Raises [Invalid_argument] on a boundary-less piece. *)

val check_invariants : t -> (unit, string) result
(** Expensive consistency check used by tests: occupancy, weights and
    piece bookkeeping all agree with [place], and every attached piece is
    maximal and canonical. A DFS from each piece's [start] over the
    unplaced nodes, independent of the ranges, must give back its size,
    bounds and [top], and these re-grown pieces together with the placed
    nodes must cover every guest node exactly once. *)
