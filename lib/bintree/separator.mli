(** Tree-separator machinery: Lemma 1 and Lemma 2 of the paper.

    Both lemmas take a {e piece} — a connected subtree of a host binary
    tree, listed by its nodes, with one or two {e designated} nodes — and a
    target size [A], and split the piece into

    - side 1 of roughly [|piece| - A] nodes, containing the laid-out set
      [s1], and
    - side 2 of roughly [A] nodes, containing the laid-out set [s2],

    such that every edge between the two sides joins a node of [s1] with a
    node of [s2], both designated nodes land in [s1 ∪ s2], and each side is
    {e collinear}: every component of [t_i = side_i - s_i] is joined to
    [s_i] by at most two edges.

    Guarantees under the paper's preconditions (piece size [n > 4A/3] for
    Lemma 1, [1 <= A <= n] for Lemma 2, designated nodes with at most two
    neighbours inside the piece):

    - Lemma 1: [|side2| - A| <= (A+1)/3], [|s1| <= 4], [|s2| <= 2];
    - Lemma 2: [|side2| - A| <= (A+4)/9], [|s1|, |s2| <= 4].

    Out-of-precondition calls degrade gracefully (larger error, never an
    exception) — see the per-function notes. *)

type piece = {
  nodes : int list;      (** Nodes of the piece; must be connected in the tree. *)
  r1 : int;              (** First designated node; must occur in [nodes]. *)
  r2 : int option;       (** Optional second designated node. *)
}

type split = {
  s1 : int list;  (** Laid out on side 1; at most 4 nodes. *)
  t1 : int list;  (** Remaining nodes of side 1. *)
  s2 : int list;  (** Laid out on side 2; at most 4 nodes (2 for Lemma 1). *)
  t2 : int list;  (** Remaining nodes of side 2. *)
}

val side_sizes : split -> int * int
(** [(|s1|+|t1|, |s2|+|t2|)]. *)

type ws
(** A reusable workspace holding scratch arrays sized to one tree. Not
    thread-safe: a workspace serves one domain at a time, and is reused
    across calls — all transient sets are generation-stamped flat arrays,
    so reuse costs nothing and the hot path allocates no scratch at all. *)

val make_ws : ?caller_id:int array -> Bintree.t -> ws
(** [caller_id.(v)] is the id the caller knows node [v] by, when the
    tree is a renumbered copy ({!Bintree.mirror_copy}'s [to_caller]);
    {!uniq}, and so every cut's [lay1] and [lay2], sort by it. Defaults
    to the identity. Raises [Invalid_argument] if it is given and its
    length is not the tree's size. *)

val uniq : ws -> int list -> int list
(** The nodes without repeats, in increasing caller id. *)

val prepare : ws -> ?place:int array -> piece -> int
(** Load a piece into the workspace (membership, orientation, subtree
    sizes) and return its node count: one DFS from [r1] over [nodes], or,
    given [place] (guest node -> host vertex, negative when unplaced),
    over the unplaced nodes — the piece must then be the unplaced
    component of [r1] (a maximal unplaced set), and its [nodes] are not
    read. Called internally by both lemmas; exposed because it is their
    O(n) hot path and is guaranteed allocation-free, which the test
    suite pins with a [Gc.minor_words] guard. *)

type cut = private {
  lay1 : int list;  (** [s1], by {!uniq}. *)
  lay2 : int list;  (** [s2], by {!uniq}. *)
  carved : int list;
      (** The part the lemma's carve cut off, subtree by subtree: side 2,
          or side 1 when [swapped]. Its membership stays stamped in the
          workspace until the workspace's next lemma call; the rest of
          the piece is the other side. *)
  swapped : bool;
      (** The carved part is side 1: the lemma carved the complement of
          side 2 ([3n <= 4 target]), or moves the whole piece
          ([target >= n]), which carves nothing. *)
}
(** A split without its node lists: side [i] is [lay_i] plus [t_i]. *)

val cut1 : ws -> place:int array -> piece -> target:int -> cut
(** {!lemma1} of a maximal unplaced piece, as a cut: the piece is loaded
    from [place] ({!prepare}), and its [nodes] are not read. *)

val cut2 : ws -> place:int array -> piece -> target:int -> cut
(** {!lemma2} of a maximal unplaced piece, as a cut. *)

val lemma1 : ws -> piece -> target:int -> split
(** Lemma 1 split with side 2 aiming at [target] nodes. Raises
    [Invalid_argument] if [target <= 0] or a designated node is missing
    from [nodes]. If [target >= |piece|] the whole piece becomes side 2.
    The carved side's [t] list keeps the order of the cut's [carved], the
    other side's the order of [nodes]. *)

val lemma2 : ws -> piece -> target:int -> split
(** Lemma 2 split: same contract, tighter size error, both laid-out sets
    bounded by 4. *)

val components : ws -> nodes:int list -> removed:int list -> int list list
(** Connected components (in the underlying tree) of [nodes] minus
    [removed], in reverse order of discovery along [nodes]; each lists its
    nodes in reverse DFS order (neighbours visited parent, left, right).
    Passing [removed] is the same as filtering it out of [nodes] first,
    without the copy. The walk allocates only its output lists. *)

type boundary = { bnode : int; anchor : int }
(** A component node [bnode] next to a placed node, and that node's host
    vertex [anchor]. *)

type component = {
  members : int list;      (** As in {!components}. *)
  count : int;             (** [List.length members]. *)
  bounds : boundary list;
      (** In DFS order of [bnode]; right, left, parent within a node. *)
  start : int;             (** The DFS root: the last of [members]. *)
  top : int;               (** The member whose tree parent is outside the set. *)
}

val unplaced_components :
  ws -> place:int array -> ?outside:cut -> int list -> component list
(** For each unplaced node of the list that no earlier component holds,
    in list order, its unplaced component ({!component_at}); returned in
    reverse order of discovery. Given [outside], the workspace's last
    cut, the nodes of its carved part start no component. This is
    {!components} of the unplaced nodes with sizes and boundaries, as
    long as every unplaced component it meets lies inside the list: after
    a cut's [lay1] and [lay2] are placed, each side of a maximal piece is
    such a list. Used to re-form pieces after nodes have been laid. *)

val component_at : ws -> place:int array -> int -> component
(** [component_at ws ~place v] is the connected set of unplaced nodes
    (those [place] maps to [-1]) that contains [v], walked by the same
    DFS from [v]. Allocates only its output. *)

val first_bound : ws -> place:int array -> int -> int * int
(** [first_bound ws ~place v] runs that DFS from [v] only until it pops
    a node with a placed neighbour: the [bnode] of the first boundary of
    [component_at ws ~place v]. Returns that node ([-1] if there is none)
    and the number of nodes popped. Allocates only the pair. *)

val verify_split : ws -> piece -> split -> (unit, string) result
(** Structural check used by the test suite: partition, designated-node
    coverage, cut-edge discipline, and collinearity of both sides. *)
