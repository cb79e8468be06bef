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

type boundary = { bnode : int; anchor : int }
(** A piece node [bnode] next to a placed node, and that node's host
    vertex [anchor]. *)

type piece = {
  nodes : int list;      (** Nodes of the piece; must be connected in the tree. *)
  r1 : int;              (** First designated node; must occur in [nodes]. *)
  r2 : int option;       (** Optional second designated node. *)
}

type region = {
  top : int;  (** The member whose tree parent is placed or absent. *)
  bounds : boundary list;
      (** Every member next to a placed node, one entry per placed
          neighbour. *)
  r1 : int;  (** First designated node; a member. *)
  r2 : int option;  (** Optional second designated node. *)
}
(** A maximal unplaced piece of a mirror copy ({!Bintree.mirror_copy}),
    as {!cut1} and {!cut2} read it: its members are [top]'s subtree id
    range minus the ranges of its {e cut roots}, the placed children of
    its boundary nodes. *)

type split = {
  s1 : int list;  (** Laid out on side 1; at most 4 nodes. *)
  t1 : int list;  (** Remaining nodes of side 1. *)
  s2 : int list;  (** Laid out on side 2; at most 4 nodes (2 for Lemma 1). *)
  t2 : int list;  (** Remaining nodes of side 2. *)
}

val side_sizes : split -> int * int
(** [(|s1|+|t1|, |s2|+|t2|)]. *)

type ws
(** A reusable workspace over one tree: the tree's subtree ranges, the
    view of the piece under the current lemma call and, for the list API
    ({!components}, {!lemma1}, {!lemma2}, {!verify_split}),
    generation-stamped scratch arrays allocated on its first call. Not
    thread-safe: a workspace serves one domain at a time. *)

val make_ws : Bintree.t -> ws
(** A workspace over any tree, for the list API; {!uniq} sorts by node
    id. *)

val mirror_ws : Bintree.mirror -> ws
(** A workspace over a mirror copy, whose node ids are the copy's:
    besides the list API it carves maximal unplaced pieces ({!cut1},
    {!cut2}) from the copy's subtree ranges, and {!uniq}, and so every
    cut's [lay1] and [lay2], sorts by the guest's own ids
    ([to_caller]). *)

val ranges : ws -> Ranges.t
(** The workspace's ranges: {!Ranges.of_mirror} of a {!mirror_ws}'s
    copy. *)

val uniq : ws -> int list -> int list
(** The nodes without repeats, in increasing caller id. *)

type cut = private {
  lay1 : int list;  (** [s1], by {!uniq}. *)
  lay2 : int list;  (** [s2], by {!uniq}. *)
  roots : int list;
      (** The part the lemma's carve cut off — side 2, or side 1 when
          [swapped] — as rooted subtrees (the piece rooted at [r1]),
          pairwise disjoint, in the order the carve took them; each root
          is laid on that side. The rest of the piece is the other side. *)
  excluded : int list;
      (** Rooted subtrees taken back out of the roots' subtrees; each is
          laid on the other side. *)
  r1 : int;  (** The designated node the piece was rooted at. *)
  swapped : bool;
      (** The carved part is side 1: the lemma carved the complement of
          side 2 ([3n <= 4 target]), or moves the whole piece
          ([target >= n]), which carves nothing. *)
}
(** A split without its node lists: side [i] is [lay_i] plus [t_i]. It
    allocates the lay sets and a few cells, whatever the piece's size. *)

val cut1 : ws -> place:int array -> region -> target:int -> cut
(** {!lemma1} of a maximal unplaced piece of a {!mirror_ws} workspace's
    copy, as a cut; [place] maps each node to its host vertex, negative
    when unplaced. The carve reads the piece from the view its region
    gives — a member's rooted size, rooted parent and effective size are
    O(cut roots) arithmetic on subtree ranges — so it walks only the
    nodes it descends through; it reads no node list, loads nothing and
    lists neither side. Raises [Invalid_argument] if
    [target <= 0], if a designated node is not a member or if the
    workspace is not over a mirror copy. *)

val cut2 : ws -> place:int array -> region -> target:int -> cut
(** {!lemma2} of a maximal unplaced piece, as a cut. *)

val lemma1 : ws -> piece -> target:int -> split
(** Lemma 1 split with side 2 aiming at [target] nodes: the piece (the
    component of [r1] among [nodes]) is relabelled in mirror preorder
    and carved as {!cut1} carves it. Raises
    [Invalid_argument] if [target <= 0] or a designated node is missing
    from [nodes]. If [target >= |piece|] the whole piece becomes side 2.
    The carved side's [t] list runs root by root, each rooted subtree in
    the reverse of the order in which the DFS from [r1] pops it; the
    other side's keeps the order of [nodes]. *)

val lemma2 : ws -> piece -> target:int -> split
(** Lemma 2 split: same contract, tighter size error, both laid-out sets
    bounded by 4. *)

(** The view {!cut1} and {!cut2} read a maximal piece through, exposed
    for the test suite's comparison with an explicit load. Every answer
    is O(cut roots) arithmetic on the copy's subtree ranges: a member's
    tree subtree holds [g x = |\[x, last x\]|] minus the cut ranges
    inside it; rooted at [r1], a member off the [r1]–top path keeps its
    tree parent and [g]; a member [a] on it hangs from its child [c]
    towards [r1] and holds [size - g c]; [r1] holds [size]. *)
module View : sig
  val set : ws -> place:int array -> region -> unit
  (** Point a {!mirror_ws} workspace's view at a region, rooted at its
      [r1], with no exclusions. Raises [Invalid_argument] as {!cut1}
      does. *)

  val size : ws -> int
  (** The number of members. *)

  val mem : ws -> int -> bool
  (** Membership by ranges: unplaced, in [top]'s range and in no cut
      root's. *)

  val rooted_parent : ws -> int -> int
  (** A member's parent with the piece rooted at [r1]; [-1] for [r1]. *)

  val rooted_size : ws -> int -> int
  (** The number of members in a member's rooted subtree. *)

  val exclude : ws -> int -> unit
  (** Carve a member's rooted subtree out of the effective sizes, with
      its rooted size; at most two per view. *)

  val effective_size : ws -> int -> int
  (** A member's rooted size minus that of each excluded member in its
      rooted subtree. *)
end

val components : ws -> nodes:int list -> removed:int list -> int list list
(** Connected components (in the underlying tree) of [nodes] minus
    [removed], in reverse order of discovery along [nodes]; each lists its
    nodes in reverse DFS order (neighbours visited parent, left, right).
    Passing [removed] is the same as filtering it out of [nodes] first,
    without the copy. The walk allocates only its output lists. *)

val verify_split : ws -> piece -> split -> (unit, string) result
(** Structural check used by the test suite: partition, designated-node
    coverage, cut-edge discipline, and collinearity of both sides. *)
