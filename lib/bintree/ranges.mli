(** Subtree-range arithmetic on a mirror copy ({!Bintree.mirror_copy}).

    Node [v]'s subtree is the id range [\[v, last v\]], so ancestry is two
    comparisons. A maximal unplaced piece is its top's range minus the
    ranges of its {e cut roots}, the placed children of its boundary
    nodes; a piece some of whose nodes were just laid is the same with
    the laid nodes' ranges cut as well. Every question the core asks of
    such a piece — which node a DFS pops last, in what order it pops two
    nodes, which rooted subtree holds a node — is answered here from the
    ranges, without walking the piece.

    Cuts are named by their parents: a {e hole list} is a list of nodes
    whose placed children are the cut roots (repeats and placed entries
    allowed). *)

type t = private {
  tree : Bintree.t;
  last : int array;  (** [last.(v)]: the last id of [v]'s subtree. *)
  jump : int array;
      (** Skew-binary jump pointers: an ancestor of each node, placed so
          that a search up the ancestors for the first one that passes a
          monotone test takes O(log depth) steps. *)
}

val make : Bintree.t -> last:int array -> t
(** The ranges of a tree numbered in mirror preorder (root 0, every
    parent before its children), with its subtree ends. O(n). *)

val of_mirror : Bintree.mirror -> t

val plain : Bintree.t -> t
(** A tree in any numbering, with no ranges: only {!free} and the tree
    itself may be used. *)

val has_ranges : t -> bool
(** Built by {!make} or {!of_mirror}. *)

val free : int array -> int -> bool
(** [free place v]: [v] is a node ([>= 0]) and unplaced. *)

val above : t -> int -> int -> bool
(** [above r a b]: [a] is [b] or a tree ancestor of [b]. *)

val toward : t -> int -> int -> int
(** [toward r a b]: the child of [a] whose range holds [b], for [b]
    strictly below [a]. *)

val meet : t -> int -> int -> int
(** [meet r s v]: the lowest common ancestor of [s] and [v], found by
    jumping up from [s]. *)

val before : t -> s:int -> int -> int -> bool
(** [before r ~s a b]: the DFS from [s] that visits a node's neighbours
    right, left, parent pops [a] before [b] ([a <> b]). It pops [s]'s
    subtree in increasing ids, then each ancestor of [s] followed by that
    ancestor's other child's subtree; so it pops the node whose meeting
    point with [s] is lower first, and of two with the same meeting point
    the smaller id. The order of two nodes of a connected set holding [s]
    is the same in the DFS over that set alone. *)

val in_rooted : t -> root:int -> int -> int -> bool
(** [in_rooted r ~root a v]: with the tree rooted at [root], [v] lies in
    [a]'s subtree: for [a] on the path from [root] up, everything but the
    subtree of [a]'s child towards [root]. *)

val last_below : t -> place:int array -> int list -> int -> int
(** [last_below r ~place holes w]: the largest id in [w]'s range outside
    the ranges of the placed children of [holes] that lie strictly below
    [w] — the last node the DFS pops from [w]'s part of the piece when it
    enters [w] from its parent. *)

val last_from_top : t -> place:int array -> int list -> int -> int -> int
(** [last_from_top r ~place holes t c]: the last node the DFS pops from
    [t]'s part of the piece when it climbs to [t] from its child [c]:
    the end of [t]'s other child's part ({!last_below}) when that child
    is unplaced, else [t]. *)

val last_popped : t -> place:int array -> int list -> s:int -> int -> int
(** [last_popped r ~place holes ~s t]: the last node of the piece with
    top [t] that the DFS from its member [s] pops. *)
