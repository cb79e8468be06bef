(** Rooted binary trees — the guest graphs of every embedding in this
    library.

    A binary tree has nodes [0 .. n-1]; every node has an optional left and
    right child and (except the root) a parent, so the maximum degree is 3.
    This matches the paper's notion of an "arbitrary binary tree". *)

type t

type node = int

(** {1 Construction} *)

module Builder : sig
  type tree := t
  type t

  val create : ?capacity:int -> unit -> t

  val add_root : t -> node
  (** Allocates the root; must be called exactly once, first. *)

  val add_left : t -> node -> node
  (** [add_left b p] attaches a fresh left child to [p]. Raises
      [Invalid_argument] if [p] already has a left child. *)

  val add_right : t -> node -> node

  val size : t -> int

  val reserve : t -> int -> unit
  (** [reserve b n] ensures capacity for [n] more nodes beyond the current
      size, growing to [max (2*cap) needed] in a single blit. Million-node
      fills that know their size up front pay one copy instead of a
      doubling cascade. *)

  val finish : t -> tree
  (** Freezes the builder. Raises [Invalid_argument] on an empty builder. *)
end

val of_arrays : root:node -> parent:int array -> left:int array -> right:int array -> t
(** Validates and wraps explicit arrays ([-1] encodes absence). Raises
    [Invalid_argument] if the arrays do not describe a single rooted binary
    tree on [0..n-1]. *)

(** {1 Structure queries} *)

val n : t -> int
val root : t -> node

val parent : t -> node -> node option
val left : t -> node -> node option
val right : t -> node -> node option

val parent_id : t -> node -> int
val left_id : t -> node -> int
val right_id : t -> node -> int
(** Raw ids with [-1] for absence — allocation-free variants of
    [parent]/[left]/[right] for hot loops (the option constructors of the
    wrapped accessors allocate on every call). *)

val children : t -> node -> node list
(** Left child first. *)

val degree : t -> node -> int
(** Number of tree neighbours (parent plus children): at most 3. *)

val iter_neighbours : t -> node -> (node -> unit) -> unit

val neighbours : t -> node -> node list

val edges : t -> (node * node) list
(** All [n-1] edges as (parent, child) pairs. *)

val is_leaf : t -> node -> bool

(** {1 Global measures} *)

type stats = {
  size : int;
  height : int;     (** Edges on the longest root-to-leaf path; 0 for a single node. *)
  leaves : int;
  max_degree : int;
}

val stats : t -> stats

val height : t -> int

val subtree_sizes : t -> int array
(** [sizes.(v)] is the number of nodes in the subtree rooted at [v] (with
    respect to the tree's own root). *)

val depth : t -> int array
(** Depth of each node below the root (root has depth 0). *)

(** {1 Traversals} *)

val preorder : t -> node list
val postorder : t -> node list

val fold_preorder : t -> init:'a -> f:('a -> node -> 'a) -> 'a

(** {1 Invariant check} *)

val check : t -> (unit, string) result
(** Re-validates internal consistency; used by property tests after
    generation, and by {!of_arrays}. A valid tree passes in one walk
    from the root, with no stack and no list; only an invalid one pays
    for a node-by-node scan that names its defect. A node whose left
    and right child coincide is invalid. *)

(** {1 Renumbering} *)

type mirror = private {
  copy : t;
      (** The tree renumbered in mirror preorder — each node, then its
          right subtree, then its left subtree: the root is 0, a right
          child is its parent + 1, a left child is its parent + 1 + the
          size of the right subtree. *)
  to_copy : int array;  (** The copy's id of each of the tree's nodes. *)
  to_caller : int array;  (** The inverse of [to_copy]. *)
  last : int array;
      (** [last.(k)] is the last id of copy node [k]'s subtree, which is
          the id range [k .. last.(k)]. *)
}

val mirror_copy : t -> mirror
(** The tree renumbered in mirror preorder, with both id maps and every
    subtree's range. One walk over the parent pointers, with no stack
    and no validation pass. *)

val pp : Format.formatter -> t -> unit
(** A compact parenthesised rendering, for debugging small trees. *)
