(** Binary-tree generators.

    Every generator returns a tree with exactly [n] nodes. The random ones
    thread an explicit {!Xt_prelude.Rng.t}, so experiments are reproducible
    from a seed. *)

val complete : int -> Bintree.t
(** The first [n] nodes of the infinite complete binary tree in heap order
    (a "left-complete" tree). Raises [Invalid_argument] if [n <= 0]. *)

val path : int -> Bintree.t
(** A left spine of [n] nodes — the most unbalanced binary tree. *)

val zigzag : int -> Bintree.t
(** A spine alternating left and right children. *)

val caterpillar : int -> Bintree.t
(** A spine in which every other node also carries a leaf ("legs"), a
    classically hard instance for contiguous layouts. *)

val broom : int -> Bintree.t
(** A path of [n/2] nodes ending in a left-complete tree of the remaining
    nodes: mixes both extremes. *)

val fibonacci : int -> Bintree.t
(** The largest Fibonacci (AVL-minimal) tree with at most [n] nodes, padded
    back up to exactly [n] nodes by attaching leaves breadth-first. *)

val random_bst : Xt_prelude.Rng.t -> int -> Bintree.t
(** Shape of a binary search tree built from a uniform random permutation
    of [n] keys: expected height O(log n), unbalanced locally. *)

val uniform : Xt_prelude.Rng.t -> int -> Bintree.t
(** Uniformly random binary tree on [n] nodes (Catalan distribution) via
    Rémy's algorithm on full binary trees with [n] internal nodes followed
    by deletion of the external leaves. *)

val random_grow : Xt_prelude.Rng.t -> int -> Bintree.t
(** Grows from the root by repeatedly attaching a new leaf under a uniform
    random free child slot. Produces bushier trees than [uniform]. *)

val skewed_grow : Xt_prelude.Rng.t -> ?bias:float -> int -> Bintree.t
(** Like {!random_grow} but choosing among the deepest free slots with
    probability [bias] (default 0.8): produces long, stringy trees with
    random bursts. *)

val random_split : Xt_prelude.Rng.t -> int -> Bintree.t
(** Random-BST-shaped tree by divide and conquer over a contiguous index
    arena: each range draws its left-subtree size from a hash of the
    master seed and the range, so the shape is a pure function of that
    seed. The fastest generator for million-node guests; draws exactly
    one value from [rng]. *)

(** {1 Families} — the named workloads used by tests and benchmarks. *)

type family = {
  name : string;
  generate : Xt_prelude.Rng.t -> int -> Bintree.t;
}

val families : family list
(** All generators above, with deterministic ones ignoring the RNG. *)

val family : string -> family
(** Look up by name. Raises [Not_found]. *)
