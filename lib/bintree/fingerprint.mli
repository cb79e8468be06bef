(** Merkle-style structural fingerprints of binary trees.

    Two subtrees receive the same fingerprint exactly when they have the
    same {e shape} (up to hash collisions) — node ids play no role, so the
    fingerprint of a tree agrees with equality of its {!Codec.to_string}
    canonical form. Each fingerprint combines two independent 63-bit hash
    lanes (≈126 bits), driving the collision probability for realistic
    working sets far below anything a dedupe would notice. A consumer
    that cannot tolerate collisions at all keys on the canonical
    {!Codec.to_string} itself, as {!Xt_embedding.Shape_memo} does.

    All of a tree's subtree fingerprints are computed bottom-up in one
    O(n) pass over the structure arrays, with no per-node allocation. *)

type t = { h0 : int; h1 : int }

val equal : t -> t -> bool
val compare : t -> t -> int

val to_hex : t -> string
(** 32 hex digits (two 16-digit lanes). *)

val of_tree : Bintree.t -> t
(** Fingerprint of the whole tree (the root's subtree). *)

val subtrees : Bintree.t -> t array
(** [a.(v)] is the fingerprint of the subtree rooted at [v]. *)

val canonical_key : Bintree.t -> string
(** ["<hex>:<n>"] — the cache key for the tree's shape. Appending the
    node count keeps accidental collisions strictly within one size
    class. *)

val preorder_ranks : Bintree.t -> int array
(** [r.(v)] is the position of node [v] in preorder — the isomorphism
    onto the canonically labelled tree that {!Codec.of_string} would
    return for {!Codec.to_string} of this tree. *)
