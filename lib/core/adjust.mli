(** The procedure ADJUST of the paper.

    [run st ~round:i ~a] balances the X-subtree weights of [a]'s two
    children using the unique horizontally adjacent leaf pair across the
    cut — the rightmost level-(i-1) leaf below [a0] and the leftmost below
    [a1]. Pieces attached to the heavy side's boundary leaf are split
    (Lemma 2 / Lemma 1) or shifted whole; the separator nodes are laid out
    at the two new level-i leaves under the boundary, at most four nodes
    per leaf. *)

val run : State.t -> round:int -> a:int -> unit
