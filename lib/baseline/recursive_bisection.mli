(** The natural comparison point for Theorem 1: recursive bisection
    {e without} the paper's sideways ADJUST corrections.

    Each X-tree vertex keeps [capacity] guest nodes from the frontier of
    the pieces routed through it, and the remainder is split into two bags
    for the children using the same Lemma 2 separators — but split errors
    are never repaired across sibling boundaries, so they compound
    downwards and the {e load is unbounded}: it grows with the X-tree
    height (roughly like [(10/9)^r] in the adversarial direction). This is
    exactly the failure mode the paper's horizontal-edge adjustments
    eliminate, so benchmark E6 plots the two side by side. *)

type result = {
  embedding : Xt_embedding.Embedding.t;
  xt : Xt_topology.Xtree.t;
  height : int;
}

type cache
(** Canonical-shape memo; see {!Xt_embedding.Shape_memo}. *)

val make_cache : ?capacity:int -> ?max_bytes:int -> unit -> cache

val embed : ?capacity:int -> ?cache:cache -> Xt_bintree.Bintree.t -> result
(** Same host size as {!Xt_core.Theorem1.embed}, but per-vertex occupancy
    is allowed to exceed [capacity] (it is the measured quantity). *)
