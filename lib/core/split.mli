(** The procedure SPLIT of the paper.

    [run st ~round:i ~alpha] distributes everything attached to the
    level-(i-1) vertex [alpha] onto its two children:

    + pieces with an anchor two or more levels up {e must} lay their
      anchored boundary nodes now (condition (4) allows a level gap of at
      most two);
    + all pieces — including those provisionally placed at the children by
      this round's ADJUST calls — are paired largest-against-the-lighter-bag
      into two bags, which are then oriented onto the children;
    + a final Lemma 2 split over the remaining free slots reduces the
      children's weight difference;
    + each child is topped up to [capacity] with frontier nodes (residual
      nodes adjacent to an already-laid node). *)

val run :
  ?options:Options.t ->
  ?outer_weight:(int -> int) ->
  State.t ->
  round:int ->
  alpha:int ->
  unit
(** [outer_weight] supplies the weight of the level-[i] vertices just
    outside [alpha]'s subtree, read only to break orientation ties.
    Defaults to the live weights; {!Theorem1.embed} passes a pre-sweep
    snapshot of the whole level, so every SPLIT of a sweep sees the same
    outer weights: those from before the sweep's first call. *)

val fill : State.t -> round:int -> vertex:int -> unit
(** SPLIT's last step, on the level-[round] vertex [vertex]: while it has
    a free slot and an attached piece, lay the first boundary node of the
    piece at the head of its list (the piece's last DFS node when it has
    no boundary) there. The pieces each peel leaves go to the head of the
    list in their order of discovery along the piece's DFS, with ids
    drawn in reverse of that order — exactly as re-forming the piece
    after every peel ({!State.remnants}) would leave them, but each
    surviving piece is formed once, at the end ({!State.form}). Counts
    each laid node in [split.fill_laid]. *)

val first_bnode : State.t -> int -> int list -> int
(** [first_bnode st s bnodes] is the first of a maximal unplaced piece's
    boundary nodes [bnodes] (repeats allowed, any order) that the DFS
    from its member [s] pops: the least boundary node in the subtree
    range of the lowest ancestor of [s] (or [s]) whose range holds one
    ({!Xt_bintree.Ranges.before}, which finds that ancestor by jumping).
    {!fill} peels it from a held piece with more than one boundary node. *)
