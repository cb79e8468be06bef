(** Shared piece-movement helpers for ADJUST and SPLIT: applying a
    separator split to the state, moving whole pieces, and re-attaching
    residual components at the right leaf level. *)

val clamp_vertex : State.t -> floor_level:int -> int -> int
(** Descend from a vertex to level >= [floor_level], following lighter
    children, so that no piece is ever attached above the current
    attachment level. Vertices already at or below the floor are
    returned unchanged. *)

val reattach : State.t -> floor_level:int -> fallback:int -> int list -> unit
(** Wrap the unplaced components of the given residual nodes as pieces
    ({!State.reform}, whose precondition applies: typically the nodes of
    a maximal piece some of which were just laid) and attach each at its
    first boundary's anchor (clamped to the floor level), or at
    [fallback] when it has no boundary. *)

val reattach_to : State.t -> vertex:int -> int list -> unit
(** Like {!reattach} but attaching every component at the given vertex,
    regardless of its anchors — used by SPLIT, which owns the assignment
    of pieces to the two child leaves. *)

val apply_split :
  State.t ->
  max_level:int ->
  floor_level:int ->
  State.piece ->
  Xt_bintree.Separator.cut ->
  dest1:int ->
  dest2:int ->
  unit
(** Lay [lay1] at [dest1] and [lay2] at [dest2], then re-attach the
    residual components of side 1, then of side 2. The cut must be the
    state workspace's last, made with [~place] on this piece, and the
    caller must already have detached the piece. *)

val move_whole : State.t -> max_level:int -> floor_level:int -> State.piece -> dest:int -> unit
(** Lay all boundary nodes of the piece at [dest] and re-attach the
    remaining components (which are then anchored at [dest]). The caller
    must already have detached the piece. *)
