(** Shared piece-movement helpers for ADJUST and SPLIT: applying a
    separator split to the state, moving whole pieces, and re-attaching
    residual components at the right leaf level. *)

val clamp_vertex : State.t -> floor_level:int -> int -> int
(** Descend from a vertex to level >= [floor_level], following lighter
    children, so that no piece is ever attached above the current
    attachment level. Vertices already at or below the floor are
    returned unchanged. *)

val attach_near : State.t -> floor_level:int -> fallback:int -> State.piece list -> unit
(** Attach each piece, in order, at its first boundary's anchor (clamped
    to the floor level), or at [fallback] when it has no boundary. *)

val reattach : State.t -> floor_level:int -> fallback:int -> State.piece -> laid:int list -> unit
(** {!attach_near} the remnants ({!State.remnants}) a maximal piece
    leaves once its nodes [laid] are placed. *)

val reattach_to : State.t -> vertex:int -> State.piece -> laid:int list -> unit
(** Like {!reattach} but attaching every remnant at the given vertex,
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
    remnants of side 1, then of side 2 ({!State.split_remnants}). The
    cut must have been made with [~place] on this piece, and the caller
    must already have detached the piece. *)

val move_whole : State.t -> max_level:int -> floor_level:int -> State.piece -> dest:int -> unit
(** Lay all boundary nodes of the piece at [dest] and re-attach the
    remaining components (which are then anchored at [dest]). The caller
    must already have detached the piece. *)
