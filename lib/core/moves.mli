(** Shared piece-movement helpers for ADJUST and SPLIT: applying a
    separator split to the state, moving whole pieces, and re-attaching
    residual components at the right leaf level. *)

val clamp_vertex : State.t -> floor_level:int -> int -> int
(** Descend from a vertex to level >= [floor_level], following lighter
    children, so that no piece is ever attached above the current
    attachment level. Vertices already at or below the floor are
    returned unchanged. *)

val reattach :
  State.t -> floor_level:int -> fallback:int -> ?removed:int list -> int list -> unit
(** Wrap the connected components of the given residual nodes, minus
    [removed] (default none; typically the nodes just laid), as pieces
    ({!State.reform}) and attach each at its first boundary's anchor
    (clamped to the floor level), or at [fallback] when it has no
    boundary. *)

val reattach_to : State.t -> vertex:int -> ?removed:int list -> int list -> unit
(** Like {!reattach} but attaching every component at the given vertex,
    regardless of its anchors — used by SPLIT, which owns the assignment
    of pieces to the two child leaves. *)

val apply_split :
  State.t ->
  max_level:int ->
  floor_level:int ->
  Xt_bintree.Separator.split ->
  dest1:int ->
  dest2:int ->
  unit
(** Lay [s1] at [dest1] and [s2] at [dest2], then re-attach the residual
    components of both sides. The caller must already have detached the
    piece being split. *)

val move_whole : State.t -> max_level:int -> floor_level:int -> State.piece -> dest:int -> unit
(** Lay all boundary nodes of the piece at [dest] and re-attach the
    remaining components (which are then anchored at [dest]). The caller
    must already have detached the piece. *)
