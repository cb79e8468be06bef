open Xt_topology
open Xt_bintree

let clamp_vertex st ~floor_level v =
  let rec down v =
    if Xtree.level v >= floor_level then v
    else begin
      let c0 = Xtree.child v 0 and c1 = Xtree.child v 1 in
      down (if State.weight_of st c0 <= State.weight_of st c1 then c0 else c1)
    end
  in
  down v

(* Attach each piece at its first boundary's anchor, clamped to the
   floor level, or at [fallback] when it has no boundary. *)
let attach_near st ~floor_level ~fallback pieces =
  List.iter
    (fun (piece : State.piece) ->
      let vertex =
        match piece.bounds with
        | b :: _ -> clamp_vertex st ~floor_level b.anchor
        | [] -> fallback
      in
      State.attach st ~vertex piece)
    pieces

let reattach st ~floor_level ~fallback nodes =
  attach_near st ~floor_level ~fallback (State.reform st nodes)

let reattach_to st ~vertex nodes = List.iter (State.attach st ~vertex) (State.reform st nodes)

(* Once [lay1] and [lay2] are placed, each side's unplaced components lie
   inside it: only laid nodes join the sides, and the piece was maximal.
   So the carved side re-forms along its own list, the rest along the
   piece's nodes minus the carved part, side 1 first. *)
let apply_split st ~max_level ~floor_level (piece : State.piece) (c : Separator.cut) ~dest1 ~dest2 =
  List.iter (fun v -> State.lay st ~max_level ~node:v ~vertex:dest1) c.lay1;
  List.iter (fun v -> State.lay st ~max_level ~node:v ~vertex:dest2) c.lay2;
  let carved () = State.reform st c.carved and rest () = State.reform st ~outside:c piece.nodes in
  let side1, side2 = if c.swapped then (carved, rest) else (rest, carved) in
  attach_near st ~floor_level ~fallback:dest1 (side1 ());
  attach_near st ~floor_level ~fallback:dest2 (side2 ())

let move_whole st ~max_level ~floor_level (piece : State.piece) ~dest =
  let designated = Separator.uniq st.State.ws (List.map (fun b -> b.State.bnode) piece.bounds) in
  List.iter (fun v -> State.lay st ~max_level ~node:v ~vertex:dest) designated;
  reattach st ~floor_level ~fallback:dest piece.nodes
