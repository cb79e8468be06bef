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

let reattach st ~floor_level ~fallback ?(removed = []) nodes =
  List.iter
    (fun (piece : State.piece) ->
      let vertex =
        match piece.bounds with
        | b :: _ -> clamp_vertex st ~floor_level b.anchor
        | [] -> fallback
      in
      State.attach st ~vertex piece)
    (State.reform st ~nodes ~removed)

let reattach_to st ~vertex ?(removed = []) nodes =
  List.iter (State.attach st ~vertex) (State.reform st ~nodes ~removed)

let apply_split st ~max_level ~floor_level (sp : Separator.split) ~dest1 ~dest2 =
  List.iter (fun v -> State.lay st ~max_level ~node:v ~vertex:dest1) sp.s1;
  List.iter (fun v -> State.lay st ~max_level ~node:v ~vertex:dest2) sp.s2;
  reattach st ~floor_level ~fallback:dest1 sp.t1;
  reattach st ~floor_level ~fallback:dest2 sp.t2

let move_whole st ~max_level ~floor_level (piece : State.piece) ~dest =
  let designated = List.sort_uniq compare (List.map (fun b -> b.State.bnode) piece.bounds) in
  List.iter (fun v -> State.lay st ~max_level ~node:v ~vertex:dest) designated;
  reattach st ~floor_level ~fallback:dest ~removed:designated piece.nodes
