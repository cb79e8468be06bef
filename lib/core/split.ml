open Xt_obs
open Xt_topology
open Xt_bintree

(* Work counters; like ADJUST's they depend only on the embedding. *)
let c_calls = Obs.counter "split.calls"
let c_pieces = Obs.counter "split.pieces"
let c_balance = Obs.counter "split.balance_splits"
let c_fill = Obs.counter "split.fill_laid"

let piece_size (p : State.piece) = p.State.size

(* Pair pieces of one class largest-first, sending the larger of each pair
   to the currently lighter bag; [bags] are (size ref, piece list ref).
   Without [pairing] (ablation), assign alternately in arrival order. *)
let assign_class ~pairing (bag0, acc0) (bag1, acc1) pieces =
  let pieces =
    if pairing then List.sort (fun a b -> compare (piece_size b) (piece_size a)) pieces
    else pieces
  in
  let flip = ref false in
  List.iter
    (fun p ->
      let to_first = if pairing then !bag0 <= !bag1 else not !flip in
      flip := not !flip;
      if to_first then begin
        bag0 := !bag0 + piece_size p;
        acc0 := p :: !acc0
      end
      else begin
        bag1 := !bag1 + piece_size p;
        acc1 := p :: !acc1
      end)
    pieces

(* ------------------------------------------------------------------ *)
(* The fill                                                            *)
(*                                                                     *)
(* The fill peels the first boundary node of the piece at the head of  *)
(* the child's list until the child is full; re-forming the rest of   *)
(* the piece after each peel would put its remnants at the head, in   *)
(* their order of discovery along the piece's DFS. The fill lays the   *)
(* same nodes without re-forming: it holds each piece it creates as   *)
(* its start, its top and its boundary nodes, derives the next peel   *)
(* and the pieces that peel leaves from the guest's structure, and    *)
(* forms only the pieces that survive, once each (State.form).        *)
(*                                                                     *)
(* A piece's DFS from its start pops neighbours right, left, parent:   *)
(* from a node it covers its part of the subtree below right-first,   *)
(* then climbs to the parent and covers the sibling's part, up to the  *)
(* top, where it ends in the other child's part. Below a node the DFS  *)
(* visits the piece in mirror preorder, the state's id order, so the   *)
(* last node it reaches there is the largest id in the node's subtree  *)
(* range outside every cut subtree — the subtrees of the placed        *)
(* children of the boundary nodes (the piece is a maximal unplaced     *)
(* set, so nothing else cuts it): Ranges.last_below. All of it is read *)
(* before the peeled node is laid.                                     *)
(* ------------------------------------------------------------------ *)

let free (st : State.t) v = Ranges.free st.place v
let above (st : State.t) a b = Ranges.above st.rg a b
let toward (st : State.t) a b = Ranges.toward st.rg a b
let last_below (st : State.t) bnodes w = Ranges.last_below st.rg ~place:st.place bnodes w

(* The node the DFS from [s] pops just before [x], which it reaches from
   its neighbour [y]: [y] itself, or the end of the part of [y]'s child
   explored just before [x] (order right, left, parent, skipping the
   neighbour [y] was reached from). *)
let popped_before (st : State.t) bnodes ~s x y =
  let t = st.tree in
  let ly = Bintree.left_id t y and ry = Bintree.right_id t y in
  let back =
    if y = s then -1 else if above st y s then toward st y s else Bintree.parent_id t y
  in
  let prev =
    if x = ry then -1
    else if x = ly then if ry <> back && free st ry then ry else -1
    else if ly <> back && free st ly then ly
    else if ry <> back && free st ry then ry
    else -1
  in
  if prev < 0 then y else last_below st bnodes prev

(* Boundary nodes below [c]; and those outside [x]'s subtree. *)
let rec bnodes_below (st : State.t) c = function
  | [] -> []
  | b :: rest -> if above st c b then b :: bnodes_below st c rest else bnodes_below st c rest

let rec bnodes_outside (st : State.t) x = function
  | [] -> []
  | b :: rest ->
      if above st x b then bnodes_outside st x rest else b :: bnodes_outside st x rest

let rec bnodes_of = function [] -> [] | (b : State.boundary) :: rest -> b.bnode :: bnodes_of rest

(* Hold the piece that laying [x] leaves behind its neighbour [z]: top
   [t] above [x], else [z]; its boundary nodes are the held piece's on
   that side plus [z] itself, now next to a placed node. Ids and the
   wide-piece count are drawn as re-forming would draw them. *)
let hold (st : State.t) ~x ~t bnodes z start =
  let h = st.held in
  let k = h.h_len in
  let up = z = Bintree.parent_id st.tree x in
  let bn = z :: (if up then bnodes_outside st x bnodes else bnodes_below st z bnodes) in
  (match bn with _ :: _ :: _ :: _ -> st.wide_pieces <- st.wide_pieces + 1 | _ -> ());
  h.h_start.(k) <- start;
  h.h_top.(k) <- (if up then t else z);
  h.h_pid.(k) <- State.draw_pid st;
  h.h_bnodes.(k) <- bn;
  h.h_len <- k + 1

(* Lay [x] out of the piece with start [s], top [t] and boundary nodes
   [bnodes], and push the pieces it leaves so that the first discovered
   ends on top: the side of [x]'s neighbour [y] towards [s] (if [x] is
   not [s]) first when the DFS's last node lies on it, else last; the
   others in parent, left, right order. *)
let peel st ~round:i ~vertex ~s ~t bnodes x =
  let tree = st.State.tree in
  let last_from_top c = Ranges.last_from_top st.rg ~place:st.place bnodes t c in
  let px = Bintree.parent_id tree x
  and lx = Bintree.left_id tree x
  and rx = Bintree.right_id tree x in
  let y = if x = s then -1 else if above st x s then toward st x s else px in
  (* the DFS's last node, and whether it lies on [y]'s side *)
  let e = if y < 0 then -1 else Ranges.last_popped st.rg ~place:st.place bnodes ~s t in
  let y_first = y >= 0 && if y = px then not (above st x e) else above st y e in
  let y_start = if y < 0 || y_first then e else popped_before st bnodes ~s x y in
  (* pushed in reverse order of discovery *)
  if y >= 0 && not y_first then hold st ~x ~t bnodes y y_start;
  if rx <> y && free st rx then hold st ~x ~t bnodes rx (last_below st bnodes rx);
  if lx <> y && free st lx then hold st ~x ~t bnodes lx (last_below st bnodes lx);
  if px <> y && x <> t then hold st ~x ~t bnodes px (last_from_top (toward st t x));
  if y_first then hold st ~x ~t bnodes y y_start;
  State.lay st ~max_level:i ~node:x ~vertex;
  Obs.incr c_fill

let rec one_node (v : int) = function [] -> true | b :: rest -> b = v && one_node v rest

(* The first of a held piece's boundary nodes that the DFS from its
   start [s] pops. *)
let first_bnode (st : State.t) s bnodes =
  List.fold_left
    (fun best b -> if best < 0 || Ranges.before st.rg ~s b best then b else best)
    (-1) bnodes

let fill st ~round ~vertex =
  let h = st.State.held in
  let stop = ref false in
  while (not !stop) && st.State.occ.(vertex) < st.State.capacity do
    if h.h_len > 0 then begin
      let k = h.h_len - 1 in
      h.h_len <- k;
      let s = h.h_start.(k) and bnodes = h.h_bnodes.(k) in
      h.h_bnodes.(k) <- [];
      let x = match bnodes with b :: rest when one_node b rest -> b | _ -> first_bnode st s bnodes in
      peel st ~round ~vertex ~s ~t:h.h_top.(k) bnodes x
    end
    else
      match State.pieces_at st vertex with
      | [] -> stop := true
      | (p : State.piece) :: _ ->
          State.detach st ~vertex p;
          let bnodes = bnodes_of p.bounds in
          let x =
            match p.bounds with
            | b :: _ -> b.bnode
            | [] -> Ranges.last_popped st.rg ~place:st.place [] ~s:p.start p.top
          in
          peel st ~round ~vertex ~s:p.start ~t:p.top bnodes x
  done;
  (* bottom of the stack first, so the top piece ends at the head *)
  for k = 0 to h.h_len - 1 do
    State.attach st ~vertex
      (State.form st ~pid:h.h_pid.(k) ~top:h.h_top.(k) ~start:h.h_start.(k) h.h_bnodes.(k));
    h.h_bnodes.(k) <- []
  done;
  h.h_len <- 0

let run ?(options = Options.default) ?outer_weight st ~round:i ~alpha =
  let capacity = st.State.capacity in
  (* Weight of a level-i vertex outside alpha's subtree, read only for
     the orientation tie-break. Callers sweeping a whole level pass a
     pre-sweep snapshot so the tie-break is independent of how much of
     the sweep has already run. *)
  let outer_weight = match outer_weight with Some f -> f | None -> State.weight_of st in
  let c0 = Xtree.child alpha 0 and c1 = Xtree.child alpha 1 in
  let old_anchor (p : State.piece) =
    List.exists (fun b -> Xtree.level b.State.anchor <= i - 2) p.State.bounds
  in
  let at_alpha = State.pieces_at st alpha in
  let prov0 = State.pieces_at st c0 and prov1 = State.pieces_at st c1 in
  Obs.incr c_calls;
  Obs.add c_pieces (List.length at_alpha + List.length prov0 + List.length prov1);
  List.iter (fun p -> State.detach st ~vertex:alpha p) at_alpha;
  List.iter (fun p -> State.detach st ~vertex:c0 p) prov0;
  List.iter (fun p -> State.detach st ~vertex:c1 p) prov1;
  let must_lay, dist = List.partition old_anchor at_alpha in
  (* Bags: pair within each class (paper's S1 / S2 / S3). *)
  let size0 = ref 0 and size1 = ref 0 in
  let bag0 = ref [] and bag1 = ref [] in
  let assign_class = assign_class ~pairing:options.Options.pairing in
  assign_class (size0, bag0) (size1, bag1) must_lay;
  assign_class (size0, bag0) (size1, bag1) dist;
  assign_class (size0, bag0) (size1, bag1) (prov0 @ prov1);
  (* Orientation: base weights already under each child (ADJUST layouts)
     plus bag weight; choose the mapping with the smaller imbalance,
     breaking ties towards draining into the lighter outer neighbour. *)
  let base0 = State.weight_of st c0 and base1 = State.weight_of st c1 in
  let imbalance_straight = abs (base0 + !size0 - (base1 + !size1)) in
  let imbalance_swapped = abs (base0 + !size1 - (base1 + !size0)) in
  let straight =
    if imbalance_straight <> imbalance_swapped then imbalance_straight < imbalance_swapped
    else begin
      let outer0 = Option.map outer_weight (Xtree.predecessor c0) in
      let outer1 = Option.map outer_weight (Xtree.successor c1) in
      let heavy_is_bag0 = !size0 >= !size1 in
      let prefer_heavy_left =
        match (outer0, outer1) with
        | Some w0, Some w1 -> w0 <= w1
        | Some _, None -> true
        | None, Some _ -> false
        | None, None -> true
      in
      heavy_is_bag0 = prefer_heavy_left
    end
  in
  let side0, side1 = if straight then (!bag0, !bag1) else (!bag1, !bag0) in
  (* Place each piece on its side: lay old-anchored boundary nodes, then
     attach the (remaining) components to the child. *)
  let settle child pieces =
    List.iter
      (fun (p : State.piece) ->
        let to_lay =
          Separator.uniq st.State.ws
            (List.filter_map
               (fun b ->
                 if Xtree.level b.State.anchor <= i - 2 then Some b.State.bnode else None)
               p.State.bounds)
        in
        if to_lay = [] then State.attach st ~vertex:child p
        else begin
          List.iter (fun v -> State.lay st ~max_level:i ~node:v ~vertex:child) to_lay;
          Moves.reattach_to st ~vertex:child p ~laid:to_lay
        end)
      pieces
  in
  settle c0 side0;
  settle c1 side1;
  (* Final balancing over the free slots (paper: Lemma 2 using the at most
     4 remaining places on each child). *)
  let w0 = State.weight_of st c0 and w1 = State.weight_of st c1 in
  let delta = (max w0 w1 - min w0 w1) / 2 in
  if delta > 0 && options.Options.balance_split then begin
    let heavy, light = if w0 >= w1 then (c0, c1) else (c1, c0) in
    if st.State.occ.(heavy) + 4 <= capacity && st.State.occ.(light) + 4 <= capacity then begin
      match State.pieces_at st heavy with
      | [] -> ()
      | pieces ->
          let big = List.filter (fun p -> piece_size p >= delta) pieces in
          let piece =
            match big with
            | p :: rest ->
                List.fold_left (fun acc q -> if piece_size q < piece_size acc then q else acc) p rest
            | [] ->
                List.fold_left
                  (fun acc q -> if piece_size q > piece_size acc then q else acc)
                  (List.hd pieces) pieces
          in
          let target = min delta (piece_size piece) in
          if target > 0 then begin
            let cut =
              Separator.cut2 st.State.ws ~place:st.State.place (State.separator_piece piece) ~target
            in
            State.detach st ~vertex:heavy piece;
            Moves.apply_split st ~max_level:i ~floor_level:i piece cut ~dest1:heavy ~dest2:light;
            Obs.incr c_balance
          end
      end
  end;
  (* Fill each child to capacity with frontier nodes. *)
  fill st ~round:i ~vertex:c0;
  fill st ~round:i ~vertex:c1
