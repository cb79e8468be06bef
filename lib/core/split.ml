open Xt_obs
open Xt_topology
open Xt_bintree

(* Work counters; like ADJUST's they are schedule-independent. *)
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

let run ?(options = Options.default) ?outer_weight st ~round:i ~alpha =
  let capacity = st.State.capacity in
  (* Weight of a level-i vertex outside alpha's subtree, read only for
     the orientation tie-break. Callers sweeping a whole level pass a
     pre-sweep snapshot so the tie-break is independent of how much of
     the sweep has already run — which also removes the one cross-subtree
     read that would block parallel sweeps. *)
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
          List.sort_uniq compare
            (List.filter_map
               (fun b ->
                 if Xtree.level b.State.anchor <= i - 2 then Some b.State.bnode else None)
               p.State.bounds)
        in
        if to_lay = [] then State.attach st ~vertex:child p
        else begin
          List.iter (fun v -> State.lay st ~max_level:i ~node:v ~vertex:child) to_lay;
          Moves.reattach_to st ~vertex:child ~removed:to_lay p.State.nodes
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
            let sp = Separator.lemma2 st.State.ws (State.separator_piece piece) ~target in
            State.detach st ~vertex:heavy piece;
            Moves.apply_split st ~max_level:i ~floor_level:i sp ~dest1:heavy ~dest2:light;
            Obs.incr c_balance
          end
      end
  end;
  (* Fill each child to capacity with frontier nodes. *)
  let fill child =
    let continue_ = ref true in
    while !continue_ && st.State.occ.(child) < capacity do
      match State.pieces_at st child with
      | [] -> continue_ := false
      | (p : State.piece) :: _ ->
          State.detach st ~vertex:child p;
          let peel =
            match p.State.bounds with
            | b :: _ -> b.State.bnode
            | [] -> List.hd p.State.nodes
          in
          State.lay st ~max_level:i ~node:peel ~vertex:child;
          Obs.incr c_fill;
          Moves.reattach_to st ~vertex:child ~removed:[ peel ] p.State.nodes
    done
  in
  fill c0;
  fill c1
