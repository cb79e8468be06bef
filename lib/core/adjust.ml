open Xt_obs
open Xt_topology
open Xt_bintree

(* Work counters: totals depend only on the embedding computed. *)
let c_active = Obs.counter "adjust.active_calls"
let c_whole = Obs.counter "adjust.whole_moves"
let c_splits = Obs.counter "adjust.lemma_splits"
let c_nodes = Obs.counter "adjust.nodes_moved"

(* Descend from [v] appending bit [b] until reaching [lvl]. *)
let rec spine v b lvl = if Xtree.level v >= lvl then v else spine (Xtree.child v b) b lvl

let run st ~round:i ~a =
  let c0 = Xtree.child a 0 and c1 = Xtree.child a 1 in
  let w0 = State.weight_of st c0 and w1 = State.weight_of st c1 in
  let delta = (max w0 w1 - min w0 w1) / 2 in
  if delta > 0 then begin
    (* Boundary leaves at level i-1; ADJUST lays out at their inward
       children on level i, which are horizontal neighbours. *)
    let heavy_first = w0 > w1 in
    let donor_leaf, receiver_leaf =
      if heavy_first then (spine c0 1 (i - 1), spine c1 0 (i - 1))
      else (spine c1 0 (i - 1), spine c0 1 (i - 1))
    in
    let donor_new = Xtree.child donor_leaf (if heavy_first then 1 else 0) in
    let receiver_new = Xtree.child receiver_leaf (if heavy_first then 0 else 1) in
    Obs.incr c_active;
    (* Budgets: at most 4 nodes laid per new leaf by one ADJUST call. *)
    let budget_donor = ref 4 and budget_recv = ref 4 in
    let remaining = ref delta in
    let continue_ = ref true in
    while !continue_ do
      let pieces = State.pieces_at st donor_leaf in
      if !remaining <= 0 || pieces = [] then continue_ := false
      else begin
        (* Case A: a piece of at least the remaining deficit exists —
           split it (Lemma 2 with full budgets, Lemma 1 with a reduced
           receiver budget, as in the paper's case B) and stop. *)
        let big = List.filter (fun p -> p.State.size >= !remaining) pieces in
        let smallest_big =
          match big with
          | [] -> None
          | p :: rest ->
              Some (List.fold_left (fun acc q -> if q.State.size < acc.State.size then q else acc) p rest)
        in
        match smallest_big with
        | Some piece when !budget_donor >= 4 && !budget_recv >= 4 ->
            let cut =
              Separator.cut2 st.State.ws ~place:st.State.place (State.separator_piece piece)
                ~target:!remaining
            in
            State.detach st ~vertex:donor_leaf piece;
            Moves.apply_split st ~max_level:i ~floor_level:(i - 1) piece cut ~dest1:donor_new
              ~dest2:receiver_new;
            Obs.incr c_splits;
            Obs.add c_nodes !remaining;
            continue_ := false
        | Some piece
          when !budget_donor >= 4 && !budget_recv >= 2 && 3 * piece.State.size > 4 * !remaining ->
            (* Lemma 1 lays at most 2 nodes on the receiver side. *)
            let cut =
              Separator.cut1 st.State.ws ~place:st.State.place (State.separator_piece piece)
                ~target:!remaining
            in
            State.detach st ~vertex:donor_leaf piece;
            Moves.apply_split st ~max_level:i ~floor_level:(i - 1) piece cut ~dest1:donor_new
              ~dest2:receiver_new;
            Obs.incr c_splits;
            Obs.add c_nodes !remaining;
            continue_ := false
        | _ ->
            (* Case B/C: move the largest whole piece across, budget
               permitting, and iterate. *)
            let piece =
              List.fold_left (fun acc p -> if p.State.size > acc.State.size then p else acc)
                (List.hd pieces) pieces
            in
            let cost =
              max 1
                (List.length
                   (List.sort_uniq compare (List.map (fun b -> b.State.bnode) piece.bounds)))
            in
            if piece.State.size <= !remaining && !budget_recv >= cost then begin
              State.detach st ~vertex:donor_leaf piece;
              Moves.move_whole st ~max_level:i ~floor_level:(i - 1) piece ~dest:receiver_new;
              Obs.incr c_whole;
              Obs.add c_nodes piece.State.size;
              budget_recv := !budget_recv - cost;
              remaining := !remaining - piece.State.size
            end
            else continue_ := false
      end
    done
  end
