open Xt_obs
open Xt_topology
open Xt_bintree
open Xt_embedding

let c_swaps = Obs.counter "repair.swaps"
let c_fixed = Obs.counter "repair.fixed_violations"

type report = {
  swaps : int;
  violations_before : int;
  violations_after : int;
  dilation_before : int;
  dilation_after : int;
}

(* Edge badness: condition (3') dominates; distances beyond the paper's
   dilation 3 are punished almost as hard (a swap must never trade a (3')
   fix for a new dilation violation); short distances break ties. *)
let edge_cost xt dist a b =
  let upper, lower = if Xtree.level a <= Xtree.level b then (a, b) else (b, a) in
  let in_n = Xtree.in_neighbourhood xt upper lower in
  let d = dist a b in
  (if in_n then 0 else 100) + (if d > 3 then 60 * (d - 3) else 0) + d

let improve ?(max_rounds = 8) xt (e : Embedding.t) =
  let n = Bintree.n e.tree in
  let place = Array.copy e.place in
  let dist = Xtree.distance xt in
  (* nodes living at each vertex, maintained across swaps *)
  let residents = Array.make (Graph.n e.host) [] in
  Array.iteri (fun v p -> residents.(p) <- v :: residents.(p)) place;
  let node_cost v =
    let total = ref 0 in
    Bintree.iter_neighbours e.tree v (fun w -> total := !total + edge_cost xt dist place.(v) place.(w));
    !total
  in
  let violations () =
    let count = ref 0 in
    List.iter
      (fun (u, v) ->
        let a = place.(u) and b = place.(v) in
        let upper, lower = if Xtree.level a <= Xtree.level b then (a, b) else (b, a) in
        if not (Xtree.in_neighbourhood xt upper lower) then incr count)
      (Bintree.edges e.tree);
    !count
  in
  let dilation () =
    List.fold_left
      (fun acc (u, v) -> max acc (dist place.(u) place.(v)))
      0 (Bintree.edges e.tree)
  in
  let violations_before = violations () and dilation_before = dilation () in
  let swaps = ref 0 in
  let swap v w =
    let pv = place.(v) and pw = place.(w) in
    place.(v) <- pw;
    place.(w) <- pv;
    residents.(pv) <- w :: List.filter (fun x -> x <> v) residents.(pv);
    residents.(pw) <- v :: List.filter (fun x -> x <> w) residents.(pw)
  in
  (* try to relocate guest node [v] next to the image of its neighbour
     [anchor_vertex]: candidate hosts are N(anchor) both ways *)
  let try_fix v anchor_vertex =
    let candidates = Xtree.neighbourhood xt anchor_vertex in
    let improved = ref false in
    List.iter
      (fun z ->
        if (not !improved) && z <> place.(v) then
          List.iter
            (fun w ->
              if (not !improved) && w <> v then begin
                let before = node_cost v + node_cost w in
                swap v w;
                let after = node_cost v + node_cost w in
                if after < before then begin
                  improved := true;
                  incr swaps
                end
                else swap v w (* revert *)
              end)
            residents.(z))
      candidates;
    !improved
  in
  let round () =
    let changed = ref false in
    for u = 0 to n - 1 do
      Bintree.iter_neighbours e.tree u (fun v ->
          if u < v then begin
            let a = place.(u) and b = place.(v) in
            let (upper, upper_node), (lower, lower_node) =
              if Xtree.level a <= Xtree.level b then ((a, u), (b, v)) else ((b, v), (a, u))
            in
            if not (Xtree.in_neighbourhood xt upper lower) then begin
              (* move the lower node next to the upper image, or failing
                 that the upper node next to the lower image *)
              if try_fix lower_node upper then changed := true
              else if try_fix upper_node lower then changed := true
            end
          end)
    done;
    !changed
  in
  let rec loop k = if k > 0 && round () then loop (k - 1) in
  Obs.span "repair.improve" (fun () -> loop max_rounds);
  let repaired = Embedding.make ~tree:e.tree ~host:e.host ~place in
  let violations_after = violations () in
  Obs.add c_swaps !swaps;
  Obs.add c_fixed (max 0 (violations_before - violations_after));
  ( repaired,
    {
      swaps = !swaps;
      violations_before;
      violations_after;
      dilation_before;
      dilation_after = dilation ();
    } )

let improve_theorem1 ?max_rounds (r : Theorem1.result) =
  let repaired, report = improve ?max_rounds r.Theorem1.xt r.Theorem1.embedding in
  ({ r with Theorem1.embedding = repaired }, report)
