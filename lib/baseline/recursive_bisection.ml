open Xt_topology
open Xt_bintree
open Xt_embedding
open Xt_core

type result = { embedding : Embedding.t; xt : Xtree.t; height : int }

type cache_meta = { m_xt : Xtree.t; m_height : int }

type cache = cache_meta Shape_memo.t

let make_cache ?capacity ?max_bytes () = Shape_memo.create ?capacity ?max_bytes ()

(* A piece here is just a component node list; boundaries are recomputed
   against [place] on demand. *)
let frontier_nodes tree place nodes =
  List.filter
    (fun v ->
      let adj = ref false in
      Bintree.iter_neighbours tree v (fun w -> if place.(w) >= 0 then adj := true);
      !adj)
    nodes

let embed_uncached ~capacity tree =
  let n = Bintree.n tree in
  let height = Theorem1.height_for ~capacity n in
  let xt = Xtree.create ~height in
  let place = Array.make n (-1) in
  let ws = Separator.make_ws tree in
  (* Peel up to [capacity] frontier nodes of [nodes] and place them at
     [vertex]; returns the remaining nodes. *)
  let fill vertex nodes =
    let remaining = ref nodes and placed = ref 0 in
    let continue_ = ref true in
    while !continue_ && !placed < capacity && !remaining <> [] do
      match frontier_nodes tree place !remaining with
      | [] ->
          (* nothing placed yet anywhere near: seed with the first node *)
          let v = List.hd !remaining in
          place.(v) <- vertex;
          incr placed;
          remaining := List.filter (fun w -> w <> v) !remaining
      | fs ->
          let take = min (capacity - !placed) (List.length fs) in
          let chosen = List.filteri (fun i _ -> i < take) fs in
          List.iter (fun v -> place.(v) <- vertex) chosen;
          placed := !placed + take;
          remaining := List.filter (fun v -> place.(v) < 0) !remaining;
          if take = 0 then continue_ := false
    done;
    !remaining
  in
  (* Split [nodes] into two bags of roughly equal size: greedy assignment
     of components, then one Lemma 2 correction on the largest piece of
     the heavy bag. No cross-boundary repair ever happens afterwards. *)
  let bisect nodes =
    let comps = Separator.components ws ~nodes ~removed:[] in
    let sized = List.map (fun c -> (List.length c, c)) comps in
    let sorted = List.sort (fun (a, _) (b, _) -> compare b a) sized in
    let s0 = ref 0 and s1 = ref 0 and b0 = ref [] and b1 = ref [] in
    List.iter
      (fun (s, c) ->
        if !s0 <= !s1 then begin
          s0 := !s0 + s;
          b0 := c :: !b0
        end
        else begin
          s1 := !s1 + s;
          b1 := c :: !b1
        end)
      sorted;
    let delta = (max !s0 !s1 - min !s0 !s1) / 2 in
    if delta > 0 then begin
      let heavy, light, hs, ls =
        if !s0 >= !s1 then (b0, b1, s0, s1) else (b1, b0, s1, s0)
      in
      match List.sort (fun a b -> compare (List.length b) (List.length a)) !heavy with
      | biggest :: rest when List.length biggest > 1 ->
          let r1 =
            match frontier_nodes tree place biggest with v :: _ -> v | [] -> List.hd biggest
          in
          let piece = { Separator.nodes = biggest; r1; r2 = None } in
          let target = min delta (List.length biggest - 1) in
          if target > 0 then begin
            let sp = Separator.lemma2 ws piece ~target in
            let keep = sp.Separator.s1 @ sp.Separator.t1
            and move = sp.Separator.s2 @ sp.Separator.t2 in
            heavy := keep :: rest;
            light := move :: !light;
            hs := !hs - List.length move;
            ls := !ls + List.length move
          end
      | _ -> ()
    end;
    (List.concat !b0, List.concat !b1)
  in
  let rec go vertex nodes =
    if nodes <> [] then begin
      if Xtree.level vertex = height then
        (* bottom: everything lands here, load grows *)
        List.iter (fun v -> place.(v) <- vertex) nodes
      else begin
        let rest = fill vertex nodes in
        let left, right = bisect rest in
        go (Xtree.child vertex 0) left;
        go (Xtree.child vertex 1) right
      end
    end
  in
  go Xtree.root (List.init n Fun.id);
  let embedding = Embedding.make ~tree ~host:(Xtree.graph xt) ~place in
  { embedding; xt; height }

let embed ?(capacity = 16) ?cache tree =
  match cache with
  | None -> embed_uncached ~capacity tree
  | Some memo ->
      let prefix = Printf.sprintf "base-bisect|c=%d" capacity in
      let place, m =
        Shape_memo.memo memo ~prefix ~tree ~compute:(fun () ->
            let r = embed_uncached ~capacity tree in
            (r.embedding.Embedding.place, { m_xt = r.xt; m_height = r.height }))
      in
      {
        embedding = Embedding.make ~tree ~host:(Xtree.graph m.m_xt) ~place;
        xt = m.m_xt;
        height = m.m_height;
      }
