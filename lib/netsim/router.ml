open Xt_topology

(* Two routing modes, picked once at [create]:

   - Tree hosts (m = n-1, connected — in particular every native
     guest-tree run): shortest paths are unique, so the next hop is
     forced. One BFS gives parent and depth; a binary-lifting ancestor
     table gives the descend step. O(n log n) memory total, O(log n)
     per hop, no per-destination state — a next-hop table would cost
     O(n^2) memory on large native guests (tens of GB at n = 32k in the
     D2 sweep).

   - General hosts (X-trees, hypercubes, ...): the host graph's own
     next-hop table ([Graph.next_hop]). Each row is built by whichever
     router first needs it, then reused by every simulator on the host.

   Both modes follow BFS-tree routes, so on a tree they agree exactly
   (the unique path *is* the BFS path) and routing stays deterministic.
   Neither mode allocates after warm-up — the lifting walks below are
   recursive functions over int arrays, not refs, so the simulator's
   Gc.minor_words guards hold in both modes. *)

type t = {
  graph : Graph.t;
  tree : bool;
  parent : int array;            (* tree: parent.(root) = root *)
  depth : int array;
  up : int array array;          (* tree: up.(k).(v) = 2^k-th ancestor *)
  levels : int;
}

let create graph =
  let n = Graph.n graph in
  if n > 0 && Graph.m graph = n - 1 && Graph.is_connected graph then begin
    let dist, parent = Graph.bfs_parents graph 0 in
    let max_depth = Array.fold_left (fun a d -> if d > a then d else a) 0 dist in
    let levels =
      let rec bits k = if 1 lsl k > max_depth then k else bits (k + 1) in
      max 1 (bits 0)
    in
    let up = Array.make levels parent in
    for k = 1 to levels - 1 do
      let prev = up.(k - 1) in
      let row = Array.make n 0 in
      for v = 0 to n - 1 do
        row.(v) <- prev.(prev.(v))
      done;
      up.(k) <- row
    done;
    { graph; tree = true; parent; depth = dist; up; levels }
  end
  else { graph; tree = false; parent = [||]; depth = [||]; up = [||]; levels = 0 }

(* [lift t v d] is the [d]-th ancestor of [v] (tree mode). The helpers
   are top-level (not closures over [t]) so the hot path allocates
   nothing — see the B9 note in EXPERIMENTS.md for the same trap. *)
let rec lift_go t v d k =
  if d = 0 then v
  else if d land (1 lsl k) <> 0 then
    lift_go t t.up.(k).(v) (d lxor (1 lsl k)) (k - 1)
  else lift_go t v d (k - 1)

let lift t v d = lift_go t v d (t.levels - 1)

let rec lca_go t u v k =
  if k < 0 then t.parent.(u)
  else if t.up.(k).(u) <> t.up.(k).(v) then
    lca_go t t.up.(k).(u) t.up.(k).(v) (k - 1)
  else lca_go t u v (k - 1)

(* requires depth u >= depth v *)
let lca_deep t u v =
  let u = lift t u (t.depth.(u) - t.depth.(v)) in
  if u = v then u else lca_go t u v (t.levels - 1)

let lca t u v =
  if t.depth.(u) >= t.depth.(v) then lca_deep t u v else lca_deep t v u

(* Tree-mode routers are complete after [create]; warming one is a
   no-op. *)
let warm t = if not t.tree then Graph.warm_routes t.graph

let next_hop t ~current ~dst =
  if current = dst then invalid_arg "Router.next_hop: already there";
  if t.tree then begin
    (* Descend iff [current] is a proper ancestor of [dst]: the
       ancestor of [dst] one level below [current] is then the forced
       child. Otherwise the unique path climbs towards the LCA. *)
    let d = t.depth.(dst) - t.depth.(current) - 1 in
    if d >= 0 then begin
      let c = lift t dst d in
      if t.parent.(c) = current then c else t.parent.(current)
    end
    else t.parent.(current)
  end
  else begin
    let hop = Graph.next_hop t.graph ~current ~dst in
    if hop < 0 then invalid_arg "Router.next_hop: unreachable";
    hop
  end

let rec walk g at dst hops =
  if at = dst then hops
  else begin
    let hop = Graph.next_hop g ~current:at ~dst in
    if hop < 0 then -1 else walk g hop dst (hops + 1)
  end

let path_length t ~src ~dst =
  if t.tree then t.depth.(src) + t.depth.(dst) - (2 * t.depth.(lca t src dst))
  else walk t.graph src dst 0
