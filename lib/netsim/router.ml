open Xt_topology

(* Every route is a slot of the host graph (one direction of one edge,
   see [Graph.first_slot]), picked in one of two modes fixed at
   [create]:

   - Tree hosts (m = n-1, connected — in particular every native
     guest-tree run): shortest paths are unique, so the next hop is
     forced. One preorder DFS from vertex 0 over the sorted adjacency
     numbers every vertex ([pre]), records the largest number in its
     subtree ([last]) and the slot of its parent edge ([up]). A hop
     descends iff [dst]'s number lies in [current]'s subtree interval,
     into the child whose interval holds it; otherwise it climbs. O(n)
     memory and no per-destination state — a next-hop table would cost
     O(n^2) memory on large native guests (tens of GB at n = 32k in the
     D2 sweep).

   - General hosts (X-trees, hypercubes, ...): the host graph's own
     next-hop table ([Graph.route_slot]). Each row is built by whichever
     router first needs it, then reused by every simulator on the host.

   Both modes follow BFS-tree routes, so on a tree they agree exactly
   (the unique path *is* the BFS path) and routing stays deterministic.
   A slot becomes the simulator's directed link, 2·eid + dir, through
   [slot_link], filled with [link_dst] by one pass over the slots at
   [create]. Neither mode allocates after warm-up: the descent below is
   a recursive function over int arrays, not a closure. *)

type t = {
  graph : Graph.t;
  tree : bool;
  pre : int array;        (* tree: preorder number of each vertex *)
  last : int array;       (* tree: largest preorder number in its subtree *)
  up : int array;         (* tree: slot of the parent edge; max_int at the root *)
  slot_link : int array;  (* slot -> directed link *)
  link_dst : int array;   (* directed link -> its receiving endpoint *)
}

(* The preorder DFS of tree mode, from vertex 0, children taken in slot
   order so their numbers ascend with their slots. Returns [None] unless
   it reaches every vertex, which with m = n-1 makes the host a tree. On
   a tree the one numbered neighbour met while scanning a row is the
   parent. *)
let preorder g =
  let n = Graph.n g in
  let pre = Array.make n (-1) and last = Array.make n 0 and up = Array.make n max_int in
  (* the DFS path: its vertices and each one's next slot to scan *)
  let path = Array.make n 0 and cursor = Array.make n 0 in
  pre.(0) <- 0;
  cursor.(0) <- Graph.first_slot g 0;
  let depth = ref 1 and count = ref 1 in
  while !depth > 0 do
    let v = path.(!depth - 1) and k = cursor.(!depth - 1) in
    if k = Graph.first_slot g (v + 1) then begin
      last.(v) <- !count - 1;
      decr depth
    end
    else begin
      cursor.(!depth - 1) <- k + 1;
      let w = Graph.slot_target g k in
      if pre.(w) >= 0 then up.(v) <- k
      else begin
        pre.(w) <- !count;
        incr count;
        path.(!depth) <- w;
        cursor.(!depth) <- Graph.first_slot g w;
        incr depth
      end
    end
  done;
  if !count = n then Some (pre, last, up) else None

let create graph =
  let n = Graph.n graph and m = Graph.m graph in
  let slot_link = Array.make (2 * m) 0 and link_dst = Array.make (2 * m) 0 in
  for v = 0 to n - 1 do
    for k = Graph.first_slot graph v to Graph.first_slot graph (v + 1) - 1 do
      let w = Graph.slot_target graph k in
      let l = (2 * Graph.slot_edge graph k) + if v < w then 0 else 1 in
      slot_link.(k) <- l;
      link_dst.(l) <- w
    done
  done;
  match if n > 0 && m = n - 1 then preorder graph else None with
  | Some (pre, last, up) -> { graph; tree = true; pre; last; up; slot_link; link_dst }
  | None -> { graph; tree = false; pre = [||]; last = [||]; up = [||]; slot_link; link_dst }

(* Tree-mode routers are complete after [create]; warming one is a
   no-op. *)
let warm t = if not t.tree then Graph.warm_routes t.graph

(* The slot of the [i]-th child of a vertex whose row starts at slot [lo]
   and whose parent edge is slot [q]. *)
let[@inline] child lo q i = if lo + i < q then lo + i else lo + i + 1

(* Of children [a .. b], the last whose preorder number is at most [p]:
   its subtree holds [p]. Child [a]'s number is at most [p]. *)
let rec descend t lo q p a b =
  if a = b then child lo q a
  else begin
    let mid = (a + b + 1) lsr 1 in
    let k = child lo q mid in
    if t.pre.(Graph.slot_target t.graph k) <= p then descend t lo q p mid b
    else descend t lo q p a (mid - 1)
  end

(* The slot of the next hop, or -1 if [dst] is unreachable. *)
let route t ~current ~dst =
  if t.tree then begin
    let p = t.pre.(dst) in
    let q = t.up.(current) in
    if t.pre.(current) < p && p <= t.last.(current) then begin
      let lo = Graph.first_slot t.graph current in
      let kids = Graph.first_slot t.graph (current + 1) - lo - if q = max_int then 0 else 1 in
      descend t lo q p 0 (kids - 1)
    end
    else q
  end
  else Graph.route_slot t.graph ~current ~dst

let next_slot t ~current ~dst =
  if current = dst then invalid_arg "Router.next_hop: already there";
  let k = route t ~current ~dst in
  if k < 0 then invalid_arg "Router.next_hop: unreachable";
  k

let next_hop t ~current ~dst = Graph.slot_target t.graph (next_slot t ~current ~dst)
let next_link t ~current ~dst = t.slot_link.(next_slot t ~current ~dst)
let link_dst t l = t.link_dst.(l)

let rec walk t at dst hops =
  if at = dst then hops
  else begin
    let k = route t ~current:at ~dst in
    if k < 0 then -1 else walk t (Graph.slot_target t.graph k) dst (hops + 1)
  end

let path_length t ~src ~dst = walk t src dst 0
