open Xt_obs

type t = {
  n : int;
  m : int;
  row : int array; (* length n+1, CSR row offsets *)
  col : int array; (* length 2*m, sorted within each row *)
  eid : int array; (* length 2*m, edge id of (u, col.(k)); both directions share one id *)
  routes : Bytes.t Atomic.t array Atomic.t;
      (* next-hop table: [||] until the first route is asked for, then one
         slot per destination, [no_row] until that row is complete *)
  queue : int array Atomic.t; (* spare BFS queue for row builds *)
}

(* [slot g u v] is the CSR position of [v] in [u]'s sorted adjacency, or
   [-1]. *)
let slot g u v =
  let lo = ref g.row.(u) and hi = ref (g.row.(u + 1) - 1) in
  let pos = ref (-1) in
  while !pos < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w = g.col.(mid) in
    if w = v then pos := mid else if w < v then lo := mid + 1 else hi := mid - 1
  done;
  !pos

let of_edges ~n edges =
  if n < 0 then invalid_arg "Graph.of_edges: negative n";
  let check v = if v < 0 || v >= n then invalid_arg "Graph.of_edges: endpoint out of range" in
  (* Normalise: drop self-loops, orient u < v, dedupe. *)
  let normalised =
    List.filter_map
      (fun (u, v) ->
        check u;
        check v;
        if u = v then None else Some (min u v, max u v))
      edges
  in
  let sorted = List.sort_uniq compare normalised in
  let m = List.length sorted in
  let deg = Array.make n 0 in
  List.iter
    (fun (u, v) ->
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    sorted;
  let row = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    row.(i + 1) <- row.(i) + deg.(i)
  done;
  let col = Array.make (2 * m) 0 in
  let cursor = Array.copy row in
  let push u v =
    col.(cursor.(u)) <- v;
    cursor.(u) <- cursor.(u) + 1
  in
  List.iter
    (fun (u, v) ->
      push u v;
      push v u)
    sorted;
  for i = 0 to n - 1 do
    let lo = row.(i) and hi = row.(i + 1) in
    let slice = Array.sub col lo (hi - lo) in
    Array.sort compare slice;
    Array.blit slice 0 col lo (hi - lo)
  done;
  (* Edge ids: number the (u < v) edges in sorted order, then stamp both
     CSR directions so hot paths can index edge-keyed arrays in O(1). *)
  let eid = Array.make (2 * m) (-1) in
  let g = { n; m; row; col; eid; routes = Atomic.make [||]; queue = Atomic.make [||] } in
  let next = ref 0 in
  for u = 0 to n - 1 do
    for k = row.(u) to row.(u + 1) - 1 do
      if col.(k) > u then begin
        eid.(k) <- !next;
        incr next
      end
    done
  done;
  (* second pass: mirror ids onto the (v, u) direction *)
  for u = 0 to n - 1 do
    for k = row.(u) to row.(u + 1) - 1 do
      let v = col.(k) in
      if v > u then eid.(slot g v u) <- eid.(k)
    done
  done;
  g

let n g = g.n
let m g = g.m
let degree g v = g.row.(v + 1) - g.row.(v)

let max_degree g =
  let best = ref 0 in
  for v = 0 to g.n - 1 do
    if degree g v > !best then best := degree g v
  done;
  !best

let neighbours g v = Array.sub g.col g.row.(v) (degree g v)

let iter_neighbours g v f =
  for i = g.row.(v) to g.row.(v + 1) - 1 do
    f g.col.(i)
  done

let iter_neighbours_e g v f =
  for i = g.row.(v) to g.row.(v + 1) - 1 do
    f g.col.(i) g.eid.(i)
  done

let edge_index g u v =
  let lo = ref g.row.(u) and hi = ref (g.row.(u + 1) - 1) in
  let pos = ref (-1) in
  while !pos < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w = g.col.(mid) in
    if w = v then pos := mid else if w < v then lo := mid + 1 else hi := mid - 1
  done;
  if !pos < 0 then invalid_arg "Graph.edge_index: not an edge" else g.eid.(!pos)

let has_edge g u v =
  let lo = ref g.row.(u) and hi = ref (g.row.(u + 1) - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w = g.col.(mid) in
    if w = v then found := true else if w < v then lo := mid + 1 else hi := mid - 1
  done;
  !found

let iter_edges g f =
  for u = 0 to g.n - 1 do
    iter_neighbours g u (fun v -> if u < v then f u v)
  done

let bfs g s =
  let dist = Array.make g.n (-1) in
  let queue = Queue.create () in
  dist.(s) <- 0;
  Queue.add s queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    iter_neighbours g u (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v queue
        end)
  done;
  dist

let bfs_parents g s =
  let dist = Array.make g.n (-1) in
  let parent = Array.make g.n (-1) in
  let queue = Queue.create () in
  dist.(s) <- 0;
  parent.(s) <- s;
  Queue.add s queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    iter_neighbours g u (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          parent.(v) <- u;
          Queue.add v queue
        end)
  done;
  (dist, parent)

(* ------------------------------------------------------------------ *)
(* Shared next-hop table                                               *)
(* ------------------------------------------------------------------ *)

(* Row [dst] holds, for every vertex [v], the port of [v]'s next hop
   towards [dst]: that hop's position in [v]'s sorted adjacency, as a
   native-endian uint16 ([no_port] when [v = dst] or [dst] is
   unreachable). A row costs 2n bytes, a full table 2n^2, and the table
   lives on the graph value, so every router and simulator on this graph
   shares it and it is freed with the graph. Each row is built whole
   into a fresh buffer and only then published through its [Atomic]
   slot, so two domains may route on one graph at once: a reader sees
   either [no_row] (and builds the row itself; both builds are
   identical) or a complete row. *)

let no_port = 0xFFFF
let no_row = Bytes.empty

(* Counted under the simulator's namespace: its router is this table's
   only client. *)
let c_route_rows = Obs.counter "netsim.route_rows"

let routes g =
  let table = Atomic.get g.routes in
  if Array.length table = g.n then table
  else begin
    if max_degree g > no_port then invalid_arg "Graph.next_hop: degree above 65535";
    let fresh = Array.init g.n (fun _ -> Atomic.make no_row) in
    if Atomic.compare_and_set g.routes table fresh then fresh else Atomic.get g.routes
  end

(* The FIFO BFS of [bfs_parents] from [dst], over the same sorted
   adjacency, so every port names the [bfs_parents] parent. *)
let build_row g queue dst =
  let row = Bytes.make (2 * g.n) '\xff' in
  queue.(0) <- dst;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for k = g.row.(u) to g.row.(u + 1) - 1 do
      let v = g.col.(k) in
      if v <> dst && Bytes.get_uint16_ne row (2 * v) = no_port then begin
        Bytes.set_uint16_ne row (2 * v) (slot g v u - g.row.(v));
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  Obs.incr c_route_rows;
  row

(* Build row [dst] and publish it in [cell]. The spare queue is taken
   rather than shared: a domain that finds it taken builds with a fresh
   one. *)
let publish g cell dst =
  let queue = Atomic.exchange g.queue [||] in
  let queue = if Array.length queue = g.n then queue else Array.make g.n 0 in
  let row = build_row g queue dst in
  Atomic.set g.queue queue;
  Atomic.set cell row;
  row

let next_hop g ~current ~dst =
  let cell = (routes g).(dst) in
  let row = Atomic.get cell in
  let row = if row != no_row then row else publish g cell dst in
  let p = Bytes.get_uint16_ne row (2 * current) in
  if p = no_port then -1 else g.col.(g.row.(current) + p)

let warm_routes g =
  Array.iteri
    (fun dst cell -> if Atomic.get cell == no_row then ignore (publish g cell dst : Bytes.t))
    (routes g)

let distance g u v = (bfs g u).(v)

let is_connected g =
  if g.n = 0 then true
  else begin
    let dist = bfs g 0 in
    Array.for_all (fun d -> d >= 0) dist
  end

let diameter g =
  if g.n = 0 then -1
  else begin
    let best = ref 0 and disconnected = ref false in
    for s = 0 to g.n - 1 do
      let dist = bfs g s in
      Array.iter (fun d -> if d < 0 then disconnected := true else if d > !best then best := d) dist
    done;
    if !disconnected then -1 else !best
  end

let subgraph_respects g edges = List.for_all (fun (u, v) -> has_edge g u v) edges
