open Xt_obs

type t = {
  n : int;
  m : int;
  row : int array; (* length n+1, CSR row offsets *)
  col : int array; (* length 2*m, sorted within each row *)
  eid : int array; (* length 2*m, edge id of (u, col.(k)); both directions share one id *)
  mutable routes : Bytes.t array;
      (* next-hop table: [||] until the first route is asked for, then one
         row per destination, [no_row] until that row is built *)
  mutable queue : int array; (* BFS queue for row builds, allocated with [routes] *)
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

(* Linear-time CSR build. Bucket every directed copy of every edge by
   its source ([raw], rows unsorted, repeats kept); then walk the
   buckets in ascending vertex order and append each bucket's vertex to
   the rows of its members. That transposes [raw] into rows that come
   out sorted, with the repeats of a pair adjacent and so dropped as they
   arrive; the rows are then packed into [col]. *)
let of_edges ~n edges =
  if n < 0 then invalid_arg "Graph.of_edges: negative n";
  (* [start.(u)] is row [u]'s first slot in [raw] and [sorted]: count
     each row's entries one slot up, then sum the counts *)
  let start = Array.make (n + 1) 0 in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Graph.of_edges: endpoint out of range";
      if u <> v then begin
        start.(u + 1) <- start.(u + 1) + 1;
        start.(v + 1) <- start.(v + 1) + 1
      end)
    edges;
  for u = 0 to n - 1 do
    start.(u + 1) <- start.(u + 1) + start.(u)
  done;
  let raw = Array.make start.(n) 0 in
  let fill = Array.sub start 0 n in
  let push a u v =
    a.(fill.(u)) <- v;
    fill.(u) <- fill.(u) + 1
  in
  List.iter
    (fun (u, v) ->
      if u <> v then begin
        push raw u v;
        push raw v u
      end)
    edges;
  let sorted = Array.make start.(n) 0 in
  Array.blit start 0 fill 0 n;
  for v = 0 to n - 1 do
    for k = start.(v) to start.(v + 1) - 1 do
      let u = raw.(k) in
      if fill.(u) = start.(u) || sorted.(fill.(u) - 1) <> v then push sorted u v
    done
  done;
  let row = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    row.(u + 1) <- row.(u) + fill.(u) - start.(u)
  done;
  let col = Array.make row.(n) 0 in
  for u = 0 to n - 1 do
    Array.blit sorted start.(u) col row.(u) (row.(u + 1) - row.(u))
  done;
  (* Edge ids: number the (u < v) edges in row order, then stamp the
     (v, u) direction. Visiting u in ascending order reaches each row v's
     entries below v in their sorted order, so a cursor per row finds
     them. *)
  let eid = Array.make row.(n) (-1) in
  let next = ref 0 in
  Array.blit row 0 fill 0 n;
  for u = 0 to n - 1 do
    for k = row.(u) to row.(u + 1) - 1 do
      let v = col.(k) in
      if v > u then begin
        eid.(k) <- !next;
        eid.(fill.(v)) <- !next;
        fill.(v) <- fill.(v) + 1;
        incr next
      end
    done
  done;
  { n; m = !next; row; col; eid; routes = [||]; queue = [||] }

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

let first_slot g v = g.row.(v)
let slot_target g k = g.col.(k)
let slot_edge g k = g.eid.(k)

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
   shares it and it is freed with the graph. *)

let no_port = 0xFFFF
let no_row = Bytes.empty

(* Counted under the simulator's namespace: its router is this table's
   only client. *)
let c_route_rows = Obs.counter "netsim.route_rows"

let routes g =
  if Array.length g.routes <> g.n then begin
    if max_degree g > no_port then invalid_arg "Graph.route_slot: degree above 65535";
    g.routes <- Array.make g.n no_row;
    g.queue <- Array.make g.n 0
  end;
  g.routes

(* The FIFO BFS of [bfs_parents] from [dst], over the same sorted
   adjacency, so every port names the [bfs_parents] parent. Stores the
   row in the table and returns it. *)
let build_row g dst =
  let row = Bytes.make (2 * g.n) '\xff' in
  let queue = g.queue in
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
  g.routes.(dst) <- row;
  row

let route_slot g ~current ~dst =
  let row = (routes g).(dst) in
  let row = if row != no_row then row else build_row g dst in
  let p = Bytes.get_uint16_ne row (2 * current) in
  if p = no_port then -1 else g.row.(current) + p

let warm_routes g =
  Array.iteri (fun dst row -> if row == no_row then ignore (build_row g dst : Bytes.t)) (routes g)

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
