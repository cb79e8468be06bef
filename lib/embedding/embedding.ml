open Xt_obs
open Xt_topology
open Xt_bintree

type t = { tree : Bintree.t; host : Graph.t; place : int array }

let make ~tree ~host ~place =
  if Array.length place <> Bintree.n tree then
    invalid_arg "Embedding.make: place size does not match guest size";
  Array.iter
    (fun v -> if v < 0 || v >= Graph.n host then invalid_arg "Embedding.make: place out of host range")
    place;
  { tree; host; place }

let guest_size e = Bintree.n e.tree
let host_size e = Graph.n e.host

let disconnected fn e (u, v) =
  invalid_arg
    (Printf.sprintf "Embedding.%s: guest edge %d-%d lies on host vertices %d and %d, which are disconnected"
       fn u v e.place.(u) e.place.(v))

let edge_dilations ~dist e =
  Array.of_list
    (List.map
       (fun (u, v) ->
         let d = dist e.place.(u) e.place.(v) in
         if d < 0 then disconnected "dilation" e (u, v);
         d)
       (Bintree.edges e.tree))

let dilation ~dist e = Array.fold_left max 0 (edge_dilations ~dist e)

let mean ds =
  if Array.length ds = 0 then 0.
  else float_of_int (Array.fold_left ( + ) 0 ds) /. float_of_int (Array.length ds)

let average_dilation ~dist e = mean (edge_dilations ~dist e)

let loads e =
  let l = Array.make (Graph.n e.host) 0 in
  Array.iter (fun v -> l.(v) <- l.(v) + 1) e.place;
  l

let load e = Array.fold_left max 0 (loads e)

let expansion e = float_of_int (host_size e) /. float_of_int (guest_size e)

let is_injective e = load e <= 1

(* Each guest edge {u, v} is routed on the FIFO BFS tree of u's image
   over sorted adjacency (as [Graph.bfs_parents] builds it). The BFS
   stops once v's image is discovered: every vertex found by then already
   has its full-BFS parent, so the route is the same. [seen] stamps a
   vertex with the index of the guest edge whose BFS found it, so the
   scratch is never cleared; [via] keeps the id of the tree edge to its
   parent, so usage counts go into a dense edge-indexed array. *)
let congestion e =
  let host = e.host in
  let n = Graph.n host in
  let seen = Array.make n (-1) and parent = Array.make n 0 and via = Array.make n 0 in
  let queue = Array.make n 0 and tail = ref 0 in
  let usage = Array.make (Graph.m host) 0 in
  let stamp = ref 0 and from = ref 0 in
  let discover w eid =
    if seen.(w) <> !stamp then begin
      seen.(w) <- !stamp;
      parent.(w) <- !from;
      via.(w) <- eid;
      queue.(!tail) <- w;
      incr tail
    end
  in
  List.iteri
    (fun i (u, v) ->
      let s = e.place.(u) and t = e.place.(v) in
      if s <> t then begin
        stamp := i;
        seen.(s) <- i;
        queue.(0) <- s;
        tail := 1;
        let head = ref 0 in
        while seen.(t) <> i && !head < !tail do
          from := queue.(!head);
          incr head;
          Graph.iter_neighbours_e host !from discover
        done;
        if seen.(t) <> i then disconnected "congestion" e (u, v);
        let w = ref t in
        while !w <> s do
          usage.(via.(!w)) <- usage.(via.(!w)) + 1;
          w := parent.(!w)
        done
      end)
    (Bintree.edges e.tree);
  Array.fold_left max 0 usage

type report = {
  dilation : int;
  average_dilation : float;
  load : int;
  expansion : float;
  congestion : int;
  injective : bool;
}

let report ~dist e =
  Obs.span "embedding.report" @@ fun () ->
  let ds = edge_dilations ~dist e in
  {
    dilation = Array.fold_left max 0 ds;
    average_dilation = mean ds;
    load = load e;
    expansion = expansion e;
    congestion = congestion e;
    injective = is_injective e;
  }

let pp_report fmt r =
  Format.fprintf fmt "dilation=%d avg=%.2f load=%d expansion=%.3f congestion=%d%s" r.dilation
    r.average_dilation r.load r.expansion r.congestion
    (if r.injective then " injective" else "")

let verify ~dist ?max_dilation ?max_load e =
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  let d = dilation ~dist e in
  let l = load e in
  match (max_dilation, max_load) with
  | Some bound, _ when d > bound -> fail "dilation %d exceeds bound %d" d bound
  | _, Some bound when l > bound -> fail "load %d exceeds bound %d" l bound
  | _ -> Ok ()
