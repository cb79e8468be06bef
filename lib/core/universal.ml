open Xt_obs
open Xt_topology
open Xt_bintree
open Xt_embedding

type t = { graph : Graph.t; xt : Xtree.t; height : int; slots : int }

let degree_bound = 415

let slot_vertex_raw slots a mu = (a * slots) + mu

let create ?(slots = 16) height =
  Obs.span ~arg:height "universal.create" @@ fun () ->
  let xt = Xtree.create ~height in
  let order = Xtree.order xt in
  let edges = ref [] in
  for a = 0 to order - 1 do
    (* clique inside a vertex *)
    for mu = 0 to slots - 1 do
      for nu = mu + 1 to slots - 1 do
        edges := (slot_vertex_raw slots a mu, slot_vertex_raw slots a nu) :: !edges
      done
    done;
    (* complete bipartite towards every member of N(a) *)
    List.iter
      (fun b ->
        if b <> a then
          for mu = 0 to slots - 1 do
            for nu = 0 to slots - 1 do
              edges := (slot_vertex_raw slots a mu, slot_vertex_raw slots b nu) :: !edges
            done
          done)
      (Xtree.neighbourhood xt a)
  done;
  { graph = Graph.of_edges ~n:(order * slots) !edges; xt; height; slots }

let order t = Graph.n t.graph

let slot_vertex t ~xvertex ~slot =
  if slot < 0 || slot >= t.slots then invalid_arg "Universal.slot_vertex";
  slot_vertex_raw t.slots xvertex slot

let spanning_tree_of t tree =
  let n = Bintree.n tree in
  if n > order t then Error "guest larger than the universal graph"
  else begin
    let res = Theorem1.embed ~capacity:t.slots ~height:t.height tree in
    (* remove any fallback-induced (3') violations; load is preserved *)
    let res, _ = Repair.improve_theorem1 res in
    let next_slot = Array.make (Xtree.order t.xt) 0 in
    let place = Array.make n (-1) in
    for v = 0 to n - 1 do
      let a = res.Theorem1.embedding.Embedding.place.(v) in
      let mu = next_slot.(a) in
      next_slot.(a) <- mu + 1;
      place.(v) <- slot_vertex_raw t.slots a mu
    done;
    let missing =
      List.find_opt (fun (u, v) -> not (Graph.has_edge t.graph place.(u) place.(v))) (Bintree.edges tree)
    in
    match missing with
    | None -> Ok place
    | Some (u, v) ->
        Error
          (Printf.sprintf "guest edge %d-%d maps to non-adjacent slots (%s to %s)" u v
             (Xtree.to_string res.Theorem1.embedding.Embedding.place.(u))
             (Xtree.to_string res.Theorem1.embedding.Embedding.place.(v)))
  end
