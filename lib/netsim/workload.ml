open Xt_topology
open Xt_bintree
open Xt_embedding

(* The workload protocols are written once, against the minimal
   simulator interface below, and instantiated twice: over [Sim] (the
   active-set core everyone uses) and — in the equivalence tests and the
   bench speedup record — over [Sim_ref], the retained sweep core. *)

module type CORE = sig
  type t

  val create : ?link_capacity:int -> ?service_rate:int -> Graph.t -> t
  val send : t -> src:int -> dst:int -> tag:int -> unit
  val run : t -> on_deliver:(tag:int -> t -> unit) -> int
end

module Make (C : CORE) = struct
  type spec = {
    name : string;
    run : C.t -> place:int array -> tree:Bintree.t -> int;
  }

  (* Tags identify the receiving guest node; per-workload bookkeeping maps a
     delivery back to protocol state. *)

  let reduction =
    let run sim ~place ~tree =
      let pending = Array.make (Bintree.n tree) 0 in
      for v = 0 to Bintree.n tree - 1 do
        pending.(v) <- List.length (Bintree.children tree v)
      done;
      let send_up v sim =
        match Bintree.parent tree v with
        | Some p -> C.send sim ~src:place.(v) ~dst:place.(p) ~tag:p
        | None -> ()
      in
      for v = 0 to Bintree.n tree - 1 do
        if Bintree.is_leaf tree v then send_up v sim
      done;
      let on_deliver ~tag sim =
        pending.(tag) <- pending.(tag) - 1;
        if pending.(tag) = 0 then send_up tag sim
      in
      C.run sim ~on_deliver
    in
    { name = "reduction"; run }

  let broadcast =
    let run sim ~place ~tree =
      let send_down v sim =
        List.iter (fun c -> C.send sim ~src:place.(v) ~dst:place.(c) ~tag:c) (Bintree.children tree v)
      in
      send_down (Bintree.root tree) sim;
      C.run sim ~on_deliver:(fun ~tag sim -> send_down tag sim)
    in
    { name = "broadcast"; run }

  let all_reduce =
    let run sim ~place ~tree =
      let pending = Array.make (Bintree.n tree) 0 in
      for v = 0 to Bintree.n tree - 1 do
        pending.(v) <- List.length (Bintree.children tree v)
      done;
      let send_down v sim =
        List.iter
          (fun c -> C.send sim ~src:place.(v) ~dst:place.(c) ~tag:c)
          (Bintree.children tree v)
      in
      let send_up v sim =
        match Bintree.parent tree v with
        | Some p -> C.send sim ~src:place.(v) ~dst:place.(p) ~tag:p
        | None -> send_down v sim (* root turns the wave around *)
      in
      for v = 0 to Bintree.n tree - 1 do
        if Bintree.is_leaf tree v then send_up v sim
      done;
      let on_deliver ~tag sim =
        if pending.(tag) > 0 then begin
          (* still combining upwards *)
          pending.(tag) <- pending.(tag) - 1;
          if pending.(tag) = 0 then send_up tag sim
        end
        else send_down tag sim (* broadcast phase *)
      in
      C.run sim ~on_deliver
    in
    { name = "all-reduce"; run }

  let pingpong_sweep =
    let run sim ~place ~tree =
      let edges = Array.of_list (Bintree.edges tree) in
      let idx = ref 0 in
      let launch sim =
        if !idx < Array.length edges then begin
          let u, v = edges.(!idx) in
          incr idx;
          (* request tagged with the responder, reply handled on delivery *)
          C.send sim ~src:place.(u) ~dst:place.(v) ~tag:(Bintree.n tree + v)
        end
      in
      let on_deliver ~tag sim =
        if tag >= Bintree.n tree then begin
          (* request arrived: reply to the requester = parent of responder *)
          let v = tag - Bintree.n tree in
          match Bintree.parent tree v with
          | Some u -> C.send sim ~src:place.(v) ~dst:place.(u) ~tag:u
          | None -> launch sim
        end
        else launch sim (* reply arrived: next edge *)
      in
      launch sim;
      C.run sim ~on_deliver
    in
    { name = "pingpong-sweep"; run }

  let permutation =
    (* every guest node fires one message to its antipode in id space: a
       fixed derangement, dense all-to-all-ish traffic that is NOT aligned
       with the tree structure — a congestion stress test *)
    let run sim ~place ~tree =
      let n = Bintree.n tree in
      if n > 1 then
        for v = 0 to n - 1 do
          let w = (v + (n / 2)) mod n in
          if w <> v then C.send sim ~src:place.(v) ~dst:place.(w) ~tag:w
        done;
      C.run sim ~on_deliver:(fun ~tag:_ _ -> ())
    in
    { name = "permutation"; run }

  let workloads = [ reduction; broadcast; all_reduce; pingpong_sweep; permutation ]
  let guest_graph tree = Graph.of_edges ~n:(Bintree.n tree) (Bintree.edges tree)

  let run_native ?link_capacity ?service_rate spec tree =
    let sim = C.create ?link_capacity ?service_rate (guest_graph tree) in
    let place = Array.init (Bintree.n tree) Fun.id in
    spec.run sim ~place ~tree

  let run_embedded ?link_capacity ?service_rate spec (e : Embedding.t) =
    let sim = C.create ?link_capacity ?service_rate e.host in
    spec.run sim ~place:e.place ~tree:e.tree

  let run_on ?link_capacity ?service_rate spec (e : Embedding.t) =
    let sim = C.create ?link_capacity ?service_rate e.host in
    let cycles = spec.run sim ~place:e.place ~tree:e.tree in
    (sim, cycles)

  let slowdown spec e =
    let native = run_native spec e.Embedding.tree in
    let embedded = run_embedded spec e in
    if native = 0 then 1.0 else float_of_int embedded /. float_of_int native
end

include Make (Sim)

(* ------------------------------------------------------------------ *)
(* Suite replay                                                        *)
(* ------------------------------------------------------------------ *)

type case = {
  label : string;
  workload : spec;
  tree : Bintree.t;
  embedding : Embedding.t option;
}

type outcome = {
  case : case;
  cycles : int;
  delivered : int;
  hops : int;
  max_queue : int;
  max_inbox : int;
  seconds : float;
}

let native_case ?label workload tree =
  let label = match label with Some l -> l | None -> workload.name ^ "/native" in
  { label; workload; tree; embedding = None }

let embedded_case ?label workload (e : Embedding.t) =
  let label = match label with Some l -> l | None -> workload.name ^ "/embedded" in
  { label; workload; tree = e.tree; embedding = Some e }

let run_case ?link_capacity ?service_rate case =
  Xt_obs.Obs.span "netsim.case" @@ fun () ->
  let sim, place =
    match case.embedding with
    | None ->
        ( Sim.create ?link_capacity ?service_rate (guest_graph case.tree),
          Array.init (Bintree.n case.tree) Fun.id )
    | Some e -> (Sim.create ?link_capacity ?service_rate e.host, e.place)
  in
  let t0 = Xt_obs.Obs.now_ns () in
  let cycles = case.workload.run sim ~place ~tree:case.tree in
  let t1 = Xt_obs.Obs.now_ns () in
  let hops = Array.fold_left ( + ) 0 (Sim.link_loads sim) in
  {
    case;
    cycles;
    delivered = Sim.delivered sim;
    hops;
    max_queue = Sim.max_link_queue sim;
    max_inbox = Sim.max_inbox_queue sim;
    seconds = float_of_int (t1 - t0) *. 1e-9;
  }

let run_suite ?link_capacity ?service_rate cases =
  List.map (run_case ?link_capacity ?service_rate) cases
