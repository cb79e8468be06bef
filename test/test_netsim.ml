open Xt_topology
open Xt_bintree
open Xt_core
open Xt_netsim

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let path_host n = Graph.of_edges ~n (List.init (n - 1) (fun i -> (i, i + 1)))

(* ---------------- router ---------------- *)

let test_router_next_hop () =
  let r = Router.create (path_host 5) in
  check "towards 4" 1 (Router.next_hop r ~current:0 ~dst:4);
  check "towards 0" 3 (Router.next_hop r ~current:4 ~dst:0);
  check "path length" 4 (Router.path_length r ~src:0 ~dst:4);
  Alcotest.check_raises "already there" (Invalid_argument "Router.next_hop: already there")
    (fun () -> ignore (Router.next_hop r ~current:2 ~dst:2))

let test_router_shortest () =
  (* a cycle: 0-1-2-3-0; 0 to 2 must take 2 hops *)
  let g = Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  let r = Router.create g in
  check "dist" 2 (Router.path_length r ~src:0 ~dst:2);
  let hop = Router.next_hop r ~current:0 ~dst:2 in
  checkb "a neighbour on a shortest path" true (hop = 1 || hop = 3)

(* ---------------- sim ---------------- *)

let test_sim_single_message () =
  let sim = Sim.create (path_host 5) in
  Sim.send sim ~src:0 ~dst:4 ~tag:0;
  let cycles = Sim.run sim ~on_deliver:(fun ~tag:_ _ -> ()) in
  check "4 hops take 4 cycles" 4 cycles;
  check "delivered" 1 (Sim.delivered sim)

let test_sim_self_send () =
  let sim = Sim.create (path_host 2) in
  Sim.send sim ~src:1 ~dst:1 ~tag:7;
  let got = ref (-1) in
  let cycles = Sim.run sim ~on_deliver:(fun ~tag _ -> got := tag) in
  check "tag seen" 7 !got;
  check "delivered next cycle" 1 cycles

let test_sim_contention () =
  (* two messages over the same directed link: second waits one cycle *)
  let sim = Sim.create (path_host 3) in
  Sim.send sim ~src:0 ~dst:2 ~tag:0;
  Sim.send sim ~src:0 ~dst:2 ~tag:1;
  let cycles = Sim.run sim ~on_deliver:(fun ~tag:_ _ -> ()) in
  check "serialised" 3 cycles;
  checkb "queue built up" true (Sim.max_link_queue sim >= 2)

let test_sim_link_capacity () =
  let mk cap =
    let sim = Sim.create ~link_capacity:cap (path_host 3) in
    Sim.send sim ~src:0 ~dst:2 ~tag:0;
    Sim.send sim ~src:0 ~dst:2 ~tag:1;
    Sim.run sim ~on_deliver:(fun ~tag:_ _ -> ())
  in
  check "capacity 2 avoids serialisation" 2 (mk 2);
  check "capacity 1 serialises" 3 (mk 1)

let test_sim_cascade () =
  (* deliveries that trigger further sends *)
  let sim = Sim.create (path_host 4) in
  Sim.send sim ~src:0 ~dst:1 ~tag:1;
  let cycles =
    Sim.run sim ~on_deliver:(fun ~tag sim ->
        if tag < 3 then Sim.send sim ~src:tag ~dst:(tag + 1) ~tag:(tag + 1))
  in
  check "chain of three hops" 3 cycles;
  check "three deliveries" 3 (Sim.delivered sim)

(* ---------------- workloads ---------------- *)

let test_reduction_native_cycles () =
  (* on a complete tree of height h, the reduce wave takes h cycles up *)
  let t = Gen.complete 15 in
  check "height 3 wave" 3 (Workload.run_native Workload.reduction t)

let test_broadcast_native_cycles () =
  let t = Gen.complete 15 in
  check "height 3 wave" 3 (Workload.run_native Workload.broadcast t)

let test_allreduce_is_both () =
  let t = Gen.complete 15 in
  check "up + down" 6 (Workload.run_native Workload.all_reduce t)

let test_pingpong_counts () =
  let t = Gen.complete 7 in
  (* 6 edges, request + reply, each 1 hop: 12 cycles *)
  check "sequential pingpong" 12 (Workload.run_native Workload.pingpong_sweep t)

let test_single_node_workloads () =
  let t = Gen.complete 1 in
  List.iter
    (fun (w : Workload.spec) -> check (w.Workload.name ^ " trivial") 0 (Workload.run_native w t))
    Workload.workloads

let test_embedded_slowdown_small () =
  let rng = Xt_prelude.Rng.make ~seed:2 in
  let t = Gen.uniform rng (Theorem1.optimal_size 3) in
  let res = Theorem1.embed t in
  List.iter
    (fun (w : Workload.spec) ->
      let s = Workload.slowdown w res.Theorem1.embedding in
      checkb (Printf.sprintf "%s slowdown %.2f sane" w.Workload.name s) true (s >= 0.2 && s <= 6.0))
    Workload.workloads

let test_path_tree_reduction () =
  (* a path of n nodes reduces in n-1 cycles natively *)
  let t = Gen.path 20 in
  check "wave length" 19 (Workload.run_native Workload.reduction t)

let test_link_loads_and_latencies () =
  (* one message 0 -> 4 over a path: each forward directed link carries
     it once, the reverse direction stays idle *)
  let sim = Sim.create (path_host 5) in
  Sim.send sim ~src:0 ~dst:4 ~tag:0;
  ignore (Sim.run sim ~on_deliver:(fun ~tag:_ _ -> ()));
  let loads = Sim.link_loads sim in
  check "2m directed links" 8 (Array.length loads);
  check "total hops" 4 (Array.fold_left ( + ) 0 loads);
  checkb "each link at most once" true (Array.for_all (fun l -> l <= 1) loads);
  Alcotest.(check (array int)) "latency per message" [| 4 |] (Sim.latencies sim);
  (* contention shows up in the tail: two messages over one link *)
  let sim2 = Sim.create (path_host 3) in
  Sim.send sim2 ~src:0 ~dst:2 ~tag:0;
  Sim.send sim2 ~src:0 ~dst:2 ~tag:1;
  ignore (Sim.run sim2 ~on_deliver:(fun ~tag:_ _ -> ()));
  let lat = Sim.latencies sim2 in
  Array.sort compare lat;
  Alcotest.(check (array int)) "second message waited" [| 2; 3 |] lat;
  check "busiest link carried both" 2 (Xt_prelude.Stats.max_int_array (Sim.link_loads sim2))

let suite =
  [
    ("router next hop", `Quick, test_router_next_hop);
    ("router shortest", `Quick, test_router_shortest);
    ("sim single message", `Quick, test_sim_single_message);
    ("sim self send", `Quick, test_sim_self_send);
    ("sim contention", `Quick, test_sim_contention);
    ("sim link capacity", `Quick, test_sim_link_capacity);
    ("sim cascade", `Quick, test_sim_cascade);
    ("reduction native cycles", `Quick, test_reduction_native_cycles);
    ("broadcast native cycles", `Quick, test_broadcast_native_cycles);
    ("allreduce both waves", `Quick, test_allreduce_is_both);
    ("pingpong counts", `Quick, test_pingpong_counts);
    ("single node workloads", `Quick, test_single_node_workloads);
    ("embedded slowdown sane", `Quick, test_embedded_slowdown_small);
    ("path tree reduction", `Quick, test_path_tree_reduction);
    ("link loads and latencies", `Quick, test_link_loads_and_latencies);
  ]

let test_permutation_workload () =
  let t = Gen.complete 15 in
  let cycles = Workload.run_native Workload.permutation t in
  checkb "takes time" true (cycles > 0);
  (* every node with an antipode distinct from itself sends one message *)
  let host = Graph.of_edges ~n:15 (Bintree.edges t) in
  let place = Array.init 15 Fun.id in
  let sim = Sim.create host in
  let _ = Workload.permutation.Workload.run sim ~place ~tree:t in
  check "deliveries" 15 (Sim.delivered sim)

let test_service_rate_serialises () =
  (* two messages to the same vertex: unlimited rate completes them in one
     cycle, rate 1 takes two *)
  let host = path_host 3 in
  let fast = Sim.create host in
  Sim.send fast ~src:0 ~dst:1 ~tag:0;
  Sim.send fast ~src:2 ~dst:1 ~tag:1;
  check "parallel service" 1 (Sim.run fast ~on_deliver:(fun ~tag:_ _ -> ()));
  let slow = Sim.create ~service_rate:1 host in
  Sim.send slow ~src:0 ~dst:1 ~tag:0;
  Sim.send slow ~src:2 ~dst:1 ~tag:1;
  check "serialised service" 2 (Sim.run slow ~on_deliver:(fun ~tag:_ _ -> ()))

let test_service_rate_models_load () =
  (* a loaded host vertex serialises its guests' work: reduction on a
     complete tree embedded entirely onto ONE vertex of a 1-vertex host *)
  let t = Gen.complete 15 in
  let host = Graph.of_edges ~n:1 [] in
  let place = Array.make 15 0 in
  let sim = Sim.create ~service_rate:1 host in
  let cycles = Workload.reduction.Workload.run sim ~place ~tree:t in
  (* 14 messages all served by a single CPU, one per cycle: >= 14 *)
  checkb (Printf.sprintf "cycles %d >= 14" cycles) true (cycles >= 14)

let test_max_inbox_queue () =
  (* every delivery passes through the destination inbox, so the mark is
     at least 1; simultaneous arrivals at one vertex stack up there even
     when service is unlimited (both are served the same cycle) *)
  let host = path_host 3 in
  let one = Sim.create host in
  Sim.send one ~src:0 ~dst:1 ~tag:0;
  ignore (Sim.run one ~on_deliver:(fun ~tag:_ _ -> ()));
  check "single message" 1 (Sim.max_inbox_queue one);
  let fast = Sim.create host in
  Sim.send fast ~src:0 ~dst:1 ~tag:0;
  Sim.send fast ~src:2 ~dst:1 ~tag:1;
  ignore (Sim.run fast ~on_deliver:(fun ~tag:_ _ -> ()));
  check "two arrivals, unlimited rate" 2 (Sim.max_inbox_queue fast);
  let slow = Sim.create ~service_rate:1 host in
  Sim.send slow ~src:0 ~dst:1 ~tag:0;
  Sim.send slow ~src:2 ~dst:1 ~tag:1;
  ignore (Sim.run slow ~on_deliver:(fun ~tag:_ _ -> ()));
  check "two arrivals, rate 1" 2 (Sim.max_inbox_queue slow);
  check "link queues never built up" 1 (Sim.max_link_queue slow)

let test_run_suite_matches_single_runs () =
  let t = Gen.complete 15 in
  let cases = List.map (fun w -> Workload.native_case w t) Workload.workloads in
  let outcomes = Workload.run_suite cases in
  List.iter2
    (fun (w : Workload.spec) (o : Workload.outcome) ->
      check (w.Workload.name ^ " suite cycles") (Workload.run_native w t) o.Workload.cycles;
      checkb (w.Workload.name ^ " delivered") true (o.Workload.delivered > 0);
      checkb (w.Workload.name ^ " inbox mark") true (o.Workload.max_inbox >= 1))
    Workload.workloads outcomes

(* ---------------- input checks ---------------- *)

let test_sim_input_checks () =
  let host = path_host 4 in
  Alcotest.check_raises "link capacity 0" (Invalid_argument "Sim.create: link capacity")
    (fun () -> ignore (Sim.create ~link_capacity:0 host));
  Alcotest.check_raises "service rate 0" (Invalid_argument "Sim.create: service rate")
    (fun () -> ignore (Sim.create ~service_rate:0 host));
  let sim = Sim.create host in
  List.iter
    (fun (src, dst) ->
      Alcotest.check_raises
        (Printf.sprintf "send %d -> %d" src dst)
        (Invalid_argument "Sim.send: vertex out of range")
        (fun () -> Sim.send sim ~src ~dst ~tag:0))
    [ (-1, 0); (4, 0); (0, -1); (0, 4) ];
  (* a rejected send leaves nothing in flight *)
  check "quiescent" 0 (Sim.run sim ~on_deliver:(fun ~tag:_ _ -> ()))

(* ---------------- router == the BFS spec ---------------------------- *)

(* Every route must be the one [Graph.bfs_parents] names: for each
   (current, dst) pair, [next_hop] is current's BFS parent towards dst
   and [path_length] is the BFS distance; pairs in different components
   raise "unreachable" and measure -1. Both router modes answer to this
   spec, and [Sim_ref] shares [Router], so nothing else pins routing. *)
let routes_match_bfs ~what g r =
  let n = Graph.n g in
  for dst = 0 to n - 1 do
    let parent = snd (Graph.bfs_parents g dst) in
    let dist = Graph.bfs g dst in
    for cur = 0 to n - 1 do
      if cur <> dst then begin
        match Router.next_hop r ~current:cur ~dst with
        | hop ->
            if hop <> parent.(cur) then
              Alcotest.failf "%s: next_hop %d->%d = %d, BFS parent %d" what cur dst hop
                parent.(cur)
        | exception Invalid_argument msg ->
            if dist.(cur) >= 0 || msg <> "Router.next_hop: unreachable" then
              Alcotest.failf "%s: next_hop %d->%d raised %S" what cur dst msg
      end;
      let len = Router.path_length r ~src:cur ~dst in
      if len <> dist.(cur) then
        Alcotest.failf "%s: path_length %d->%d = %d, BFS distance %d" what cur dst len dist.(cur)
    done
  done

type route_case = { fname : string; size : int; seed : int }

let print_route_case c = Printf.sprintf "%s(%d) seed=%d" c.fname c.size c.seed

let route_families = [ "complete"; "path"; "caterpillar"; "random-bst"; "uniform"; "skewed" ]

let route_case_gen =
  QCheck2.Gen.(
    let* fi = int_bound (List.length route_families - 1) in
    let* size = map (fun k -> k + 1) (int_bound 63) in
    let* seed = int_bound 1_000_000 in
    return { fname = List.nth route_families fi; size; seed })

(* On a tree the shortest path is unique, so the binary-lifting mode
   must name the BFS parent on EVERY (current, dst) pair. *)
let run_route_case c =
  let rng = Xt_prelude.Rng.make ~seed:c.seed in
  let tree = (Gen.family c.fname).generate rng c.size in
  let g = Workload.guest_graph tree in
  routes_match_bfs ~what:(print_route_case c) g (Router.create g);
  true

let qcheck_router_modes =
  QCheck2.Test.make ~count:80 ~name:"router: tree-mode lifting == dense BFS rows"
    ~print:print_route_case route_case_gen run_route_case

(* General hosts: random connected graphs (a random spanning tree plus
   random chords), X-trees and hypercubes of heights 1-6, and random
   graphs of two components. *)
type host_case = { host : string; height : int; hseed : int }

let print_host_case c = Printf.sprintf "%s(%d) seed=%d" c.host c.height c.hseed

let host_case_gen =
  QCheck2.Gen.(
    let* host = oneofl [ "connected"; "xtree"; "hypercube"; "two-components" ] in
    let* height = map (fun k -> k + 1) (int_bound 5) in
    let* hseed = int_bound 1_000_000 in
    return { host; height; hseed })

(* Edges of a random connected graph on [base, base + n). *)
let random_connected rng ~base n =
  let tree = List.init (n - 1) (fun i -> (base + i + 1, base + Xt_prelude.Rng.int rng (i + 1))) in
  let chords =
    List.init (Xt_prelude.Rng.int rng (n + 1)) (fun _ ->
        (base + Xt_prelude.Rng.int rng n, base + Xt_prelude.Rng.int rng n))
  in
  tree @ chords

let host_of_case c =
  let rng = Xt_prelude.Rng.make ~seed:c.hseed in
  match c.host with
  | "xtree" -> Xtree.graph (Xtree.create ~height:c.height)
  | "hypercube" -> Hypercube.graph (Hypercube.create ~dim:c.height)
  | "connected" ->
      let n = 2 + Xt_prelude.Rng.int rng 47 in
      Graph.of_edges ~n (random_connected rng ~base:0 n)
  | _ ->
      let a = 1 + Xt_prelude.Rng.int rng 24 and b = 1 + Xt_prelude.Rng.int rng 24 in
      Graph.of_edges ~n:(a + b) (random_connected rng ~base:0 a @ random_connected rng ~base:a b)

let qcheck_routes_bfs_spec =
  QCheck2.Test.make ~count:120 ~name:"router: general hosts route on the BFS spec"
    ~print:print_host_case host_case_gen (fun c ->
      let g = host_of_case c in
      routes_match_bfs ~what:(print_host_case c) g (Router.create g);
      true)

(* ---------------- one route table, two domains ---------------------- *)

(* The 10 embedded cases of one guest (the five workloads on its Theorem 1
   X-tree and Theorem 3 hypercube embeddings), replayed on two spawned
   domains from cold tables: one takes the even cases, the other the odd
   ones, and they start together, so both domains build and read rows of
   the same two host graphs at once. Every observable must match a
   sequential replay on separately built (equally cold) hosts. *)
let test_two_domains_share_routes () =
  let tree = Gen.uniform (Xt_prelude.Rng.make ~seed:5) (Theorem1.optimal_size 4) in
  let cases () =
    let hosts =
      [
        (Theorem1.embed tree).Theorem1.embedding;
        (Hypercube_transfer.embed tree).Hypercube_transfer.embedding;
      ]
    in
    List.concat_map (fun e -> List.map (fun w -> (w, e)) Workload.workloads) hosts
  in
  let replay (w, e) =
    let sim, cycles = Workload.run_on w e in
    (cycles, Sim.link_loads sim, Sim.latencies sim)
  in
  let seq = List.map replay (cases ()) in
  let cold = Array.of_list (cases ()) in
  let out = Array.make (Array.length cold) None in
  let started = Atomic.make 0 in
  let lane parity () =
    Atomic.incr started;
    while Atomic.get started < 2 do
      Domain.cpu_relax ()
    done;
    Array.iteri (fun i c -> if i mod 2 = parity then out.(i) <- Some (replay c)) cold;
    (Domain.self () :> int)
  in
  let even = Domain.spawn (lane 0) and odd = Domain.spawn (lane 1) in
  let even_id = Domain.join even and odd_id = Domain.join odd in
  checkb "replayed on two domains" true (even_id <> odd_id);
  let par = Array.to_list (Array.map Option.get out) in
  List.iteri
    (fun i ((cycles, loads, lats), (cycles', loads', lats')) ->
      let what = Printf.sprintf "case %d" i in
      check (what ^ ": cycles") cycles cycles';
      Alcotest.(check (array int)) (what ^ ": link loads") loads loads';
      Alcotest.(check (array int)) (what ^ ": latencies") lats lats')
    (List.combine seq par)

let suite =
  suite
  @ [
      ("permutation workload", `Quick, test_permutation_workload);
      ("service rate serialises", `Quick, test_service_rate_serialises);
      ("service rate models load", `Quick, test_service_rate_models_load);
      ("max inbox queue", `Quick, test_max_inbox_queue);
      ("run_suite matches single runs", `Quick, test_run_suite_matches_single_runs);
      ("sim input checks", `Quick, test_sim_input_checks);
      QCheck_alcotest.to_alcotest ~long:false qcheck_router_modes;
      QCheck_alcotest.to_alcotest ~long:false qcheck_routes_bfs_spec;
      ("two domains share route tables", `Quick, test_two_domains_share_routes);
    ]
