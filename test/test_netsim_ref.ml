(* Equivalence of the active-set simulator core against the retained
   sweep-based reference (ISSUE 5): for every workload x family x size,
   on native and embedded placements, [Sim] must produce exactly the
   same cycle count, deliveries, per-link loads, per-message latencies
   (in delivery order — stronger than the multiset), and both queue
   high-water marks as [Sim_ref]. Plus the zero-allocation guard on the steady-state run loop and the
   degenerate cases (zero messages, single host, single link) that fall
   outside the workload sweeps. *)

open Xt_topology
open Xt_bintree
open Xt_core
open Xt_embedding
open Xt_netsim

module RefW = Workload.Make (Sim_ref)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let families = [ "complete"; "path"; "caterpillar"; "random-bst"; "uniform"; "skewed" ]
let n_workloads = List.length Workload.workloads

(* Both cores, same placement, same knobs; compare every observable. *)
let compare_runs ~what ?link_capacity ?service_rate ~graph ~place ~tree widx =
  let fast = List.nth Workload.workloads widx in
  let slow = List.nth RefW.workloads widx in
  let rsim = Sim_ref.create ?link_capacity ?service_rate graph in
  let rcycles = slow.RefW.run rsim ~place ~tree in
  let sim = Sim.create ?link_capacity ?service_rate graph in
  let cycles = fast.Workload.run sim ~place ~tree in
  check (what ^ ": cycles") rcycles cycles;
  check (what ^ ": delivered") (Sim_ref.delivered rsim) (Sim.delivered sim);
  Alcotest.(check (array int))
    (what ^ ": link loads") (Sim_ref.link_loads rsim) (Sim.link_loads sim);
  Alcotest.(check (array int))
    (what ^ ": latencies in delivery order")
    (Sim_ref.latencies rsim) (Sim.latencies sim);
  check (what ^ ": max link queue") (Sim_ref.max_link_queue rsim) (Sim.max_link_queue sim);
  check (what ^ ": max inbox queue") (Sim_ref.max_inbox_queue rsim) (Sim.max_inbox_queue sim)

let workload_name widx = (List.nth Workload.workloads widx).Workload.name

(* ---------------- exhaustive: all workloads x families x sizes ------- *)

let test_native_exhaustive () =
  let rng = Xt_prelude.Rng.make ~seed:1905 in
  List.iter
    (fun fname ->
      List.iter
        (fun n ->
          let tree = (Gen.family fname).generate rng n in
          let graph = Workload.guest_graph tree in
          let place = Array.init n Fun.id in
          for widx = 0 to n_workloads - 1 do
            let what = Printf.sprintf "%s on %s(%d)" (workload_name widx) fname n in
            compare_runs ~what ~graph ~place ~tree widx
          done)
        [ 1; 2; 17; 63; 240 ])
    families

let test_embedded_exhaustive () =
  let rng = Xt_prelude.Rng.make ~seed:1906 in
  let n = Theorem1.optimal_size 3 in
  List.iter
    (fun fname ->
      let tree = (Gen.family fname).generate rng n in
      let e = (Theorem1.embed tree).Theorem1.embedding in
      for widx = 0 to n_workloads - 1 do
        let what = Printf.sprintf "%s embedded, %s(%d)" (workload_name widx) fname n in
        compare_runs ~what ~graph:e.Embedding.host ~place:e.Embedding.place
          ~tree:e.Embedding.tree widx
      done)
    families

let test_constrained_exhaustive () =
  (* finite link capacity and service rate exercise the queue build-up
     paths (and the inbox high-water satellite) in both cores *)
  let rng = Xt_prelude.Rng.make ~seed:1907 in
  List.iter
    (fun fname ->
      let tree = (Gen.family fname).generate rng 63 in
      let graph = Workload.guest_graph tree in
      let place = Array.init 63 Fun.id in
      for widx = 0 to n_workloads - 1 do
        let what = Printf.sprintf "%s constrained on %s(63)" (workload_name widx) fname in
        compare_runs ~what ~link_capacity:2 ~service_rate:1 ~graph ~place ~tree widx
      done)
    families

(* ---------------- larger hosts ---------------------------------------- *)

(* The hosts above have at most a few hundred directed links and
   vertices, so each of [Sim]'s active sets stays inside its first
   summary word (1024 indices). These two reach past it: a native
   ~5000-node guest (9 998 directed links, 5 000 inboxes) and a
   ~5000-node guest placed at random on X(12) (32 736 links, 8 191
   inboxes), each under link capacity 1 and 2 and service rate
   unlimited and 1. [Sim_ref] sweeps every queue of the host each cycle,
   so the serial ping-pong sweep, one message at a time for thousands of
   cycles, runs under two of the four knob settings on the native guest
   and on a 48-node guest spread over X(12). *)
let large_knobs = [ (1, None); (2, None); (1, Some 1); (2, Some 1) ]
let pingpong_knobs = [ (1, None); (2, Some 1) ]
let is_pingpong widx = workload_name widx = "pingpong-sweep"

let compare_large ~what ~graph ~place ~tree widx =
  List.iter
    (fun (link_capacity, service_rate) ->
      let what =
        Printf.sprintf "%s, %s cap=%d rate=%s" (workload_name widx) what link_capacity
          (match service_rate with None -> "inf" | Some r -> string_of_int r)
      in
      compare_runs ~what ~link_capacity ?service_rate ~graph ~place ~tree widx)
    (if is_pingpong widx then pingpong_knobs else large_knobs)

let test_large_native () =
  let tree = Gen.random_bst (Xt_prelude.Rng.make ~seed:1908) 5000 in
  let graph = Workload.guest_graph tree in
  let place = Array.init 5000 Fun.id in
  for widx = 0 to n_workloads - 1 do
    compare_large ~what:"native random-bst(5000)" ~graph ~place ~tree widx
  done

let test_large_random_xtree () =
  let rng = Xt_prelude.Rng.make ~seed:1909 in
  let xt = Xtree.create ~height:12 in
  let graph = Xtree.graph xt in
  let spread n =
    let tree = Gen.random_bst rng n in
    (tree, Array.init n (fun _ -> Xt_prelude.Rng.int rng (Xtree.order xt)))
  in
  let tree, place = spread 5000 in
  let small_tree, small_place = spread 48 in
  for widx = 0 to n_workloads - 1 do
    if is_pingpong widx then
      compare_large ~what:"random-bst(48) spread over X(12)" ~graph ~place:small_place
        ~tree:small_tree widx
    else compare_large ~what:"random-bst(5000) spread over X(12)" ~graph ~place ~tree widx
  done

(* ---------------- qcheck: random cases across the full knob space ---- *)

type eq_case = {
  fname : string;
  size : int;
  widx : int;
  cap : int;
  rate : int option;
  mode : int; (* 0 = native, 1 = Theorem 1 embedded, 2 = random placement *)
  seed : int;
}

let print_case c =
  Printf.sprintf "%s(%d) %s cap=%d rate=%s mode=%d seed=%d" c.fname c.size
    (workload_name c.widx) c.cap
    (match c.rate with None -> "inf" | Some r -> string_of_int r)
    c.mode c.seed

let case_gen =
  QCheck2.Gen.(
    let* fi = int_bound (List.length families - 1) in
    let* size = map (fun k -> k + 1) (int_bound 79) in
    let* widx = int_bound (n_workloads - 1) in
    let* cap = map (fun k -> k + 1) (int_bound 2) in
    let* rate = oneofl [ None; Some 1; Some 2 ] in
    let* mode = int_bound 2 in
    let* seed = int_bound 1_000_000 in
    return { fname = List.nth families fi; size; widx; cap; rate; mode; seed })

let run_eq_case c =
  let rng = Xt_prelude.Rng.make ~seed:c.seed in
  let tree = (Gen.family c.fname).generate rng c.size in
  let graph, place, tree =
    match c.mode with
    | 0 -> (Workload.guest_graph tree, Array.init c.size Fun.id, tree)
    | 1 ->
        let e = (Theorem1.embed tree).Theorem1.embedding in
        (e.Embedding.host, e.Embedding.place, e.Embedding.tree)
    | _ ->
        (* arbitrary (non-injective) placement onto a fixed X-tree host *)
        let xt = Xtree.create ~height:3 in
        let order = Xtree.order xt in
        let place = Array.init c.size (fun _ -> Xt_prelude.Rng.int rng order) in
        (Xtree.graph xt, place, tree)
  in
  compare_runs ~what:(print_case c) ~link_capacity:c.cap ?service_rate:c.rate ~graph ~place
    ~tree c.widx;
  true

let qcheck_equivalence =
  QCheck2.Test.make ~count:120 ~name:"netsim: active-set core == reference core"
    ~print:print_case case_gen run_eq_case

(* ---------------- degenerate cases outside the workload sweeps ------- *)

(* Raw send lists rather than tree workloads, so the empty/singleton
   shapes the generators never produce are pinned too. *)
let compare_direct ~what ?link_capacity ?service_rate ~graph sends =
  let quiet ~tag:_ _ = () in
  let rsim = Sim_ref.create ?link_capacity ?service_rate graph in
  List.iter (fun (src, dst, tag) -> Sim_ref.send rsim ~src ~dst ~tag) sends;
  let rcycles = Sim_ref.run rsim ~on_deliver:quiet in
  let sim = Sim.create ?link_capacity ?service_rate graph in
  List.iter (fun (src, dst, tag) -> Sim.send sim ~src ~dst ~tag) sends;
  let cycles = Sim.run sim ~on_deliver:quiet in
  check (what ^ ": cycles") rcycles cycles;
  check (what ^ ": delivered") (Sim_ref.delivered rsim) (Sim.delivered sim);
  Alcotest.(check (array int))
    (what ^ ": link loads") (Sim_ref.link_loads rsim) (Sim.link_loads sim);
  Alcotest.(check (array int))
    (what ^ ": latencies") (Sim_ref.latencies rsim) (Sim.latencies sim);
  check (what ^ ": max link queue") (Sim_ref.max_link_queue rsim) (Sim.max_link_queue sim);
  check (what ^ ": max inbox queue") (Sim_ref.max_inbox_queue rsim) (Sim.max_inbox_queue sim)

let test_degenerate_zero_messages () =
  (* quiescent networks: run returns 0 cycles without stepping at all *)
  compare_direct ~what:"zero messages, empty host" ~graph:(Graph.of_edges ~n:0 []) [];
  compare_direct ~what:"zero messages, path host"
    ~graph:(Graph.of_edges ~n:8 (List.init 7 (fun i -> (i, i + 1))))
    []

let test_degenerate_single_host () =
  (* one vertex, no links: only self-sends, serviced through the inbox *)
  let graph = Graph.of_edges ~n:1 [] in
  compare_direct ~what:"single host self-traffic" ~service_rate:1 ~graph
    (List.init 5 (fun k -> (0, 0, k)))

let test_degenerate_single_link () =
  (* two vertices, one edge: both directions, enough traffic to queue *)
  let graph = Graph.of_edges ~n:2 [ (0, 1) ] in
  compare_direct ~what:"single link" ~link_capacity:1 ~service_rate:1 ~graph
    [ (0, 1, 0); (0, 1, 1); (1, 0, 2); (0, 1, 3); (1, 0, 4); (1, 1, 5); (0, 0, 6) ]

(* A burst far past the arena's initial 64 ids: 5 000 messages queue on
   the first link of a path while the arena doubles to 8 192, traffic
   the other way shares the links, and two streams into one vertex at
   service rate 1 back up its inbox. *)
let test_arena_growth_burst () =
  let n = 8 in
  let graph = Graph.of_edges ~n (List.init (n - 1) (fun i -> (i, i + 1))) in
  let stream k src dst = List.init k (fun i -> (src, dst, i)) in
  let sends =
    stream 5000 0 (n - 1) @ stream 700 (n - 1) 0 @ stream 300 1 3 @ stream 300 5 3 @ stream 50 2 2
  in
  compare_direct ~what:"arena growth burst" ~service_rate:1 ~graph sends;
  let sim = Sim.create ~service_rate:1 graph in
  List.iter (fun (src, dst, tag) -> Sim.send sim ~src ~dst ~tag) sends;
  ignore (Sim.run sim ~on_deliver:(fun ~tag:_ _ -> ()));
  checkb "5 000 messages queued on one link" true (Sim.max_link_queue sim >= 5000);
  checkb "an inbox backed up" true (Sim.max_inbox_queue sim >= 2)

(* ---------------- steady-state loop allocates nothing ---------------- *)

let run_loop_allocation host sends =
  let sim = Sim.create ~service_rate:1 host in
  let on_deliver ~tag:_ _ = () in
  let batch () =
    List.iter (fun (src, dst) -> Sim.send sim ~src ~dst ~tag:src) sends;
    ignore (Sim.run sim ~on_deliver)
  in
  (* warm up: sizes the arena, rings, scratch buffers and the latency
     array (which doubles geometrically) past what the measured batch
     needs, and builds the router's next-hop rows *)
  for _ = 1 to 16 do
    batch ()
  done;
  Gc.minor ();
  let before = Gc.minor_words () in
  batch ();
  let allocated = Gc.minor_words () -. before in
  checkb
    (Printf.sprintf "run loop allocated %.0f minor words" allocated)
    true (allocated < 256.)

let test_run_allocation_free () =
  let n = 64 in
  let host = Graph.of_edges ~n (List.init (n - 1) (fun i -> (i, i + 1))) in
  run_loop_allocation host (List.init 20 (fun v -> (v, n - 1 - v)))

(* The same on X(12), whose active sets span 32 summary words of links
   and 8 of inboxes: messages between the two ends of each level, and
   from the leaves to the root, queue on links and inboxes all over the
   index range. *)
let test_run_allocation_free_xtree () =
  let xt = Xtree.create ~height:12 in
  let n = Xtree.order xt in
  let ends = List.init 12 (fun l -> (Xtree.id ~level:(l + 1) ~index:0, Xtree.id ~level:(l + 1) ~index:((1 lsl (l + 1)) - 1))) in
  let to_root = List.init 24 (fun k -> (n - 1 - (170 * k), 0)) in
  run_loop_allocation (Xtree.graph xt) (ends @ List.map (fun (a, b) -> (b, a)) ends @ to_root)

(* The same on a native guest, whose routes take the tree mode's
   descent into one of two children. *)
let test_run_allocation_free_native () =
  let n = 2000 in
  let host = Workload.guest_graph (Gen.random_bst (Xt_prelude.Rng.make ~seed:1910) n) in
  run_loop_allocation host (List.init 40 (fun k -> ((k * 997) mod n, (k * 1409 + 500) mod n)))

let test_fast_forward_allocation_free () =
  (* the idle-skip path: one message at a time over a long path *)
  let n = 256 in
  let host = Graph.of_edges ~n (List.init (n - 1) (fun i -> (i, i + 1))) in
  let sim = Sim.create host in
  let on_deliver ~tag:_ _ = () in
  let batch () =
    for _ = 1 to 4 do
      Sim.send sim ~src:0 ~dst:(n - 1) ~tag:0;
      ignore (Sim.run sim ~on_deliver)
    done
  in
  for _ = 1 to 20 do
    batch ()
  done;
  Gc.minor ();
  let before = Gc.minor_words () in
  batch ();
  let allocated = Gc.minor_words () -. before in
  checkb
    (Printf.sprintf "fast-forward allocated %.0f minor words" allocated)
    true (allocated < 256.)

(* General-mode routing reads the host graph's shared next-hop table: a
   second simulator on an already-routed X-tree host builds no rows, and
   once its own buffers are sized its replays allocate nothing. *)
let test_shared_routes_allocation_free () =
  let host = Xtree.graph (Xtree.create ~height:4) in
  let n = Graph.n host in
  let on_deliver ~tag:_ _ = () in
  let batch sim =
    for v = 0 to n - 1 do
      Sim.send sim ~src:v ~dst:(n - 1 - v) ~tag:v
    done;
    ignore (Sim.run sim ~on_deliver)
  in
  let rows () = List.assoc "netsim.route_rows" (Xt_obs.Obs.snapshot ()).Xt_obs.Obs.counters in
  let metrics_were_on = Xt_obs.Obs.metrics_enabled () in
  Xt_obs.Obs.enable_metrics ();
  let before = rows () in
  batch (Sim.create host);
  let built = rows () - before in
  let sim = Sim.create host in
  for _ = 1 to 16 do
    batch sim
  done;
  let rebuilt = rows () - before - built in
  if not metrics_were_on then Xt_obs.Obs.disable_metrics ();
  (* every vertex but the middle one (a self-send) is a destination *)
  check "first simulator builds one row per destination" (n - 1) built;
  check "second simulator builds none" 0 rebuilt;
  Gc.minor ();
  let before = Gc.minor_words () in
  batch sim;
  let allocated = Gc.minor_words () -. before in
  checkb
    (Printf.sprintf "shared-table replay allocated %.0f minor words" allocated)
    true (allocated < 256.)

let suite =
  [
    ("native exhaustive equivalence", `Quick, test_native_exhaustive);
    ("embedded exhaustive equivalence", `Slow, test_embedded_exhaustive);
    ("constrained exhaustive equivalence", `Quick, test_constrained_exhaustive);
    ("large native equivalence", `Slow, test_large_native);
    ("large random X(12) equivalence", `Slow, test_large_random_xtree);
    QCheck_alcotest.to_alcotest ~long:false qcheck_equivalence;
    ("degenerate: zero messages", `Quick, test_degenerate_zero_messages);
    ("degenerate: single host", `Quick, test_degenerate_single_host);
    ("degenerate: single link", `Quick, test_degenerate_single_link);
    ("run loop allocation free", `Quick, test_run_allocation_free);
    ("run loop allocation free on X(12)", `Quick, test_run_allocation_free_xtree);
    ("fast forward allocation free", `Quick, test_fast_forward_allocation_free);
    ("shared routes allocation free", `Quick, test_shared_routes_allocation_free);
    ("arena growth burst", `Quick, test_arena_growth_burst);
    ("run loop allocation free on a native tree", `Quick, test_run_allocation_free_native);
  ]
