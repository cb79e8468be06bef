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

(* ---------------- steady-state loop allocates nothing ---------------- *)

let test_run_allocation_free () =
  let n = 64 in
  let host = Graph.of_edges ~n (List.init (n - 1) (fun i -> (i, i + 1))) in
  let sim = Sim.create ~service_rate:1 host in
  let on_deliver ~tag:_ _ = () in
  let batch () =
    for v = 0 to 19 do
      Sim.send sim ~src:v ~dst:(n - 1 - v) ~tag:v
    done;
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
    QCheck_alcotest.to_alcotest ~long:false qcheck_equivalence;
    ("degenerate: zero messages", `Quick, test_degenerate_zero_messages);
    ("degenerate: single host", `Quick, test_degenerate_single_host);
    ("degenerate: single link", `Quick, test_degenerate_single_link);
    ("run loop allocation free", `Quick, test_run_allocation_free);
    ("fast forward allocation free", `Quick, test_fast_forward_allocation_free);
    ("shared routes allocation free", `Quick, test_shared_routes_allocation_free);
  ]
