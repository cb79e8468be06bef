(* Bechamel micro-benchmarks B1..B15: wall-clock cost of each pipeline
   stage, one Test.make per stage. *)

open Bechamel
open Toolkit
open Xt_prelude
open Xt_bintree
open Xt_core

let n_bench = Theorem1.optimal_size 5 (* 1008 nodes *)

let prepared_tree =
  lazy
    (let rng = Rng.make ~seed:99 in
     Gen.uniform rng n_bench)

(* B8 exercises the dense-array congestion router end to end: every
   unordered vertex pair of X(6) as a unit demand, one Dijkstra each,
   loads accumulated in the shared edge-indexed array. *)
let congestion_workload =
  lazy
    (let xt = Xt_topology.Xtree.create ~height:6 in
     let g = Xt_topology.Xtree.graph xt in
     let n = Xt_topology.Graph.n g in
     let pairs = ref [] in
     for u = 0 to n - 1 do
       for v = u + 1 to n - 1 do
         pairs := (u, v) :: !pairs
       done
     done;
     (g, !pairs))

let leaf_sweep_xt = lazy (Xt_topology.Xtree.create ~height:10)

(* B10 measures a pure cache hit: the fingerprint, the canonical-string
   verify, the rank remap and Embedding.make — everything but the
   pipeline. Contrast with B3. *)
let warm_cache =
  lazy
    (let tree = Lazy.force prepared_tree in
     let cache = Theorem1.make_cache () in
     ignore (Theorem1.embed ~cache tree);
     (cache, tree))

(* B11 measures the sim's single-message hot path end to end on X(9):
   one send plus a fast-forwarded run across the host — arena alloc,
   ring push, idle-skip route walk, delivery. The active-set core makes
   this O(route length); on the old sweep core it was O(cycles x 2m). *)
let pingpong_host =
  lazy
    (let xt = Xt_topology.Xtree.create ~height:9 in
     let g = Xt_topology.Xtree.graph xt in
     let sim = Xt_netsim.Sim.create g in
     (* warm the router rows and size the arena outside the measurement *)
     Xt_netsim.Sim.send sim ~src:511 ~dst:1022 ~tag:0;
     ignore (Xt_netsim.Sim.run sim ~on_deliver:(fun ~tag:_ _ -> ()));
     sim)

(* B14 times one Lemma 2 carve of a maximal unplaced piece through the
   separator's view, the split ADJUST's case A and SPLIT's balance make
   on every call: its cost per call, next to B12's list lemma. Two
   4 093-node pieces on mirror copies, each carved to a third: a 4 096-
   node uniform tree with three leaves placed (three cut roots), rooted
   at its first boundary node; and the middle of a 4 095-node path,
   whose top hangs from a placed node and whose bottom has a placed
   child (one cut root), rooted at that bottom, so the view flips the
   whole path. [roots] picks the placed nodes on the copy. *)
let carve_piece tree ~roots ~top ~r1 =
  let m = Bintree.mirror_copy tree in
  let place = Array.make (Bintree.n tree) (-1) in
  List.iter (fun v -> place.(v) <- 0) (roots m);
  let bounds = ref [] in
  Array.iteri
    (fun v p ->
      if p < 0 then
        Bintree.iter_neighbours m.copy v (fun w ->
            if place.(w) >= 0 then bounds := { Separator.bnode = v; anchor = 0 } :: !bounds))
    place;
  let size = Array.fold_left (fun acc p -> if p < 0 then acc + 1 else acc) 0 place in
  assert (size = 4093);
  let r1 = match r1 with Some r -> r | None -> (List.hd (List.rev !bounds)).Separator.bnode in
  let region = { Separator.top; bounds = !bounds; r1; r2 = None } in
  let ws = Separator.mirror_ws m in
  fun () -> ignore (Separator.cut2 ws ~place region ~target:(size / 3))

(* the first leaf at or after each of three ids *)
let three_leaves (m : Bintree.mirror) =
  let rec leaf k = if m.last.(k) = k then k else leaf (k + 1) in
  [ leaf 1000; leaf 2000; leaf 3000 ]

let carve_uniform =
  lazy (carve_piece (Gen.uniform (Rng.make ~seed:14) 4096) ~roots:three_leaves ~top:0 ~r1:None)

(* in the copy a path is numbered from its root *)
let carve_path =
  lazy (carve_piece (Gen.path 4095) ~roots:(fun _ -> [ 0; 4094 ]) ~top:1 ~r1:(Some 4093))

(* B15 times the re-form half of one Lemma 2 split, next to B14's
   carve: [State.split_remnants] of B14's two pieces once their cut's
   lay sets are placed, both sides re-formed from subtree ranges. The
   laying half of [Moves.apply_split] places nodes and cannot repeat on
   one state; the re-form reads the state and only draws piece ids, so
   it repeats on a warm one. *)
let split_piece tree ~roots ~top ~r1 =
  let m = Bintree.mirror_copy tree in
  let st = State.create m ~height:10 ~capacity:16 in
  List.iter (fun v -> State.lay st ~max_level:10 ~node:v ~vertex:0) (roots m);
  let bnodes = ref [] in
  Array.iteri
    (fun v p ->
      if p < 0 then
        Bintree.iter_neighbours m.copy v (fun w -> if st.State.place.(w) >= 0 then bnodes := v :: !bnodes))
    st.State.place;
  let r1 = match r1 with Some r -> r | None -> List.hd (List.rev !bnodes) in
  let piece = State.new_piece st ~top ~start:r1 !bnodes in
  assert (piece.State.size = 4093);
  let region = { Separator.top; bounds = piece.State.bounds; r1; r2 = None } in
  let cut = Separator.cut2 st.State.ws ~place:st.State.place region ~target:(4093 / 3) in
  List.iter (fun v -> State.lay st ~max_level:10 ~node:v ~vertex:1) cut.Separator.lay1;
  List.iter (fun v -> State.lay st ~max_level:10 ~node:v ~vertex:2) cut.Separator.lay2;
  fun () -> ignore (State.split_remnants st piece cut)

let split_uniform =
  lazy (split_piece (Gen.uniform (Rng.make ~seed:14) 4096) ~roots:three_leaves ~top:0 ~r1:None)

let split_path = lazy (split_piece (Gen.path 4095) ~roots:(fun _ -> [ 0; 4094 ]) ~top:1 ~r1:(Some 4093))

let tests =
  Test.make_grouped ~name:"xtree"
    [
      Test.make ~name:"B1 generate uniform n=1008"
        (Staged.stage (fun () ->
             let rng = Rng.make ~seed:1 in
             ignore (Gen.uniform rng n_bench)));
      Test.make ~name:"B2 lemma2 split n=1008"
        (Staged.stage (fun () ->
             let tree = Lazy.force prepared_tree in
             let ws = Separator.make_ws tree in
             let piece = { Separator.nodes = List.init n_bench Fun.id; r1 = 0; r2 = None } in
             ignore (Separator.lemma2 ws piece ~target:(n_bench / 2))));
      Test.make ~name:"B3 theorem1 embed n=1008"
        (Staged.stage (fun () ->
             let tree = Lazy.force prepared_tree in
             ignore (Theorem1.embed tree)));
      Test.make ~name:"B4 hypercube transfer n=1008"
        (Staged.stage (fun () ->
             let tree = Lazy.force prepared_tree in
             ignore (Hypercube_transfer.embed tree)));
      Test.make ~name:"B5 N(a) sweep X(8)"
        (Staged.stage (fun () ->
             let xt = Xt_topology.Xtree.create ~height:8 in
             for a = 0 to Xt_topology.Xtree.order xt - 1 do
               ignore (Xt_topology.Xtree.neighbourhood xt a)
             done));
      Test.make ~name:"B6 reduction sim n=1008"
        (Staged.stage (fun () ->
             let tree = Lazy.force prepared_tree in
             ignore (Xt_netsim.Workload.run_native Xt_netsim.Workload.reduction tree)));
      Test.make ~name:"B7 analytic distance sweep X(10)"
        (Staged.stage (fun () ->
             (* 2047 vertices, all distances from one source, no BFS *)
             let xt = Xt_topology.Xtree.create ~height:10 in
             let total = ref 0 in
             for v = 0 to Xt_topology.Xtree.order xt - 1 do
               total := !total + Xt_topology.Xtree.analytic_distance 1000 v
             done;
             ignore !total));
      Test.make ~name:"B8 congestion analyse X(6) all-pairs"
        (Staged.stage (fun () ->
             let g, pairs = Lazy.force congestion_workload in
             ignore (Xt_embedding.Congestion.analyse g pairs)));
      (* [Xtree.distance] is a range check plus address arithmetic: no
         BFS rows, and (as asserted by the Gc test in test_topology.ml)
         no allocation — bechamel's minor-words column should read 0 per
         query. *)
      Test.make ~name:"B9 closed-form distance leaf sweep X(10)"
        (Staged.stage (fun () ->
             let xt = Lazy.force leaf_sweep_xt in
             let lo = 1023 and hi = 2046 in
             let total = ref 0 in
             for v = lo to hi do
               total := !total + Xt_topology.Xtree.distance xt lo v
             done;
             ignore !total));
      Test.make ~name:"B10 theorem1 cached hit n=1008"
        (Staged.stage (fun () ->
             let cache, tree = Lazy.force warm_cache in
             ignore (Theorem1.embed ~cache tree)));
      Test.make ~name:"B11 single-message hot path X(9)"
        (Staged.stage (fun () ->
             let sim = Lazy.force pingpong_host in
             Xt_netsim.Sim.send sim ~src:511 ~dst:1022 ~tag:0;
             ignore (Xt_netsim.Sim.run sim ~on_deliver:(fun ~tag:_ _ -> ()))));
      (* Contrast with B2: same split, but on a long-lived workspace —
         what every Theorem 1 pipeline call pays per piece, since each
         embed makes one workspace and reuses it. The gap is the cost of
         allocating and re-touching the scratch arrays. *)
      Test.make ~name:"B12 lemma2 split reused ws n=1008"
        (Staged.stage
           (let tree = Lazy.force prepared_tree in
            let ws = Separator.make_ws tree in
            let piece = { Separator.nodes = List.init n_bench Fun.id; r1 = 0; r2 = None } in
            fun () -> ignore (Separator.lemma2 ws piece ~target:(n_bench / 2))));
      Test.make ~name:"B14 lemma2 carve uniform piece n=4093"
        (Staged.stage (fun () -> (Lazy.force carve_uniform) ()));
      Test.make ~name:"B14 lemma2 carve path piece n=4093"
        (Staged.stage (fun () -> (Lazy.force carve_path) ()));
      Test.make ~name:"B15 lemma2 split re-form uniform n=4093"
        (Staged.stage (fun () -> (Lazy.force split_uniform) ()));
      Test.make ~name:"B15 lemma2 split re-form path n=4093"
        (Staged.stage (fun () -> (Lazy.force split_path) ()));
      (* The price of arming the flight recorder (--flight, XT_FLIGHT):
         one span with tracing and metrics off is two clock reads plus a
         handful of ring stores, paid by every span-wrapped call site. *)
      Test.make ~name:"B13 flight-recorder span (no-op body)"
        (Staged.stage (fun () ->
             Xt_obs.Obs.enable_recorder ();
             Xt_obs.Obs.span "bench.noop" (fun () -> ());
             Xt_obs.Obs.disable_recorder ()));
    ]

let run () =
  print_endline "== Micro-benchmarks (bechamel; ns per run) ==";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols_result acc -> (name, ols_result) :: acc) results [] in
  List.iter
    (fun (name, ols_result) ->
      let est =
        match Analyze.OLS.estimates ols_result with
        | Some (e :: _) -> Printf.sprintf "%12.0f ns/run" e
        | _ -> "(no estimate)"
      in
      Printf.printf "%-32s %s\n" name est)
    (List.sort compare rows)
