(* Experiment tables F1..E19 — one per paper object, as indexed in
   DESIGN.md section 4. Each function builds one table; the job registry
   at the bottom runs them one after another and prints the rendered
   tables in registry order. EXPERIMENTS.md records the paper-vs-measured
   comparison of a reference run. *)

open Xt_prelude
open Xt_topology
open Xt_bintree
open Xt_embedding
open Xt_core
open Xt_baseline
open Xt_netsim
open Xt_serve

let families = [ "complete"; "path"; "caterpillar"; "random-bst"; "uniform"; "skewed" ]

(* Where tables go: always stdout; optionally also one CSV per table. *)
let csv_dir : string option ref = ref None

(* "E13b Exact optimal ..." -> "e13b" *)
let slug title =
  let first_token =
    match String.index_opt title ' ' with Some i -> String.sub title 0 i | None -> title
  in
  String.lowercase_ascii first_token

(* Render a finished table (and drop its CSV if requested). Jobs may run
   concurrently, but each writes its own CSV file, so no locking needed. *)
let render t =
  (match !csv_dir with
  | None -> ()
  | Some dir ->
      let file = Filename.concat dir (slug (Tab.title t) ^ ".csv") in
      let oc = open_out file in
      output_string oc (Tab.to_csv t);
      close_out oc);
  Tab.to_string t

(* E18 stamps wall-clock cells; [--no-timings] blanks them so two runs of
   the harness can be diffed byte-for-byte. *)
let live_timings = ref true

let tree_of name n =
  (* a fresh deterministic stream per (name, n) keeps tables stable under
     reordering *)
  let rng = Rng.make ~seed:(Hashtbl.hash (name, n, 20260704)) in
  (Gen.family name).generate rng n

(* ------------------------------------------------------------------ *)

let f1_xtree_structure () =
  let t = Tab.create ~title:"F1  X-tree structure (Figure 1)" [ "r"; "vertices"; "edges"; "tree-edges"; "horiz-edges"; "max-deg"; "diameter" ] in
  List.iter
    (fun r ->
      let xt = Xtree.create ~height:r in
      let g = Xtree.graph xt in
      let tree_edges = Xtree.order xt - 1 in
      let horiz = Graph.m g - tree_edges in
      Tab.add_int_row t (string_of_int r)
        [ Xtree.order xt; Graph.m g; tree_edges; horiz; Graph.max_degree g; Graph.diameter g ])
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ];
  t

let f2_neighbourhood () =
  let t =
    Tab.create ~title:"F2  Neighbourhood N(a) (Figure 2; paper: |N(a)-a| <= 20, asym <= 5)"
      [ "r"; "max |N(a)-a|"; "max asym in-nbrs" ]
  in
  List.iter
    (fun r ->
      let xt = Xtree.create ~height:r in
      let order = Xtree.order xt in
      let n_of = Array.init order (fun a -> Xtree.neighbourhood xt a) in
      let maxn = ref 0 and maxasym = ref 0 in
      for a = 0 to order - 1 do
        let sz = List.length n_of.(a) - 1 in
        if sz > !maxn then maxn := sz;
        let asym = ref 0 in
        for b = 0 to order - 1 do
          if b <> a && List.mem a n_of.(b) && not (List.mem b n_of.(a)) then incr asym
        done;
        if !asym > !maxasym then maxasym := !asym
      done;
      Tab.add_int_row t (string_of_int r) [ !maxn; !maxasym ])
    [ 2; 3; 4; 5; 6; 7 ];
  t

let f3_network_zoo () =
  let t =
    Tab.create
      ~title:"F3  Network zoo at comparable sizes (context for the paper's introduction)"
      [ "network"; "vertices"; "edges"; "max-deg"; "diameter" ]
  in
  let add name g =
    Tab.add_row t
      [
        name;
        string_of_int (Graph.n g);
        string_of_int (Graph.m g);
        string_of_int (Graph.max_degree g);
        string_of_int (Graph.diameter g);
      ]
  in
  add "X-tree X(7)" (Xtree.graph (Xtree.create ~height:7));
  add "CBT B(7)" (Cbt.graph (Cbt.create ~height:7));
  add "hypercube Q8" (Hypercube.graph (Hypercube.create ~dim:8));
  add "CCC(5)" (Ccc.graph (Ccc.create ~dim:5));
  add "butterfly BF(5)" (Butterfly.graph (Butterfly.create ~dim:5));
  add "grid 16x16" (Grid.graph (Grid.create ~rows:16 ~cols:16));
  t

(* ------------------------------------------------------------------ *)

let lemma_table ~title ~seed ~lemma ~bound_of ~max_target () =
  let t =
    Tab.create ~title
      [ "family"; "n"; "trials"; "max err"; "err bound"; "max |s1|"; "max |s2|"; "all valid" ]
  in
  (* each lemma table owns its stream, so its numbers do not depend on
     which tables ran before it *)
  let rng = Rng.make ~seed in
  List.iter
    (fun name ->
      List.iter
        (fun n ->
          let tree = tree_of name n in
          let nodes = List.init n Fun.id in
          let low_degree = List.filter (fun v -> Bintree.degree tree v <= 2) nodes in
          let trials = 60 in
          let ws = Separator.make_ws tree in
          let max_err = ref 0 and max_s1 = ref 0 and max_s2 = ref 0 in
          let worst_bound = ref 0 and valid = ref true in
          for _ = 1 to trials do
            let r1 = List.nth low_degree (Rng.int rng (List.length low_degree)) in
            let r2_raw = Rng.int rng n in
            let r2 = if r2_raw = r1 then None else Some r2_raw in
            let target = 1 + Rng.int rng (max_target n) in
            let piece = { Separator.nodes; r1; r2 } in
            let sp = lemma ws piece ~target in
            let _, n2 = Separator.side_sizes sp in
            let err = abs (n2 - target) and bound = bound_of target in
            if err > !max_err then max_err := err;
            if err > bound then valid := false;
            if bound > !worst_bound then worst_bound := bound;
            max_s1 := max !max_s1 (List.length sp.Separator.s1);
            max_s2 := max !max_s2 (List.length sp.Separator.s2);
            if Separator.verify_split ws piece sp <> Ok () then valid := false
          done;
          Tab.add_row t
            [
              name;
              string_of_int n;
              string_of_int trials;
              string_of_int !max_err;
              string_of_int !worst_bound;
              string_of_int !max_s1;
              string_of_int !max_s2;
              string_of_bool !valid;
            ])
        [ 100; 1000; 8000 ])
    families;
  t

let l1_lemma1 () =
  lemma_table
    ~title:"L1  Lemma 1 splits (paper: |n2-A| <= (A+1)/3, |s1| <= 4, |s2| <= 2)"
    ~seed:20260704 ~lemma:Separator.lemma1
    ~bound_of:(fun target -> (target + 1) / 3)
    ~max_target:(fun n -> max 1 ((3 * n / 4) - 1))
    ()

let l2_lemma2 () =
  lemma_table
    ~title:"L2  Lemma 2 splits (paper: |n2-A| <= (A+4)/9, |s1|,|s2| <= 4)"
    ~seed:20260705 ~lemma:Separator.lemma2
    ~bound_of:(fun target -> (target + 4) / 9)
    ~max_target:(fun n -> n)
    ()

(* ------------------------------------------------------------------ *)

let e1_theorem1 () =
  let t =
    Tab.create
      ~title:"E1  Theorem 1: arbitrary trees into the optimal X-tree (paper: dilation 3, load 16)"
      [ "family"; "r"; "n"; "dilation"; "avg-dil"; "load"; "slots"; "congestion"; "fallbacks" ]
  in
  List.iter
    (fun name ->
      List.iter
        (fun r ->
          let n = Theorem1.optimal_size r in
          let tree = tree_of name n in
          let res = Theorem1.embed tree in
          let dist = Theorem1.distance_oracle res in
          let rep = Embedding.report ~dist res.Theorem1.embedding in
          Tab.add_row t
            [
              name;
              string_of_int r;
              string_of_int n;
              string_of_int rep.Embedding.dilation;
              Printf.sprintf "%.2f" rep.Embedding.average_dilation;
              string_of_int rep.Embedding.load;
              string_of_int (16 * Xtree.order res.Theorem1.xt);
              string_of_int rep.Embedding.congestion;
              string_of_int res.Theorem1.fallbacks;
            ])
        [ 3; 5; 7; 9 ])
    families;
  t

let e2_theorem2 () =
  let t =
    Tab.create ~title:"E2  Theorem 2: injective into X(r+4) (paper: dilation <= 11)"
      [ "family"; "r"; "n"; "dilation"; "injective"; "host" ]
  in
  List.iter
    (fun name ->
      List.iter
        (fun r ->
          let n = Theorem1.optimal_size r in
          let tree = tree_of name n in
          let res = Theorem2.embed tree in
          let d = Embedding.dilation ~dist:(Theorem2.distance_oracle res) res.Theorem2.embedding in
          Tab.add_row t
            [
              name;
              string_of_int r;
              string_of_int n;
              string_of_int d;
              string_of_bool (Embedding.is_injective res.Theorem2.embedding);
              Printf.sprintf "X(%d)" res.Theorem2.height;
            ])
        [ 3; 5; 7 ])
    families;
  t

let e3_lemma3 () =
  let t =
    Tab.create ~title:"E3  Lemma 3: X(r) -> Q(r+1) (paper: dist <= Delta+1; siblings adjacent)"
      [ "r"; "vertices"; "siblings adjacent"; "distance bound holds" ]
  in
  List.iter
    (fun r ->
      Tab.add_row t
        [
          string_of_int r;
          string_of_int ((2 * Bits.pow2 r) - 1);
          string_of_bool (Hypercube_transfer.siblings_adjacent ~height:r);
          string_of_bool (Hypercube_transfer.lemma3_distance_bound_holds ~height:r);
        ])
    [ 1; 2; 3; 4; 5; 6; 7 ];
  t

let e4_theorem3 () =
  let t =
    Tab.create
      ~title:"E4  Theorem 3: optimal hypercube (paper: load 16 dilation 4; injective dilation 8)"
      [ "family"; "r"; "n"; "dim"; "dilation"; "load"; "inj-dim"; "inj-dilation" ]
  in
  List.iter
    (fun name ->
      List.iter
        (fun r ->
          let n = Theorem1.optimal_size r in
          let tree = tree_of name n in
          let res = Hypercube_transfer.embed tree in
          let d =
            Embedding.dilation ~dist:(Hypercube_transfer.distance_oracle res)
              res.Hypercube_transfer.embedding
          in
          let inj = Hypercube_transfer.embed_injective tree in
          let di =
            Embedding.dilation ~dist:(Hypercube_transfer.distance_oracle inj)
              inj.Hypercube_transfer.embedding
          in
          Tab.add_row t
            [
              name;
              string_of_int r;
              string_of_int n;
              string_of_int res.Hypercube_transfer.dim;
              string_of_int d;
              string_of_int (Embedding.load res.Hypercube_transfer.embedding);
              string_of_int inj.Hypercube_transfer.dim;
              string_of_int di;
            ])
        [ 3; 5; 7 ])
    families;
  t

let e5_universal () =
  let t =
    Tab.create ~title:"E5  Theorem 4: universal graph (paper: degree <= 415, every tree spans)"
      [ "height"; "n"; "edges"; "max-degree"; "families ok" ]
  in
  List.iter
    (fun h ->
      let u = Universal.create h in
      let ok = ref 0 in
      List.iter
        (fun name ->
          let tree = tree_of name (Universal.order u) in
          match Universal.spanning_tree_of u tree with Ok _ -> incr ok | Error _ -> ())
        families;
      Tab.add_row t
        [
          string_of_int h;
          string_of_int (Universal.order u);
          string_of_int (Graph.m u.Universal.graph);
          string_of_int (Graph.max_degree u.Universal.graph);
          Printf.sprintf "%d/%d" !ok (List.length families);
        ])
    [ 2; 3; 4; 5 ];
  t

let e6_constant_vs_growing () =
  let t =
    Tab.create
      ~title:"E6  Who wins: Theorem 1 vs baselines (dilation/load; paper: only X-TREE keeps both constant)"
      [ "family"; "r"; "T1 dil"; "T1 load"; "bisect dil"; "bisect load"; "dfs dil"; "dfs load"; "bfs dil"; "bfs load" ]
  in
  let cells =
    List.concat_map
      (fun name -> List.map (fun r -> (name, r)) [ 3; 5; 7; 9 ])
      [ "path"; "caterpillar"; "uniform"; "random-bst" ]
  in
  let rows =
    List.map
      (fun (name, r) ->
        let n = Theorem1.optimal_size r in
        let tree = tree_of name n in
        let t1 = Theorem1.embed tree in
        let d1 = Embedding.dilation ~dist:(Theorem1.distance_oracle t1) t1.Theorem1.embedding in
        let rb = Recursive_bisection.embed tree in
        let dfs = Order_layout.embed ~order:Order_layout.Dfs tree in
        let bfs = Order_layout.embed ~order:Order_layout.Bfs tree in
        [
          name;
          string_of_int r;
          string_of_int d1;
          string_of_int (Embedding.load t1.Theorem1.embedding);
          string_of_int
            (Embedding.dilation ~dist:(Xtree.distance rb.Recursive_bisection.xt)
               rb.Recursive_bisection.embedding);
          string_of_int (Embedding.load rb.Recursive_bisection.embedding);
          string_of_int
            (Embedding.dilation ~dist:(Xtree.distance dfs.Order_layout.xt) dfs.Order_layout.embedding);
          string_of_int (Embedding.load dfs.Order_layout.embedding);
          string_of_int
            (Embedding.dilation ~dist:(Xtree.distance bfs.Order_layout.xt) bfs.Order_layout.embedding);
          string_of_int (Embedding.load bfs.Order_layout.embedding);
        ])
      cells
  in
  List.iter (Tab.add_row t) rows;
  t

let e7_simulation () =
  let t =
    Tab.create
      ~title:"E7  Clock-cycle simulation: guest tree vs X-tree host (dilation as cycles)"
      [ "family"; "workload"; "native"; "x-tree"; "slowdown"; "peak queue" ]
  in
  List.iter
    (fun name ->
      let n = Theorem1.optimal_size 7 in
      let tree = tree_of name n in
      let res = Theorem1.embed tree in
      List.iter
        (fun (w : Workload.spec) ->
          let native = Workload.run_native w tree in
          let sim, embedded = Workload.run_on w res.Theorem1.embedding in
          Tab.add_row t
            [
              name;
              w.Workload.name;
              string_of_int native;
              string_of_int embedded;
              Printf.sprintf "%.2fx" (float_of_int embedded /. float_of_int (max 1 native));
              string_of_int (Sim.max_link_queue sim);
            ])
        Workload.workloads)
    [ "complete"; "caterpillar"; "uniform"; "random-bst" ];
  t

let e7b_host_comparison () =
  let t =
    Tab.create
      ~title:
        "E7b Host comparison: the same reduction, different hosts/layouts (quality -> cycles)"
      [ "family"; "host/layout"; "cycles"; "slowdown" ]
  in
  List.iter
    (fun name ->
      let n = Theorem1.optimal_size 7 in
      let tree = tree_of name n in
      let native = Workload.run_native Workload.reduction tree in
      let add label e =
        let cycles = Workload.run_embedded Workload.reduction e in
        Tab.add_row t
          [
            name;
            label;
            string_of_int cycles;
            Printf.sprintf "%.2fx" (float_of_int cycles /. float_of_int (max 1 native));
          ]
      in
      Tab.add_row t [ name; "native tree"; string_of_int native; "1.00x" ];
      let t1 = Theorem1.embed tree in
      add "X-tree (Theorem 1)" t1.Theorem1.embedding;
      let t3 = Hypercube_transfer.embed tree in
      add "hypercube (Theorem 3)" t3.Hypercube_transfer.embedding;
      let dfs = Order_layout.embed ~order:Order_layout.Dfs tree in
      add "X-tree (DFS layout)" dfs.Order_layout.embedding;
      let rb = Recursive_bisection.embed tree in
      add "X-tree (bisection)" rb.Recursive_bisection.embedding)
    [ "caterpillar"; "uniform" ];
  t

let e9b_spread () =
  let t =
    Tab.create
      ~title:
        "E9b Subtree-population spread nh-nl per level after the final round (paper: -> 0 above the last two levels)"
      [ "family"; "level j"; "nl(j,r)"; "nh(j,r)"; "target n(r-j)" ]
  in
  let r = 6 in
  List.iter
    (fun name ->
      let tree = tree_of name (Theorem1.optimal_size r) in
      let res = Theorem1.embed ~record_trace:true tree in
      match res.Theorem1.trace with
      | None -> ()
      | Some tr ->
          let last = tr.Theorem1.spreads.(Array.length tr.Theorem1.spreads - 1) in
          Array.iteri
            (fun j (lo, hi) ->
              Tab.add_row t
                [
                  name;
                  string_of_int j;
                  string_of_int lo;
                  string_of_int hi;
                  string_of_int (Theorem1.optimal_size (r - j));
                ])
            last)
    [ "path"; "uniform" ];
  t

let e7c_compute_bound () =
  let t =
    Tab.create
      ~title:
        "E7c Compute-bound regime (service rate 1/cycle): the load factor becomes the serialisation cost"
      [ "family"; "workload"; "native (n CPUs)"; "x-tree (n/16 CPUs)"; "slowdown" ]
  in
  List.iter
    (fun name ->
      let n = Theorem1.optimal_size 6 in
      let tree = tree_of name n in
      let res = Theorem1.embed tree in
      List.iter
        (fun (w : Workload.spec) ->
          let native = Workload.run_native ~service_rate:1 w tree in
          let embedded = Workload.run_embedded ~service_rate:1 w res.Theorem1.embedding in
          Tab.add_row t
            [
              name;
              w.Workload.name;
              string_of_int native;
              string_of_int embedded;
              Printf.sprintf "%.2fx" (float_of_int embedded /. float_of_int (max 1 native));
            ])
        [ Workload.reduction; Workload.broadcast; Workload.permutation ])
    [ "complete"; "uniform" ];
  t

let e13b_structural_guests () =
  let t =
    Tab.create
      ~title:
        "E13b Exact optimal dilation, structural guests (BCHLR separation is asymptotic; tiny X-trees already need 2)"
      [ "guest"; "Q3"; "Q4"; "CCC(3)"; "BF(2)"; "BF(3)"; "grid 4x4" ]
  in
  let hosts =
    [
      Hypercube.graph (Hypercube.create ~dim:3);
      Hypercube.graph (Hypercube.create ~dim:4);
      Ccc.graph (Ccc.create ~dim:3);
      Butterfly.graph (Butterfly.create ~dim:2);
      Butterfly.graph (Butterfly.create ~dim:3);
      Grid.graph (Grid.create ~rows:4 ~cols:4);
    ]
  in
  let probe name guest =
    let cells =
      List.map
        (fun host ->
          match Exact.optimal_dilation_graph ~max_dilation:5 ~guest ~host () with
          | Some d -> string_of_int d
          | None -> "-")
        hosts
    in
    Tab.add_row t (name :: cells)
  in
  probe "X(1) (3)" (Xtree.graph (Xtree.create ~height:1));
  probe "X(2) (7)" (Xtree.graph (Xtree.create ~height:2));
  probe "X(3) (15)" (Xtree.graph (Xtree.create ~height:3));
  probe "grid 2x4 (8)" (Grid.graph (Grid.create ~rows:2 ~cols:4));
  probe "grid 3x3 (9)" (Grid.graph (Grid.create ~rows:3 ~cols:3));
  t

let e14_seed_robustness () =
  let t =
    Tab.create
      ~title:"E14 Robustness over 20 random instances per family (Theorem 1 dilation)"
      [ "family"; "r"; "min dil"; "mean dil"; "max dil"; "max fallbacks" ]
  in
  let cells =
    List.concat_map
      (fun name -> List.map (fun r -> (name, r)) [ 4; 6 ])
      [ "uniform"; "random-bst"; "skewed"; "random-grow" ]
  in
  let rows =
    List.map
      (fun (name, r) ->
        let n = Theorem1.optimal_size r in
        let dils = ref [] and worst_fb = ref 0 in
        for seed = 1 to 20 do
          let rng = Rng.make ~seed:(seed * 7919) in
          let tree = (Gen.family name).generate rng n in
          let res = Theorem1.embed tree in
          let d = Embedding.dilation ~dist:Xtree.analytic_distance res.Theorem1.embedding in
          dils := d :: !dils;
          if res.Theorem1.fallbacks > !worst_fb then worst_fb := res.Theorem1.fallbacks
        done;
        let s = Stats.of_ints (Array.of_list !dils) in
        [
          name;
          string_of_int r;
          Printf.sprintf "%.0f" s.Stats.min;
          Printf.sprintf "%.2f" s.Stats.mean;
          Printf.sprintf "%.0f" s.Stats.max;
          string_of_int !worst_fb;
        ])
      cells
  in
  List.iter (Tab.add_row t) rows;
  t

let e18_scaling () =
  let t =
    Tab.create
      ~title:
        "E18 Scaling: Theorem 1 up to a quarter-million nodes (dilation via the analytic oracle)"
      [ "r"; "n"; "embed seconds"; "dilation"; "load"; "fallbacks"; "fallback rate" ]
  in
  List.iter
    (fun r ->
      let n = Theorem1.optimal_size r in
      let tree = Gen.uniform (Rng.make ~seed:1) n in
      let t0 = Sys.time () in
      let res = Theorem1.embed tree in
      let dt = Sys.time () -. t0 in
      let d = Embedding.dilation ~dist:Xtree.analytic_distance res.Theorem1.embedding in
      Tab.add_row t
        [
          string_of_int r;
          string_of_int n;
          (if !live_timings then Printf.sprintf "%.2f" dt else "-");
          string_of_int d;
          string_of_int (Embedding.load res.Theorem1.embedding);
          string_of_int res.Theorem1.fallbacks;
          Printf.sprintf "%.4f%%" (100. *. float_of_int res.Theorem1.fallbacks /. float_of_int n);
        ])
    [ 8; 9; 10; 11; 12 ];
  t

let e8_cbt_classics () =
  let t =
    Tab.create ~title:"E8  Complete-tree classics (context: identity dil 1; inorder dil 2)"
      [ "r"; "B_r -> X(r) dilation"; "B_r -> Q(r+1) dilation"; "inorder dist property" ]
  in
  List.iter
    (fun r ->
      Tab.add_row t
        [
          string_of_int r;
          string_of_int
            (Embedding.dilation ~dist:(Xtree.distance (Xtree.create ~height:r))
               (Cbt_embeddings.cbt_into_xtree r));
          string_of_int
            (Embedding.dilation ~dist:(Hypercube.distance (Hypercube.create ~dim:(r + 1)))
               (Cbt_embeddings.inorder_into_hypercube r));
          string_of_bool (Cbt_embeddings.inorder_distance_bound_holds ~height:(min r 6));
        ])
    [ 2; 4; 6; 8 ];
  t

let e9_trace_decay () =
  let t =
    Tab.create
      ~title:"E9  ADJUST convergence: max sibling weight gap per round (paper: Delta(j,i) decays to 0)"
      [ "family"; "round"; "max gap"; "paper envelope 2^(r+2-i)" ]
  in
  let r = 7 in
  List.iter
    (fun name ->
      let tree = tree_of name (Theorem1.optimal_size r) in
      let res = Theorem1.embed ~record_trace:true tree in
      match res.Theorem1.trace with
      | None -> ()
      | Some tr ->
          Array.iteri
            (fun i row ->
              let worst = Array.fold_left max 0 row in
              let envelope = if r + 2 - (i + 1) >= 0 then Bits.pow2 (min 20 (r + 2 - (i + 1))) else 1 in
              Tab.add_row t
                [ name; string_of_int (i + 1); string_of_int worst; string_of_int envelope ])
            tr.Theorem1.rounds)
    [ "path"; "uniform" ];
  t

let e10_conditions () =
  let t =
    Tab.create
      ~title:
        "E10 Conditions (3') and (4), before and after the repair pass (paper invariants, measured)"
      [ "family"; "r"; "edges"; "(3') raw"; "(3') repaired"; "dil raw"; "dil repaired"; "(4) violations" ]
  in
  let cells = List.concat_map (fun name -> List.map (fun r -> (name, r)) [ 3; 5; 7; 9 ]) families in
  let rows =
    List.map
      (fun (name, r) ->
        let tree = tree_of name (Theorem1.optimal_size r) in
        let res = Theorem1.embed tree in
        let c = Conditions.check_theorem1 res in
        let repaired, rep = Repair.improve_theorem1 res in
        let c' = Conditions.check_theorem1 repaired in
        [
          name;
          string_of_int r;
          string_of_int c.Conditions.edges;
          string_of_int c.Conditions.cond3_violations;
          string_of_int c'.Conditions.cond3_violations;
          string_of_int rep.Repair.dilation_before;
          string_of_int rep.Repair.dilation_after;
          string_of_int c.Conditions.cond4_violations;
        ])
      cells
  in
  List.iter (Tab.add_row t) rows;
  t

let e12_ablation () =
  let t =
    Tab.create
      ~title:
        "E12 Ablation: which mechanism buys what (load stays enforced; damage shows in dilation/fallbacks/(3'))"
      [ "family"; "variant"; "dilation"; "avg-dil"; "fallbacks"; "(3') violations" ]
  in
  List.iter
    (fun name ->
      let tree = tree_of name (Theorem1.optimal_size 7) in
      List.iter
        (fun (vname, options) ->
          let res = Theorem1.embed ~options tree in
          let dist = Theorem1.distance_oracle res in
          let c = Conditions.check_theorem1 res in
          Tab.add_row t
            [
              name;
              vname;
              string_of_int (Embedding.dilation ~dist res.Theorem1.embedding);
              Printf.sprintf "%.2f" (Embedding.average_dilation ~dist res.Theorem1.embedding);
              string_of_int res.Theorem1.fallbacks;
              string_of_int c.Conditions.cond3_violations;
            ])
        Options.variants)
    [ "path"; "caterpillar"; "uniform" ];
  t

let e11_online () =
  let t =
    Tab.create
      ~title:
        "E11 Online growth: incremental placement vs offline rebuild (Theorem 1 is the offline bound)"
      [ "n"; "incremental dil"; "after rebuild"; "incr host"; "optimal host"; "load" ]
  in
  let rng = Rng.make ~seed:424242 in
  let d = Dynamic.create () in
  let slots = ref [ Dynamic.root d; Dynamic.root d ] in
  let grow_one () =
    let idx = Rng.int rng (List.length !slots) in
    let parent = List.nth !slots idx in
    match Dynamic.add_child d ~parent with
    | v -> slots := v :: v :: List.filteri (fun i _ -> i <> idx) !slots
    | exception Invalid_argument _ -> slots := List.filteri (fun i _ -> i <> idx) !slots
  in
  List.iter
    (fun checkpoint ->
      while Dynamic.size d < checkpoint do
        grow_one ()
      done;
      let incr_dil = Dynamic.dilation d in
      let incr_host = Dynamic.host_height d in
      let load = Dynamic.load d in
      (* measure the rebuilt quality on a snapshot without disturbing the
         online run *)
      let tree = Dynamic.to_tree d in
      let res = Theorem1.embed tree in
      let res, _ = Repair.improve_theorem1 res in
      let rebuilt = Embedding.dilation ~dist:(Theorem1.distance_oracle res) res.Theorem1.embedding in
      Tab.add_int_row t (string_of_int checkpoint)
        [ incr_dil; rebuilt; incr_host; res.Theorem1.height; load ])
    [ 100; 500; 1000; 2000; 4000; 8000 ];
  t

let e13_exact_optimal () =
  let t =
    Tab.create
      ~title:
        "E13 Exact optimal dilation on small instances (branch & bound; '-' = does not fit)"
      [ "guest"; "X(3)"; "CBT(3)"; "Q4"; "CCC(3)"; "BF(3)"; "grid 4x4" ]
  in
  let hosts =
    [
      Xtree.graph (Xtree.create ~height:3);
      Cbt.graph (Cbt.create ~height:3);
      Hypercube.graph (Hypercube.create ~dim:4);
      Ccc.graph (Ccc.create ~dim:3);
      Butterfly.graph (Butterfly.create ~dim:3);
      Grid.graph (Grid.create ~rows:4 ~cols:4);
    ]
  in
  let probe name guest =
    let cells =
      List.map
        (fun host ->
          match Exact.optimal_dilation ~max_dilation:6 ~guest ~host () with
          | Some d -> string_of_int d
          | None -> "-")
        hosts
    in
    Tab.add_row t (name :: cells)
  in
  probe "complete B_3 (15)" (Gen.complete 15);
  probe "path (15)" (Gen.path 15);
  probe "caterpillar (15)" (Gen.caterpillar 15);
  probe "fibonacci (12)" (Gen.fibonacci 12);
  let rng = Rng.make ~seed:7 in
  probe "uniform (12)" (Gen.uniform rng 12);
  probe "uniform (14)" (Gen.uniform rng 14);
  t

let e15_exhaustive () =
  let t =
    Tab.create
      ~title:
        "E15 Exhaustive verification over ALL binary trees of a size (Catalan(n) guests per row)"
      [ "n"; "capacity"; "host"; "shapes"; "max dilation"; "max load" ]
  in
  List.iter
    (fun (n, capacity) ->
      let maxdil = ref 0 and maxload = ref 0 and count = ref 0 in
      let height = ref 0 in
      Seq.iter
        (fun tree ->
          incr count;
          let res = Theorem1.embed ~capacity tree in
          height := res.Theorem1.height;
          let d = Embedding.dilation ~dist:(Theorem1.distance_oracle res) res.Theorem1.embedding in
          let l = Embedding.load res.Theorem1.embedding in
          if d > !maxdil then maxdil := d;
          if l > !maxload then maxload := l)
        (Enum.all_shapes n);
      Tab.add_row t
        [
          string_of_int n;
          string_of_int capacity;
          Printf.sprintf "X(%d)" !height;
          string_of_int !count;
          string_of_int !maxdil;
          string_of_int !maxload;
        ])
    [ (6, 2); (7, 1); (9, 2); (10, 4); (11, 16) ];
  t

let e16_congestion_routing () =
  let t =
    Tab.create
      ~title:
        "E16 Congestion-aware routing vs BFS shortest paths (detour budget 4; host = Theorem 1 X-tree)"
      [ "family"; "r"; "bfs congestion"; "smart congestion"; "bfs maxlen"; "smart maxlen" ]
  in
  List.iter
    (fun name ->
      List.iter
        (fun r ->
          let tree = tree_of name (Theorem1.optimal_size r) in
          let res = Theorem1.embed tree in
          let base = Congestion.baseline res.Theorem1.embedding in
          let smart = Congestion.route res.Theorem1.embedding in
          Tab.add_row t
            [
              name;
              string_of_int r;
              string_of_int base.Congestion.congestion;
              string_of_int smart.Congestion.congestion;
              string_of_int base.Congestion.max_route_length;
              string_of_int smart.Congestion.max_route_length;
            ])
        [ 5; 7 ])
    [ "caterpillar"; "uniform"; "random-bst"; "complete" ];
  t

let e17_analytic_routing () =
  let t =
    Tab.create
      ~title:
        "E17 Table-free analytic routing on X(r): exactness vs BFS and route quality (exhaustive per height)"
      [ "r"; "pairs"; "analytic = BFS"; "max ratio"; "routes shortest"; "max route excess" ]
  in
  List.iter
    (fun r ->
      let xt = Xtree.create ~height:r in
      let g = Xtree.graph xt in
      let n = Xtree.order xt in
      let pairs = ref 0 and exact = ref 0 and max_excess = ref 0 in
      let max_ratio = ref 1.0 in
      for a = 0 to n - 1 do
        let row = Graph.bfs g a in
        for b = 0 to n - 1 do
          if a <> b then begin
            incr pairs;
            let d = Xtree.analytic_distance a b in
            if d = row.(b) then incr exact;
            let ratio = float_of_int d /. float_of_int row.(b) in
            if ratio > !max_ratio then max_ratio := ratio;
            let len = List.length (Xtree.route xt ~src:a ~dst:b) - 1 in
            if len - row.(b) > !max_excess then max_excess := len - row.(b)
          end
        done
      done;
      Tab.add_row t
        [
          string_of_int r;
          string_of_int !pairs;
          Printf.sprintf "%d/%d" !exact !pairs;
          Printf.sprintf "%.2f" !max_ratio;
          string_of_bool (!max_excess <= 0);
          string_of_int !max_excess;
        ])
    [ 3; 4; 5; 6; 7 ];
  t

let e19_weighted () =
  let t =
    Tab.create
      ~title:
        "E19 Weighted guests (skewed node costs, budget 128/vertex): weight-aware embed vs weight-blind Theorem 1"
      [ "family"; "total weight"; "host"; "aware max"; "aware imbalance"; "aware dil"; "blind max" ]
  in
  let rng = Rng.make ~seed:555 in
  List.iter
    (fun name ->
      let n = Theorem1.optimal_size 7 in
      let tree = tree_of name n in
      let weights =
        Array.init n (fun _ ->
            let u = Rng.float rng 1.0 in
            1 + int_of_float (31.0 *. u *. u *. u))
      in
      let res = Weighted.embed ~budget:128 ~weights tree in
      let blind = Theorem1.embed ~height:res.Weighted.height tree in
      Tab.add_row t
        [
          name;
          string_of_int res.Weighted.total_weight;
          Printf.sprintf "X(%d)" res.Weighted.height;
          string_of_int res.Weighted.max_vertex_weight;
          Printf.sprintf "%.2f" (Weighted.imbalance res);
          string_of_int (Embedding.dilation ~dist:Xtree.analytic_distance res.Weighted.embedding);
          string_of_int (Weighted.evaluate_placement ~weights blind.Theorem1.embedding);
        ])
    [ "uniform"; "caterpillar"; "random-bst"; "path" ];
  t

let d1_dedup () =
  let t =
    Tab.create
      ~title:
        "D1  Canonical-shape cache: dedup workload (N requests over K unique shapes, cold vs warm)"
      [ "n"; "trees"; "unique"; "cold s"; "first s"; "warm s"; "speedup"; "hit rate"; "identical" ]
  in
  let reparse tree =
    match Codec.of_string (Codec.to_string tree) with Ok t -> t | Error _ -> assert false
  in
  List.iter
    (fun (r, total, k) ->
      let n = Theorem1.optimal_size r in
      let shapes =
        Array.init k (fun i -> tree_of (List.nth families (i mod List.length families)) (n - i))
      in
      (* Each request is its own Codec-parsed value (preorder labels,
         fresh arrays), as a deduplicating front-end would see them —
         and exactly the labelling for which cache hits are guaranteed
         bit-identical to uncached runs. *)
      let instances = Array.init total (fun j -> reparse shapes.(j mod k)) in
      let time f =
        let t0 = Sys.time () in
        let v = f () in
        (v, Sys.time () -. t0)
      in
      let place (res : Theorem1.result) = res.Theorem1.embedding.Embedding.place in
      let cold, cold_s =
        time (fun () -> Array.map (fun tree -> place (Theorem1.embed tree)) instances)
      in
      let cache = Theorem1.make_cache ~capacity:64 () in
      let first, first_s =
        time (fun () -> Array.map (fun tree -> place (Theorem1.embed ~cache tree)) instances)
      in
      let warm, warm_s =
        time (fun () -> Array.map (fun tree -> place (Theorem1.embed ~cache tree)) instances)
      in
      let identical = cold = first && cold = warm in
      let unique = Theorem1.cache_length cache in
      (* Of the 2N cached lookups, only the first pass's K unique shapes
         miss; the rate is arithmetic, the cache.* counters in the JSON
         dump confirm it. *)
      let hit_rate = float_of_int ((2 * total) - unique) /. float_of_int (2 * total) in
      let cell v = if !live_timings then Printf.sprintf "%.3f" v else "-" in
      Tab.add_row t
        [
          string_of_int n;
          string_of_int total;
          string_of_int unique;
          cell cold_s;
          cell first_s;
          cell warm_s;
          (if !live_timings then Printf.sprintf "%.1fx" (cold_s /. warm_s) else "-");
          Printf.sprintf "%.1f%%" (100. *. hit_rate);
          string_of_bool identical;
        ])
    [ (4, 120, 12); (5, 160, 12) ];
  t

let d2_sim_throughput () =
  let t =
    Tab.create
      ~title:
        "D2  Simulator throughput: active-set core, native vs Theorem 1 X-tree vs Theorem 3 hypercube hosts"
      [ "r"; "workload"; "host"; "cycles"; "delivered"; "hops"; "max queue"; "kmsg/s"; "Mcycle/s" ]
  in
  List.iter
    (fun r ->
      let n = Theorem1.optimal_size r in
      let tree = tree_of "uniform" n in
      let t1 = Theorem1.embed tree in
      let t3 = Hypercube_transfer.embed tree in
      (* build both hosts' routes before any replay, so the rate cells
         time the replay alone *)
      List.iter
        (fun (e : Embedding.t) -> Router.warm (Router.create e.host))
        [ t1.Theorem1.embedding; t3.Hypercube_transfer.embedding ];
      List.iter
        (fun (w : Workload.spec) ->
          let cases =
            [
              Workload.native_case ~label:"native" w tree;
              Workload.embedded_case
                ~label:(Printf.sprintf "X(%d)" t1.Theorem1.height)
                w t1.Theorem1.embedding;
              Workload.embedded_case
                ~label:(Printf.sprintf "Q_%d" t3.Hypercube_transfer.dim)
                w t3.Hypercube_transfer.embedding;
            ]
          in
          (* cases run one after another, so each replay's wall clock,
             and with it the rate columns, is its own *)
          List.iter
            (fun (o : Workload.outcome) ->
              let rate scale v =
                if !live_timings && o.Workload.seconds > 0. then
                  Printf.sprintf "%.1f" (float_of_int v /. o.Workload.seconds /. scale)
                else "-"
              in
              Tab.add_row t
                [
                  string_of_int r;
                  w.Workload.name;
                  o.Workload.case.Workload.label;
                  string_of_int o.Workload.cycles;
                  string_of_int o.Workload.delivered;
                  string_of_int o.Workload.hops;
                  string_of_int o.Workload.max_queue;
                  rate 1e3 o.Workload.delivered;
                  rate 1e6 o.Workload.cycles;
                ])
            (Workload.run_suite cases))
        [ Workload.reduction; Workload.pingpong_sweep; Workload.permutation ])
    [ 5; 7; 9; 10 ];
  t

let d3_embed_scaling () =
  let t =
    Tab.create ~title:"D3  Embedding construction at scale (random-split guests, r = 10-14)"
      [ "r"; "n"; "gen s"; "embed s"; "knodes/s"; "dilation"; "fallbacks" ]
  in
  List.iter
    (fun r ->
      let n = Theorem1.optimal_size r in
      let t0 = Unix.gettimeofday () in
      let tree = Gen.random_split (Rng.make ~seed:(Hashtbl.hash ("d3", r))) n in
      let gen_s = Unix.gettimeofday () -. t0 in
      let t0 = Unix.gettimeofday () in
      let res = Theorem1.embed tree in
      let dt = Unix.gettimeofday () -. t0 in
      let d = Embedding.dilation ~dist:Xtree.analytic_distance res.Theorem1.embedding in
      let cell v = if !live_timings then Printf.sprintf "%.2f" v else "-" in
      Tab.add_row t
        [
          string_of_int r;
          string_of_int n;
          cell gen_s;
          cell dt;
          (if !live_timings then Printf.sprintf "%.0f" (float_of_int n /. dt /. 1e3) else "-");
          string_of_int d;
          string_of_int res.Theorem1.fallbacks;
        ])
    [ 10; 12; 14 ];
  t

let d4_serve_latency () =
  let t =
    Tab.create
      ~title:
        "D4  Embedding service: cold start vs snapshot-warm restart (first-pass hit rate, throughput, RTT quantiles)"
      [
        "n"; "shapes"; "requests"; "session"; "loaded"; "first-pass hits";
        "rps"; "p50 us"; "p90 us"; "p99 us"; "identical";
      ]
  in
  List.iter
    (fun (size, k, total) ->
      let snapshot = Filename.temp_file "xtree-d4" ".xtsm" in
      (* the cold session must find no snapshot on disk *)
      Sys.remove snapshot;
      let config = { Serve.default with Serve.snapshot = Some snapshot } in
      let seed = Hashtbl.hash ("d4", size) in
      let pool = Loadgen.make_shapes ~seed ~count:k ~size in
      (* Two replays per session over one connection: the first pass
         sends each distinct shape once — its hit rate is the warmth
         measurement (a cold cache misses every shape, a snapshot-warm
         one hits every shape) — then a skewed tail measures the
         steady-state request rate and RTT quantiles. *)
      let first_pass = Array.to_list pool in
      let tail = Loadgen.skewed_stream ~seed ~shapes:pool ~requests:total ~skew:1.2 in
      let session () =
        let ((_, loaded) as state) = Serve.make_state config in
        let replies = ref [] in
        let on_reply (r : Loadgen.reply) = replies := r.Loadgen.payload :: !replies in
        let (o1, o2), summary =
          Serve.in_process ~config ~state (fun ch ->
              let o1 = Loadgen.replay ~window:32 ~on_reply ~requests:first_pass ch in
              (o1, Loadgen.replay ~window:32 ~on_reply ~requests:tail ch))
        in
        (* every miss is a distinct first-pass shape the snapshot did not
           already hold: the tail repeats pool shapes, and a pool fits the
           cache, so nothing is evicted and re-embedded *)
        let misses = summary.Serve.stats.Cache.misses in
        let warmth = 1. -. (float_of_int misses /. float_of_int k) in
        (loaded, warmth, o1, o2, List.rev !replies)
      in
      (* lets, not a list literal: the cold session must run first *)
      let cold = session () in
      let warm = session () in
      let _, _, _, _, cold_replies = cold in
      List.iter
        (fun (label, (loaded, warmth, (o1 : Loadgen.outcome), (o2 : Loadgen.outcome), replies)) ->
          (* rps and RTT quantiles cover the whole session — first pass
             plus skewed tail — so a cold restart pays its re-embedding
             in these columns and a warm one doesn't *)
          let rtt = Array.append o1.Loadgen.rtt_ns o2.Loadgen.rtt_ns in
          let q = Stats.quantiles_of_ints rtt in
          let sent = o1.Loadgen.sent + o2.Loadgen.sent in
          let wall_s = float_of_int (o1.Loadgen.wall_ns + o2.Loadgen.wall_ns) /. 1e9 in
          let cell v = if !live_timings then Printf.sprintf "%.1f" v else "-" in
          Tab.add_row t
            [
              string_of_int size;
              string_of_int k;
              string_of_int (k + total);
              label;
              string_of_int loaded;
              Printf.sprintf "%.1f%%" (100. *. warmth);
              (if !live_timings then Printf.sprintf "%.0f" (float_of_int sent /. wall_s)
               else "-");
              cell (q.Stats.p50 /. 1e3);
              cell (q.Stats.p90 /. 1e3);
              cell (q.Stats.p99 /. 1e3);
              string_of_bool (replies = cold_replies);
            ])
        [ ("cold", cold); ("warm", warm) ];
      if Sys.file_exists snapshot then Sys.remove snapshot)
    [ (496, 12, 120); (1008, 16, 160) ];
  t

(* ------------------------------------------------------------------ *)
(* Job registry: every table as an independent, order-free job. [smoke]
   marks the cheap ones the @bench-smoke alias runs in a few seconds. *)

type job = { name : string; smoke : bool; table : unit -> Tab.t }

let jobs =
  [
    { name = "F1"; smoke = true; table = f1_xtree_structure };
    { name = "F2"; smoke = true; table = f2_neighbourhood };
    { name = "F3"; smoke = true; table = f3_network_zoo };
    { name = "L1"; smoke = false; table = l1_lemma1 };
    { name = "L2"; smoke = false; table = l2_lemma2 };
    { name = "E1"; smoke = true; table = e1_theorem1 };
    { name = "E2"; smoke = false; table = e2_theorem2 };
    { name = "E3"; smoke = true; table = e3_lemma3 };
    { name = "E4"; smoke = false; table = e4_theorem3 };
    { name = "E5"; smoke = false; table = e5_universal };
    { name = "E6"; smoke = false; table = e6_constant_vs_growing };
    { name = "E7"; smoke = false; table = e7_simulation };
    { name = "E7b"; smoke = false; table = e7b_host_comparison };
    { name = "E7c"; smoke = false; table = e7c_compute_bound };
    { name = "E8"; smoke = true; table = e8_cbt_classics };
    { name = "E9"; smoke = true; table = e9_trace_decay };
    { name = "E9b"; smoke = false; table = e9b_spread };
    { name = "E10"; smoke = false; table = e10_conditions };
    { name = "E11"; smoke = false; table = e11_online };
    { name = "E12"; smoke = false; table = e12_ablation };
    { name = "E13"; smoke = false; table = e13_exact_optimal };
    { name = "E13b"; smoke = false; table = e13b_structural_guests };
    { name = "E14"; smoke = false; table = e14_seed_robustness };
    { name = "E15"; smoke = false; table = e15_exhaustive };
    { name = "E16"; smoke = true; table = e16_congestion_routing };
    { name = "E17"; smoke = false; table = e17_analytic_routing };
    { name = "E18"; smoke = false; table = e18_scaling };
    { name = "E19"; smoke = false; table = e19_weighted };
    { name = "D1"; smoke = false; table = d1_dedup };
    { name = "D2"; smoke = false; table = d2_sim_throughput };
    { name = "D3"; smoke = false; table = d3_embed_scaling };
    { name = "D4"; smoke = false; table = d4_serve_latency };
  ]

type timing = { job : string; seconds : float; minor_words : int; major_words : int }

(* Run the selected jobs one after another, so a job's recorded time is
   the real cost of producing that table. Returns per-job timings (with
   GC-pressure deltas) in registry order; each job also runs under a
   [bench.NAME] span, so [--trace] profiles the whole harness. *)
let run_jobs ?(smoke = false) () =
  let selected = if smoke then List.filter (fun j -> j.smoke) jobs else jobs in
  List.map
    (fun j ->
      let g0 = Gc.quick_stat () in
      let t0 = Unix.gettimeofday () in
      let out = Xt_obs.Obs.span ("bench." ^ j.name) (fun () -> render (j.table ())) in
      let seconds = Unix.gettimeofday () -. t0 in
      let g1 = Gc.quick_stat () in
      let timing =
        {
          job = j.name;
          seconds;
          minor_words = int_of_float (g1.Gc.minor_words -. g0.Gc.minor_words);
          major_words = int_of_float (g1.Gc.major_words -. g0.Gc.major_words);
        }
      in
      print_string out;
      print_newline ();
      timing)
    selected

let run_all () = ignore (run_jobs ())
