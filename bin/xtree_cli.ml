(* Command-line interface to the X-tree embedding library.

   Subcommands: generate, embed, hypercube, universal, simulate,
   neighbourhood. Every command is deterministic given --seed. *)

open Cmdliner
open Xt_obs
open Xt_prelude
open Xt_topology
open Xt_bintree
open Xt_embedding
open Xt_core
open Xt_baseline
open Xt_netsim
open Xt_serve

(* ---------------- shared arguments ---------------- *)

let family_names = List.map (fun (f : Gen.family) -> f.Gen.name) Gen.families

let family_arg =
  let doc =
    Printf.sprintf "Guest tree family. One of: %s." (String.concat ", " family_names)
  in
  Arg.(value & opt string "uniform" & info [ "f"; "family" ] ~docv:"FAMILY" ~doc)

let seed_arg =
  let doc = "Random seed (all randomness is derived from it)." in
  Arg.(value & opt int 42 & info [ "s"; "seed" ] ~docv:"SEED" ~doc)

(* A flag checked up front, like a bad size: a bad value prints
   "<what> must be <must>" and exits 2, instead of dying later inside
   the library (or, for loadgen, in its spawned server). *)
let checked ~what ~must ok arg =
  let check v =
    if not (ok v) then begin
      Printf.eprintf "%s must be %s\n" what must;
      exit 2
    end;
    v
  in
  Term.(const check $ arg)

let positive what arg = checked ~what ~must:"positive" (fun v -> v > 0) arg

(* The largest guest a size flag accepts; X(19)'s paper size fits. A
   non-positive size is reported where the tree is made. Loadgen's shape
   and request counts share the bound. *)
let max_size = 1 lsl 24

let sized ?(what = "size") arg =
  checked ~what ~must:(Printf.sprintf "at most %d" max_size) (fun n -> n <= max_size) arg

let size_arg =
  let doc = "Number of guest tree nodes." in
  sized Arg.(value & opt int 240 & info [ "n"; "size" ] ~docv:"N" ~doc)

let capacity_arg =
  let doc = "Host vertex capacity (the paper's load factor is 16)." in
  positive "capacity" Arg.(value & opt int 16 & info [ "c"; "capacity" ] ~docv:"CAP" ~doc)

let make_tree family size seed =
  match List.find_opt (fun (f : Gen.family) -> f.Gen.name = family) Gen.families with
  | None ->
      Printf.eprintf "unknown family %S; known: %s\n" family (String.concat ", " family_names);
      exit 2
  | Some f ->
      if size <= 0 then begin
        Printf.eprintf "size must be positive\n";
        exit 2
      end;
      Obs.span "guest.generate" (fun () -> f.Gen.generate (Rng.make ~seed) size)

let input_arg =
  let doc = "Read the guest tree from $(docv) (Codec format) instead of generating one." in
  Arg.(value & opt (some string) None & info [ "i"; "input" ] ~docv:"FILE" ~doc)

(* ---------------- telemetry flags ---------------- *)

(* Every subcommand composes with the same telemetry bundle; commands
   thread one [telemetry] value through [obs_begin]/[obs_end] instead of
   individual flags. *)
type telemetry = {
  tm_trace : string option; (* --trace FILE: Chrome trace JSON *)
  tm_metrics : bool; (* --metrics: counters/histograms on exit *)
  tm_flight : string option; (* --flight FILE: flight-recorder dump on exit *)
  tm_report : bool; (* --trace-report: analytics tables on exit *)
  tm_gc : bool; (* --gc-spans: GC deltas on every span *)
}

let telemetry_term =
  let trace =
    let doc =
      "Record span tracing and write a Chrome trace-event JSON file to $(docv) \
       (load it in Perfetto or chrome://tracing; one track per domain)."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let metrics =
    let doc = "Record work metrics and print the merged counters/histograms on exit." in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let flight =
    let doc =
      "Arm the flight recorder (a fixed ring of the last 256 span/counter \
       events per domain) and dump it to $(docv) on exit. Set XT_FLIGHT=FILE \
       to get the same dump even when the process dies on a fatal error."
    in
    Arg.(value & opt (some string) None & info [ "flight" ] ~docv:"FILE" ~doc)
  in
  let report =
    let doc =
      "Record span tracing and print the trace-analytics tables (wall/self \
       time, domain utilization, series) on exit."
    in
    Arg.(value & flag & info [ "trace-report" ] ~doc)
  in
  let gc =
    let doc = "Sample Gc.quick_stat around every span (minor/major words per span)." in
    Arg.(value & flag & info [ "gc-spans" ] ~doc)
  in
  Term.(
    const (fun tm_trace tm_metrics tm_flight tm_report tm_gc ->
        { tm_trace; tm_metrics; tm_flight; tm_report; tm_gc })
    $ trace $ metrics $ flight $ report $ gc)

let obs_begin tm =
  if tm.tm_flight <> None then Obs.enable_recorder ();
  if tm.tm_metrics then Obs.enable_metrics ();
  if tm.tm_gc then Obs.enable_gc_sampling ();
  if tm.tm_trace <> None || tm.tm_report then Obs.enable_tracing ()

let obs_end tm =
  (match tm.tm_trace with
  | Some file ->
      Obs.write_trace file;
      Printf.printf "trace written to %s\n" file
  | None -> ());
  if tm.tm_report then print_string (Trace_report.report (Obs.events ()));
  (match tm.tm_flight with
  | Some file ->
      Obs.write_flight file;
      Printf.printf "flight dump written to %s\n" file
  | None -> ());
  if tm.tm_metrics then begin
    let b = Buffer.create 1024 in
    Obs.pp_dump b (Obs.drain ());
    print_string "== metrics ==\n";
    print_string (Buffer.contents b)
  end

let load_tree family size seed input =
  match input with
  | None -> make_tree family size seed
  | Some file -> (
      let ic = open_in file in
      let parsed = Codec.of_channel ic in
      close_in ic;
      match parsed with
      | Ok t -> t
      | Error msg ->
          Printf.eprintf "cannot parse %s: %s\n" file msg;
          exit 2)

(* ---------------- generate ---------------- *)

let generate family size seed output tm =
  obs_begin tm;
  let t = make_tree family size seed in
  let s = Bintree.stats t in
  Printf.printf "family=%s nodes=%d height=%d leaves=%d max-degree=%d\n" family s.Bintree.size
    s.Bintree.height s.Bintree.leaves s.Bintree.max_degree;
  (match output with
  | Some file ->
      let oc = open_out file in
      Codec.to_channel oc t;
      close_out oc;
      Printf.printf "written to %s\n" file
  | None -> ());
  if size <= 64 && output = None then Format.printf "shape: %a@." Bintree.pp t;
  obs_end tm

let output_arg =
  let doc = "Write the generated tree to $(docv) in the Codec format." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let generate_cmd =
  let doc = "Generate a guest binary tree and print its statistics." in
  Cmd.v
    (Cmd.info "generate" ~doc)
    Term.(const generate $ family_arg $ size_arg $ seed_arg $ output_arg $ telemetry_term)

(* ---------------- embed ---------------- *)

type algorithm = Theorem1_alg | Theorem2_alg | Bisection | Dfs | Bfs

let algorithm_conv =
  let parse = function
    | "theorem1" | "xtree" -> Ok Theorem1_alg
    | "theorem2" | "injective" -> Ok Theorem2_alg
    | "bisection" -> Ok Bisection
    | "dfs" -> Ok Dfs
    | "bfs" -> Ok Bfs
    | s -> Error (`Msg (Printf.sprintf "unknown algorithm %S" s))
  in
  Arg.conv (parse, fun fmt a ->
      Format.pp_print_string fmt
        (match a with
        | Theorem1_alg -> "theorem1"
        | Theorem2_alg -> "theorem2"
        | Bisection -> "bisection"
        | Dfs -> "dfs"
        | Bfs -> "bfs"))

let algorithm_arg =
  let doc = "Embedding algorithm: theorem1, theorem2 (injective), bisection, dfs, bfs." in
  Arg.(value & opt algorithm_conv Theorem1_alg & info [ "a"; "algorithm" ] ~docv:"ALGO" ~doc)

(* Theorem 2 puts ceil(log2 capacity) more levels under Theorem 1's host
   to make the load injective; X-trees stop at height 24. *)
let check_theorem2_host ~capacity n =
  let rec extra k = if k > 24 || 1 lsl k >= capacity then k else extra (k + 1) in
  if Theorem1.height_for ~capacity n + extra 0 > 24 then begin
    Printf.eprintf "capacity %d is too large for theorem2: its host would be taller than X(24)\n"
      capacity;
    exit 2
  end

let weight_trace_arg =
  let doc = "Print the per-round weight-imbalance trace (Theorem 1 only)." in
  Arg.(value & flag & info [ "weight-trace" ] ~doc)

let repair_arg =
  let doc = "Run the local-search repair pass after Theorem 1." in
  Arg.(value & flag & info [ "repair" ] ~doc)

let print_report name (e : Embedding.t) dist =
  let r = Embedding.report ~dist e in
  Format.printf "%s: %a@." name Embedding.pp_report r

let dot_arg =
  let doc = "Write a Graphviz rendering of the embedding to $(docv) (Theorem 1 only)." in
  Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE" ~doc)

let svg_arg =
  let doc = "Write a self-contained SVG rendering of the embedding to $(docv) (Theorem 1 only)." in
  Arg.(value & opt (some string) None & info [ "svg" ] ~docv:"FILE" ~doc)

let embed_run family size seed capacity algorithm trace repair input dot svg tm =
  obs_begin tm;
  let t = load_tree family size seed input in
  (match algorithm with
  | Theorem1_alg ->
      let res = Theorem1.embed ~capacity ~record_trace:trace t in
      let res =
        if repair then begin
          let res, rep = Repair.improve_theorem1 res in
          Printf.printf
            "repair: %d swaps, (3') violations %d -> %d, dilation %d -> %d\n"
            rep.Repair.swaps rep.Repair.violations_before rep.Repair.violations_after
            rep.Repair.dilation_before rep.Repair.dilation_after;
          res
        end
        else res
      in
      print_report "theorem1" res.Theorem1.embedding (Theorem1.distance_oracle res);
      Printf.printf "host: X(%d) with %d vertices; fallbacks=%d\n" res.Theorem1.height
        (Xtree.order res.Theorem1.xt) res.Theorem1.fallbacks;
      let cond = Conditions.check_theorem1 res in
      Printf.printf "condition (3'): %d/%d edges ok; max level gap %d\n"
        (cond.Conditions.edges - cond.Conditions.cond3_violations)
        cond.Conditions.edges cond.Conditions.max_level_gap;
      (match dot with
      | Some file ->
          let oc = open_out file in
          output_string oc (Dot.embedding res.Theorem1.xt res.Theorem1.embedding);
          close_out oc;
          Printf.printf "graphviz written to %s\n" file
      | None -> ());
      (match svg with
      | Some file ->
          let oc = open_out file in
          output_string oc (Svg.embedding res.Theorem1.xt res.Theorem1.embedding);
          close_out oc;
          Printf.printf "svg written to %s\n" file
      | None -> ());
      (match res.Theorem1.trace with
      | Some tr ->
          Array.iteri
            (fun i row ->
              Printf.printf "round %2d: %s\n" (i + 1)
                (String.concat " " (List.map string_of_int (Array.to_list row))))
            tr.Theorem1.rounds
      | None -> ())
  | Theorem2_alg ->
      check_theorem2_host ~capacity (Bintree.n t);
      let res = Theorem2.embed ~capacity t in
      print_report "theorem2" res.Theorem2.embedding (Theorem2.distance_oracle res);
      Printf.printf "host: X(%d)\n" res.Theorem2.height
  | Bisection ->
      let res = Recursive_bisection.embed ~capacity t in
      print_report "bisection" res.Recursive_bisection.embedding
        (Xtree.distance res.Recursive_bisection.xt)
  | Dfs ->
      let res = Order_layout.embed ~capacity ~order:Order_layout.Dfs t in
      print_report "dfs-layout" res.Order_layout.embedding (Xtree.distance res.Order_layout.xt)
  | Bfs ->
      let res = Order_layout.embed ~capacity ~order:Order_layout.Bfs t in
      print_report "bfs-layout" res.Order_layout.embedding (Xtree.distance res.Order_layout.xt));
  obs_end tm

let embed_cmd =
  let doc = "Embed a guest tree into an X-tree and report dilation/load/expansion." in
  Cmd.v
    (Cmd.info "embed" ~doc)
    Term.(
      const embed_run $ family_arg $ size_arg $ seed_arg $ capacity_arg $ algorithm_arg
      $ weight_trace_arg $ repair_arg $ input_arg $ dot_arg $ svg_arg $ telemetry_term)

(* ---------------- embed-batch ---------------- *)

let batch_input_arg =
  let doc = "Read guest trees from $(docv): one Codec string per line, blank lines skipped." in
  Arg.(required & opt (some string) None & info [ "i"; "input" ] ~docv:"FILE" ~doc)

let read_batch file =
  let ic = open_in file in
  let trees = ref [] and lineno = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       let line = String.trim line in
       if line <> "" then
         match Codec.of_string line with
         | Ok t -> trees := t :: !trees
         | Error msg ->
             Printf.eprintf "%s:%d: %s\n" file !lineno msg;
             exit 2
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !trees

let embed_batch_run file capacity algorithm tm =
  obs_begin tm;
  let trees = read_batch file in
  if algorithm = Theorem2_alg then
    List.iter (fun t -> check_theorem2_host ~capacity (Bintree.n t)) trees;
  let embed_one =
    match algorithm with
    | Theorem1_alg ->
        let cache = Theorem1.make_cache ~capacity:4096 () in
        fun t ->
          let r = Theorem1.embed ~capacity ~cache t in
          (r.Theorem1.embedding, r.Theorem1.xt, r.Theorem1.height)
    | Theorem2_alg ->
        let cache = Theorem1.make_cache ~capacity:4096 () in
        fun t ->
          let r = Theorem2.embed ~capacity ~cache t in
          (r.Theorem2.embedding, r.Theorem2.xt, r.Theorem2.height)
    | Bisection ->
        let cache = Recursive_bisection.make_cache ~capacity:4096 () in
        fun t ->
          let r = Recursive_bisection.embed ~capacity ~cache t in
          (r.Recursive_bisection.embedding, r.Recursive_bisection.xt, r.Recursive_bisection.height)
    | Dfs | Bfs ->
        let order = if algorithm = Dfs then Order_layout.Dfs else Order_layout.Bfs in
        let cache = Order_layout.make_cache ~capacity:4096 () in
        fun t ->
          let r = Order_layout.embed ~capacity ~cache ~order t in
          (r.Order_layout.embedding, r.Order_layout.xt, r.Order_layout.height)
  in
  (* Dedupe on the Codec string the cache keys on, embed each unique
     shape once (the cache misses), then serve every input line from the
     cache in input order. Codec numbers nodes in preorder, so every
     served embedding is bit-identical to an uncached run on that line. *)
  let seen = Hashtbl.create 64 in
  let unique =
    List.filter
      (fun t ->
        let key = Codec.to_string t in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      trees
  in
  List.iter (fun t -> ignore (embed_one t)) unique;
  List.iteri
    (fun i t ->
      let e, xt, height = embed_one t in
      let dist = Xtree.distance xt in
      Printf.printf "%d: n=%d dilation=%d load=%d host=X(%d)\n" i (Bintree.n t)
        (Embedding.dilation ~dist e) (Embedding.load e) height)
    trees;
  Printf.printf "batch: trees=%d unique=%d\n" (List.length trees) (List.length unique);
  obs_end tm

let embed_batch_cmd =
  let doc =
    "Embed many guest trees (one Codec string per input line), deduplicating \
     structurally repeated trees through the canonical-shape cache."
  in
  Cmd.v
    (Cmd.info "embed-batch" ~doc)
    Term.(
      const embed_batch_run $ batch_input_arg $ capacity_arg $ algorithm_arg $ telemetry_term)

(* ---------------- hypercube ---------------- *)

let hypercube_run family size seed capacity injective tm =
  obs_begin tm;
  let t = make_tree family size seed in
  let res =
    if injective then Hypercube_transfer.embed_injective ~capacity t
    else Hypercube_transfer.embed ~capacity t
  in
  print_report
    (if injective then "theorem3-injective" else "theorem3")
    res.Hypercube_transfer.embedding
    (Hypercube_transfer.distance_oracle res);
  Printf.printf "host: Q_%d with %d vertices\n" res.Hypercube_transfer.dim
    (Hypercube.order res.Hypercube_transfer.cube);
  obs_end tm

let injective_arg =
  let doc = "Use the injective corollary (4 extra dimensions, dilation <= 8)." in
  Arg.(value & flag & info [ "injective" ] ~doc)

let hypercube_cmd =
  let doc = "Embed a guest tree into a hypercube via Theorem 3 / Lemma 3." in
  Cmd.v
    (Cmd.info "hypercube" ~doc)
    Term.(
      const hypercube_run $ family_arg $ size_arg $ seed_arg $ capacity_arg $ injective_arg
      $ telemetry_term)

(* ---------------- universal ---------------- *)

let height_arg =
  let doc = "X-tree height for the universal graph." in
  checked ~what:"height" ~must:"between 0 and 24"
    (fun h -> h >= 0 && h <= 24)
    Arg.(value & opt int 3 & info [ "height" ] ~docv:"H" ~doc)

let universal_run height family seed tm =
  obs_begin tm;
  let u = Universal.create height in
  Printf.printf "universal graph: n=%d edges=%d max-degree=%d (paper bound %d)\n"
    (Universal.order u)
    (Graph.m u.Universal.graph)
    (Graph.max_degree u.Universal.graph)
    Universal.degree_bound;
  let t = make_tree family (Universal.order u) seed in
  (match Universal.spanning_tree_of u t with
  | Ok _ -> Printf.printf "%s tree with %d nodes: realised as a spanning tree\n" family (Universal.order u)
  | Error msg -> Printf.printf "%s tree: FAILED (%s)\n" family msg);
  obs_end tm

let universal_cmd =
  let doc = "Build the Theorem 4 universal graph and check a spanning tree." in
  Cmd.v (Cmd.info "universal" ~doc)
    Term.(const universal_run $ height_arg $ family_arg $ seed_arg $ telemetry_term)

(* ---------------- simulate ---------------- *)

let workload_arg =
  let names = List.map (fun (w : Workload.spec) -> w.Workload.name) Workload.workloads in
  let doc = Printf.sprintf "Workload: %s." (String.concat ", " names) in
  Arg.(value & opt string "reduction" & info [ "w"; "workload" ] ~docv:"WORKLOAD" ~doc)

let link_capacity_arg =
  let doc = "Messages a directed link can carry per cycle." in
  Arg.(value & opt int 1 & info [ "link-capacity" ] ~docv:"K" ~doc)

let service_rate_arg =
  let doc = "Messages a vertex CPU can complete per cycle (0 = unlimited)." in
  Arg.(value & opt int 0 & info [ "service-rate" ] ~docv:"K" ~doc)

let suite_arg =
  let doc = "Replay every workload (natively and embedded) and print one table." in
  Arg.(value & flag & info [ "suite" ] ~doc)

let simulate_suite ~family ~size ~link_capacity ~service_rate t
    (res : Theorem1.result) =
  let cases =
    List.concat_map
      (fun (w : Workload.spec) ->
        [ Workload.native_case w t; Workload.embedded_case w res.Theorem1.embedding ])
      Workload.workloads
  in
  let outcomes = Workload.run_suite ~link_capacity ?service_rate cases in
  let tab =
    Tab.create
      ~title:
        (Printf.sprintf "workload suite on %s (n=%d), host X(%d)" family size
           res.Theorem1.height)
      [ "workload"; "native"; "x-tree"; "slowdown"; "hops"; "max queue"; "max inbox" ]
  in
  let rec rows = function
    | (native : Workload.outcome) :: (embedded : Workload.outcome) :: rest ->
        Tab.add_row tab
          [
            native.Workload.case.Workload.workload.Workload.name;
            string_of_int native.Workload.cycles;
            string_of_int embedded.Workload.cycles;
            Printf.sprintf "%.2f" (float_of_int embedded.Workload.cycles /. float_of_int (max 1 native.Workload.cycles));
            string_of_int embedded.Workload.hops;
            string_of_int embedded.Workload.max_queue;
            string_of_int embedded.Workload.max_inbox;
          ];
        rows rest
    | _ -> ()
  in
  rows outcomes;
  Tab.print tab

let simulate_run family size seed workload link_capacity service_rate suite tm =
  if link_capacity <= 0 then begin
    Printf.eprintf "link capacity must be positive\n";
    exit 2
  end;
  if service_rate < 0 then begin
    Printf.eprintf "service rate must be positive (or 0 for unlimited)\n";
    exit 2
  end;
  let service_rate = if service_rate = 0 then None else Some service_rate in
  obs_begin tm;
  let t = make_tree family size seed in
  let res = Theorem1.embed t in
  (if suite then simulate_suite ~family ~size ~link_capacity ~service_rate t res
   else
     match
       List.find_opt (fun (w : Workload.spec) -> w.Workload.name = workload) Workload.workloads
     with
     | None ->
         Printf.eprintf "unknown workload %S\n" workload;
         exit 2
     | Some w ->
         let native = Workload.run_native ~link_capacity ?service_rate w t in
         let sim, embedded = Workload.run_on ~link_capacity ?service_rate w res.Theorem1.embedding in
         Printf.printf "%s on %s (n=%d): native=%d cycles, on X(%d)=%d cycles, slowdown %.2fx\n"
           workload family size native res.Theorem1.height embedded
           (float_of_int embedded /. float_of_int (max 1 native));
         let lats = Sim.latencies sim in
         if Array.length lats > 0 then begin
           let q = Stats.quantiles_of_ints lats in
           (* an X(0) host has no links: its busiest link carried 0 *)
           let busiest = Array.fold_left max 0 (Sim.link_loads sim) in
           Printf.printf
             "latency cycles: p50=%.0f p90=%.0f p99=%.0f max=%d; busiest link carried %d, max queue %d, max inbox %d\n"
             q.Stats.p50 q.Stats.p90 q.Stats.p99
             (Stats.max_int_array lats) busiest (Sim.max_link_queue sim)
             (Sim.max_inbox_queue sim)
         end);
  obs_end tm

let simulate_cmd =
  let doc = "Simulate a tree workload natively and on the embedded X-tree network." in
  Cmd.v
    (Cmd.info "simulate" ~doc)
    Term.(
      const simulate_run $ family_arg $ size_arg $ seed_arg $ workload_arg
      $ link_capacity_arg $ service_rate_arg $ suite_arg $ telemetry_term)

(* ---------------- neighbourhood ---------------- *)

let vertex_arg =
  let doc = "X-tree vertex address as a binary string (or 'e' for the root)." in
  Arg.(value & opt string "e" & info [ "v"; "vertex" ] ~docv:"ADDR" ~doc)

let neighbourhood_run height vertex tm =
  obs_begin tm;
  let xt = Xtree.create ~height in
  let a = Xtree.of_string vertex in
  if not (Xtree.mem xt a) then begin
    Printf.eprintf "vertex %s not in X(%d)\n" vertex height;
    exit 2
  end;
  let n = Xtree.neighbourhood xt a in
  Printf.printf "N(%s) in X(%d): %d vertices (paper bound: self + %d)\n" vertex height
    (List.length n) Xtree.neighbourhood_closure_bound;
  List.iter (fun b -> Printf.printf "  %s\n" (Xtree.to_string b)) n;
  obs_end tm

let neighbourhood_cmd =
  let doc = "Print the Figure 2 neighbourhood N(a) of an X-tree vertex." in
  Cmd.v (Cmd.info "neighbourhood" ~doc)
    Term.(const neighbourhood_run $ height_arg $ vertex_arg $ telemetry_term)

(* ---------------- exact ---------------- *)

let host_conv =
  let parse s =
    let fail () = Error (`Msg (Printf.sprintf "unknown host %S (xtree:H, cbt:H, cube:D, ccc:D, butterfly:D, grid:RxC)" s)) in
    match String.split_on_char ':' s with
    | [ "xtree"; h ] -> ( try Ok (Xtree.graph (Xtree.create ~height:(int_of_string h))) with _ -> fail ())
    | [ "cbt"; h ] -> ( try Ok (Cbt.graph (Cbt.create ~height:(int_of_string h))) with _ -> fail ())
    | [ "cube"; d ] -> ( try Ok (Hypercube.graph (Hypercube.create ~dim:(int_of_string d))) with _ -> fail ())
    | [ "ccc"; d ] -> ( try Ok (Ccc.graph (Ccc.create ~dim:(int_of_string d))) with _ -> fail ())
    | [ "butterfly"; d ] -> ( try Ok (Butterfly.graph (Butterfly.create ~dim:(int_of_string d))) with _ -> fail ())
    | [ "grid"; rc ] -> (
        match String.split_on_char 'x' rc with
        | [ r; c ] -> (
            try Ok (Grid.graph (Grid.create ~rows:(int_of_string r) ~cols:(int_of_string c)))
            with _ -> fail ())
        | _ -> fail ())
    | _ -> fail ()
  in
  Arg.conv (parse, fun fmt _ -> Format.pp_print_string fmt "<host>")

let host_arg =
  let doc = "Host network: xtree:H, cbt:H, cube:D, ccc:D, butterfly:D or grid:RxC." in
  Arg.(value & opt host_conv (Xtree.graph (Xtree.create ~height:3)) & info [ "host" ] ~docv:"HOST" ~doc)

let max_dilation_arg =
  let doc = "Give up beyond this dilation." in
  Arg.(value & opt int 6 & info [ "max-dilation" ] ~docv:"D" ~doc)

let exact_run family size seed host max_dilation tm =
  obs_begin tm;
  let t = make_tree family size seed in
  if size > 15 then
    Printf.eprintf "warning: branch and bound is exponential; %d nodes may take very long\n" size;
  (match Exact.optimal_dilation ~max_dilation ~guest:t ~host () with
  | Some d -> Printf.printf "optimal injective dilation of %s (n=%d): %d\n" family size d
  | None -> Printf.printf "no injective embedding within dilation %d (or guest too large)\n" max_dilation);
  obs_end tm

let exact_cmd =
  let doc = "Exact minimum-dilation embedding of a small tree (branch & bound)." in
  Cmd.v
    (Cmd.info "exact" ~doc)
    Term.(const exact_run $ family_arg $ sized Arg.(value & opt int 12 & info [ "n"; "size" ] ~docv:"N" ~doc:"Guest size (keep small).") $ seed_arg $ host_arg $ max_dilation_arg $ telemetry_term)

(* ---------------- route ---------------- *)

let route_run height src dst tm =
  obs_begin tm;
  let xt = Xtree.create ~height in
  let a = Xtree.of_string src and b = Xtree.of_string dst in
  if not (Xtree.mem xt a && Xtree.mem xt b) then begin
    Printf.eprintf "vertices not in X(%d)\n" height;
    exit 2
  end;
  Printf.printf "analytic distance: %d (BFS: %d)\n" (Xtree.analytic_distance a b)
    (Graph.distance (Xtree.graph xt) a b);
  if a <> b then begin
    let path = Xtree.route xt ~src:a ~dst:b in
    Printf.printf "route: %s\n" (String.concat " -> " (List.map Xtree.to_string path))
  end;
  obs_end tm

let src_arg = Arg.(value & opt string "e" & info [ "from" ] ~docv:"ADDR" ~doc:"Source address.")
let dst_arg = Arg.(value & opt string "e" & info [ "to" ] ~docv:"ADDR" ~doc:"Destination address.")

let route_cmd =
  let doc = "Table-free greedy routing between two X-tree addresses." in
  Cmd.v (Cmd.info "route" ~doc)
    Term.(const route_run $ height_arg $ src_arg $ dst_arg $ telemetry_term)

(* ---------------- weighted ---------------- *)

let max_weight_arg =
  let doc = "Node weights are drawn skewed from 1..$(docv)." in
  positive "max-weight" Arg.(value & opt int 32 & info [ "max-weight" ] ~docv:"W" ~doc)

(* The budget must hold the heaviest weight the draw can give. *)
let budget_and_max_weight =
  let doc = "Weight budget per host vertex; at least --max-weight." in
  let budget = Arg.(value & opt int 128 & info [ "budget" ] ~docv:"W" ~doc) in
  let check budget max_weight =
    if budget < max_weight then begin
      Printf.eprintf "budget must be at least max-weight (%d)\n" max_weight;
      exit 2
    end;
    (budget, max_weight)
  in
  Term.(const check $ budget $ max_weight_arg)

let weighted_run family size seed (budget, max_weight) tm =
  obs_begin tm;
  let t = make_tree family size seed in
  let rng = Rng.make ~seed:(seed + 1) in
  let weights =
    Array.init size (fun _ ->
        let u = Rng.float rng 1.0 in
        1 + int_of_float (float_of_int (max_weight - 1) *. u *. u *. u))
  in
  let res = Weighted.embed ~budget ~weights t in
  let dil = Embedding.dilation ~dist:Xtree.analytic_distance res.Weighted.embedding in
  Printf.printf
    "weighted: total=%d host=X(%d) budget=%d max-vertex=%d imbalance=%.2f dilation=%d\n"
    res.Weighted.total_weight res.Weighted.height budget res.Weighted.max_vertex_weight
    (Weighted.imbalance res) dil;
  (* light weights can leave a host too small for Theorem 1's load 16 *)
  let height = max res.Weighted.height (Theorem1.height_for size) in
  let blind = Theorem1.embed ~height t in
  let blind_max = Weighted.evaluate_placement ~weights blind.Theorem1.embedding in
  if height = res.Weighted.height then
    Printf.printf "weight-blind theorem1 on the same host: max-vertex=%d\n" blind_max
  else
    Printf.printf "weight-blind theorem1 on X(%d), the smallest host it fits: max-vertex=%d\n"
      height blind_max;
  obs_end tm

let weighted_cmd =
  let doc = "Weight-aware embedding of a tree with heterogeneous node costs." in
  Cmd.v
    (Cmd.info "weighted" ~doc)
    Term.(
      const weighted_run $ family_arg $ size_arg $ seed_arg $ budget_and_max_weight
      $ telemetry_term)

(* ---------------- trace (analytics) ---------------- *)

let trace_report_run file deterministic out =
  let contents =
    try
      let ic = open_in_bin file in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s
    with Sys_error msg ->
      Printf.eprintf "%s\n" msg;
      exit 2
  in
  match Trace_report.of_trace_json contents with
  | Error msg ->
      Printf.eprintf "%s: %s\n" file msg;
      exit 2
  | Ok evs -> (
      let report = Trace_report.report ~deterministic evs in
      match out with
      | None -> print_string report
      | Some path -> (
          try
            let oc = open_out_bin path in
            output_string oc report;
            close_out oc
          with Sys_error msg ->
            Printf.eprintf "%s\n" msg;
            exit 2))

let trace_cmd =
  let report_cmd =
    let doc =
      "Analyse an exported Chrome trace (as written by $(b,--trace)): per-span \
       wall vs. self time, per-domain utilization and idle gaps, counter \
       series, and GC pressure when spans were recorded with $(b,--gc-spans)."
    in
    let file =
      Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE.json"
             ~doc:"Chrome trace-event JSON file.")
    in
    let deterministic =
      let doc =
        "Project away the data that can vary between runs (time columns, \
         per-domain rows, series last values): the remaining tables are \
         byte-identical across runs of a deterministic computation."
      in
      Arg.(value & flag & info [ "deterministic" ] ~doc)
    in
    let out =
      let doc =
        "Write the report to $(docv) instead of stdout, so it can be archived \
         next to the trace it analyses."
      in
      Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
    in
    Cmd.v (Cmd.info "report" ~doc) Term.(const trace_report_run $ file $ deterministic $ out)
  in
  let doc = "Trace analytics over exported Chrome traces." in
  Cmd.group (Cmd.info "trace" ~doc) [ report_cmd ]

(* ---------------- serve / loadgen ---------------- *)

let cache_entries_arg =
  let doc = "Shape-cache capacity in entries." in
  positive "cache entries" Arg.(value & opt int 4096 & info [ "cache-entries" ] ~docv:"N" ~doc)

let cache_bytes_arg =
  let doc = "Shape-cache byte bound (default unlimited)." in
  checked ~what:"cache bytes" ~must:"positive"
    (function Some b -> b > 0 | None -> true)
    Arg.(value & opt (some int) None & info [ "cache-bytes" ] ~docv:"BYTES" ~doc)

let snapshot_arg =
  let doc =
    "Persist the shape cache to $(docv): restored at startup, flushed atomically \
     at EOF (and periodically with $(b,--snapshot-every)), so a restarted server \
     resumes warm."
  in
  Arg.(value & opt (some string) None & info [ "snapshot" ] ~docv:"FILE" ~doc)

let snapshot_every_arg =
  let doc = "Also flush the snapshot every $(docv) requests (0: at EOF only)." in
  Arg.(value & opt int 0 & info [ "snapshot-every" ] ~docv:"N" ~doc)

let serve_run capacity cache_entries cache_bytes snapshot snapshot_every batch status
    socket max_conns tm =
  obs_begin tm;
  let config =
    {
      Serve.capacity;
      cache_entries;
      cache_bytes;
      snapshot;
      snapshot_every;
      max_batch = batch;
      status;
    }
  in
  (match socket with
  | Some path -> Serve.listen ~config ?max_conns ~path ()
  | None ->
      set_binary_mode_in stdin true;
      set_binary_mode_out stdout true;
      let s = Serve.run ~config stdin stdout in
      if status then
        Printf.eprintf "serve: done requests=%d batches=%d errors=%d loaded=%d saved=%d\n%!"
          s.Serve.requests s.Serve.batches s.Serve.errors s.Serve.loaded s.Serve.saved);
  obs_end tm

let serve_cmd =
  let doc =
    "Run a persistent embedding service: length-framed Codec requests in, framed \
     placements out (stdin/stdout by default, or a Unix socket), all sharing one \
     shape cache across the whole run."
  in
  let socket =
    let doc = "Listen on a Unix-domain socket at $(docv) instead of stdin/stdout." in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let max_conns =
    let doc = "With $(b,--socket): exit after $(docv) connections (default: serve forever)." in
    checked ~what:"max-conns" ~must:"positive"
      (function Some m -> m > 0 | None -> true)
      Arg.(value & opt (some int) None & info [ "max-conns" ] ~docv:"N" ~doc)
  in
  let batch =
    let doc = "Embed at most $(docv) buffered requests at once." in
    Arg.(value & opt int 512 & info [ "batch" ] ~docv:"N" ~doc)
  in
  let status =
    let doc = "Print a per-batch status line (with cache stats) on stderr." in
    Arg.(value & flag & info [ "status" ] ~doc)
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const serve_run $ capacity_arg $ cache_entries_arg $ cache_bytes_arg $ snapshot_arg
      $ snapshot_every_arg $ batch $ status $ socket $ max_conns $ telemetry_term)

(* Decode and pretty-print one reply in the embed-batch line format, so a
   [loadgen --print] replay byte-diffs against [embed-batch] on the same
   stream. The host X-tree is rebuilt once per distinct height. *)
let print_reply () =
  let hosts = Hashtbl.create 4 in
  fun (r : Loadgen.reply) ->
    match Wire.decode_response r.payload with
    | Error msg -> Printf.printf "%d: error %s\n" r.Loadgen.index msg
    | Ok resp ->
        let t =
          match Codec.of_string r.Loadgen.request with
          | Ok t -> t
          | Error msg ->
              Printf.eprintf "loadgen: unparsable request %d: %s\n" r.Loadgen.index msg;
              exit 2
        in
        let xt =
          match Hashtbl.find_opt hosts resp.Wire.height with
          | Some xt -> xt
          | None ->
              let xt = Xtree.create ~height:resp.Wire.height in
              Hashtbl.add hosts resp.Wire.height xt;
              xt
        in
        let e = Embedding.make ~tree:t ~host:(Xtree.graph xt) ~place:resp.Wire.place in
        Printf.printf "%d: n=%d dilation=%d load=%d host=X(%d)\n" r.Loadgen.index
          (Bintree.n t)
          (Embedding.dilation ~dist:(Xtree.distance xt) e)
          (Embedding.load e) resp.Wire.height

let loadgen_run requests shapes size skew seed window out codec_out replay_file connect
    capacity cache_entries snapshot snapshot_every print_lines tm =
  obs_begin tm;
  let stream =
    match replay_file with
    | Some file -> In_channel.with_open_bin file Loadgen.read_requests
    | None ->
        let pool =
          match Loadgen.make_shapes ~seed ~count:shapes ~size with
          | pool -> pool
          | exception Invalid_argument _ ->
              Printf.eprintf "loadgen: cannot draw %d distinct shapes of about %d nodes\n" shapes
                size;
              exit 2
        in
        Loadgen.skewed_stream ~seed ~shapes:pool ~requests ~skew
  in
  (match codec_out with
  | Some file ->
      Out_channel.with_open_text file (fun oc ->
          List.iter
            (fun p ->
              output_string oc p;
              output_char oc '\n')
            stream)
  | None -> ());
  (match out with
  | Some file ->
      Out_channel.with_open_bin file (fun oc -> Loadgen.write_requests oc stream);
      Printf.printf "loadgen: wrote %d requests (%d shapes, size %d) to %s\n"
        (List.length stream) shapes size file
  | None ->
      let on_reply = if print_lines then Some (print_reply ()) else None in
      let replay ch = Loadgen.replay ~window ?on_reply ~requests:stream ch in
      let outcome =
        match connect with
        | Some path ->
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            (try Unix.connect fd (Unix.ADDR_UNIX path)
             with Unix.Unix_error (err, fn, _) -> raise (Unix.Unix_error (err, fn, path)));
            let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
            set_binary_mode_in ic true;
            set_binary_mode_out oc true;
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () ->
                let o = replay (ic, oc) in
                flush oc;
                Unix.shutdown fd Unix.SHUTDOWN_SEND;
                o)
        | None ->
            (* Spawn this executable as the server child over a pipe pair;
               closing its stdin ends the session. *)
            let args =
              [ "xtree"; "serve"; "--capacity"; string_of_int capacity;
                "--cache-entries"; string_of_int cache_entries ]
              @ (match snapshot with Some f -> [ "--snapshot"; f ] | None -> [])
              @
              if snapshot_every > 0 then
                [ "--snapshot-every"; string_of_int snapshot_every ]
              else []
            in
            (* cloexec so the child inherits only the ends dup'd onto its
               stdin/stdout — holding a copy of req_w would stop it from
               ever seeing EOF. *)
            let req_r, req_w = Unix.pipe ~cloexec:true () in
            let resp_r, resp_w = Unix.pipe ~cloexec:true () in
            let pid =
              Unix.create_process Sys.executable_name (Array.of_list args) req_r resp_w
                Unix.stderr
            in
            Unix.close req_r;
            Unix.close resp_w;
            let ic = Unix.in_channel_of_descr resp_r in
            let oc = Unix.out_channel_of_descr req_w in
            set_binary_mode_in ic true;
            set_binary_mode_out oc true;
            let o = replay (ic, oc) in
            close_out oc;
            ignore (Unix.waitpid [] pid);
            close_in_noerr ic;
            o
      in
      if print_lines then begin
        (* Mirror embed-batch's trailer so the outputs byte-diff. *)
        let seen = Hashtbl.create 64 in
        List.iter
          (fun p ->
            match Codec.of_string p with
            | Ok t ->
                let key = Codec.to_string t in
                if not (Hashtbl.mem seen key) then Hashtbl.add seen key ()
            | Error _ -> ())
          stream;
        Printf.printf "batch: trees=%d unique=%d\n" (List.length stream)
          (Hashtbl.length seen)
      end;
      if outcome.Loadgen.sent > 0 then begin
        let q = Stats.quantiles_of_ints outcome.Loadgen.rtt_ns in
        let wall_s = float_of_int outcome.Loadgen.wall_ns /. 1e9 in
        Printf.eprintf
          "loadgen: requests=%d errors=%d wall_ms=%.1f rps=%.0f p50_us=%.1f p90_us=%.1f \
           p99_us=%.1f\n\
           %!"
          outcome.Loadgen.sent outcome.Loadgen.errors (wall_s *. 1e3)
          (float_of_int outcome.Loadgen.sent /. wall_s)
          (q.Stats.p50 /. 1e3) (q.Stats.p90 /. 1e3) (q.Stats.p99 /. 1e3)
      end);
  obs_end tm

let loadgen_cmd =
  let doc =
    "Generate a shape-skewed request stream and replay it against an embedding \
     server (a spawned $(b,xtree serve) child by default, or $(b,--connect) to a \
     socket), reporting requests/sec and RTT quantiles on stderr."
  in
  let requests =
    let doc = "Number of requests to generate." in
    checked ~what:"requests" ~must:"non-negative" (fun r -> r >= 0)
      (sized ~what:"requests" Arg.(value & opt int 256 & info [ "r"; "requests" ] ~docv:"N" ~doc))
  in
  let shapes =
    let doc = "Size of the distinct-shape pool the stream draws from." in
    positive "shapes" (sized ~what:"shapes" Arg.(value & opt int 16 & info [ "shapes" ] ~docv:"K" ~doc))
  in
  let skew =
    let doc =
      "Shape skew: 0 samples the pool uniformly, larger values concentrate \
       requests on a hot subset."
    in
    checked ~what:"skew" ~must:"non-negative" (fun s -> s >= 0.0)
      Arg.(value & opt float 1.0 & info [ "skew" ] ~docv:"S" ~doc)
  in
  let window =
    let doc = "Requests in flight per window (each window ends in a flush marker)." in
    positive "window" Arg.(value & opt int 64 & info [ "window" ] ~docv:"W" ~doc)
  in
  let out =
    let doc = "Write the framed request stream to $(docv) and exit (no replay)." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let codec_out =
    let doc =
      "Also write the stream as Codec lines to $(docv) — the same requests in \
       $(b,embed-batch) input format, for equivalence checks."
    in
    Arg.(value & opt (some string) None & info [ "codec-out" ] ~docv:"FILE" ~doc)
  in
  let replay_file =
    let doc = "Replay the framed request file $(docv) instead of generating a stream." in
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE" ~doc)
  in
  let connect =
    let doc = "Connect to a running server's Unix socket at $(docv)." in
    Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"PATH" ~doc)
  in
  let print_lines =
    let doc = "Print one embed-batch-format line per response on stdout." in
    Arg.(value & flag & info [ "print" ] ~doc)
  in
  Cmd.v
    (Cmd.info "loadgen" ~doc)
    Term.(
      const loadgen_run $ requests $ shapes $ positive "size" size_arg $ skew $ seed_arg
      $ window $ out $ codec_out $ replay_file $ connect $ capacity_arg $ cache_entries_arg
      $ snapshot_arg $ snapshot_every_arg $ print_lines $ telemetry_term)

(* ---------------- main ---------------- *)

let () =
  (* XT_FLIGHT=FILE arms the flight recorder and an at_exit dump: it
     fires on normal exit, on [exit 2] error paths, and after uncaught
     exceptions reach cmdliner — the post-mortem channel for wedged or
     dying runs. *)
  (match Sys.getenv_opt "XT_FLIGHT" with
  | Some file when file <> "" ->
      Obs.enable_recorder ();
      at_exit (fun () -> Obs.write_flight file)
  | _ -> ());
  let doc = "Simulating binary trees on X-trees (Monien, SPAA 1991)" in
  let info = Cmd.info "xtree" ~version:"1.0.0" ~doc in
  let cmd =
    Cmd.group info
      [
        generate_cmd;
        embed_cmd;
        embed_batch_cmd;
        serve_cmd;
        loadgen_cmd;
        hypercube_cmd;
        universal_cmd;
        simulate_cmd;
        neighbourhood_cmd;
        exact_cmd;
        route_cmd;
        weighted_cmd;
        trace_cmd;
      ]
  in
  (* A file or socket that cannot be opened, read or written is a bad
     input, like a bad flag: print it and exit 2. Anything else is a bug
     and keeps cmdliner's internal-error exit. *)
  exit
    (match Cmd.eval ~catch:false cmd with
    | code -> code
    | exception Sys_error msg ->
        Printf.eprintf "xtree: %s\n" msg;
        2
    | exception Unix.Unix_error (err, fn, arg) ->
        Printf.eprintf "xtree: %s%s: %s\n" fn
          (if arg = "" then "" else " " ^ arg)
          (Unix.error_message err);
        2
    | exception exn ->
        Printf.eprintf "xtree: internal error, uncaught exception:\n%s\n"
          (Printexc.to_string exn);
        Cmd.Exit.internal_error)
