(* The repository's benchmark: one workload per invocation, generated from
   a seed, measured for a fixed time, checked for correctness, and printed
   as named metrics with units followed by one JSON result line.

   With [--trace 0] the run measures end-to-end metrics with tracing off.
   With [--trace 1] it alternates untraced and traced passes, and the
   traced ones give the per-layer numbers: spans the benchmark wraps
   around its calls into each library, the program's own spans and
   counters nested inside them, and the tracing overhead as the ratio of
   the two pass walls. README.md lists the workloads and metrics. *)

open Xt_obs
open Xt_prelude
open Xt_bintree
open Xt_embedding
open Xt_core
open Xt_netsim
open Xt_serve

(* ------------------------------------------------------------------ *)
(* Measurement helpers                                                 *)
(* ------------------------------------------------------------------ *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let fi = float_of_int
let ratio a b = if b = 0.0 then 0.0 else a /. b
let last l = List.nth l (List.length l - 1)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median = Speed.median

(* Nearest-rank quantile. *)
let quantile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0 else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. fi n)) - 1)))

let geomean = function
  | [] -> 0.0
  | xs -> exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. fi (List.length xs))

(* The OCaml 5 runtime's major-heap high-water mark. *)
let peak_heap_mb () = fi (Gc.quick_stat ()).top_heap_words *. fi (Sys.word_size / 8) /. 1e6

(* Taken after a first, untimed pass that collects the heap between its
   pieces (see [Speed.collect]). Later passes only add garbage, and how
   much depends on how many passes fit in the run. *)
let first_pass_peak = ref 0.0

(* One untimed pass for the heap high-water mark, which also lets lazy
   set-up finish; then repeat [f] until [seconds] have passed, at least
   three times, so that a median over passes sheds one disturbed pass. *)
let run_passes seconds f =
  Speed.collect := true;
  ignore (Fun.protect ~finally:(fun () -> Speed.collect := false) f);
  first_pass_peak := peak_heap_mb ();
  let t0 = now () in
  let rec go acc =
    let acc = f () :: acc in
    if List.length acc < 3 || now () -. t0 < seconds then go acc else List.rev acc
  in
  go []

(* Set-up runs [setup_reps] times; the last result is kept, and set-up and
   input-generation times are the medians, scaled by the machine's speed
   around each set-up (see [Speed]). [f] returns its result and the part
   of its time spent generating inputs. Only one set-up's result is live
   at a time and each starts from a collected heap, so the heap
   high-water mark does not depend on when the collector last ran. *)
let setup_reps = 5

let repeat_setup f =
  let kept = ref None and times = ref [] and gens = ref [] in
  for _ = 1 to setup_reps do
    kept := None;
    Gc.full_major ();
    let (v, g), dt, speed = Speed.measure f in
    kept := Some v;
    times := (dt /. speed) :: !times;
    gens := (g /. speed) :: !gens
  done;
  Gc.full_major ();
  (Option.get !kept, median !times, median !gens)

(* ------------------------------------------------------------------ *)
(* Workload sizes                                                      *)
(* ------------------------------------------------------------------ *)

type sizes = {
  embed_height : int;  (** X-tree height of the embed-large guests. *)
  hot_shapes : int;
  hot_size : int;
  hot_requests : int;
  cold_guests : int;
  cold_size : int;
  sim_height : int;  (** X-tree height of the simulate-suite guest. *)
  trace_requests : int;  (** Requests in one traced serve pass. *)
}

(* n = 16·(2^(r+1) − 1): 131 056 at r = 12, 32 752 at r = 10; 4 080 and
   2 032 are the optimal sizes for r = 7 and r = 6. *)
let full =
  {
    embed_height = 12;
    hot_shapes = 32;
    hot_size = 4080;
    hot_requests = 3000;
    cold_guests = 1000;
    cold_size = 2032;
    sim_height = 10;
    trace_requests = 512;
  }

(* The self-check sizes: every code path, in well under a second each. *)
let quick =
  {
    embed_height = 4;
    hot_shapes = 8;
    hot_size = 120;
    hot_requests = 96;
    cold_guests = 48;
    cold_size = 100;
    sim_height = 4;
    trace_requests = 48;
  }

type ctx = { sizes : sizes; seed : int; seconds : float; traced : bool }

let capacity = 16
let window = 16
let skew = 1.2

(* Serve passes sample the machine's speed every this many windows
   (about 0.15 s on serve-hot and 0.5 s on serve-cold). *)
let ticks_every = 8

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

(* One timed pass. Every pass of a run repeats the same work in the same
   order: [units] are the times of the consecutive pieces that make up
   the pass (a guest embed, a window of requests, a replayed case), and
   [ops] the latency of each operation (an embed, a request's round trip,
   a case). [speed] is the machine's speed factor during the pass, and
   [wall] leaves out the calibration kernel's runs (see [Speed]). *)
type pass = {
  wall : float;
  knodes : float;
  units : float array;
  ops : float array;
  speed : float;
}

(* An untraced pass, with the machine's speed sampled around it and at
   the [Speed.tick]s between its pieces. *)
let measured f =
  let (r, p), wall, speed = Speed.measure f in
  (r, { p with wall; speed })

type outcome = {
  setup_s : float;
  gen_s : float;
  attempted : int;
  failed : int;
  e2e : (string * float) list;  (** Measured end-to-end metrics, by name. *)
  shown : (string * float * string) list;
      (** The workload's own end-to-end metrics, printed but not gated. *)
  layer : (string * float) list;  (** Per-layer metrics (traced runs). *)
  tables : string list;  (** Per-layer tables (traced runs). *)
}

(* Times are scaled by their pass's speed factor. A pass's time is the sum
   of its pieces, and the run's is the median over passes; each
   operation's latency is its median over passes, and the quantiles are
   taken over those. The medians shed bursts of other load shorter than a
   pass, the scaling the slower drifts of the machine's speed. *)
let pass_s passes =
  median (List.map (fun p -> Array.fold_left ( +. ) 0.0 p.units /. p.speed) passes)

let op_medians passes =
  match passes with
  | [] -> []
  | p :: _ ->
      List.init (Array.length p.ops) (fun i ->
          median (List.map (fun q -> q.ops.(i) /. q.speed) passes))

let throughput = function
  | [] -> []
  | p :: _ as passes ->
      let ops = op_medians passes in
      [
        ("guest_knodes_per_s", p.knodes /. pass_s passes);
        ("op_p50_ms", 1e3 *. quantile 0.5 ops);
        ("op_p99_ms", 1e3 *. quantile 0.99 ops);
      ]

(* How many samples the figures above rest on, and how fast the machine
   ran while they were taken. *)
let sample_counts = function
  | [] -> []
  | p :: _ as passes ->
      [
        ("passes", fi (List.length passes), "count");
        ("ops_per_pass", fi (Array.length p.ops), "count");
        ("speed_factor", median (List.map (fun p -> p.speed) passes), "ratio");
      ]

(* The benchmark's own output check of one embedding: load within
   [capacity] and every guest node placed ([Embedding.make] rejects an
   unplaced node). Records the dilation, fallbacks and check time. *)
type quality = {
  mutable verify_s : float;
  mutable vnodes : int;
  mutable max_dil : int;
  mutable fallbacks : int;
}

let quality () = { verify_s = 0.0; vnodes = 0; max_dil = 0; fallbacks = 0 }

let check_embedding q ~dist ~fallbacks (e : Embedding.t) =
  let dil, dt =
    timed (fun () ->
        match Embedding.verify ~dist ~max_load:capacity e with
        | Ok () -> Some (Embedding.dilation ~dist e)
        | Error _ -> None)
  in
  q.verify_s <- q.verify_s +. dt;
  q.vnodes <- q.vnodes + Embedding.guest_size e;
  q.fallbacks <- q.fallbacks + fallbacks;
  match dil with
  | Some d ->
      q.max_dil <- max q.max_dil d;
      true
  | None -> false

let quality_e2e q =
  [ ("max_dilation", fi q.max_dil); ("fallback_rate", ratio (fi q.fallbacks) (fi q.vnodes)) ]

let quality_layer q =
  [
    ("core.fallbacks", fi q.fallbacks);
    ("embedding.verify_ms_per_knode", ratio (1e3 *. q.verify_s) (fi q.vnodes /. 1e3));
  ]

(* ------------------------------------------------------------------ *)
(* Tracing                                                             *)
(* ------------------------------------------------------------------ *)

let span traced name f = if traced then Obs.span name f else f ()

(* Run [f] with metrics and tracing on; return its result, the counter
   dump and the span table. *)
let with_trace f =
  Obs.reset_metrics ();
  Obs.reset_trace ();
  Obs.enable_metrics ();
  Obs.enable_tracing ();
  let r =
    Fun.protect
      ~finally:(fun () ->
        Obs.disable_tracing ();
        Obs.disable_metrics ())
      f
  in
  let dump = Obs.snapshot () in
  let spans = Layers.spans_of (Obs.events ()) in
  Obs.reset_trace ();
  (r, dump, spans)

let counter (d : Obs.dump) name = fi (Option.value ~default:0 (List.assoc_opt name d.counters))

let hist_sum (d : Obs.dump) name =
  match List.find_opt (fun (h : Obs.histogram_row) -> h.h_name = name) d.histograms with
  | Some h -> fi h.sum
  | None -> 0.0

(* Metrics read from the program's own spans and counters. [embeds] is the
   number of uncached Theorem 1 runs in the traced pass. *)
let program_layer ~embeds dump spans =
  let per_embed name = if embeds = 0 then 0.0 else Layers.self spans name /. fi embeds in
  let c = counter dump in
  let taken = c "parallel.forks_taken" and seq = c "parallel.forks_sequentialized" in
  [
    ("core.adjust_self_s", per_embed "theorem1.adjust-sweep");
    ("core.split_self_s", per_embed "theorem1.split-sweep");
    ("core.final_fill_self_s", per_embed "theorem1.final-fill");
    ("core.embed_self_s", per_embed "theorem1.embed");
    ("core.rounds", c "theorem1.rounds");
    ("core.adjust_calls", c "adjust.active_calls");
    ("core.adjust_nodes_moved", c "adjust.nodes_moved");
    ("core.split_calls", c "split.calls");
    ("core.split_pieces", c "split.pieces");
    ("core.split_fill_laid", c "split.fill_laid");
    ("prelude.fork_take_ratio", ratio taken (taken +. seq));
    ("prelude.queue_wait_ms", hist_sum dump "parallel.queue_wait_ns" /. 1e6);
    ("embedding.cache_verify_rejects", c "cache.verify_rejects");
  ]

(* The per-layer table of the last traced pass, with the median traced
   and untraced pass walls for the overhead. *)
let table_layer ~title ~traced_walls ~untraced_walls spans =
  let t = Layers.analyse spans in
  let traced_wall = median traced_walls and untraced_wall = median untraced_walls in
  let metrics =
    List.map (fun (l, s) -> ("layer." ^ l ^ "_s", s)) t.by_layer
    @ [
        ("trace.wall_s", traced_wall);
        ("trace.untraced_wall_s", untraced_wall);
        ("trace.overhead", ratio traced_wall untraced_wall);
        ("trace.coverage", t.coverage);
      ]
  in
  (metrics, Layers.render ~title ~traced_wall ~untraced_wall t)

(* ------------------------------------------------------------------ *)
(* embed-large                                                         *)
(* ------------------------------------------------------------------ *)

let embed_families = [ "random-split"; "uniform"; "path"; "caterpillar"; "random-bst" ]

let embed_large ctx =
  let n = Theorem1.optimal_size ~capacity ctx.sizes.embed_height in
  let guests, setup_s, gen_s =
    repeat_setup (fun () ->
        timed (fun () ->
            List.mapi
              (fun i fam ->
                (Gen.family fam).Gen.generate (Rng.make ~seed:((ctx.seed * 1009) + i)) n)
              embed_families))
  in
  let pass traced =
    let results, wall =
      timed (fun () ->
          span traced "pb.pass" (fun () ->
              List.map
                (fun g ->
                  Speed.tick ();
                  timed (fun () -> span traced "pb.core.embed" (fun () -> Theorem1.embed g)))
                guests))
    in
    let times = Array.of_list (List.map snd results) in
    ( List.map fst results,
      { wall; knodes = fi (n * List.length guests) /. 1e3; units = times; ops = times; speed = 1.0 }
    )
  in
  (* Every pass must repeat the first pass's placements exactly; the first
     pass's embeddings are checked after the timed window. *)
  let reference = ref [] and npasses = ref 0 and failed = ref 0 in
  let record (results : Theorem1.result list) =
    incr npasses;
    match !reference with
    | [] -> reference := results
    | first ->
        List.iter2
          (fun (a : Theorem1.result) (b : Theorem1.result) ->
            if a.embedding.Embedding.place <> b.embedding.Embedding.place then incr failed)
          first results
  in
  let untraced () =
    let r, p = measured (fun () -> pass false) in
    record r;
    p
  in
  let passes, layer, tables =
    if not ctx.traced then (run_passes ctx.seconds untraced, [], [])
    else begin
      let pairs =
        run_passes ctx.seconds (fun () ->
            let u = untraced () in
            let (r, t), dump, spans = with_trace (fun () -> pass true) in
            record r;
            (u, t, dump, spans))
      in
      let _, _, dump, spans = last pairs in
      let metrics, table =
        table_layer ~title:"embed-large"
          ~traced_walls:(List.map (fun (_, t, _, _) -> t.wall) pairs)
          ~untraced_walls:(List.map (fun (u, _, _, _) -> u.wall) pairs)
          spans
      in
      ( List.map (fun (u, _, _, _) -> u) pairs,
        (("core.embed_s", Layers.mean_wall spans "pb.core.embed")
        :: program_layer ~embeds:(List.length guests) dump spans)
        @ metrics,
        [ table ] )
    end
  in
  let q = quality () in
  List.iter
    (fun (r : Theorem1.result) ->
      if not (check_embedding q ~dist:(Theorem1.distance_oracle r) ~fallbacks:r.fallbacks r.embedding)
      then failed := !failed + !npasses)
    !reference;
  let e2e = throughput passes @ quality_e2e q in
  {
    setup_s;
    gen_s;
    attempted = !npasses * List.length guests;
    failed = !failed;
    e2e;
    shown =
      ("embed_knodes_per_s", List.assoc "guest_knodes_per_s" e2e, "knodes/s")
      :: sample_counts passes;
    layer = (if ctx.traced then layer @ quality_layer q else []);
    tables;
  }

(* ------------------------------------------------------------------ *)
(* serve-hot and serve-cold                                            *)
(* ------------------------------------------------------------------ *)

(* A request stream over a pool of distinct guests (Codec strings). *)
type stream = { shapes : string array; order : int array; nodes : int array }

let make_stream shapes requests =
  let idx = Hashtbl.create (Array.length shapes) in
  Array.iteri (fun i s -> Hashtbl.replace idx s i) shapes;
  let count_nodes s =
    let c = ref 0 in
    String.iter (fun ch -> if ch = '(' then incr c) s;
    !c
  in
  {
    shapes;
    order = Array.of_list (List.map (Hashtbl.find idx) requests);
    nodes = Array.map count_nodes shapes;
  }

let stream_knodes st order = fi (Array.fold_left (fun acc s -> acc + st.nodes.(s)) 0 order) /. 1e3

(* Replies are checked per distinct shape. Inside the timed window every
   reply is only compared, byte for byte, with the first reply for its
   shape; after the window each first reply is decoded and compared with
   a direct uncached [Theorem1.embed] of the shape. *)
type checker = {
  st : stream;
  first : string option array;
  replies : int array;
  mutable errors : int;
  mutable mismatched : int;
}

let checker st =
  let k = Array.length st.shapes in
  { st; first = Array.make k None; replies = Array.make k 0; errors = 0; mismatched = 0 }

let check_reply ck s payload =
  ck.replies.(s) <- ck.replies.(s) + 1;
  if Wire.is_error payload then ck.errors <- ck.errors + 1
  else
    match ck.first.(s) with
    | None -> ck.first.(s) <- Some payload
    | Some p -> if not (String.equal p payload) then ck.mismatched <- ck.mismatched + 1

let encode (r : Theorem1.result) =
  Wire.encode_ok
    { Wire.height = r.height; fallbacks = r.fallbacks; place = r.embedding.Embedding.place }

let verify_replies ck q =
  let failed = ref (ck.errors + ck.mismatched) in
  Array.iteri
    (fun s first ->
      match first with
      | None -> ()
      | Some payload ->
          let decodes = try Result.is_ok (Wire.decode_response payload) with Wire.Protocol _ -> false in
          let ok =
            decodes
            &&
            match Codec.of_string ck.st.shapes.(s) with
            | Error _ -> false
            | Ok tree ->
                let r = Theorem1.embed ~capacity tree in
                String.equal (encode r) payload
                && check_embedding q ~dist:(Theorem1.distance_oracle r) ~fallbacks:r.fallbacks
                     r.embedding
          in
          if not ok then failed := !failed + ck.replies.(s))
    ck.first;
  let attempted = Array.fold_left ( + ) 0 ck.replies in
  (attempted, min attempted !failed)

(* One closed-loop pass over a connection, as [Loadgen.replay] runs it:
   [window] requests, a flush marker, then that window's replies. *)
let client_pass ~traced ~on_reply (ic, oc) st order =
  let n = Array.length order in
  let rtt = Array.make n 0.0 and sent = Array.make n 0.0 in
  let windows = Array.make ((n + window - 1) / window) 0.0 in
  let read () = span traced "pb.serve.wire_read" (fun () -> Wire.read_frame ic) in
  let t0 = now () in
  let next = ref 0 in
  while !next < n do
    let upto = min n (!next + window) in
    Speed.tick ~every:ticks_every ();
    let w0 = now () in
    for i = !next to upto - 1 do
      sent.(i) <- now ();
      Wire.write_frame oc st.shapes.(order.(i))
    done;
    Wire.write_flush oc;
    let i = ref !next in
    while !i < upto do
      match read () with
      | None -> raise (Wire.Protocol "server closed mid-pass")
      | Some "" -> ()
      | Some payload ->
          rtt.(!i) <- now () -. sent.(!i);
          on_reply order.(!i) payload;
          incr i
    done;
    windows.(!next / window) <- now () -. w0;
    next := upto
  done;
  { wall = now () -. t0; knodes = stream_knodes st order; units = windows; ops = rtt; speed = 1.0 }

(* The server's per-request calls, made directly and in the server's
   order, so that each stage gets its own span. *)
type direct = {
  mutable hits : int;
  mutable misses : int;
  mutable hit_s : float;
  mutable miss_s : float;
  mutable dfallbacks : int;
}

let direct_replay ~traced ~cache ~on_reply st order =
  let d = { hits = 0; misses = 0; hit_s = 0.0; miss_s = 0.0; dfallbacks = 0 } in
  let counted = Array.make (Array.length st.shapes) false in
  let request s =
    match span traced "pb.bintree.codec_parse" (fun () -> Codec.of_string st.shapes.(s)) with
    | Error msg -> on_reply s (Wire.encode_error msg)
    | Ok tree ->
        ignore (span traced "pb.bintree.fingerprint" (fun () -> Fingerprint.canonical_key tree) : string);
        let misses0 = (Theorem1.cache_stats cache).misses in
        let r, dt =
          timed (fun () ->
              span traced "pb.embedding.cache_embed" (fun () -> Theorem1.embed ~capacity ~cache tree))
        in
        if (Theorem1.cache_stats cache).misses > misses0 then begin
          d.misses <- d.misses + 1;
          d.miss_s <- d.miss_s +. dt
        end
        else begin
          d.hits <- d.hits + 1;
          d.hit_s <- d.hit_s +. dt
        end;
        if not counted.(s) then begin
          counted.(s) <- true;
          d.dfallbacks <- d.dfallbacks + r.fallbacks
        end;
        on_reply s (span traced "pb.serve.wire_encode" (fun () -> encode r))
  in
  let (), wall = timed (fun () -> span traced "pb.pass" (fun () -> Array.iter request order)) in
  (d, wall)

let serve ~hot ctx =
  let sz = ctx.sizes in
  let (st, warm), setup_s, gen_s =
    repeat_setup (fun () ->
        let st, gen_s =
          timed (fun () ->
              if hot then
                let shapes = Loadgen.make_shapes ~seed:ctx.seed ~count:sz.hot_shapes ~size:sz.hot_size in
                make_stream shapes
                  (Loadgen.skewed_stream ~seed:ctx.seed ~shapes ~requests:sz.hot_requests ~skew)
              else
                let shapes =
                  Loadgen.make_shapes ~seed:ctx.seed ~count:sz.cold_guests ~size:sz.cold_size
                in
                make_stream shapes (Array.to_list shapes))
        in
        (* The hot set is warmed into the server's cache, one request per
           shape; serve-cold starts every pass from an empty server. *)
        let warm =
          if hot then begin
            let state = Serve.make_state Serve.default in
            let all = Array.init (Array.length st.shapes) Fun.id in
            ignore
              (Serve.in_process ~state (fun conn ->
                   ignore (client_pass ~traced:false ~on_reply:(fun _ _ -> ()) conn st all : pass)));
            Some state
          end
          else None
        in
        ((st, warm), gen_s))
  in
  let state () = match warm with Some s -> s | None -> Serve.make_state Serve.default in
  let ck = checker st in
  let passes, layer, tables =
    if not ctx.traced then begin
      let pass () =
        snd
          (measured (fun () ->
               let p, _ =
                 Serve.in_process ~state:(state ()) (fun conn ->
                     client_pass ~traced:false ~on_reply:(check_reply ck) conn st st.order)
               in
               ((), p)))
      in
      (run_passes ctx.seconds pass, [], [])
    end
    else begin
      let slice = Array.sub st.order 0 (min sz.trace_requests (Array.length st.order)) in
      (* The server's own spans and counters, over one connection. *)
      let (_, summary), dump_a, spans_a =
        with_trace (fun () ->
            Serve.in_process ~state:(state ()) (fun conn ->
                client_pass ~traced:true ~on_reply:(check_reply ck) conn st slice))
      in
      (* The same requests through the server's calls, one stage per span. *)
      let direct traced =
        direct_replay ~traced ~cache:(fst (state ())) ~on_reply:(check_reply ck) st slice
      in
      let pairs =
        run_passes ctx.seconds (fun () ->
            let _, u = direct false in
            let (d, t), dump, spans = with_trace (fun () -> direct true) in
            (u, t, d, dump, spans))
      in
      let _, _, d, dump, spans = last pairs in
      let metrics, table =
        table_layer
          ~title:(if hot then "serve-hot (direct replay)" else "serve-cold (direct replay)")
          ~traced_walls:(List.map (fun (_, t, _, _, _) -> t) pairs)
          ~untraced_walls:(List.map (fun (u, _, _, _, _) -> u) pairs)
          spans
      in
      let layer =
        [
          ("bintree.codec_parse_us", 1e6 *. Layers.mean_wall spans "pb.bintree.codec_parse");
          ("bintree.fingerprint_us", 1e6 *. Layers.mean_wall spans "pb.bintree.fingerprint");
          ("core.embed_s", ratio d.miss_s (fi d.misses));
          ("embedding.cache_hit_rate", ratio (fi d.hits) (fi (d.hits + d.misses)));
          ("embedding.cache_hit_us", 1e6 *. ratio d.hit_s (fi d.hits));
          ("embedding.cache_resident_mb", fi summary.Serve.stats.Cache.resident_bytes /. 1e6);
          ("serve.wire_encode_us", 1e6 *. Layers.mean_wall spans "pb.serve.wire_encode");
          ("serve.batch_ms", 1e3 *. Layers.mean_wall spans_a "serve.batch");
          ( "serve.unique_per_request",
            ratio (counter dump_a "serve.unique_shapes") (counter dump_a "serve.requests") );
          ("serve.wire_read_us", 1e6 *. Layers.mean_wall spans_a "pb.serve.wire_read");
          ("core.fallbacks", fi d.dfallbacks);
        ]
        @ program_layer ~embeds:d.misses dump spans
        @ metrics
      in
      ([], layer, [ table ])
    end
  in
  let q = quality () in
  let attempted, failed = verify_replies ck q in
  let e2e = (if passes = [] then [] else throughput passes) @ quality_e2e q in
  let rps = ratio (fi (Array.length st.order)) (pass_s passes) in
  {
    setup_s;
    gen_s;
    attempted;
    failed;
    e2e;
    shown =
      (if passes = [] then []
       else
         [
           ("serve_rps", rps, "1/s");
           ("serve_rtt_p50_ms", List.assoc "op_p50_ms" e2e, "ms");
           ("serve_rtt_p99_ms", List.assoc "op_p99_ms" e2e, "ms");
         ])
      @ sample_counts passes;
    layer =
      (if ctx.traced then
         layer @ List.filter (fun (k, _) -> k <> "core.fallbacks") (quality_layer q)
       else []);
    tables;
  }

(* ------------------------------------------------------------------ *)
(* simulate-suite                                                      *)
(* ------------------------------------------------------------------ *)

(* Messages each protocol delivers on an [n]-node guest: one per guest
   edge for a reduction or broadcast, two for all-reduce and the
   ping-pong sweep, one per node for the permutation. *)
let expected_delivered n = function
  | "reduction" | "broadcast" -> n - 1
  | "all-reduce" | "pingpong-sweep" -> 2 * (n - 1)
  | _ -> n

type case_out = { cycles : int; delivered : int; hops : int; max_queue : int }

let simulate_suite ctx =
  let n = Theorem1.optimal_size ~capacity ctx.sizes.sim_height in
  let (guest, t1, t3, cases), setup_s, gen_s =
    repeat_setup (fun () ->
        (* A random-BST guest rather than a uniform (Catalan) one: a
           uniform tree's height, and with it the cost of the native
           permutation replay, varies about twofold between seeds, while
           a random BST's height stays within a few levels. *)
        let guest, gen_s = timed (fun () -> Gen.random_bst (Rng.make ~seed:ctx.seed) n) in
        let t1 = Theorem1.embed guest in
        let t3 = Hypercube_transfer.embed guest in
        let cases =
          List.concat_map
            (fun (w : Workload.spec) ->
              [
                Workload.native_case w guest;
                Workload.embedded_case ~label:(w.name ^ "/xtree") w t1.embedding;
                Workload.embedded_case ~label:(w.name ^ "/hypercube") w t3.embedding;
              ])
            Workload.workloads
        in
        ((guest, t1, t3, cases), gen_s))
  in
  (* One replay on a fresh one-shard simulator, as [Workload.run_case]
     does it, with its two public calls timed apart. *)
  let run_case traced (c : Workload.case) =
    let sim, place =
      span traced "pb.netsim.create" (fun () ->
          match c.embedding with
          | None -> (Sim.create (Workload.guest_graph c.tree), Array.init (Bintree.n c.tree) Fun.id)
          | Some e -> (Sim.create e.Embedding.host, e.Embedding.place))
    in
    let cycles = span traced "pb.netsim.run" (fun () -> c.workload.run sim ~place ~tree:c.tree) in
    {
      cycles;
      delivered = Sim.delivered sim;
      hops = Array.fold_left ( + ) 0 (Sim.link_loads sim);
      max_queue = Sim.max_link_queue sim;
    }
  in
  let pass traced =
    let outs, wall =
      timed (fun () ->
          span traced "pb.pass" (fun () ->
              List.map
                (fun c ->
                  Speed.tick ();
                  timed (fun () -> run_case traced c))
                cases))
    in
    let times = Array.of_list (List.map snd outs) in
    ( List.map fst outs,
      { wall; knodes = fi (n * List.length cases) /. 1e3; units = times; ops = times; speed = 1.0 }
    )
  in
  (* Every message must arrive, and every pass must repeat the first
     pass's cycles and hops. *)
  let reference = ref [] and attempted = ref 0 and failed = ref 0 in
  let record (outs, p) =
    attempted := !attempted + List.length outs;
    if !reference = [] then reference := outs;
    List.iteri
      (fun i o ->
        let c = List.nth cases i and f = List.nth !reference i in
        if
          o.delivered <> expected_delivered n c.Workload.workload.name
          || o.cycles <> f.cycles || o.hops <> f.hops
        then incr failed)
      outs;
    p
  in
  let passes, layer, tables =
    if not ctx.traced then
      (run_passes ctx.seconds (fun () -> record (measured (fun () -> pass false))), [], [])
    else begin
      let graphs = [ Workload.guest_graph guest; t1.embedding.host; t3.embedding.host ] in
      let warm_s = List.map (fun g -> snd (timed (fun () -> Router.warm (Router.create g)))) graphs in
      let pairs =
        run_passes ctx.seconds (fun () ->
            let u = record (measured (fun () -> pass false)) in
            let (outs, t), dump, spans = with_trace (fun () -> pass true) in
            ignore (record (outs, t) : pass);
            (u, t, outs, dump, spans))
      in
      let _, _, outs, dump, spans = last pairs in
      let metrics, table =
        table_layer ~title:"simulate-suite"
          ~traced_walls:(List.map (fun (_, t, _, _, _) -> t.wall) pairs)
          ~untraced_walls:(List.map (fun (u, _, _, _, _) -> u.wall) pairs)
          spans
      in
      let ncases = fi (List.length cases) in
      let total f = fi (List.fold_left (fun acc o -> acc + f o) 0 outs) in
      ( List.map (fun (u, _, _, _, _) -> u) pairs,
        [
          ("netsim.create_s", Layers.wall spans "pb.netsim.create" /. ncases);
          ("netsim.router_warm_s", median warm_s);
          ("netsim.run_s", Layers.wall spans "pb.netsim.run" /. ncases);
          ( "netsim.ns_per_hop",
            ratio (1e9 *. Layers.wall spans "pb.netsim.run") (total (fun o -> o.hops)) );
          ("netsim.cycles", total (fun o -> o.cycles));
          ("netsim.hops", total (fun o -> o.hops));
          ("netsim.delivered", total (fun o -> o.delivered));
          ("netsim.max_link_queue", fi (List.fold_left (fun acc o -> max acc o.max_queue) 0 outs));
        ]
        @ program_layer ~embeds:0 dump spans
        @ metrics,
        [ table ] )
    end
  in
  let q = quality () in
  let check dist fallbacks e =
    incr attempted;
    if not (check_embedding q ~dist ~fallbacks e) then incr failed
  in
  check (Theorem1.distance_oracle t1) t1.fallbacks t1.embedding;
  check (Hypercube_transfer.distance_oracle t3) t3.base.fallbacks t3.embedding;
  (* Cases come in (native, X-tree, hypercube) triples per protocol. *)
  let slowdowns =
    let rec go = function
      | nat :: x :: h :: rest ->
          let r o = ratio (fi o.cycles) (fi nat.cycles) in
          r x :: r h :: go rest
      | _ -> []
    in
    go !reference
  in
  let e2e = throughput passes @ quality_e2e q in
  {
    setup_s;
    gen_s;
    attempted = !attempted;
    failed = !failed;
    e2e;
    shown =
      [
        ( "sim_hops_per_s",
          ratio (fi (List.fold_left (fun acc o -> acc + o.hops) 0 !reference)) (pass_s passes),
          "hops/s" );
        ("sim_slowdown", geomean slowdowns, "ratio");
      ]
      @ sample_counts passes;
    layer = (if ctx.traced then layer @ quality_layer q else []);
    tables;
  }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let end_to_end =
  [
    ("setup_s", "s");
    ("peak_heap_mb", "MB");
    ("guest_knodes_per_s", "knodes/s");
    ("op_p50_ms", "ms");
    ("op_p99_ms", "ms");
    ("max_dilation", "hops");
  ]

(* Printed but not in the JSON result: a few dozen fallbacks decide it on
   simulate-suite's two embeddings, so it spreads too far across seeds to
   carry a regression bound there. *)
let ungated = [ ("fallback_rate", "ratio") ]

let per_layer =
  [
    ("bintree.codec_parse_us", "us");
    ("bintree.fingerprint_us", "us");
    ("bintree.gen_s", "s");
    ("core.embed_s", "s");
    ("core.adjust_self_s", "s");
    ("core.split_self_s", "s");
    ("core.final_fill_self_s", "s");
    ("core.embed_self_s", "s");
    ("core.rounds", "count");
    ("core.adjust_calls", "count");
    ("core.adjust_nodes_moved", "count");
    ("core.split_calls", "count");
    ("core.split_pieces", "count");
    ("core.split_fill_laid", "count");
    ("core.fallbacks", "count");
    ("embedding.cache_hit_rate", "ratio");
    ("embedding.cache_hit_us", "us");
    ("embedding.cache_resident_mb", "MB");
    ("embedding.cache_verify_rejects", "count");
    ("embedding.verify_ms_per_knode", "ms/knode");
    ("prelude.fork_take_ratio", "ratio");
    ("prelude.queue_wait_ms", "ms");
    ("serve.batch_ms", "ms");
    ("serve.unique_per_request", "ratio");
    ("serve.wire_encode_us", "us");
    ("serve.wire_read_us", "us");
    ("netsim.create_s", "s");
    ("netsim.router_warm_s", "s");
    ("netsim.run_s", "s");
    ("netsim.ns_per_hop", "ns");
    ("netsim.cycles", "count");
    ("netsim.hops", "count");
    ("netsim.delivered", "count");
    ("netsim.max_link_queue", "count");
  ]
  @ List.map (fun l -> ("layer." ^ l ^ "_s", "s")) (Layers.layers @ [ "other" ])
  @ [
      ("trace.wall_s", "s");
      ("trace.untraced_wall_s", "s");
      ("trace.overhead", "ratio");
      ("trace.coverage", "ratio");
    ]

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let workloads =
  [
    ("embed-large", embed_large);
    ("serve-hot", serve ~hot:true);
    ("serve-cold", serve ~hot:false);
    ("simulate-suite", simulate_suite);
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let quick_mode = ref false and commit = ref "unknown" in
  let spec =
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME one of " ^ String.concat ", " (List.map fst workloads) );
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S how long the timed passes run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--quick", Arg.Set quick_mode, " tiny sizes, for the self-check");
      ("--commit", Arg.Set_string commit, "ID commit recorded with the result");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME [options]";
  let run =
    match List.assoc_opt !workload workloads with
    | Some run when !trace = 0 || !trace = 1 -> run
    | _ ->
        prerr_endline "perfbench: unknown --workload or --trace (see --help)";
        exit 2
  in
  let ctx =
    {
      sizes = (if !quick_mode then quick else full);
      seed = !seed;
      seconds = !seconds;
      traced = !trace = 1;
    }
  in
  let o = run ctx in
  let peak = !first_pass_peak in
  Printf.printf "perfbench: workload=%s seed=%d seconds=%g trace=%d%s\n" !workload !seed !seconds
    !trace
    (if !quick_mode then " quick" else "");
  Printf.printf "env: nproc=%d domain_budget=%d ocaml=%s commit=%s\n"
    (Domain.recommended_domain_count ())
    (Parallel.domain_budget ()) Sys.ocaml_version !commit;
  List.iter print_string o.tables;
  let e2e = ("setup_s", o.setup_s) :: ("peak_heap_mb", peak) :: o.e2e in
  let metric (name, v, u) = Printf.printf "metric %s %s %s\n" name (json_number v) u in
  List.iter
    (fun (name, u) -> Option.iter (fun v -> metric (name, v, u)) (List.assoc_opt name e2e))
    (end_to_end @ ungated);
  List.iter metric o.shown;
  metric ("failed_frac", ratio (fi o.failed) (fi o.attempted), "ratio");
  let reported =
    if ctx.traced then begin
      let layer = ("bintree.gen_s", o.gen_s) :: o.layer in
      let rows =
        List.map
          (fun (name, u) -> (name, Option.value ~default:0.0 (List.assoc_opt name layer), u))
          per_layer
      in
      List.iter (fun (name, v, u) -> Printf.printf "layer %s %s %s\n" name (json_number v) u) rows;
      rows
    end
    else
      List.map
        (fun (name, u) -> (name, Option.value ~default:0.0 (List.assoc_opt name e2e), u))
        end_to_end
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (o.failed = 0 && o.attempted > 0)
    o.attempted o.failed
    (String.concat ", "
       (List.map
          (fun (name, v, u) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number v) u)
          reported))
