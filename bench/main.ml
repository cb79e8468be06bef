(* Full experiment harness: regenerates every table/figure object of the
   paper (tables F1..E19, see DESIGN.md section 4), then runs the
   bechamel micro-benchmarks.

   Usage: dune exec bench/main.exe [-- OPTIONS]

     --tables-only      skip the micro-benchmarks
     --micro-only       skip the tables
     --csv DIR          also write one CSV per table into DIR
     --json FILE        write per-table wall-clock timings, GC words and
                        work counters to FILE as JSON
     --smoke            only the cheap smoke-marked tables (seconds, not
                        minutes; used by the @bench-gate dune alias)
     --no-timings       blank live wall-clock cells (E18) so two runs
                        can be diffed byte-for-byte
     --trace FILE       record span tracing (with GC sampling) across the
                        table jobs and write a Chrome trace to FILE
     --baseline FILE    compare per-stage times against a stored --json
                        record (e.g. BENCH_1.json) and print a ratio table
     --check            exit non-zero if any stage regressed past the
                        threshold vs. --baseline (the perf gate)
     --check-threshold R  ratio above which a stage counts as regressed
                        (default 1.5)
     --check-min-seconds S  ignore stages where both baseline and current
                        are below S (default 0.05: timer noise, not perf)
     --history FILE     append one JSON line per invocation (default
                        BENCH_HISTORY.jsonl)
     --no-history       skip the history append (hermetic runs) *)

let rec find_value key = function
  | k :: v :: _ when k = key -> Some v
  | _ :: rest -> find_value key rest
  | [] -> None

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* ISSUE 5 acceptance record: measured speedup of the active-set
   simulator core over the retained sweep-based reference on the
   latency-bound pingpong workload, r = 9 X-tree host. Runs with
   metrics disabled (before the table pass enables them) so the replays
   don't pollute the counters block. The host's routes are built before
   either core is timed: both cores read the host graph's one next-hop
   table, so otherwise the second core would ride on the rows the first
   built. *)

module RefW = Xt_netsim.Workload.Make (Xt_netsim.Sim_ref)

type sim_record = {
  sim_r : int;
  sim_host : string;
  active_set_seconds : float;
  ref_core_seconds : float;
  cycles_identical : bool;
}

let measure_sim_speedup () =
  let r = 9 in
  let tree = Tables.tree_of "uniform" (Xt_core.Theorem1.optimal_size r) in
  let res = Xt_core.Theorem1.embed tree in
  let e = res.Xt_core.Theorem1.embedding in
  Xt_netsim.Router.warm (Xt_netsim.Router.create e.Xt_embedding.Embedding.host);
  let time f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let fast_cycles, fast_s =
    time (fun () ->
        Xt_netsim.Workload.run_embedded Xt_netsim.Workload.pingpong_sweep e)
  in
  let ref_cycles, ref_s =
    time (fun () -> RefW.run_embedded RefW.pingpong_sweep e)
  in
  {
    sim_r = r;
    sim_host = Printf.sprintf "X(%d)" res.Xt_core.Theorem1.height;
    active_set_seconds = fast_s;
    ref_core_seconds = ref_s;
    cycles_identical = fast_cycles = ref_cycles;
  }

(* The embedding-service warmth probe behind the JSON "serve" block: one
   cold session and one snapshot-warm restart over the same request
   stream. The hit rates are measured on the stream's first pass over
   the distinct shapes — near 0% cold, 100% warm — and the responses
   must be byte-identical across the restart. *)
type serve_session = {
  sv_hit_rate : float;
  sv_loaded : int;
  sv_rps : float;
  sv_p50_us : float;
  sv_p90_us : float;
  sv_p99_us : float;
}

type serve_probe = {
  serve_shapes : int;
  serve_requests : int;
  cold : serve_session;
  warm : serve_session;
  responses_identical : bool;
}

let measure_serve_warmth () =
  let open Xt_serve in
  let snapshot = Filename.temp_file "xtree-bench-serve" ".xtsm" in
  Sys.remove snapshot;
  let config = { Serve.default with Serve.snapshot = Some snapshot } in
  let k = 8 in
  let pool = Loadgen.make_shapes ~seed:41 ~count:k ~size:240 in
  (* a first pass over the distinct shapes (the warmth measurement) plus
     a skewed tail (the throughput measurement), like table D4 *)
  let requests =
    Array.to_list pool @ Loadgen.skewed_stream ~seed:41 ~shapes:pool ~requests:64 ~skew:1.2
  in
  let session () =
    let ((cache, loaded) as state) = Serve.make_state config in
    let replies = ref [] in
    let on_reply (r : Loadgen.reply) = replies := r.Loadgen.payload :: !replies in
    let o, _summary =
      Serve.in_process ~config ~state (fun ch -> Loadgen.replay ~on_reply ~requests ch)
    in
    let s = Xt_core.Theorem1.cache_stats cache in
    (* every miss is a distinct shape the snapshot did not already hold *)
    let q = Xt_prelude.Stats.quantiles_of_ints o.Loadgen.rtt_ns in
    ( {
        sv_hit_rate = 1. -. (float_of_int s.Xt_prelude.Cache.misses /. float_of_int k);
        sv_loaded = loaded;
        sv_rps =
          float_of_int o.Loadgen.sent /. (float_of_int o.Loadgen.wall_ns /. 1e9);
        sv_p50_us = q.Xt_prelude.Stats.p50 /. 1e3;
        sv_p90_us = q.Xt_prelude.Stats.p90 /. 1e3;
        sv_p99_us = q.Xt_prelude.Stats.p99 /. 1e3;
      },
      List.rev !replies )
  in
  let cold, cold_replies = session () in
  let warm, warm_replies = session () in
  if Sys.file_exists snapshot then Sys.remove snapshot;
  {
    serve_shapes = k;
    serve_requests = List.length requests;
    cold;
    warm;
    responses_identical = cold_replies = warm_replies;
  }

(* Machine-readable run record. Jobs run one after another on one
   domain, so every stage time is the true cost of that table and the sum
   matches the wall clock up to bookkeeping. *)
let write_json file ~smoke ~wall ~sim ~serve timings =
  let sum = List.fold_left (fun acc t -> acc +. t.Tables.seconds) 0. timings in
  let cores = Domain.recommended_domain_count () in
  let counters = (Xt_obs.Obs.drain ()).Xt_obs.Obs.counters in
  let oc = open_out file in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"bench\": \"tables\",\n";
  Printf.fprintf oc "  \"cores\": %d,\n" cores;
  Printf.fprintf oc "  \"smoke\": %b,\n" smoke;
  Printf.fprintf oc "  \"stages\": [\n";
  List.iteri
    (fun i t ->
      Printf.fprintf oc
        "    { \"name\": \"%s\", \"seconds\": %.6f, \"minor_words\": %d, \"major_words\": %d }%s\n"
        (json_escape t.Tables.job) t.Tables.seconds t.Tables.minor_words t.Tables.major_words
        (if i = List.length timings - 1 then "" else ","))
    timings;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"counters\": {\n";
  List.iteri
    (fun i (name, v) ->
      Printf.fprintf oc "    \"%s\": %d%s\n" (json_escape name) v
        (if i = List.length counters - 1 then "" else ","))
    counters;
  Printf.fprintf oc "  },\n";
  (match sim with
  | None -> ()
  | Some s ->
      Printf.fprintf oc "  \"sim\": {\n";
      Printf.fprintf oc "    \"workload\": \"pingpong-sweep\",\n";
      Printf.fprintf oc "    \"r\": %d,\n" s.sim_r;
      Printf.fprintf oc "    \"host\": \"%s\",\n" (json_escape s.sim_host);
      Printf.fprintf oc "    \"ref_core_seconds\": %.6f,\n" s.ref_core_seconds;
      Printf.fprintf oc "    \"active_set_seconds\": %.6f,\n" s.active_set_seconds;
      Printf.fprintf oc "    \"speedup\": %.2f,\n"
        (if s.active_set_seconds > 0. then s.ref_core_seconds /. s.active_set_seconds else 0.);
      Printf.fprintf oc "    \"cycles_identical\": %b\n" s.cycles_identical;
      Printf.fprintf oc "  },\n");
  (match serve with
  | None -> ()
  | Some p ->
      let session name s tail =
        Printf.fprintf oc "    \"%s\": {\n" name;
        Printf.fprintf oc "      \"first_pass_hit_rate\": %.3f,\n" s.sv_hit_rate;
        Printf.fprintf oc "      \"snapshot_loaded\": %d,\n" s.sv_loaded;
        Printf.fprintf oc "      \"rps\": %.0f,\n" s.sv_rps;
        Printf.fprintf oc "      \"p50_us\": %.1f,\n" s.sv_p50_us;
        Printf.fprintf oc "      \"p90_us\": %.1f,\n" s.sv_p90_us;
        Printf.fprintf oc "      \"p99_us\": %.1f\n" s.sv_p99_us;
        Printf.fprintf oc "    }%s\n" tail
      in
      Printf.fprintf oc "  \"serve\": {\n";
      Printf.fprintf oc "    \"shapes\": %d,\n" p.serve_shapes;
      Printf.fprintf oc "    \"requests\": %d,\n" p.serve_requests;
      session "cold" p.cold ",";
      session "warm" p.warm ",";
      Printf.fprintf oc "    \"responses_identical\": %b\n" p.responses_identical;
      Printf.fprintf oc "  },\n");
  Printf.fprintf oc "  \"sum_seconds\": %.6f,\n" sum;
  Printf.fprintf oc "  \"wall_seconds\": %.6f\n" wall;
  Printf.fprintf oc "}\n";
  close_out oc

(* ---------------- perf-regression gate ---------------- *)

module J = Xt_obs.Tiny_json

let read_file file =
  let ic = open_in_bin file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Stage name -> seconds from a --json record (tolerates records written
   before the minor/major-words fields existed). *)
let load_baseline file =
  match J.parse (read_file file) with
  | Error msg -> Error msg
  | Ok doc -> (
      match Option.bind (J.member "stages" doc) J.to_list with
      | None -> Error "no stages array"
      | Some stages ->
          Ok
            (List.filter_map
               (fun st ->
                 match
                   ( Option.bind (J.member "name" st) J.to_string,
                     Option.bind (J.member "seconds" st) J.to_float )
                 with
                 | Some name, Some seconds -> Some (name, seconds)
                 | _ -> None)
               stages))

(* Print the per-stage ratio table and return the number of stages that
   regressed past [threshold]. Stages where both sides sit below
   [min_seconds] never count: at that scale the timer measures noise.
   Stages absent from the baseline report as "new" and never fail the
   gate, so adding a table does not require regenerating the baseline. *)
let check_baseline ~baseline_file ~threshold ~min_seconds timings =
  match load_baseline baseline_file with
  | Error msg ->
      Printf.eprintf "cannot read baseline %s: %s\n" baseline_file msg;
      exit 2
  | Ok base ->
      let t =
        Xt_prelude.Tab.create
          ~title:(Printf.sprintf "perf gate vs %s (threshold %.2fx)" baseline_file threshold)
          [ "stage"; "baseline_s"; "current_s"; "ratio"; "status" ]
      in
      let slow = ref 0 in
      List.iter
        (fun (tm : Tables.timing) ->
          match List.assoc_opt tm.Tables.job base with
          | None ->
              Xt_prelude.Tab.add_row t
                [ tm.Tables.job; "-"; Printf.sprintf "%.3f" tm.Tables.seconds; "-"; "new" ]
          | Some b ->
              let ratio = if b > 0. then tm.Tables.seconds /. b else infinity in
              let measurable = b >= min_seconds || tm.Tables.seconds >= min_seconds in
              let status =
                if ratio > threshold && measurable then begin
                  incr slow;
                  "SLOW"
                end
                else "ok"
              in
              Xt_prelude.Tab.add_row t
                [
                  tm.Tables.job;
                  Printf.sprintf "%.3f" b;
                  Printf.sprintf "%.3f" tm.Tables.seconds;
                  Printf.sprintf "%.2f" ratio;
                  status;
                ])
        timings;
      Xt_prelude.Tab.print t;
      if !slow > 0 then
        Printf.printf "perf gate: FAIL (%d stage(s) beyond %.2fx)\n" !slow threshold
      else Printf.printf "perf gate: PASS\n";
      !slow

(* One compact JSON line per invocation, so the perf trajectory survives
   baseline regeneration. *)
let append_history file ~smoke ~wall timings =
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 file in
  Printf.fprintf oc "{\"utc\":%.0f,\"bench\":\"tables\",\"smoke\":%b" (Unix.time ()) smoke;
  Printf.fprintf oc ",\"wall_seconds\":%.6f,\"stages\":{" wall;
  List.iteri
    (fun i (tm : Tables.timing) ->
      Printf.fprintf oc "%s\"%s\":%.6f"
        (if i = 0 then "" else ",")
        (json_escape tm.Tables.job) tm.Tables.seconds)
    timings;
  Printf.fprintf oc "}}\n";
  close_out oc

let () =
  let args = Array.to_list Sys.argv in
  let tables = not (List.mem "--micro-only" args) in
  let micro = not (List.mem "--tables-only" args) in
  let smoke = List.mem "--smoke" args in
  if List.mem "--no-timings" args then Tables.live_timings := false;
  (match find_value "--csv" args with
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Tables.csv_dir := Some dir
  | None -> ());
  print_endline "Simulating Binary Trees on X-Trees (Monien, SPAA 1991) - reproduction harness";
  print_endline "==============================================================================";
  print_newline ();
  let check = List.mem "--check" args in
  let baseline_file = find_value "--baseline" args in
  let threshold =
    match find_value "--check-threshold" args with
    | None -> 1.5
    | Some s -> (
        match float_of_string_opt s with
        | Some r when r > 0. -> r
        | _ -> failwith "main: --check-threshold expects a positive number")
  in
  let min_seconds =
    match find_value "--check-min-seconds" args with
    | None -> 0.05
    | Some s -> (
        match float_of_string_opt s with
        | Some r when r >= 0. -> r
        | _ -> failwith "main: --check-min-seconds expects a non-negative number")
  in
  let history_file =
    if List.mem "--no-history" args then None
    else Some (Option.value ~default:"BENCH_HISTORY.jsonl" (find_value "--history" args))
  in
  let trace_file = find_value "--trace" args in
  if tables then begin
    let json_file = find_value "--json" args in
    (* Metrics are still off here, so the speedup replays leave no
       trace in the counters block below. *)
    let sim = if json_file <> None && not smoke then Some (measure_sim_speedup ()) else None in
    let serve =
      if json_file <> None && not smoke then Some (measure_serve_warmth ()) else None
    in
    (* The JSON record carries the work counters, so count while the
       tables run; without --json the harness stays instrumentation-free. *)
    if json_file <> None then Xt_obs.Obs.enable_metrics ();
    if trace_file <> None then begin
      Xt_obs.Obs.enable_gc_sampling ();
      Xt_obs.Obs.enable_tracing ()
    end;
    let t0 = Unix.gettimeofday () in
    let timings = Tables.run_jobs ~smoke () in
    let wall = Unix.gettimeofday () -. t0 in
    (match trace_file with
    | Some file ->
        Xt_obs.Obs.write_trace file;
        Printf.printf "trace written to %s\n" file
    | None -> ());
    (match history_file with
    | Some file -> append_history file ~smoke ~wall timings
    | None -> ());
    (match json_file with
    | Some file -> write_json file ~smoke ~wall ~sim ~serve timings
    | None -> ());
    match baseline_file with
    | Some bfile ->
        let slow = check_baseline ~baseline_file:bfile ~threshold ~min_seconds timings in
        if check && slow > 0 then exit 1
    | None -> ()
  end;
  if micro then Micro.run ()
