(* Trace analytics engine: JSON round trip, wall/self attribution,
   deterministic projection and the GC section. *)
open Xt_obs

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let contains hay needle =
  let n = String.length needle in
  let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let ev ?(tid = 0) ?(arg = min_int) ?(arg2 = min_int) ph name ts_ms =
  {
    Obs.ev_tid = tid;
    ev_name = name;
    ev_ph = ph;
    ev_ts = int_of_float (ts_ms *. 1e6);
    ev_arg = arg;
    ev_arg2 = arg2;
  }

(* outer [0,10ms] wraps inner [1,3ms]: outer self = 10 - 2 = 8ms *)
let nested =
  [
    ev 'B' "outer" 0.;
    ev 'B' "inner" 1.;
    ev 'E' "inner" 3.;
    ev 'E' "outer" 10.;
  ]

let test_wall_vs_self () =
  let r = Trace_report.report nested in
  checkb "inner wall 2ms" true (contains r "2.000");
  checkb "outer self 8ms" true (contains r "8.000");
  checkb "outer wall 10ms" true (contains r "10.000");
  checkb "has spans section" true (contains r "== spans ==");
  checkb "has domains section" true (contains r "== domains ==")

let test_idle_gaps () =
  let evs =
    [
      ev 'B' "a" 0.;
      ev 'E' "a" 1.;
      ev 'B' "b" 5.; (* 4ms gap *)
      ev 'E' "b" 6.;
      ev 'B' "c" 6.; (* back to back: no gap *)
      ev 'E' "c" 8.;
    ]
  in
  let r = Trace_report.report evs in
  (* busy 4ms over an 8ms range, one idle gap of 4ms *)
  checkb "busy" true (contains r "4.000");
  checkb "util 50%" true (contains r "50.0");
  checkb "one gap" true (contains r "== domains ==")

let test_truncated_spans_close () =
  (* B without E (process died mid-span) and E without B (ring evicted
     the begin): neither may crash or distort counts *)
  let evs = [ ev 'E' "orphan" 1.; ev 'B' "unclosed" 2.; ev 'B' "leaf" 3.; ev 'E' "leaf" 4. ] in
  let r = Trace_report.report evs in
  checkb "unclosed still counted" true (contains r "unclosed");
  checkb "leaf counted" true (contains r "leaf")

let test_series_and_instants () =
  let evs =
    [
      ev 'C' ~arg:3 "depth" 0.;
      ev 'C' ~arg:9 "depth" 1.;
      ev 'C' ~arg:1 "depth" 2.;
      ev 'i' "blip" 1.5;
    ]
  in
  let r = Trace_report.report evs in
  checkb "series section" true (contains r "== series ==");
  checkb "min..max..last row" true (contains r "depth");
  checkb "instants section" true (contains r "== instants ==");
  let rd = Trace_report.report ~deterministic:true evs in
  checkb "deterministic series drops last" true (contains rd "== series (deterministic) ==")

let test_deterministic_projection () =
  let det = Trace_report.report ~deterministic:true nested in
  checkb "deterministic drops time columns" false (contains det "wall_ms");
  checkb "deterministic drops domains" false (contains det "== domains ==");
  checkb "deterministic keeps counts" true (contains det "outer")

let test_empty () = checks "empty trace" "(empty trace)\n" (Trace_report.report [])

let test_gc_section () =
  let evs = [ ev 'B' "hot" 0.; ev ~arg:1200 ~arg2:34 'E' "hot" 1. ] in
  let r = Trace_report.report evs in
  checkb "gc section" true (contains r "== gc ==");
  checkb "minor words" true (contains r "1200");
  checkb "major words" true (contains r "34");
  let no_gc = Trace_report.report nested in
  checkb "no gc section without samples" false (contains no_gc "== gc ==")

(* The report over the in-memory log must equal the report over its own
   Chrome-trace export: the JSON round trip is lossless at ns grain. *)
let test_json_round_trip () =
  Obs.reset_trace ();
  let tick = ref 0 in
  Obs.set_clock (fun () ->
      incr tick;
      !tick * 1000);
  Fun.protect
    ~finally:(fun () ->
      Obs.disable_tracing ();
      Obs.reset_trace ();
      Obs.set_clock (fun () -> int_of_float (Unix.gettimeofday () *. 1e9)))
    (fun () ->
      Obs.enable_tracing ();
      Obs.span "outer" (fun () ->
          Obs.span ~arg:7 "inner" (fun () -> Obs.instant "tick");
          Obs.counter_event "depth" 5);
      let live = Obs.events () in
      check "events exported" 6 (List.length live);
      let json = Obs.trace_json () in
      match Trace_report.of_trace_json json with
      | Error msg -> Alcotest.fail msg
      | Ok parsed ->
          check "same event count" (List.length live) (List.length parsed);
          checks "identical reports" (Trace_report.report live) (Trace_report.report parsed))

let test_rejects_garbage () =
  (match Trace_report.of_trace_json "{nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted malformed JSON");
  match Trace_report.of_trace_json "{\"x\":1}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted document without traceEvents"

let suite =
  [
    ("wall vs self attribution", `Quick, test_wall_vs_self);
    ("idle gaps and utilization", `Quick, test_idle_gaps);
    ("truncated spans close", `Quick, test_truncated_spans_close);
    ("series and instants", `Quick, test_series_and_instants);
    ("deterministic projection", `Quick, test_deterministic_projection);
    ("empty trace", `Quick, test_empty);
    ("gc pressure section", `Quick, test_gc_section);
    ("json round trip", `Quick, test_json_round_trip);
    ("rejects garbage", `Quick, test_rejects_garbage);
  ]
