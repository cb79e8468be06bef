(* Telemetry subsystem: disabled-mode cost, deterministic drains, and
   Chrome-trace export shape. *)
open Xt_obs

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let quiesce () =
  Obs.disable_metrics ();
  Obs.disable_tracing ();
  Obs.disable_gc_sampling ();
  Obs.reset_metrics ();
  Obs.reset_trace ()

let real_clock () = int_of_float (Unix.gettimeofday () *. 1e9)

(* Run [f] under a fake clock that counts its readings, 1000 ns apart. *)
let with_counted_clock f =
  let reads = ref 0 in
  Obs.set_clock (fun () ->
      incr reads;
      !reads * 1000);
  Fun.protect ~finally:(fun () -> Obs.set_clock real_clock) (fun () -> f reads)

let with_fake_clock f = with_counted_clock (fun _ -> f ())

let flight_dump () =
  let b = Buffer.create 256 in
  Obs.pp_flight b;
  String.split_on_char '\n' (Buffer.contents b)

(* ---------------- minimal JSON reader ----------------

   The container has no JSON library, so the trace-validity test parses
   the export with a small recursive-descent reader covering exactly the
   grammar [Obs.trace_json] can emit (and standard JSON escapes). *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of int

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\255' in
  let adv () = incr pos in
  let rec skip () =
    match peek () with ' ' | '\t' | '\n' | '\r' -> adv (); skip () | _ -> ()
  in
  let expect c = if peek () <> c then raise (Bad_json !pos) else adv () in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> adv (); Buffer.contents b
      | '\255' -> raise (Bad_json !pos)
      | '\\' -> (
          adv ();
          let c = peek () in
          adv ();
          match c with
          | 'n' -> Buffer.add_char b '\n'; go ()
          | 't' -> Buffer.add_char b '\t'; go ()
          | 'r' -> Buffer.add_char b '\r'; go ()
          | 'b' -> Buffer.add_char b '\b'; go ()
          | 'f' -> Buffer.add_char b '\012'; go ()
          | 'u' ->
              for _ = 1 to 4 do
                (match peek () with
                | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> ()
                | _ -> raise (Bad_json !pos));
                adv ()
              done;
              Buffer.add_char b '?';
              go ()
          | '"' | '\\' | '/' -> Buffer.add_char b c; go ()
          | _ -> raise (Bad_json !pos))
      | c -> Buffer.add_char b c; adv (); go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let rec go () =
      match peek () with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> adv (); go ()
      | _ -> ()
    in
    go ();
    if !pos = start then raise (Bad_json !pos);
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> raise (Bad_json start)
  in
  let literal w v =
    String.iter (fun c -> expect c) w;
    v
  in
  let rec parse_value () =
    skip ();
    match peek () with
    | '{' ->
        adv ();
        skip ();
        if peek () = '}' then (adv (); Obj [])
        else
          let rec members acc =
            skip ();
            let k = parse_string () in
            skip ();
            expect ':';
            let v = parse_value () in
            skip ();
            match peek () with
            | ',' -> adv (); members ((k, v) :: acc)
            | '}' -> adv (); Obj (List.rev ((k, v) :: acc))
            | _ -> raise (Bad_json !pos)
          in
          members []
    | '[' ->
        adv ();
        skip ();
        if peek () = ']' then (adv (); Arr [])
        else
          let rec elems acc =
            let v = parse_value () in
            skip ();
            match peek () with
            | ',' -> adv (); elems (v :: acc)
            | ']' -> adv (); Arr (List.rev (v :: acc))
            | _ -> raise (Bad_json !pos)
          in
          elems []
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> parse_number ()
  in
  let v = parse_value () in
  skip ();
  if !pos <> n then raise (Bad_json !pos);
  v

let field name = function
  | Obj kvs -> List.assoc name kvs
  | _ -> invalid_arg "field: not an object"

let str_field name o = match field name o with Str s -> s | _ -> invalid_arg name
let num_field name o = match field name o with Num f -> f | _ -> invalid_arg name

let trace_events doc =
  match field "traceEvents" doc with
  | Arr evs -> evs
  | _ -> invalid_arg "traceEvents"

(* ---------------- disabled mode ---------------- *)

let test_disabled_records_nothing () =
  let c = Obs.counter "test.off_counter" in
  let h = Obs.histogram "test.off_hist" in
  quiesce ();
  Obs.incr c;
  Obs.add c 41;
  Obs.observe h 3;
  ignore (Obs.span "test.off_span" (fun () -> 1));
  Obs.instant "test.off_instant";
  Obs.counter_event "test.off_series" 9;
  let d = Obs.snapshot () in
  check "counter untouched" 0 (List.assoc "test.off_counter" d.Obs.counters);
  let row = List.find (fun r -> r.Obs.h_name = "test.off_hist") d.Obs.histograms in
  check "hist untouched" 0 row.Obs.count;
  let evs = trace_events (parse_json (Obs.trace_json ())) in
  checkb "no span events recorded" true
    (List.for_all (fun e -> str_field "ph" e = "M") evs)

(* The recorder starts off (every test that arms it disarms it again),
   so with tracing off the event entry points are a flag check: they
   neither read the clock nor record. *)
let test_disabled_reads_no_clock () =
  quiesce ();
  with_counted_clock (fun reads ->
      ignore (Obs.span "test.unclocked" (fun () -> 0));
      Obs.instant "test.unclocked";
      Obs.counter_event "test.unclocked" 1;
      check "clock reads" 0 !reads);
  check "no events" 0 (List.length (Obs.events ()));
  Alcotest.(check string)
    "empty flight dump" "capacity=256/shard recorded=0 dropped=0"
    (List.nth (flight_dump ()) 1)

let test_disabled_allocates_nothing () =
  let c = Obs.counter "test.off_alloc_counter" in
  let h = Obs.histogram "test.off_alloc_hist" in
  quiesce ();
  let before = Gc.minor_words () in
  for i = 1 to 50_000 do
    Obs.incr c;
    Obs.add c i;
    Obs.observe h i
  done;
  let allocated = Gc.minor_words () -. before in
  (* 150k disabled recordings: a handful of boxed words of slack covers
     the Gc.minor_words calls themselves. *)
  checkb (Printf.sprintf "allocated %.0f words" allocated) true (allocated < 256.)

(* ---------------- enabled metrics ---------------- *)

let test_enabled_merge_and_drain () =
  quiesce ();
  Obs.enable_metrics ();
  let c = Obs.counter "test.on_counter" in
  Obs.incr c;
  Obs.add c 41;
  let h = Obs.histogram "test.on_hist" in
  List.iter (Obs.observe h) [ 0; 5; 50; 5000 ];
  let d = Obs.drain () in
  Obs.disable_metrics ();
  check "counter total" 42 (List.assoc "test.on_counter" d.Obs.counters);
  let row = List.find (fun r -> r.Obs.h_name = "test.on_hist") d.Obs.histograms in
  let want = Array.make 31 0 in
  (* 0 in (-inf, 1], 5 in (4, 8], 50 in (32, 64], 5000 in (4096, 8192] *)
  List.iter (fun b -> want.(b) <- 1) [ 0; 3; 6; 13 ];
  Alcotest.(check (array int)) "bucketed" want row.Obs.counts;
  check "count" 4 row.Obs.count;
  check "sum" 5055 row.Obs.sum;
  check "min" 0 row.Obs.vmin;
  check "max" 5000 row.Obs.vmax;
  checkb "names sorted" true
    (let names = List.map fst d.Obs.counters in
     names = List.sort compare names);
  (* drain reset everything *)
  let d2 = Obs.snapshot () in
  check "drained counter" 0 (List.assoc "test.on_counter" d2.Obs.counters);
  let row2 = List.find (fun r -> r.Obs.h_name = "test.on_hist") d2.Obs.histograms in
  check "drained hist" 0 row2.Obs.count

(* ---------------- tracing ---------------- *)

let test_trace_shape_fake_clock () =
  let tick = ref 0 in
  Obs.set_clock (fun () ->
      incr tick;
      !tick * 1000);
  quiesce ();
  Obs.enable_tracing ();
  Obs.span "outer" (fun () ->
      Obs.span ~arg:1 "inner" (fun () -> Obs.instant "tick");
      try Obs.span "raiser" (fun () -> raise Exit) with Exit -> ());
  Obs.counter_event "depth" 5;
  let doc = parse_json (Obs.trace_json ()) in
  Obs.disable_tracing ();
  let evs = trace_events doc in
  let phases p = List.filter (fun e -> str_field "ph" e = p) evs in
  check "three begins" 3 (List.length (phases "B"));
  (* the raising span still closed *)
  check "three ends" 3 (List.length (phases "E"));
  check "one instant" 1 (List.length (phases "i"));
  check "one counter sample" 1 (List.length (phases "C"));
  (* begin/end balanced per track *)
  let tids = List.sort_uniq compare (List.map (fun e -> num_field "tid" e) evs) in
  List.iter
    (fun tid ->
      let on p e = str_field "ph" e = p && num_field "tid" e = tid in
      check
        (Printf.sprintf "balanced tid %.0f" tid)
        (List.length (List.filter (on "B") evs))
        (List.length (List.filter (on "E") evs)))
    tids;
  (* fake clock: timestamps are non-negative and non-decreasing in
     recording order *)
  let ts = List.map (fun e -> num_field "ts" e) (phases "B" @ phases "E") in
  checkb "non-negative ts" true (List.for_all (fun t -> t >= 0.) ts);
  let names = List.map (fun e -> str_field "name" e) (phases "B") in
  Alcotest.(check (list string)) "span names" [ "outer"; "inner"; "raiser" ] names;
  (match List.hd (phases "C") with
  | e ->
      Alcotest.(check string) "series name" "depth" (str_field "name" e);
      check "series value" 5 (int_of_float (num_field "value" (field "args" e))));
  (* reset drops everything but metadata stays consistent *)
  Obs.reset_trace ();
  let evs2 = trace_events (parse_json (Obs.trace_json ())) in
  checkb "reset cleared events" true (List.for_all (fun e -> str_field "ph" e = "M") evs2)

let test_trace_disabled_passthrough () =
  quiesce ();
  check "span returns" 17 (Obs.span "unrecorded" (fun () -> 17))

(* ---------------- flight recorder ---------------- *)

let test_recorder_ring_wraps () =
  quiesce ();
  with_fake_clock @@ fun () ->
  Obs.enable_recorder ();
  Fun.protect ~finally:Obs.disable_recorder (fun () ->
      for i = 1 to 280 do
        Obs.instant ~arg:i "test.flight"
      done;
      match flight_dump () with
      | title :: header :: shard :: evs ->
          Alcotest.(check string) "title" "== flight recorder ==" title;
          Alcotest.(check string)
            "ring keeps the newest 256 events" "capacity=256/shard recorded=256 dropped=24" header;
          Alcotest.(check string) "one shard" "-- shard 0 --" shard;
          (* 256 event lines, then the empty string after the last newline *)
          check "dumped lines" 257 (List.length evs);
          Alcotest.(check string) "oldest shown" "+0.000ms i test.flight v=25" (List.hd evs);
          Alcotest.(check string)
            "newest shown" "+0.255ms i test.flight v=280" (List.nth evs 255)
      | _ -> Alcotest.fail "short flight dump")

let test_recorder_ring_allocation_free () =
  quiesce ();
  with_fake_clock @@ fun () ->
  Obs.enable_recorder ();
  Fun.protect ~finally:Obs.disable_recorder @@ fun () ->
  (* warm: make sure the instant's path has run once *)
  Obs.instant "test.flight_alloc";
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Obs.instant ~arg:3 "test.flight_alloc"
  done;
  let allocated = Gc.minor_words () -. before in
  (* The ring append itself is allocation-free; the default wall clock
     boxes one float per reading, which is why this runs under the fake
     integer clock. *)
  checkb (Printf.sprintf "10k recordings allocated %.0f words" allocated) true (allocated < 256.)

let test_recorder_off_means_silent () =
  quiesce ();
  Obs.enable_recorder ();
  Obs.instant "test.flight_on";
  Obs.disable_recorder ();
  ignore (Obs.span "test.flight_off" (fun () -> 0));
  Obs.instant "test.flight_off";
  (match flight_dump () with
  | _ :: header :: _ :: ev :: _ ->
      Alcotest.(check string) "one event kept" "capacity=256/shard recorded=1 dropped=0" header;
      Alcotest.(check string) "only the armed one" "+0.000ms i test.flight_on" ev
  | _ -> Alcotest.fail "short flight dump");
  (* tracing starts from an empty log, not from the recorder's ring *)
  Obs.enable_tracing ();
  Obs.disable_tracing ();
  check "tracing empties the log" 0 (List.length (Obs.events ()))

(* ---------------- histogram quantiles ---------------- *)

let test_quantile_empty () =
  let r =
    {
      Obs.h_name = "q.empty";
      bounds = [| 1; 10; 100 |];
      counts = [| 0; 0; 0; 0 |];
      count = 0;
      sum = 0;
      vmin = 0;
      vmax = 0;
    }
  in
  check "empty p50" 0 (Obs.quantile r 0.50);
  check "empty p99" 0 (Obs.quantile r 0.99)

let row_of name = List.find (fun r -> r.Obs.h_name = name)

let test_quantile_single_sample () =
  quiesce ();
  Obs.enable_metrics ();
  let h = Obs.histogram "test.q_single" in
  Obs.observe h 7;
  let d = Obs.drain () in
  Obs.disable_metrics ();
  let r = row_of "test.q_single" d.Obs.histograms in
  (* one sample: every quantile is that sample, exactly (vmin/vmax
     clamping, not the bucket bound 8) *)
  check "p50" 7 (Obs.quantile r 0.50);
  check "p90" 7 (Obs.quantile r 0.90);
  check "p99" 7 (Obs.quantile r 0.99)

let test_quantile_overflow_bucket () =
  quiesce ();
  Obs.enable_metrics ();
  let h = Obs.histogram "test.q_over" in
  let big = (1 lsl 30) + 7 in
  List.iter (Obs.observe h) [ 50; big ];
  let d = Obs.drain () in
  Obs.disable_metrics ();
  let r = row_of "test.q_over" d.Obs.histograms in
  (* rank 1 falls in the (32,64] bucket and reports its upper bound;
     rank 2 in the unbounded overflow bucket, which must clamp to the
     observed max *)
  check "p50 bucket upper bound" 64 (Obs.quantile r 0.50);
  check "p99 overflow clamps to vmax" big (Obs.quantile r 0.99);
  let b = Buffer.create 128 in
  Obs.pp_dump b d;
  let line = Buffer.contents b in
  checkb "pp_dump carries quantiles" true
    (let re = Printf.sprintf "p99=%d" big in
     let rec find i =
       i + String.length re <= String.length line
       && (String.sub line i (String.length re) = re || find (i + 1))
     in
     find 0)

(* ---------------- late-domain shards ---------------- *)

(* Instruments are registered at module-init time, but pool domains are
   created lazily — often after registration. Drain must still merge
   samples recorded from shards those late domains map to, including ids
   past nshards (which wrap onto earlier shards). *)
let test_drain_covers_late_domains () =
  quiesce ();
  Obs.enable_metrics ();
  let c = Obs.counter "test.late_domains" in
  let h = Obs.histogram "test.late_hist" in
  let spawned = 80 in
  for i = 1 to spawned do
    Domain.join
      (Domain.spawn (fun () ->
           Obs.incr c;
           Obs.observe h (i mod 7)))
  done;
  let d = Obs.drain () in
  Obs.disable_metrics ();
  check "every late-domain increment merged" spawned (List.assoc "test.late_domains" d.Obs.counters);
  let r = row_of "test.late_hist" d.Obs.histograms in
  check "every late-domain sample merged" spawned r.Obs.count

(* ---------------- power-of-two buckets ---------------- *)

(* The first bucket of [bounds] whose bound is >= v, else the overflow
   bucket, by binary search: the reference for the O(1) bucket. *)
let bucket_search bounds v =
  let nb = Array.length bounds in
  if v > bounds.(nb - 1) then nb
  else begin
    let lo = ref 0 and hi = ref (nb - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if bounds.(mid) >= v then hi := mid else lo := mid + 1
    done;
    !lo
  end

(* The ladder's O(1) bucket must be the binary search's, on every small
   value, around every power of two an int can hold, and at the
   extremes; and a histogram must file samples there. *)
let test_pow2_bucket_matches_search () =
  let ladder = Array.init 30 (fun i -> 1 lsl i) in
  let same v =
    let want = bucket_search ladder v and got = Obs.pow2_bucket v in
    if got <> want then Alcotest.failf "pow2_bucket %d = %d, binary search %d" v got want
  in
  for v = -100 to 1_000_000 do
    same v
  done;
  for k = 0 to 62 do
    List.iter same [ (1 lsl k) - 1; 1 lsl k; (1 lsl k) + 1 ]
  done;
  List.iter same [ min_int; max_int ];
  quiesce ();
  Obs.enable_metrics ();
  let h = Obs.histogram "test.pow2_hist" in
  let samples = [ min_int; -5; 0; 1; 2; 3; 4; 5; 1000; 1 lsl 29; (1 lsl 29) + 1; max_int ] in
  List.iter (Obs.observe h) samples;
  let r = row_of "test.pow2_hist" (Obs.drain ()).Obs.histograms in
  Obs.disable_metrics ();
  let want = Array.make 31 0 in
  List.iter
    (fun v ->
      let b = bucket_search ladder v in
      want.(b) <- want.(b) + 1)
    samples;
  Alcotest.(check (array int)) "default histogram buckets" want r.Obs.counts

let suite =
  [
    ("disabled records nothing", `Quick, test_disabled_records_nothing);
    ("disabled reads no clock", `Quick, test_disabled_reads_no_clock);
    ("disabled allocates nothing", `Quick, test_disabled_allocates_nothing);
    ("merge and drain", `Quick, test_enabled_merge_and_drain);
    ("trace shape under fake clock", `Quick, test_trace_shape_fake_clock);
    ("trace disabled passthrough", `Quick, test_trace_disabled_passthrough);
    ("recorder ring wraps", `Quick, test_recorder_ring_wraps);
    ("recorder ring allocation free", `Quick, test_recorder_ring_allocation_free);
    ("recorder off is silent", `Quick, test_recorder_off_means_silent);
    ("quantile empty histogram", `Quick, test_quantile_empty);
    ("quantile single sample", `Quick, test_quantile_single_sample);
    ("quantile overflow bucket", `Quick, test_quantile_overflow_bucket);
    ("drain covers late domains", `Quick, test_drain_covers_late_domains);
    ("power-of-two buckets in O(1)", `Quick, test_pow2_bucket_matches_search);
  ]
