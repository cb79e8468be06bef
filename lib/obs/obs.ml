(* Domain-sharded metrics + span tracing. See obs.mli for the contract.

   Layout notes. Every instrument keeps [nshards] cells; a recording
   domain writes cell [Domain.self () land (nshards - 1)], so distinct
   domains write distinct cells. Counter and gauge cells live in one int
   array padded to a cache line (8 words) per shard, so two domains
   bumping the same counter never share a line. Writes are plain (not
   atomic): each cell has a single writer, and every reader (drain,
   export) runs after the recording domains have been joined, and
   [Domain.join] orders their writes before the read. *)

let nshards = 64
let shard_mask = nshards - 1
let pad = 8 (* ints per shard slot: one 64-byte line *)

let shard_index () = (Domain.self () :> int) land shard_mask

(* ------------------------------------------------------------------ *)
(* Flags and clock                                                     *)
(* ------------------------------------------------------------------ *)

let metrics_on = ref false
let tracing_on = ref false

(* The flight recorder is on by default: recording an event writes a few
   preallocated ring cells, so leaving it armed costs nothing measurable
   and a wedged process can always explain its recent past. *)
let recorder_on = ref true

(* Per-span GC sampling (Gc.quick_stat around every span). Off by
   default: the stat read allocates and the deltas are not deterministic,
   so only explicitly profiling runs turn it on. *)
let gc_on = ref false

let metrics_enabled () = !metrics_on
let tracing_enabled () = !tracing_on
let enable_metrics () = metrics_on := true
let disable_metrics () = metrics_on := false
let recorder_enabled () = !recorder_on
let enable_recorder () = recorder_on := true
let disable_recorder () = recorder_on := false
let gc_sampling_enabled () = !gc_on
let enable_gc_sampling () = gc_on := true
let disable_gc_sampling () = gc_on := false

let default_clock () = int_of_float (Unix.gettimeofday () *. 1e9)
let clock = ref default_clock
let set_clock f = clock := f
let now_ns () = !clock ()

(* XT_FAKE_CLOCK=1 injects a deterministic tick counter at load time —
   the knob the trace-smoke tests use to make CLI traces byte-stable.
   The atomic is shared by all domains, so multi-domain runs stay
   race-free (ticks are unique) even though their interleaving is not
   deterministic. *)
let () =
  match Sys.getenv_opt "XT_FAKE_CLOCK" with
  | Some s when s <> "" && s <> "0" ->
      let tick = Atomic.make 0 in
      clock := fun () -> Atomic.fetch_and_add tick 1 * 1000
  | _ -> ()

(* Trace timestamps are exported relative to this origin. *)
let trace_origin = ref 0

let disable_tracing () = tracing_on := false

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

type counter = { c_name : string; cells : int array }
type gauge = { g_name : string; g_cells : int array (* min_int = unset *) }

type hshard = {
  hcounts : int array; (* bounds + overflow *)
  mutable hsum : int;
  mutable hcount : int;
  mutable hmin : int;
  mutable hmax : int;
}

type histogram = {
  name : string;
  bounds : int array;
  pow2 : bool; (* bounds are [default_buckets]: bucket by bit arithmetic *)
  shards : hshard array;
}

let registry_mutex = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 32
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

let registered tbl name make =
  Mutex.lock registry_mutex;
  let v =
    match Hashtbl.find_opt tbl name with
    | Some v -> v
    | None ->
        let v = make () in
        Hashtbl.replace tbl name v;
        v
  in
  Mutex.unlock registry_mutex;
  v

let counter name =
  registered counters name (fun () -> { c_name = name; cells = Array.make (nshards * pad) 0 })

let add c n =
  if !metrics_on then begin
    let i = shard_index () * pad in
    c.cells.(i) <- c.cells.(i) + n
  end

let incr c = add c 1

let gauge name =
  registered gauges name (fun () ->
      { g_name = name; g_cells = Array.make (nshards * pad) min_int })

let set_gauge g v = if !metrics_on then g.g_cells.(shard_index () * pad) <- v

(* 1, 2, 4, ..., 2^29: thirty buckets covering ns latencies up to ~0.5 s
   and size distributions up to ~5e8. *)
let default_buckets = Array.init 30 (fun i -> 1 lsl i)

let histogram ?(buckets = default_buckets) name =
  registered histograms name (fun () ->
      if Array.length buckets = 0 then invalid_arg "Obs.histogram: empty buckets";
      Array.iteri
        (fun i b -> if i > 0 && buckets.(i - 1) >= b then invalid_arg "Obs.histogram: buckets not sorted")
        buckets;
      {
        name;
        bounds = Array.copy buckets;
        pow2 = buckets = default_buckets;
        shards =
          Array.init nshards (fun _ ->
              {
                hcounts = Array.make (Array.length buckets + 1) 0;
                hsum = 0;
                hcount = 0;
                hmin = max_int;
                hmax = min_int;
              });
      })

(* First bucket whose inclusive upper bound is >= v, else the overflow
   slot. Binary search: bounds are small arrays but latency ladders have
   ~30 entries. *)
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

let debruijn =
  "\000\001\028\002\029\014\024\003\030\022\020\015\025\017\004\008\
   \031\027\013\023\021\019\016\007\026\012\018\006\011\005\010\009"

(* [bucket_search default_buckets v] in O(1): bucket [i] holds
   (2^(i-1), 2^i], so a [v] in (1, 2^29] lands in bucket ceil(log2 v),
   the bit length of [v - 1]. Smearing [v - 1] rightwards and adding one
   leaves the single bit 2^ceil(log2 v), whose position is one multiply
   into a de Bruijn table. *)
let pow2_bucket v =
  if v <= 1 then 0
  else if v > 1 lsl 29 then 30
  else begin
    let x = v - 1 in
    let x = x lor (x lsr 1) in
    let x = x lor (x lsr 2) in
    let x = x lor (x lsr 4) in
    let x = x lor (x lsr 8) in
    let x = x lor (x lsr 16) in
    Char.code (String.unsafe_get debruijn ((((x + 1) * 0x077CB531) lsr 27) land 31))
  end

let observe h v =
  if !metrics_on then begin
    let s = h.shards.(shard_index ()) in
    let b = if h.pow2 then pow2_bucket v else bucket_search h.bounds v in
    s.hcounts.(b) <- s.hcounts.(b) + 1;
    s.hsum <- s.hsum + v;
    s.hcount <- s.hcount + 1;
    if v < s.hmin then s.hmin <- v;
    if v > s.hmax then s.hmax <- v
  end

let time_ns h f =
  if not !metrics_on then f ()
  else begin
    let t0 = now_ns () in
    let r = f () in
    observe h (now_ns () - t0);
    r
  end

(* ------------------------------------------------------------------ *)
(* Drain                                                               *)
(* ------------------------------------------------------------------ *)

type histogram_row = {
  h_name : string;
  bounds : int array;
  counts : int array;
  count : int;
  sum : int;
  vmin : int;
  vmax : int;
}

type dump = {
  counters : (string * int) list;
  gauges : (string * int) list;
  histograms : histogram_row list;
}

let sorted_values tbl = Hashtbl.fold (fun _ v acc -> v :: acc) tbl []

let by_name name_of l = List.sort (fun a b -> compare (name_of a) (name_of b)) l

let snapshot () =
  Mutex.lock registry_mutex;
  let cs = sorted_values counters and gs = sorted_values gauges and hs = sorted_values histograms in
  Mutex.unlock registry_mutex;
  let counter_total (c : counter) =
    let t = ref 0 in
    for i = 0 to nshards - 1 do
      t := !t + c.cells.(i * pad)
    done;
    (c.c_name, !t)
  in
  let gauge_merged (g : gauge) =
    let t = ref min_int in
    for i = 0 to nshards - 1 do
      let v = g.g_cells.(i * pad) in
      if v > !t then t := v
    done;
    (g.g_name, if !t = min_int then 0 else !t)
  in
  let hist_merged (h : histogram) =
    let nb = Array.length h.bounds in
    let counts = Array.make (nb + 1) 0 in
    let sum = ref 0 and count = ref 0 and vmin = ref max_int and vmax = ref min_int in
    Array.iter
      (fun s ->
        Array.iteri (fun i c -> counts.(i) <- counts.(i) + c) s.hcounts;
        sum := !sum + s.hsum;
        count := !count + s.hcount;
        if s.hmin < !vmin then vmin := s.hmin;
        if s.hmax > !vmax then vmax := s.hmax)
      h.shards;
    {
      h_name = h.name;
      bounds = Array.copy h.bounds;
      counts;
      count = !count;
      sum = !sum;
      vmin = (if !count = 0 then 0 else !vmin);
      vmax = (if !count = 0 then 0 else !vmax);
    }
  in
  {
    counters = by_name fst (List.map counter_total cs);
    gauges = by_name fst (List.map gauge_merged gs);
    histograms = by_name (fun r -> r.h_name) (List.map hist_merged hs);
  }

let reset_metrics () =
  Mutex.lock registry_mutex;
  Hashtbl.iter (fun _ (c : counter) -> Array.fill c.cells 0 (Array.length c.cells) 0) counters;
  Hashtbl.iter (fun _ (g : gauge) -> Array.fill g.g_cells 0 (Array.length g.g_cells) min_int) gauges;
  Hashtbl.iter
    (fun _ (h : histogram) ->
      Array.iter
        (fun s ->
          Array.fill s.hcounts 0 (Array.length s.hcounts) 0;
          s.hsum <- 0;
          s.hcount <- 0;
          s.hmin <- max_int;
          s.hmax <- min_int)
        h.shards)
    histograms;
  Mutex.unlock registry_mutex

let drain () =
  let d = snapshot () in
  reset_metrics ();
  d

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

let int_list b l =
  Buffer.add_char b '[';
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (string_of_int v))
    l;
  Buffer.add_char b ']'

let dump_json d =
  let b = Buffer.create 1024 in
  let obj kvs emit =
    Buffer.add_char b '{';
    List.iteri
      (fun i kv ->
        if i > 0 then Buffer.add_char b ',';
        emit kv)
      kvs;
    Buffer.add_char b '}'
  in
  Buffer.add_string b "{\"counters\":";
  obj d.counters (fun (k, v) -> Buffer.add_string b (Printf.sprintf "\"%s\":%d" (json_escape k) v));
  Buffer.add_string b ",\"gauges\":";
  obj d.gauges (fun (k, v) -> Buffer.add_string b (Printf.sprintf "\"%s\":%d" (json_escape k) v));
  Buffer.add_string b ",\"histograms\":";
  obj d.histograms (fun r ->
      Buffer.add_string b (Printf.sprintf "\"%s\":{\"bounds\":" (json_escape r.h_name));
      int_list b r.bounds;
      Buffer.add_string b ",\"counts\":";
      int_list b r.counts;
      Buffer.add_string b
        (Printf.sprintf ",\"count\":%d,\"sum\":%d,\"min\":%d,\"max\":%d}" r.count r.sum r.vmin
           r.vmax));
  Buffer.add_string b "}";
  Buffer.contents b

(* Quantile estimate from bucketed counts. The answer is the upper bound
   of the bucket holding the rank-th sample, clamped to the observed
   [vmin, vmax] — clamping makes single-sample histograms exact and keeps
   the overflow bucket (no upper bound) finite. *)
let quantile r q =
  if r.count = 0 then 0
  else begin
    let rank = min r.count (max 1 (int_of_float (ceil (q *. float_of_int r.count)))) in
    let nb = Array.length r.bounds in
    let res = ref r.vmax and cum = ref 0 in
    (try
       Array.iteri
         (fun i c ->
           cum := !cum + c;
           if c > 0 && !cum >= rank then begin
             res := (if i < nb then min r.bounds.(i) r.vmax else r.vmax);
             raise Exit
           end)
         r.counts
     with Exit -> ());
    max r.vmin !res
  end

let pp_dump b d =
  List.iter (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s = %d\n" k v)) d.counters;
  List.iter (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s = %d (gauge)\n" k v)) d.gauges;
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%s: count=%d sum=%d min=%d max=%d p50=%d p90=%d p99=%d\n" r.h_name
           r.count r.sum r.vmin r.vmax (quantile r 0.50) (quantile r 0.90) (quantile r 0.99)))
    d.histograms

(* ------------------------------------------------------------------ *)
(* Tracing                                                             *)
(* ------------------------------------------------------------------ *)

(* One track per shard, stored like the flight recorder's rings as
   parallel arrays, so recording an event allocates nothing (the arrays
   double when full) and leaves no young pointer in an old array. *)
type track = {
  mutable names : string array;
  mutable phs : Bytes.t;
  mutable tss : int array;
  mutable args : int array; (* min_int = none *)
  mutable args2 : int array; (* min_int = none; major-words delta under GC sampling *)
  mutable len : int;
}

let tracks =
  Array.init nshards (fun _ ->
      { names = [||]; phs = Bytes.empty; tss = [||]; args = [||]; args2 = [||]; len = 0 })

let grow_track t =
  let cap = Array.length t.tss in
  let cap' = max 256 (2 * cap) in
  let grow a fill =
    let b = Array.make cap' fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.names <- grow t.names "";
  t.phs <- Bytes.extend t.phs 0 (cap' - cap);
  t.tss <- grow t.tss 0;
  t.args <- grow t.args min_int;
  t.args2 <- grow t.args2 min_int

let push ph name ts arg arg2 =
  let t = tracks.(shard_index ()) in
  if t.len = Array.length t.tss then grow_track t;
  let i = t.len in
  t.names.(i) <- name;
  Bytes.set t.phs i ph;
  t.tss.(i) <- ts;
  t.args.(i) <- arg;
  t.args2.(i) <- arg2;
  t.len <- i + 1

let reset_trace () = Array.iter (fun t -> t.len <- 0) tracks

let enable_tracing () =
  trace_origin := now_ns ();
  tracing_on := true

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

(* Per-shard ring of the most recent events, stored as parallel
   preallocated arrays: appending overwrites one slot of each array
   (the name cell is a pointer write into a preexisting string array),
   so steady-state recording allocates nothing beyond whatever the
   clock itself costs. Capacity is a power of two so the slot index is
   a mask, and [r_total] keeps the lifetime append count so we can
   report how many events the ring has dropped. *)
type ring = {
  mutable r_names : string array;
  mutable r_ph : Bytes.t;
  mutable r_ts : int array;
  mutable r_arg : int array;
  mutable r_arg2 : int array;
  mutable r_total : int;
}

let pow2_ge n =
  let c = ref 1 in
  while !c < n do
    c := !c * 2
  done;
  !c

let default_ring_capacity = 256

let make_ring cap =
  {
    r_names = Array.make cap "";
    r_ph = Bytes.make cap ' ';
    r_ts = Array.make cap 0;
    r_arg = Array.make cap min_int;
    r_arg2 = Array.make cap min_int;
    r_total = 0;
  }

let rings = Array.init nshards (fun _ -> make_ring default_ring_capacity)

let recorder_capacity () = Array.length (rings.(0)).r_ts

let reset_recorder () =
  Array.iter
    (fun r ->
      Array.fill r.r_names 0 (Array.length r.r_names) "";
      r.r_total <- 0)
    rings

let set_recorder_capacity n =
  let cap = pow2_ge (max 16 n) in
  Array.iter
    (fun r ->
      r.r_names <- Array.make cap "";
      r.r_ph <- Bytes.make cap ' ';
      r.r_ts <- Array.make cap 0;
      r.r_arg <- Array.make cap min_int;
      r.r_arg2 <- Array.make cap min_int;
      r.r_total <- 0)
    rings

let rec_push ph name ts arg arg2 =
  let r = rings.(shard_index ()) in
  let i = r.r_total land (Array.length r.r_ts - 1) in
  r.r_names.(i) <- name;
  Bytes.unsafe_set r.r_ph i ph;
  r.r_ts.(i) <- ts;
  r.r_arg.(i) <- arg;
  r.r_arg2.(i) <- arg2;
  r.r_total <- r.r_total + 1

(* Route one event to whichever sinks are armed, both stamped [ts]. *)
let emit_at ts ph name arg arg2 =
  if !tracing_on then push ph name ts arg arg2;
  if !recorder_on then rec_push ph name ts arg arg2

let emit ph name arg arg2 = emit_at (now_ns ()) ph name arg arg2

let gc_sample () =
  let s = Gc.quick_stat () in
  (int_of_float s.Gc.minor_words, int_of_float s.Gc.major_words)

let span ?(arg = min_int) name f =
  if not (!tracing_on || !recorder_on) then f ()
  else begin
    let gmin0, gmaj0 = if !gc_on then gc_sample () else (0, 0) in
    emit 'B' name arg min_int;
    Fun.protect
      ~finally:(fun () ->
        let a, a2 =
          if !gc_on then begin
            let gmin1, gmaj1 = gc_sample () in
            (gmin1 - gmin0, gmaj1 - gmaj0)
          end
          else (min_int, min_int)
        in
        emit 'E' name a a2)
      f
  end

let instant ?(arg = min_int) name =
  if !tracing_on || !recorder_on then emit 'i' name arg min_int

let counter_event ?ts name v =
  if !tracing_on || !recorder_on then
    emit_at (match ts with Some ts -> ts | None -> now_ns ()) 'C' name v min_int

let trace_json () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let sep () = if !first then first := false else Buffer.add_string b ",\n" in
  sep ();
  Buffer.add_string b
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"xtree\"}}";
  Array.iteri
    (fun tid t ->
      if t.len > 0 then begin
        sep ();
        Buffer.add_string b
          (Printf.sprintf
             "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"domain-%d\"}}"
             tid tid)
      end)
    tracks;
  Array.iteri
    (fun tid t ->
      for i = 0 to t.len - 1 do
        let ph = Bytes.get t.phs i and arg = t.args.(i) in
        let us = float_of_int (t.tss.(i) - !trace_origin) /. 1e3 in
        sep ();
        Buffer.add_string b
          (Printf.sprintf "{\"name\":\"%s\",\"ph\":\"%c\",\"ts\":%.3f,\"pid\":1,\"tid\":%d"
             (json_escape t.names.(i)) ph us tid);
        (match ph with
        | 'C' -> Buffer.add_string b (Printf.sprintf ",\"args\":{\"value\":%d}" arg)
        | 'i' -> Buffer.add_string b ",\"s\":\"t\""
        | _ -> ());
        if ph <> 'C' && arg <> min_int then begin
          Buffer.add_string b (Printf.sprintf ",\"args\":{\"v\":%d" arg);
          if t.args2.(i) <> min_int then Buffer.add_string b (Printf.sprintf ",\"v2\":%d" t.args2.(i));
          Buffer.add_char b '}'
        end;
        Buffer.add_char b '}'
      done)
    tracks;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let write_trace file =
  let oc = open_out file in
  output_string oc (trace_json ());
  close_out oc

(* ------------------------------------------------------------------ *)
(* Event export (analytics) and flight dumps                           *)
(* ------------------------------------------------------------------ *)

type event = {
  ev_tid : int;
  ev_name : string;
  ev_ph : char;
  ev_ts : int; (* ns, relative to the trace origin *)
  ev_arg : int; (* min_int = none *)
  ev_arg2 : int; (* min_int = none *)
}

let events () =
  let acc = ref [] in
  for tid = nshards - 1 downto 0 do
    let t = tracks.(tid) in
    for i = t.len - 1 downto 0 do
      acc :=
        {
          ev_tid = tid;
          ev_name = t.names.(i);
          ev_ph = Bytes.get t.phs i;
          ev_ts = t.tss.(i) - !trace_origin;
          ev_arg = t.args.(i);
          ev_arg2 = t.args2.(i);
        }
        :: !acc
    done
  done;
  !acc

(* Oldest-to-newest retained entries of one ring. *)
let ring_fold r f acc =
  let cap = Array.length r.r_ts in
  let n = min r.r_total cap in
  let start = r.r_total - n in
  let acc = ref acc in
  for k = 0 to n - 1 do
    let i = (start + k) land (cap - 1) in
    acc := f !acc i
  done;
  !acc

let flight_events () =
  let acc = ref [] in
  Array.iteri
    (fun tid r ->
      acc :=
        ring_fold r
          (fun acc i ->
            {
              ev_tid = tid;
              ev_name = r.r_names.(i);
              ev_ph = Bytes.get r.r_ph i;
              ev_ts = r.r_ts.(i);
              ev_arg = r.r_arg.(i);
              ev_arg2 = r.r_arg2.(i);
            }
            :: acc)
          !acc)
    rings;
  List.rev !acc

let flight_recorded () = Array.fold_left (fun a r -> a + min r.r_total (Array.length r.r_ts)) 0 rings

let flight_dropped () =
  Array.fold_left (fun a r -> a + max 0 (r.r_total - Array.length r.r_ts)) 0 rings

let pp_flight b =
  let evs = flight_events () in
  Buffer.add_string b "== flight recorder ==\n";
  Buffer.add_string b
    (Printf.sprintf "capacity=%d/shard recorded=%d dropped=%d\n" (recorder_capacity ())
       (flight_recorded ()) (flight_dropped ()));
  (* Timestamps print relative to the earliest retained event, so dumps
     read as "how long before the end did this happen" without leaking
     the absolute epoch clock. *)
  let t0 = List.fold_left (fun a e -> min a e.ev_ts) max_int evs in
  let prev_tid = ref (-1) in
  List.iter
    (fun e ->
      if e.ev_tid <> !prev_tid then begin
        prev_tid := e.ev_tid;
        Buffer.add_string b (Printf.sprintf "-- shard %d --\n" e.ev_tid)
      end;
      Buffer.add_string b
        (Printf.sprintf "+%.3fms %c %s" (float_of_int (e.ev_ts - t0) /. 1e6) e.ev_ph e.ev_name);
      if e.ev_arg <> min_int then Buffer.add_string b (Printf.sprintf " v=%d" e.ev_arg);
      if e.ev_arg2 <> min_int then Buffer.add_string b (Printf.sprintf " v2=%d" e.ev_arg2);
      Buffer.add_char b '\n')
    evs

let write_flight file =
  let b = Buffer.create 4096 in
  pp_flight b;
  let oc = open_out file in
  Buffer.output_buffer oc b;
  close_out oc
