(* Domain-sharded metrics + span tracing. See obs.mli for the contract.

   Layout notes. Every instrument keeps [nshards] cells; a recording
   domain writes cell [Domain.self () land (nshards - 1)], so distinct
   domains write distinct cells. Counter cells live in one int array
   padded to a cache line (8 words) per shard, so two domains bumping
   the same counter never share a line. Writes are plain (not atomic):
   each cell has a single writer, and every reader (drain, export) runs
   after the recording domains have been joined, and [Domain.join]
   orders their writes before the read. *)

let nshards = 64
let shard_mask = nshards - 1
let pad = 8 (* ints per shard slot: one 64-byte line *)

let shard_index () = (Domain.self () :> int) land shard_mask

(* ------------------------------------------------------------------ *)
(* Flags and clock                                                     *)
(* ------------------------------------------------------------------ *)

let metrics_on = ref false
let tracing_on = ref false
let recorder_on = ref false

(* Per-span GC sampling (Gc.quick_stat around every span). Off by
   default: the stat read allocates and the deltas are not deterministic,
   so only explicitly profiling runs turn it on. *)
let gc_on = ref false

let metrics_enabled () = !metrics_on
let tracing_enabled () = !tracing_on
let enable_metrics () = metrics_on := true
let disable_metrics () = metrics_on := false
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

type hshard = {
  hcounts : int array; (* bounds + overflow *)
  mutable hsum : int;
  mutable hcount : int;
  mutable hmin : int;
  mutable hmax : int;
}

type histogram = { name : string; shards : hshard array }

let registry_mutex = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 32
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

(* 1, 2, 4, ..., 2^29: thirty buckets covering ns latencies up to ~0.5 s
   and size distributions up to ~5e8. *)
let buckets = Array.init 30 (fun i -> 1 lsl i)

let histogram name =
  registered histograms name (fun () ->
      {
        name;
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

let debruijn =
  "\000\001\028\002\029\014\024\003\030\022\020\015\025\017\004\008\
   \031\027\013\023\021\019\016\007\026\012\018\006\011\005\010\009"

(* The first bucket whose bound is >= v, in O(1): bucket [i] holds
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
    let b = pow2_bucket v in
    s.hcounts.(b) <- s.hcounts.(b) + 1;
    s.hsum <- s.hsum + v;
    s.hcount <- s.hcount + 1;
    if v < s.hmin then s.hmin <- v;
    if v > s.hmax then s.hmax <- v
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

type dump = { counters : (string * int) list; histograms : histogram_row list }

let sorted_values tbl = Hashtbl.fold (fun _ v acc -> v :: acc) tbl []

let by_name name_of l = List.sort (fun a b -> compare (name_of a) (name_of b)) l

let snapshot () =
  Mutex.lock registry_mutex;
  let cs = sorted_values counters and hs = sorted_values histograms in
  Mutex.unlock registry_mutex;
  let counter_total (c : counter) =
    let t = ref 0 in
    for i = 0 to nshards - 1 do
      t := !t + c.cells.(i * pad)
    done;
    (c.c_name, !t)
  in
  let hist_merged (h : histogram) =
    let counts = Array.make (Array.length buckets + 1) 0 in
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
      bounds = Array.copy buckets;
      counts;
      count = !count;
      sum = !sum;
      vmin = (if !count = 0 then 0 else !vmin);
      vmax = (if !count = 0 then 0 else !vmax);
    }
  in
  {
    counters = by_name fst (List.map counter_total cs);
    histograms = by_name (fun r -> r.h_name) (List.map hist_merged hs);
  }

let reset_metrics () =
  Mutex.lock registry_mutex;
  Hashtbl.iter (fun _ (c : counter) -> Array.fill c.cells 0 (Array.length c.cells) 0) counters;
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
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%s: count=%d sum=%d min=%d max=%d p50=%d p90=%d p99=%d\n" r.h_name
           r.count r.sum r.vmin r.vmax (quantile r 0.50) (quantile r 0.90) (quantile r 0.99)))
    d.histograms

(* ------------------------------------------------------------------ *)
(* The event log                                                       *)
(* ------------------------------------------------------------------ *)

(* One log per shard, stored as parallel arrays, so recording an event
   allocates nothing and leaves no young pointer in an old array. Event
   [k], counted from the last reset, lives in slot [k land (cap - 1)]
   of arrays of length [cap], 0 or a power of two >= 256. While
   tracing, the arrays double before they fill, so the slot of event
   [k] is [k] and the log keeps every event. With only the recorder
   armed they stop growing, and the log is a ring that keeps at least
   the last [flight_capacity] events. *)
type log = {
  mutable names : string array;
  mutable phs : Bytes.t;
  mutable tss : int array;
  mutable args : int array; (* min_int = none *)
  mutable args2 : int array; (* min_int = none; major-words delta under GC sampling *)
  mutable total : int; (* events appended since the last reset *)
}

let flight_capacity = 256

let logs =
  Array.init nshards (fun _ ->
      { names = [||]; phs = Bytes.empty; tss = [||]; args = [||]; args2 = [||]; total = 0 })

let grow l =
  let cap = Array.length l.tss in
  let cap' = max flight_capacity (2 * cap) in
  let grow a fill =
    let b = Array.make cap' fill in
    Array.blit a 0 b 0 cap;
    b
  in
  l.names <- grow l.names "";
  l.phs <- Bytes.extend l.phs 0 (cap' - cap);
  l.tss <- grow l.tss 0;
  l.args <- grow l.args min_int;
  l.args2 <- grow l.args2 min_int

let slot l k = k land (Array.length l.tss - 1)

(* The first of the log's events still held. *)
let first_held l = max 0 (l.total - Array.length l.tss)

let push ts ph name arg arg2 =
  let l = logs.(shard_index ()) in
  let cap = Array.length l.tss in
  if l.total = cap && (cap = 0 || !tracing_on) then grow l;
  let i = slot l l.total in
  l.names.(i) <- name;
  Bytes.unsafe_set l.phs i ph;
  l.tss.(i) <- ts;
  l.args.(i) <- arg;
  l.args2.(i) <- arg2;
  l.total <- l.total + 1

let reset_trace () = Array.iter (fun l -> l.total <- 0) logs

let enable_tracing () =
  reset_trace ();
  trace_origin := now_ns ();
  tracing_on := true

let gc_sample () =
  let s = Gc.quick_stat () in
  (int_of_float s.Gc.minor_words, int_of_float s.Gc.major_words)

let span ?(arg = min_int) name f =
  if not (!tracing_on || !recorder_on) then f ()
  else begin
    let gmin0, gmaj0 = if !gc_on then gc_sample () else (0, 0) in
    push (now_ns ()) 'B' name arg min_int;
    Fun.protect
      ~finally:(fun () ->
        let a, a2 =
          if !gc_on then begin
            let gmin1, gmaj1 = gc_sample () in
            (gmin1 - gmin0, gmaj1 - gmaj0)
          end
          else (min_int, min_int)
        in
        push (now_ns ()) 'E' name a a2)
      f
  end

let instant ?(arg = min_int) name =
  if !tracing_on || !recorder_on then push (now_ns ()) 'i' name arg min_int

let counter_event ?ts name v =
  if !tracing_on || !recorder_on then
    push (match ts with Some ts -> ts | None -> now_ns ()) 'C' name v min_int

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

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

let trace_json () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let sep () = if !first then first := false else Buffer.add_string b ",\n" in
  sep ();
  Buffer.add_string b
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"xtree\"}}";
  Array.iteri
    (fun tid l ->
      if l.total > 0 then begin
        sep ();
        Buffer.add_string b
          (Printf.sprintf
             "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"domain-%d\"}}"
             tid tid)
      end)
    logs;
  Array.iteri
    (fun tid l ->
      for k = first_held l to l.total - 1 do
        let i = slot l k in
        let ph = Bytes.get l.phs i and arg = l.args.(i) in
        let us = float_of_int (l.tss.(i) - !trace_origin) /. 1e3 in
        sep ();
        Buffer.add_string b
          (Printf.sprintf "{\"name\":\"%s\",\"ph\":\"%c\",\"ts\":%.3f,\"pid\":1,\"tid\":%d"
             (json_escape l.names.(i)) ph us tid);
        (match ph with
        | 'C' -> Buffer.add_string b (Printf.sprintf ",\"args\":{\"value\":%d}" arg)
        | 'i' -> Buffer.add_string b ",\"s\":\"t\""
        | _ -> ());
        if ph <> 'C' && arg <> min_int then begin
          Buffer.add_string b (Printf.sprintf ",\"args\":{\"v\":%d" arg);
          if l.args2.(i) <> min_int then Buffer.add_string b (Printf.sprintf ",\"v2\":%d" l.args2.(i));
          Buffer.add_char b '}'
        end;
        Buffer.add_char b '}'
      done)
    logs;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let write_trace file =
  let oc = open_out file in
  output_string oc (trace_json ());
  close_out oc

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
    let l = logs.(tid) in
    for k = l.total - 1 downto first_held l do
      let i = slot l k in
      acc :=
        {
          ev_tid = tid;
          ev_name = l.names.(i);
          ev_ph = Bytes.get l.phs i;
          ev_ts = l.tss.(i) - !trace_origin;
          ev_arg = l.args.(i);
          ev_arg2 = l.args2.(i);
        }
        :: !acc
    done
  done;
  !acc

(* The first event of a shard's flight dump: its last [flight_capacity]. *)
let first_dumped l = max 0 (l.total - flight_capacity)

let pp_flight b =
  let recorded = ref 0 and dropped = ref 0 and t0 = ref max_int in
  Array.iter
    (fun l ->
      let first = first_dumped l in
      recorded := !recorded + l.total - first;
      dropped := !dropped + first;
      for k = first to l.total - 1 do
        t0 := min !t0 l.tss.(slot l k)
      done)
    logs;
  Buffer.add_string b "== flight recorder ==\n";
  Buffer.add_string b
    (Printf.sprintf "capacity=%d/shard recorded=%d dropped=%d\n" flight_capacity !recorded
       !dropped);
  (* Timestamps print relative to the earliest dumped event, so dumps
     read as "how long before the end did this happen" without leaking
     the absolute epoch clock. *)
  Array.iteri
    (fun tid l ->
      let first = first_dumped l in
      if first < l.total then Buffer.add_string b (Printf.sprintf "-- shard %d --\n" tid);
      for k = first to l.total - 1 do
        let i = slot l k in
        Buffer.add_string b
          (Printf.sprintf "+%.3fms %c %s"
             (float_of_int (l.tss.(i) - !t0) /. 1e6)
             (Bytes.get l.phs i) l.names.(i));
        if l.args.(i) <> min_int then Buffer.add_string b (Printf.sprintf " v=%d" l.args.(i));
        if l.args2.(i) <> min_int then Buffer.add_string b (Printf.sprintf " v2=%d" l.args2.(i));
        Buffer.add_char b '\n'
      done)
    logs

let write_flight file =
  let b = Buffer.create 4096 in
  pp_flight b;
  let oc = open_out file in
  Buffer.output_buffer oc b;
  close_out oc
