(** Telemetry: domain-sharded metrics and Chrome-trace span tracing.

    This module sits below every other library of the repo (it depends
    only on [unix]) so that the embedding pipeline, the service and
    the network simulator can all record into it.

    {b Cost model.} Everything is gated on two process-wide flags.
    With metrics and tracing disabled (the default), every recording
    entry point reduces to one mutable-flag load and a conditional
    branch — no allocation, no clock read, no atomic operation. The
    instruments themselves ([counter], [histogram], …) are created once
    at module-initialisation time and registered in a global registry.

    {b Sharding.} Each instrument keeps one cell (or bucket array) per
    {e shard}; the recording domain writes the shard indexed by its
    [Domain.self] id, so domains recording at once (a server domain and
    its client) never contend on a cache line.
    {!drain} merges shards in increasing shard order and sorts
    instruments by name, so its output is deterministic whenever the
    recorded totals are (work counters of a deterministic algorithm
    merge to identical dumps whatever the domain count).

    {b Tracing.} {!span} brackets a computation with begin/end events
    stamped by an injectable monotonic clock ({!set_clock}); the event
    log is exported as Chrome trace-event JSON ({!trace_json}), loadable
    in Perfetto / [chrome://tracing], with one track (tid) per domain
    shard.

    {b Flight recorder.} Independently of tracing, every span/instant
    entry point also appends to a fixed-size per-shard ring of recent
    events. The rings are preallocated (appending is a handful of array
    stores), so the recorder is on by default and costs nothing at
    steady state; {!pp_flight} dumps the retained tail on demand, on
    fatal error, or at exit. *)

(** {1 Flags and clock} *)

val metrics_enabled : unit -> bool
val tracing_enabled : unit -> bool

val enable_metrics : unit -> unit
val disable_metrics : unit -> unit

val enable_tracing : unit -> unit
(** Also resets the trace clock origin to "now", so exported timestamps
    start near zero. *)

val disable_tracing : unit -> unit

val recorder_enabled : unit -> bool
val enable_recorder : unit -> unit
val disable_recorder : unit -> unit
(** The flight recorder starts enabled; disabling it reduces spans and
    instants back to a flag check when tracing is also off. *)

val gc_sampling_enabled : unit -> bool
val enable_gc_sampling : unit -> unit
val disable_gc_sampling : unit -> unit
(** When GC sampling is on, every span samples [Gc.quick_stat] at entry
    and exit and attaches the minor/major-words deltas to its end event
    ([args.v] / [args.v2] in the Chrome export). Off by default: the
    deltas are not deterministic and the stat read itself allocates. *)

val set_clock : (unit -> int) -> unit
(** Inject a monotonic nanosecond clock (used by spans and timed
    histograms). The default derives from [Unix.gettimeofday]. Tests
    inject a fake counter to make traces fully deterministic; setting
    [XT_FAKE_CLOCK=1] in the environment installs such a counter
    (1000 ns per reading) at module load, which the trace-smoke rules
    use to make whole-CLI traces byte-stable. *)

val now_ns : unit -> int
(** The current clock reading. *)

(** {1 Metrics} *)

type counter

val counter : string -> counter
(** Create-or-find the counter registered under this name. *)

val incr : counter -> unit
val add : counter -> int -> unit
(** No-ops (single flag check) while metrics are disabled. *)

type gauge

val gauge : string -> gauge

val set_gauge : gauge -> int -> unit
(** Record the current value of the gauge on this domain's shard.
    {!drain} merges shards by taking the maximum recorded value. *)

type histogram

val histogram : ?buckets:int array -> string -> histogram
(** Fixed-bucket histogram of integer samples. [buckets] is the sorted
    array of inclusive upper bounds; samples above the last bound fall
    into an implicit overflow bucket. The default is a power-of-two
    exponential ladder [1, 2, 4, …, 2{^29}] suitable for nanosecond
    latencies and size distributions alike. Re-registering a name
    returns the existing histogram (the buckets of the first
    registration win). *)

val observe : histogram -> int -> unit
(** Count a sample in its bucket. A histogram on the default ladder
    finds the bucket in O(1) ({!pow2_bucket}); any other ladder by
    binary search ({!bucket_search}). *)

val bucket_search : int array -> int -> int
(** [bucket_search bounds v]: the first bucket whose bound is [>= v], or
    [Array.length bounds] (the overflow bucket). O(log buckets). *)

val pow2_bucket : int -> int
(** [bucket_search] on the default ladder, by bit arithmetic: for every
    [v], [pow2_bucket v = bucket_search [|1; 2; …; 2{^29}|] v]. *)

val time_ns : histogram -> (unit -> 'a) -> 'a
(** Run the thunk and observe its duration in nanoseconds. When metrics
    are disabled this is a flag check followed by a direct call. *)

(** {1 Drain} *)

type histogram_row = {
  h_name : string;
  bounds : int array;      (** inclusive upper bounds, as registered *)
  counts : int array;      (** length [Array.length bounds + 1]; last = overflow *)
  count : int;
  sum : int;
  vmin : int;              (** 0 when [count = 0] *)
  vmax : int;
}

type dump = {
  counters : (string * int) list;   (** sorted by name *)
  gauges : (string * int) list;     (** sorted by name; shard-max merge *)
  histograms : histogram_row list;  (** sorted by name *)
}

val snapshot : unit -> dump
(** Merge all shards of all registered instruments, deterministically:
    shards in index order, instruments sorted by name. Instruments that
    never recorded are included with zero totals. *)

val reset_metrics : unit -> unit
(** Zero every shard of every instrument (the registry is kept). *)

val drain : unit -> dump
(** [snapshot] followed by [reset_metrics]. *)

val dump_json : dump -> string
(** The dump as a stable JSON object:
    [{"counters":{…},"gauges":{…},"histograms":{…}}], keys in sorted
    order, histogram rows carrying bounds/counts/count/sum/min/max. *)

val pp_dump : Buffer.t -> dump -> unit
(** Human-readable [name = value] lines (counters and gauges), then one
    line per histogram with count/sum/min/max/p50/p90/p99 — the
    [--metrics] output of the CLI. *)

val quantile : histogram_row -> float -> int
(** [quantile r q] estimates the [q]-quantile ([0 < q <= 1]) of a merged
    histogram row as the upper bound of the bucket containing the
    ceil(q·count)-th sample, clamped to the observed [vmin, vmax] range
    (which makes the overflow bucket finite and single-sample rows
    exact). Returns 0 when the row is empty. *)

(** {1 Tracing} *)

val span : ?arg:int -> string -> (unit -> 'a) -> 'a
(** [span name f] records a begin event, runs [f], and records the
    matching end event even when [f] raises. [?arg] is attached to the
    begin event as [args.v]. The events go to the trace log when tracing
    is on and to the flight-recorder ring when the recorder is on; with
    both off, [f] is called directly after the flag check. *)

val instant : ?arg:int -> string -> unit
(** A zero-duration instant event. *)

val counter_event : ?ts:int -> string -> int -> unit
(** A Chrome counter-track sample ([ph = "C"]): a named time series,
    e.g. per-cycle queue depth in the network simulator. [ts] (default:
    {!now_ns} at the call) stamps it, so the samples of one instant can
    share one clock read. *)

val reset_trace : unit -> unit
(** Discard all recorded events. *)

val trace_json : unit -> string
(** The event log as a Chrome trace-event JSON document
    [{"traceEvents":[…]}]: thread-name metadata naming one track per
    domain shard, then every shard's events in recording order.
    Timestamps are microseconds (fractional, ns precision) since the
    clock origin. *)

val write_trace : string -> unit
(** Write {!trace_json} to a file. *)

(** {1 Event export}

    The in-memory trace log in a neutral form, for the analytics engine
    ({!Trace_report}) and anything else that post-processes events
    without a JSON round trip. *)

type event = {
  ev_tid : int;            (** shard / Chrome track id *)
  ev_name : string;
  ev_ph : char;            (** 'B' | 'E' | 'i' | 'C' *)
  ev_ts : int;             (** ns since the trace origin *)
  ev_arg : int;            (** [min_int] = none *)
  ev_arg2 : int;           (** [min_int] = none *)
}

val events : unit -> event list
(** Every recorded trace event, shards in index order, each shard's
    events in recording order. *)

(** {1 Flight recorder} *)

val recorder_capacity : unit -> int
(** Ring capacity per shard (a power of two; default 256). *)

val set_recorder_capacity : int -> unit
(** Resize every ring to the next power of two >= the argument (floor
    16), discarding current contents. *)

val reset_recorder : unit -> unit
(** Forget all retained events (capacity is kept). *)

val flight_events : unit -> event list
(** The retained ring contents, shards in index order, each shard
    oldest first. [ev_ts] here is the raw clock reading (the recorder
    runs even when tracing never set an origin). *)

val flight_dropped : unit -> int
(** Total events overwritten before they could be dumped, across all
    shards. *)

val pp_flight : Buffer.t -> unit
(** Render the retained events as a human-readable dump: a header with
    capacity/recorded/dropped, then per-shard blocks with timestamps
    relative to the earliest retained event. *)

val write_flight : string -> unit
(** Write {!pp_flight} to a file (the [--flight FILE] / [XT_FLIGHT]
    dump). *)
