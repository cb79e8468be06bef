(** Telemetry: domain-sharded metrics and one event log for tracing and
    the flight recorder.

    This module sits below every other library of the repo (it depends
    only on [unix]) so that the embedding pipeline, the service and
    the network simulator can all record into it.

    {b Cost model.} Everything is gated on process-wide flags. With
    metrics, tracing and the recorder off (the default), every recording
    entry point reduces to one or two mutable-flag loads and a branch —
    no allocation, no clock read, no atomic operation. The instruments
    themselves ([counter], [histogram]) are created once at
    module-initialisation time and registered in a global registry.

    {b Sharding.} Each instrument keeps one cell (or bucket array) per
    {e shard}; the recording domain writes the shard indexed by its
    [Domain.self] id, so domains recording at once (a server domain and
    its client) never contend on a cache line.
    {!drain} merges shards in increasing shard order and sorts
    instruments by name, so its output is deterministic whenever the
    recorded totals are (work counters of a deterministic algorithm
    merge to identical dumps whatever the domain count).

    {b Event log.} {!span}, {!instant} and {!counter_event} append to one
    log per shard, stamped by an injectable monotonic clock
    ({!set_clock}). While tracing, the log keeps every event, exported as
    Chrome trace-event JSON ({!trace_json}, loadable in Perfetto /
    [chrome://tracing], one track per shard) or as {!events}. With only
    the flight recorder armed, it is a fixed ring of the last 256 events
    per shard, allocated at the shard's first event; {!pp_flight} dumps
    each shard's last 256 events in either mode. The recorder starts off; the CLI arms it when
    [--flight] or [XT_FLIGHT] is given. *)

(** {1 Flags and clock} *)

val metrics_enabled : unit -> bool
val tracing_enabled : unit -> bool

val enable_metrics : unit -> unit
val disable_metrics : unit -> unit

val enable_tracing : unit -> unit
(** Also empties the event log, so a trace never starts from a wrapped
    recorder ring, and resets the trace clock origin to "now", so
    exported timestamps start near zero. *)

val disable_tracing : unit -> unit

val enable_recorder : unit -> unit
val disable_recorder : unit -> unit
(** The flight recorder starts off. Armed with tracing off, it keeps
    the last 256 events per shard; disarmed, spans and instants are
    back to a flag check when tracing is also off. *)

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

type histogram

val histogram : string -> histogram
(** Create-or-find the histogram of integer samples registered under
    this name. Its buckets are the power-of-two ladder
    [1, 2, 4, …, 2{^29}] of inclusive upper bounds, suitable for
    nanosecond latencies and size distributions alike; samples above
    the last bound fall into an overflow bucket. *)

val observe : histogram -> int -> unit
(** Count a sample in its bucket, found in O(1) ({!pow2_bucket}). *)

val pow2_bucket : int -> int
(** The first bucket whose bound is [>= v], or 30 (the overflow bucket),
    by bit arithmetic. *)

(** {1 Drain} *)

type histogram_row = {
  h_name : string;
  bounds : int array;      (** inclusive upper bounds: the ladder *)
  counts : int array;      (** length [Array.length bounds + 1]; last = overflow *)
  count : int;
  sum : int;
  vmin : int;              (** 0 when [count = 0] *)
  vmax : int;
}

type dump = {
  counters : (string * int) list;   (** sorted by name *)
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

val pp_dump : Buffer.t -> dump -> unit
(** Human-readable [name = value] lines (counters), then one
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
    begin event as [args.v]. The events go to the event log when
    tracing or the recorder is on; with both off, [f] is called
    directly after the flag check. *)

val instant : ?arg:int -> string -> unit
(** A zero-duration instant event. *)

val counter_event : ?ts:int -> string -> int -> unit
(** A Chrome counter-track sample ([ph = "C"]): a named time series,
    e.g. per-cycle queue depth in the network simulator. [ts] (default:
    {!now_ns} at the call) stamps it, so the samples of one instant can
    share one clock read. *)

val reset_trace : unit -> unit
(** Empty the event log. *)

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
(** Every event the log holds, shards in index order, each shard's
    events in recording order. *)

(** {1 Flight recorder} *)

val pp_flight : Buffer.t -> unit
(** Render each shard's last 256 events as a human-readable dump: a
    header with capacity/recorded/dropped (dropped counts the events
    before them), then per-shard blocks with timestamps relative to the
    earliest dumped event. *)

val write_flight : string -> unit
(** Write {!pp_flight} to a file (the [--flight FILE] / [XT_FLIGHT]
    dump). *)
