(** Trace analytics: deterministic summary tables from a span/event log.

    Input is either {!Obs.events} (the live in-memory log) or a
    Chrome-trace JSON export re-read with {!of_trace_json} — the two
    produce identical reports for the same run because the JSON round
    trip preserves nanosecond timestamps.

    The full report renders, in order: per-span wall vs. self time
    ([== spans ==]), per-domain utilization and idle gaps
    ([== domains ==]), instant-event counts ([== instants ==]),
    counter-track series ([== series ==]), and — when spans carry GC
    deltas from {!Obs.enable_gc_sampling} — per-span GC pressure
    ([== gc ==]).

    [~deterministic:true] projects away everything that can vary
    between runs: time columns, the domains section and series [last]
    values — what remains is byte-identical across runs of a
    deterministic computation. *)

val of_trace_json : string -> (Obs.event list, string) result
(** Parse a Chrome trace-event JSON document (as written by
    {!Obs.write_trace}) back into events, dropping ['M'] metadata. *)

val report : ?deterministic:bool -> ?dump:Obs.dump -> Obs.event list -> string
(** Render the analytics tables. [?dump] is ignored; it is kept so that
    callers written against the fork-efficiency section it used to add
    still compile. *)
