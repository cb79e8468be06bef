(** The retained reference simulator core.

    This is the original sweep-based implementation of {!Sim}: every
    cycle it scans {e all} [2m] directed-link queues and {e all} [n]
    vertex inboxes, allocating intermediate lists as it goes — O(cycles
    × topology) instead of the active-set core's O(traffic). It is kept,
    unoptimised and telemetry-free, as the executable specification of
    the cycle semantics: the qcheck equivalence suite
    ([test/test_netsim_ref.ml]) replays every workload through both
    cores via {!Workload.Make} and demands identical cycle counts,
    delivery totals, link loads and latencies, and the bench harness
    records the measured speedup of {!Sim} over this module in
    [BENCH_1.json].

    The interface is the {!Workload.CORE} subset of {!Sim}'s, with the
    same defaults and the same [Invalid_argument] conditions. *)

type t

val create : ?link_capacity:int -> ?service_rate:int -> Xt_topology.Graph.t -> t
val send : t -> src:int -> dst:int -> tag:int -> unit
val run : t -> on_deliver:(tag:int -> t -> unit) -> int
val delivered : t -> int
val max_link_queue : t -> int
val max_inbox_queue : t -> int
val link_loads : t -> int array
val latencies : t -> int array
