(** A synchronous, cycle-accurate store-and-forward network simulator.

    Every directed link transmits at most [link_capacity] messages per
    cycle (FIFO per link). A message sent at cycle [t] starts moving at
    cycle [t+1]; a message to the sender's own vertex is delivered at
    [t+1] without using any link. Delivery callbacks may inject further
    messages, so dependency chains (reductions, broadcasts) unfold
    naturally. [run] executes until the network is quiescent and returns
    the cycle count — the quantity the paper's dilation is a proxy for.

    The core is event-driven: two-level bitsets track only the links
    and inboxes that currently hold messages, and each cycle walks them
    in ascending index order, with no sort, so results are bit-identical
    to a full sweep — the retained {!Sim_ref} is the executable
    specification. A walk starts at the set's first member and stops
    after its last, so a cycle with one busy queue costs the same on any
    host. Messages live in a flat arena of int arrays, and every link
    and inbox FIFO is an intrusive list threaded through it (no per-queue
    buffer to grow); each hop is one route lookup that names its
    directed link ({!Router.next_link}), and the steady-state loop
    allocates nothing. When the network is
    latency-bound — exactly one message in flight, sitting on a link —
    [run] skips the idle cycles and fast-forwards the message along its
    whole remaining route, so serial workloads cost O(total hops)
    instead of O(cycles × topology).

    The simulator records through [Xt_obs.Obs]: the [netsim.sent] /
    [netsim.delivered] / [netsim.hops] counters and the
    [netsim.latency_cycles] histogram when metrics are enabled, and
    per-cycle [netsim.in_flight] / [netsim.queued] /
    [netsim.queue_depth_max] / [netsim.inbox_depth_max] /
    [netsim.link_util_pct] counter tracks when tracing is enabled (all
    emitted only on stepped cycles; a skipped stretch leaves a
    [netsim.idle_skip] instant carrying the number of cycles
    jumped). *)

type t

type handler = tag:int -> t -> unit
(** Called when a message with the given [tag] is delivered; may call
    {!send} to continue the protocol. *)

val create : ?link_capacity:int -> ?service_rate:int -> Xt_topology.Graph.t -> t
(** [link_capacity] (default 1) caps how many messages one directed link
    carries per cycle. [service_rate] (default unlimited) caps how many
    arrived messages one vertex can {e complete} per cycle — the
    computation side of the paper's load factor: a vertex carrying 16
    guest nodes serialises their work. Arrivals beyond the rate wait in
    the vertex inbox. Raises [Invalid_argument] if either is [<= 0]. *)

val send : t -> src:int -> dst:int -> tag:int -> unit
(** Inject a message at the current cycle. Raises [Invalid_argument] if
    [src] or [dst] is not a host vertex. *)

val run : t -> on_deliver:handler -> int
(** Drive the network to quiescence; returns the number of cycles taken
    (0 if nothing was ever sent). Raises [Invalid_argument] if a message
    has an unreachable destination. *)

val delivered : t -> int
(** Total messages delivered so far. *)

val max_link_queue : t -> int
(** High-water mark of any link queue — a congestion indicator. *)

val max_inbox_queue : t -> int
(** High-water mark of any vertex inbox — the computation-side backlog
    that builds up whenever [service_rate] is finite. Every delivered
    message passes through its destination inbox, so this is at least 1
    once anything has arrived. *)

val link_loads : t -> int array
(** Total messages that traversed each directed link, indexed by
    [2 * edge_id + direction] (direction 0 points at the
    higher-numbered endpoint). Sums to the total hop count. *)

val latencies : t -> int array
(** Per-message end-to-end latency in cycles (injection to service
    completion), in delivery order — feed to [Stats.of_ints] /
    [Stats.quantiles_of_ints] for p50/p90/p99. *)
