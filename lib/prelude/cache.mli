(** LRU cache.

    Keys are strings; values are arbitrary. One hash table holds the
    entries and one intrusive doubly-linked list keeps them in recency
    order, so every operation is O(1).

    Both bounds are exact: a cache never holds more than [capacity]
    entries, nor more than [max_bytes] in the per-entry byte estimates
    supplied at insertion, and while either bound is exceeded the least
    recently used entry is evicted. Global {!Xt_obs.Obs} counters
    [cache.hits], [cache.misses] and [cache.evictions] aggregate over all
    cache instances in the process.

    A cache has no locks. One domain uses it at a time; it passes to
    another domain only through [Domain.spawn] or [Domain.join], as
    [Xt_serve.Serve.in_process] passes its shape cache to the server
    domain and back. *)

type 'a t

val create : ?capacity:int -> ?max_bytes:int -> unit -> 'a t
(** [capacity] (default 256) bounds the entry count; [max_bytes]
    (default unlimited) bounds the sum of the byte estimates supplied at
    insertion. An entry whose estimate alone exceeds [max_bytes] is
    evicted as soon as it is added. Raises [Invalid_argument] if either
    is below 1. *)

val with_memo : 'a t -> ?bytes:('a -> int) -> string -> (unit -> 'a) -> 'a
(** [with_memo t key f] is {!find}, and on a miss computes [f ()], {!add}s
    it and returns it. [bytes] estimates the stored size for the byte
    bound. An exception from [f] propagates and caches nothing. *)

val find : 'a t -> string -> 'a option
(** Counts a hit or a miss, and promotes the entry on hit. *)

val probe : 'a t -> string -> 'a option
(** Like {!find}, but a miss is not counted: for a fast path whose
    misses fall through to {!with_memo}, which counts them. *)

val mem : 'a t -> string -> bool
(** Neutral: no counters, no promotion. *)

val add : 'a t -> ?bytes:int -> string -> 'a -> unit
(** Insert or replace (replacement promotes), then evict as needed. *)

val length : 'a t -> int

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  resident_bytes : int;
}
(** Per-instance totals since creation (the global Obs counters aggregate
    over every cache in the process; these do not). [entries] and
    [resident_bytes] are the current occupancy, the rest are monotone. *)

val stats : 'a t -> stats

val fold : 'a t -> init:'b -> f:('b -> key:string -> bytes:int -> 'a -> 'b) -> 'b
(** Fold over a snapshot of the entries, least recently used first, so
    replaying the fold through {!add} into an empty cache reproduces the
    recency order. [bytes] is the size estimate given at insertion. [f]
    runs after the snapshot is taken and may use the cache. *)

val clear : 'a t -> unit
(** Drop all entries (not counted as evictions). *)
