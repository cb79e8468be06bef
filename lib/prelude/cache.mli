(** Domain-safe sharded LRU cache.

    Keys are strings; values are arbitrary. The key space is split over a
    power-of-two number of shards (by key hash), each shard guarded by its
    own mutex and keeping its entries on an intrusive doubly-linked
    recency list — domains touching different keys at once (a server
    domain and its caller sharing one cache) almost never contend, and
    every operation is O(1) inside its shard.

    Capacity is bounded both in entries and (approximately) in bytes;
    least-recently-used entries are evicted when either bound is
    exceeded. Global {!Xt_obs.Obs} counters [cache.hits], [cache.misses]
    and [cache.evictions] aggregate over all cache instances in the
    process.

    {!with_memo} is the intended entry point: concurrent misses on the
    same key compute the value once (per-key in-flight latch) while
    misses on different keys proceed in parallel. *)

type 'a t

val create : ?shards:int -> ?capacity:int -> ?max_bytes:int -> unit -> 'a t
(** [shards] (default 8) is rounded up to a power of two. [capacity]
    (default 256) bounds the total entry count; [max_bytes] (default
    unlimited) bounds the sum of the per-entry byte estimates supplied at
    insertion. Both bounds are split evenly across shards. *)

val with_memo : 'a t -> ?bytes:('a -> int) -> string -> (unit -> 'a) -> 'a
(** [with_memo t key f] returns the cached value for [key], or computes
    [f ()], stores it and returns it. If another domain is already
    computing [key], the call waits on the in-flight latch instead of
    duplicating the work; [f] runs outside all locks. [bytes] estimates
    the stored size for the byte bound. Exceptions from [f] propagate
    (after waking any waiters) and cache nothing. *)

val find : 'a t -> string -> 'a option
(** Counts a hit or a miss, and promotes the entry on hit. *)

val probe : 'a t -> string -> 'a option
(** Like {!find}, but a miss is not counted: for a fast path whose
    misses fall through to {!with_memo}, which counts them. *)

val mem : 'a t -> string -> bool
(** Neutral: no counters, no promotion. *)

val add : 'a t -> ?bytes:int -> string -> 'a -> unit
(** Insert or replace (replacement promotes), then evict as needed. *)

val remove : 'a t -> string -> unit
val length : 'a t -> int
val bytes : 'a t -> int

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
(** Fold over a point-in-time snapshot of the entries, shard by shard,
    least recently used first within each shard — replaying the fold
    through {!add} therefore reproduces each shard's recency order
    (same keys hash to the same shards, so cross-shard interleaving is
    immaterial). [bytes] is the size estimate given at insertion. [f]
    runs outside all shard locks and may use the cache. *)

val clear : 'a t -> unit
(** Drop all entries (not counted as evictions). *)
