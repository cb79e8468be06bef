(** Fork–join parallelism over a persistent OCaml 5 domain pool.

    A single pool of worker domains is created lazily at the first
    parallel call and reused for the rest of the process (no
    [Domain.spawn] per call). The submitting domain always participates
    in its own batch, so a budget of [d] domains runs work on [d-1] pool
    workers plus the caller.

    Work items must be pure or own their mutable state — nothing here
    synchronises shared data beyond the work queue itself. Batches live
    in a FIFO queue, so calls made from {e inside} a batch body (nested
    parallelism) dispatch to the pool like any other call. Nesting is
    deadlock-free: a submitter claims all remaining chunks of its own
    batch before blocking, so blocked domains only ever wait on chunks
    another domain is actively executing, and wait chains strictly
    increase nesting depth.

    The domain budget resolves, in order: {!set_domain_budget} override,
    the [XT_DOMAINS] environment variable, {!recommended_domains}.
    [XT_DOMAINS=1] forces every primitive down its sequential path.

    When [Xt_obs.Obs] metrics are enabled the runtime records the
    [parallel.items] / [parallel.batches] / [parallel.chunks] counters,
    the {!fork_cutoff} decision counters [parallel.forks_taken] /
    [parallel.forks_sequentialized], and the [parallel.queue_wait_ns]
    worker-wait histogram; with tracing enabled each pool dispatch emits
    a [parallel.for] span on the caller track and one [parallel.batch]
    span per participating domain. [parallel.items] is counted on the
    sequential fallback too, so its total does not depend on the domain
    budget. *)

val recommended_domains : unit -> int
(** [max 1 (cores - 1)], capped at 8. *)

val domain_budget : unit -> int
(** The resolved number of domains a parallel call may use ([>= 1]). *)

val set_domain_budget : int -> unit
(** Process-wide override (e.g. a [--jobs N] flag). Values [< 1] clamp
    to 1. The pool is sized at its first use to at least 4 lanes, so
    raising the budget later still finds real workers; budgets beyond
    the pool size only cap per-call parallelism. *)

val parallel_for : ?domains:int -> ?chunk:int -> int -> (int -> unit) -> unit
(** [parallel_for n body] runs [body i] for [i = 0 .. n-1], distributing
    contiguous chunks of indices over the pool. [?domains] caps the
    parallelism of this call; [?chunk] fixes the chunk size (default:
    about four chunks per available domain).

    Failure protocol: once an item raises, no item above the lowest
    failed index is started (workers stop promptly), while every item
    {e below} it still runs — so the exception propagated after the join
    is deterministically the one sequential execution would raise
    first. *)

val fork_join : (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
(** [fork_join fa fb] evaluates both thunks, possibly on two domains,
    and returns both results. Follows the {!parallel_for} failure
    protocol: if both raise, [fa]'s exception is the one propagated. *)

val fork_cutoff : size:int -> cutoff:int -> (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
(** {!fork_join} gated by a work estimate: forks when [size >= cutoff]
    and the domain budget allows, otherwise runs [fa] then [fb] on the
    calling domain. Each decision bumps [parallel.forks_taken] or
    [parallel.forks_sequentialized], so traces show where the cutoff
    bites. *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map with the {!parallel_for} failure
    protocol. *)

val map_array : ?domains:int -> ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array

val iter : ?domains:int -> ('a -> unit) -> 'a list -> unit

val map_reduce :
  ?domains:int -> map:('a -> 'b) -> combine:('b -> 'b -> 'b) -> 'b -> 'a array -> 'b
(** [map_reduce ~map ~combine init xs] folds [combine] over the mapped
    items in index order (chunk partials are combined left to right), so
    the result is deterministic for associative [combine] even when it
    is not commutative. *)
