(** Theorem 1: every binary tree with [n = 16·(2{^r+1} - 1)] nodes embeds
    into the X-tree of height [r] with dilation 3 and load factor 16.

    The implementation follows the paper's iterative algorithm X-TREE
    (ADJUST sweeps top-down, then SPLIT over the previous leaf level, one
    round per X-tree level), generalised to arbitrary [n] by choosing the
    smallest sufficient height. Load <= capacity is {e enforced} — a full
    vertex diverts the placement to the nearest free slot (counted in
    [fallbacks]) — so dilation is the measured quantity. *)

type trace = {
  rounds : int array array;
  (** [rounds.(i-1).(j)] is the maximum weight difference [|w(a0) - w(a1)|]
      over level-[j] vertices [a] after round [i] — the quantity the paper
      bounds by [2·Δ(j+1, i)]. *)
  spreads : (int * int) array array;
  (** [spreads.(i-1).(j) = (nl(j,i), nh(j,i))]: the minimum and maximum
      number of guest nodes associated to a level-[j] X-subtree after
      round [i] — the paper bounds these by [n_{r-j} ∓ a(j,i)]. *)
}

type result = {
  embedding : Xt_embedding.Embedding.t;
  xt : Xt_topology.Xtree.t;
  height : int;
  capacity : int;
  fallbacks : int;     (** Placements diverted by a full vertex. *)
  wide_pieces : int;   (** Pieces created with more than two boundaries. *)
  trace : trace option;
}

val height_for : ?capacity:int -> int -> int
(** Smallest [r] with [capacity·(2{^r+1} - 1) >= n]. *)

val optimal_size : ?capacity:int -> int -> int
(** [capacity·(2{^r+1} - 1)], the paper's [n] for height [r]. *)

type cache
(** A canonical-shape memo of Theorem 1 results (packed placement plus
    shared host), keyed by capacity, height, options and the guest's
    canonical {!Xt_bintree.Codec} string. The key is exact, so a hit
    never needs verifying. See {!Xt_embedding.Shape_memo} for the
    exactness guarantee: for preorder-labelled trees (everything
    {!Xt_bintree.Codec} parses) a hit is bit-identical to the uncached
    run. *)

val make_cache : ?capacity:int -> ?max_bytes:int -> unit -> cache
(** Parameters as in {!Xt_prelude.Cache.create}; [capacity] counts cached
    results, not guest nodes. *)

val cache_length : cache -> int

val cache_stats : cache -> Xt_prelude.Cache.stats
(** Per-instance hit/miss/eviction/occupancy totals of the memo. *)

val cache_save : cache -> file:string -> int
(** Snapshot the memo to [file] (atomic rename-on-write, versioned
    header, per-entry checksum; see {!Xt_embedding.Shape_memo.save}).
    Returns the entry count written. Only the host height travels in the
    entry metadata — the [Xtree.t] is rebuilt (and shared per height) on
    load. *)

val cache_load : cache -> file:string -> (int, string) Stdlib.result
(** Restore a snapshot written by {!cache_save} into the memo; returns
    the entry count, or [Error] (atomically, inserting nothing) on a
    missing, corrupt or mis-versioned file, or on an entry that fails
    {!Xt_embedding.Shape_memo.load}'s checks or names a height its key
    does not. Hits on restored entries are bit-identical to hits on the
    original process's live entries. *)

val embed :
  ?capacity:int ->
  ?height:int ->
  ?record_trace:bool ->
  ?options:Options.t ->
  ?cache:cache ->
  Xt_bintree.Bintree.t ->
  result
(** Run algorithm X-TREE. [capacity] defaults to the paper's 16. [height]
    defaults to {!height_for}; raises [Invalid_argument] if an explicit
    height gives insufficient total capacity. [options] selects ablation
    variants (default: the full paper algorithm).

    Each round sweeps its levels left to right on one domain: ADJUST at
    every vertex of levels [0 .. i-2], top down, then SPLIT at every
    vertex of level [i-1]. SPLIT breaks orientation ties against the
    level-[i] weights as they stood before its sweep began. The result
    depends only on the guest and these parameters, never on the domain
    budget.

    [cache] memoises the whole run by tree shape: a repeated shape (same
    capacity, height and options) reuses the stored placement and host
    X-tree instead of re-running the pipeline. Traced runs
    ([record_trace]) bypass the cache, as traces are not stored. *)

(** {1 Packed results for the serve byte path} *)

type packed = {
  p_height : int;
  p_fallbacks : int;
  p_place : string;
      (** The placement by preorder rank, packed by
          {!Xt_embedding.Shape_memo.blit_packed}: the bytes a serve
          reply carries. *)
}

val find_packed : cache -> capacity:int -> string -> packed option
(** [find_packed cache ~capacity payload] is the cached result for the
    guest whose canonical Codec string is exactly [payload], embedded at
    [capacity] with the default height and options, found without
    parsing: the payload's length gives the node count and so the
    height. A payload that is not a cached canonical string gets [None],
    which is not counted as a miss. *)

val embed_packed : cache -> capacity:int -> canon:string -> Xt_bintree.Bintree.t -> packed
(** [embed_packed cache ~capacity ~canon tree] is
    [embed ~capacity ~cache tree] with the placement packed, where
    [tree] is [Codec.of_string canon] and [canon] is canonical. The
    lookup is counted as a hit or a miss. *)

val distance_oracle : result -> int -> int -> int
(** The host's metric, [Xtree.distance result.xt], for the [~dist] of
    {!Xt_embedding.Embedding} metrics. *)
