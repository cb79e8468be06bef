(** Shape-keyed memoisation of placements.

    The memo key is the guest's {!Xt_bintree.Codec} string, prefixed
    with the embedder's parameters. The Codec string is the canonical
    form of a shape, so structurally equal trees share one entry however
    their nodes are numbered, and a hit is exact: no hash stands in for
    the shape. The stored placement is indexed by {e preorder rank} — the
    labelling {!Xt_bintree.Codec.of_string} assigns — and packed as
    big-endian int32s, 4 bytes per node ({!blit_packed}), the bytes the
    serve wire carries. A lookup through {!memo} translates through the
    caller's preorder isomorphism:

    - a miss runs [compute] on the caller's tree and stores
      [cplace.(rank.(v)) = place.(v)];
    - a hit returns [place'.(v) = cplace.(rank.(v))].

    For a caller whose labelling matches the entry's creator (in
    particular {e every} tree parsed by [Codec.of_string], which numbers
    nodes in preorder) the two maps compose to the identity, so the
    cached placement is bit-identical to the uncached one. A hit from a
    differently-labelled tree of the same shape receives the creator's
    placement transported along the shape isomorphism: a valid embedding
    with identical dilation/load/congestion, though tie-breaks inside the
    pipeline may place individual nodes elsewhere than a from-scratch run
    would.

    {!find} is the byte path: a caller holding a request's canonical
    Codec string gets the packed placement without parsing it. *)

type 'meta t
(** A memo table whose entries carry a placement plus embedder-specific
    ['meta] (host topology, height, diagnostic counts …). *)

val create : ?capacity:int -> ?max_bytes:int -> unit -> 'meta t
(** Parameters as in {!Xt_prelude.Cache.create}; the byte estimate
    charged per entry is the key (which holds the canonical string) plus
    the packed placement. *)

val blit_packed : int array -> bytes -> int -> unit
(** [blit_packed place b off] writes [place] into [b] from [off] as
    big-endian int32s, 4 bytes per entry: the layout of every stored
    placement and of the placement in a serve reply. *)

val find : 'meta t -> prefix:string -> string -> (string * 'meta) option
(** [find t ~prefix canon] is the packed placement and meta stored for
    the shape whose canonical Codec string is exactly [canon]. Any other
    string, a non-canonical spelling of a cached shape included, finds
    nothing. A hit is counted and promoted; a miss is not counted,
    because the caller falls back to {!memo_canonical} or {!memo}, which
    count it. *)

val memo_canonical :
  'meta t ->
  prefix:string ->
  canon:string ->
  compute:(unit -> int array * 'meta) ->
  string * 'meta
(** [memo_canonical t ~prefix ~canon ~compute] returns the packed
    placement and meta for the shape [canon], computing and storing them
    on a miss. [canon] must be a canonical Codec string, and [compute]
    must return the placement of [Codec.of_string canon], whose nodes are
    numbered in preorder. *)

val memo :
  'meta t ->
  prefix:string ->
  tree:Xt_bintree.Bintree.t ->
  compute:(unit -> int array * 'meta) ->
  int array * 'meta
(** [memo t ~prefix ~tree ~compute] returns [(place, meta)] for [tree],
    from the cache when possible. [prefix] must determine every
    behaviour-affecting parameter of the embedder (capacity, height,
    options …). The returned array is fresh; [meta] is shared between
    hits of one entry and must therefore be treated as immutable. *)

val length : 'meta t -> int
val clear : 'meta t -> unit

val stats : 'meta t -> Xt_prelude.Cache.stats
(** Per-instance hit/miss/eviction/occupancy totals. *)

val save : 'meta t -> encode_meta:('meta -> string) -> file:string -> int
(** Write a snapshot of every resident entry to [file] and return the
    entry count. The snapshot carries a versioned header (version 2:
    each entry is its key, its meta and its packed placement) and a
    64-bit FNV-1a checksum per entry, and is written to a temporary file
    in the same directory then renamed into place, so readers never
    observe a half-written file. Entries are emitted least recently used
    first; loading in file order reproduces the recency order.
    [encode_meta] must round-trip with the [decode_meta] passed to
    {!load}. *)

val load :
  'meta t ->
  decode_meta:(prefix:string -> string -> 'meta option) ->
  vertices:('meta -> int) ->
  capacity:('meta -> int) ->
  file:string ->
  (int, string) result
(** Parse and verify the entire snapshot, then insert every entry into
    the memo; returns the entry count. [decode_meta ~prefix s] decodes
    an entry's meta given its key's prefix; [vertices meta] is the size
    of the entry's host and [capacity meta] the most guest nodes one of
    its vertices may hold. Rejection is atomic: a missing file, bad
    magic, a version other than 2, truncation, a checksum mismatch,
    undecodable metadata, a key whose Codec part is not canonical, a
    placement that is not 4 bytes per node, a placement outside
    [\[0, vertices meta)] or one that puts more than [capacity meta]
    nodes on a vertex yields [Error] and leaves the memo untouched.
    Placements restored from a snapshot are byte-identical to the ones
    stored, so hits after a reload return exactly what the saving
    process would have returned. *)
