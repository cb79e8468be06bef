(** The [xtree serve] engine: a long-lived embedding service.

    Requests ({!Xt_bintree.Codec} strings, length-framed per {!Wire})
    are buffered until a flush marker, the batch limit or EOF, and one
    response per request is written back in input order. A request
    whose bytes are a cached canonical Codec string is answered from
    those bytes, unparsed ({!Xt_core.Theorem1.find_packed}): one hash,
    one string compare and one write of the stored packed placement.
    The rest are parsed; those that parse are deduplicated on their
    canonical string, and each distinct shape is embedded once, in
    order of first appearance, through the shared {!Xt_core.Theorem1}
    shape cache. Codec numbers nodes in preorder, so every response is
    byte-identical to the encoding of a direct [Theorem1.embed] on that
    request (the equivalence suite in [test/test_serve.ml] checks
    this).

    The server ignores SIGPIPE: a client that hangs up before reading
    its replies makes a write fail with [Sys_error], which ends that
    stream only. {!run} returns, and {!listen} goes on accepting.

    With [config.snapshot] set, the shape cache is restored from the
    snapshot file at startup and flushed back (atomically, see
    {!Xt_core.Theorem1.cache_save}) every [snapshot_every] requests and
    at EOF, so a restarted server resumes warm.

    Instruments: [serve.requests] / [serve.batches] / [serve.errors] /
    [serve.unique_shapes] (distinct shapes among a batch's misses) /
    [serve.snapshot_loaded] / [serve.snapshot_saved] counters, the
    [serve.request_ns] histogram (from a request's frame read to its
    response write, metrics-gated) and a [serve.batch] trace span per
    batch. *)

type config = {
  capacity : int;  (** Embedding capacity (the paper's load factor). *)
  cache_entries : int;  (** Shape-cache entry bound. *)
  cache_bytes : int option;  (** Shape-cache byte bound. *)
  snapshot : string option;  (** Snapshot file; [None] disables persistence. *)
  snapshot_every : int;
      (** Flush the snapshot every this many requests (plus once at EOF);
          [0] flushes at EOF only. *)
  max_batch : int;  (** Embed at most this many buffered requests at once. *)
  status : bool;  (** Per-batch status line (with cache stats) on stderr. *)
}

val default : config
(** capacity 16, 4096 entries, no byte bound, no snapshot, batch 512,
    no status lines. *)

type summary = {
  requests : int;  (** Responses written (to the channel's buffer). *)
  batches : int;
  errors : int;  (** Error responses (undecodable request payloads). *)
  loaded : int;  (** Snapshot entries restored at startup. *)
  saved : int;  (** Entries in the most recent snapshot flush. *)
  stats : Xt_prelude.Cache.stats;  (** Shape-cache stats at exit. *)
}

val make_state : config -> Xt_core.Theorem1.cache * int
(** Build the shape cache for [config], restoring the snapshot (if any;
    a missing or corrupt file logs to stderr and starts cold). Returns
    the cache and the number of entries restored. Use this to share one
    cache across {!run} calls: successive connections of a socket
    server, or successive {!in_process} sessions. *)

val run :
  ?config:config ->
  ?state:Xt_core.Theorem1.cache * int ->
  in_channel ->
  out_channel ->
  summary
(** Serve one request stream to EOF, or until a write to [oc] fails.
    [state] defaults to a fresh {!make_state}; pass it explicitly to
    keep the cache (and its snapshot warmth) across streams. Sets
    SIGPIPE to be ignored, process-wide. *)

val listen :
  ?config:config -> ?max_conns:int -> path:string -> unit -> unit
(** Bind a Unix-domain stream socket at [path] (unlinking a stale one)
    and serve connections sequentially, sharing one cache across all of
    them. The socket is bound and listening under a sibling name first
    and then renamed onto [path], so a client that connects as soon as
    [path] exists is accepted. A client that hangs up ends only its own connection. Stops
    after [max_conns] connections (default: forever). A socket that
    cannot be bound raises [Unix.Unix_error] naming [path]. *)

val in_process :
  ?config:config ->
  ?state:Xt_core.Theorem1.cache * int ->
  (in_channel * out_channel -> 'a) ->
  'a * summary
(** Run a server over a pair of pipes in a spawned domain, call the
    client function with the client-side channels (read responses from
    the first, write requests to the second), close the request channel
    when it returns, and join the server. For tests and benchmarks.

    The server domain owns the cache of [state] until [in_process]
    returns: the cache has no locks ({!Xt_prelude.Cache}), so the client
    function must not touch it. Read its counters from the returned
    summary's [stats]. *)
