open Xt_obs

let c_hits = Obs.counter "cache.hits"
let c_misses = Obs.counter "cache.misses"
let c_evictions = Obs.counter "cache.evictions"

(* A key carries its hash, so a lookup hashes the key string once, for
   both the shard and the shard's table: keys can be long (a guest's
   Codec string). The shard takes bits above those the table indexes by. *)
module Key = struct
  type t = { hash : int; s : string }

  let equal a b = a.hash = b.hash && String.equal a.s b.s
  let hash k = k.hash
end

module Tbl = Hashtbl.Make (Key)

type 'a entry = {
  key : Key.t;
  value : 'a;
  size : int;
  mutable prev : 'a entry option; (* towards the head (more recent) *)
  mutable next : 'a entry option; (* towards the tail (less recent) *)
}

(* One latch per in-flight computation; waiters block on [cond] until the
   computing domain flips [done_] and broadcasts. *)
type latch = { lm : Mutex.t; lc : Condition.t; mutable done_ : bool }

type 'a shard = {
  lock : Mutex.t;
  table : 'a entry Tbl.t;
  inflight : latch Tbl.t;
  mutable head : 'a entry option;
  mutable tail : 'a entry option;
  mutable count : int;
  mutable nbytes : int;
  mutable n_hits : int;
  mutable n_misses : int;
  mutable n_evictions : int;
  cap_entries : int;
  cap_bytes : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  resident_bytes : int;
}

type 'a t = { mask : int; shards : 'a shard array }

let rec pow2_at_least k n = if k >= n then k else pow2_at_least (2 * k) n

let create ?(shards = 8) ?(capacity = 256) ?max_bytes () =
  if shards < 1 then invalid_arg "Cache.create: shards < 1";
  if capacity < 1 then invalid_arg "Cache.create: capacity < 1";
  let nshards = pow2_at_least 1 shards in
  let cap_entries = max 1 ((capacity + nshards - 1) / nshards) in
  let cap_bytes =
    match max_bytes with
    | None -> max_int
    | Some b ->
        if b < 1 then invalid_arg "Cache.create: max_bytes < 1";
        max 1 (b / nshards)
  in
  {
    mask = nshards - 1;
    shards =
      Array.init nshards (fun _ ->
          {
            lock = Mutex.create ();
            table = Tbl.create 64;
            inflight = Tbl.create 8;
            head = None;
            tail = None;
            count = 0;
            nbytes = 0;
            n_hits = 0;
            n_misses = 0;
            n_evictions = 0;
            cap_entries;
            cap_bytes;
          });
  }

let locate t key =
  let hash = Hashtbl.hash key in
  (t.shards.((hash lsr 16) land t.mask), { Key.hash; s = key })

(* List surgery; callers hold the shard lock. *)

let unlink sh e =
  (match e.prev with Some p -> p.next <- e.next | None -> sh.head <- e.next);
  (match e.next with Some n -> n.prev <- e.prev | None -> sh.tail <- e.prev);
  e.prev <- None;
  e.next <- None

let push_front sh e =
  e.prev <- None;
  e.next <- sh.head;
  (match sh.head with Some h -> h.prev <- Some e | None -> sh.tail <- Some e);
  sh.head <- Some e

let promote sh e =
  if sh.head != Some e then begin
    unlink sh e;
    push_front sh e
  end

let drop sh e =
  Tbl.remove sh.table e.key;
  unlink sh e;
  sh.count <- sh.count - 1;
  sh.nbytes <- sh.nbytes - e.size

let evict_over sh =
  while
    (sh.count > sh.cap_entries || sh.nbytes > sh.cap_bytes) && Option.is_some sh.tail
  do
    (match sh.tail with Some e -> drop sh e | None -> ());
    sh.n_evictions <- sh.n_evictions + 1;
    Obs.incr c_evictions
  done

let insert sh key value size =
  (match Tbl.find_opt sh.table key with Some old -> drop sh old | None -> ());
  let e = { key; value; size; prev = None; next = None } in
  Tbl.replace sh.table key e;
  push_front sh e;
  sh.count <- sh.count + 1;
  sh.nbytes <- sh.nbytes + size;
  evict_over sh

(* Public operations. *)

let add t ?(bytes = 0) key value =
  let sh, key = locate t key in
  Mutex.lock sh.lock;
  insert sh key value bytes;
  Mutex.unlock sh.lock

let lookup t key ~count_miss =
  let sh, key = locate t key in
  Mutex.lock sh.lock;
  let r =
    match Tbl.find_opt sh.table key with
    | Some e ->
        promote sh e;
        sh.n_hits <- sh.n_hits + 1;
        Some e.value
    | None ->
        if count_miss then sh.n_misses <- sh.n_misses + 1;
        None
  in
  Mutex.unlock sh.lock;
  (match r with
  | Some _ -> Obs.incr c_hits
  | None -> if count_miss then Obs.incr c_misses);
  r

let find t key = lookup t key ~count_miss:true
let probe t key = lookup t key ~count_miss:false

let mem t key =
  let sh, key = locate t key in
  Mutex.lock sh.lock;
  let r = Tbl.mem sh.table key in
  Mutex.unlock sh.lock;
  r

let remove t key =
  let sh, key = locate t key in
  Mutex.lock sh.lock;
  (match Tbl.find_opt sh.table key with Some e -> drop sh e | None -> ());
  Mutex.unlock sh.lock

let length t =
  Array.fold_left
    (fun acc sh ->
      Mutex.lock sh.lock;
      let c = sh.count in
      Mutex.unlock sh.lock;
      acc + c)
    0 t.shards

let bytes t =
  Array.fold_left
    (fun acc sh ->
      Mutex.lock sh.lock;
      let b = sh.nbytes in
      Mutex.unlock sh.lock;
      acc + b)
    0 t.shards

let stats t =
  Array.fold_left
    (fun acc sh ->
      Mutex.lock sh.lock;
      let s =
        {
          hits = acc.hits + sh.n_hits;
          misses = acc.misses + sh.n_misses;
          evictions = acc.evictions + sh.n_evictions;
          entries = acc.entries + sh.count;
          resident_bytes = acc.resident_bytes + sh.nbytes;
        }
      in
      Mutex.unlock sh.lock;
      s)
    { hits = 0; misses = 0; evictions = 0; entries = 0; resident_bytes = 0 }
    t.shards

let fold t ~init ~f =
  (* Snapshot each shard's recency chain under its lock, then run [f]
     outside all locks so it may touch the cache (or block) freely. The
     least-recent entry comes first so that replaying the fold through
     [add] reproduces the recency order. *)
  Array.fold_left
    (fun acc sh ->
      Mutex.lock sh.lock;
      let chain = ref [] in
      let cur = ref sh.head in
      (* Walk head->tail consing as we go: the finished list reads
         tail-first, i.e. least recent first. *)
      while Option.is_some !cur do
        (match !cur with
        | Some e ->
            chain := (e.key.Key.s, e.value, e.size) :: !chain;
            cur := e.next
        | None -> ());
      done;
      Mutex.unlock sh.lock;
      List.fold_left (fun acc (key, value, size) -> f acc ~key ~bytes:size value) acc !chain)
    init t.shards

let clear t =
  Array.iter
    (fun sh ->
      Mutex.lock sh.lock;
      Tbl.reset sh.table;
      sh.head <- None;
      sh.tail <- None;
      sh.count <- 0;
      sh.nbytes <- 0;
      Mutex.unlock sh.lock)
    t.shards

let release latch =
  Mutex.lock latch.lm;
  latch.done_ <- true;
  Condition.broadcast latch.lc;
  Mutex.unlock latch.lm

let with_memo t ?bytes key f =
  let sh, key = locate t key in
  let size_of v = match bytes with Some g -> g v | None -> 0 in
  (* [allow_wait] is true only on the first pass: a waiter woken by a latch
     whose computation failed (or whose result was already evicted) computes
     the value itself instead of queueing behind yet another latch. *)
  let rec attempt allow_wait =
    Mutex.lock sh.lock;
    match Tbl.find_opt sh.table key with
    | Some e ->
        promote sh e;
        sh.n_hits <- sh.n_hits + 1;
        Mutex.unlock sh.lock;
        Obs.incr c_hits;
        e.value
    | None -> miss allow_wait
  (* Called with the shard lock held; always releases it. *)
  and miss allow_wait =
    match Tbl.find_opt sh.inflight key with
    | Some latch when allow_wait ->
        Mutex.unlock sh.lock;
        Mutex.lock latch.lm;
        while not latch.done_ do
          Condition.wait latch.lc latch.lm
        done;
        Mutex.unlock latch.lm;
        attempt false
    | _ ->
        let latch = { lm = Mutex.create (); lc = Condition.create (); done_ = false } in
        Tbl.replace sh.inflight key latch;
        sh.n_misses <- sh.n_misses + 1;
        Mutex.unlock sh.lock;
        Obs.incr c_misses;
        let cleanup () =
          Mutex.lock sh.lock;
          (* Only remove our own latch: a failed computation may have been
             superseded by another domain's in-flight entry. *)
          (match Tbl.find_opt sh.inflight key with
          | Some l when l == latch -> Tbl.remove sh.inflight key
          | _ -> ());
          Mutex.unlock sh.lock
        in
        let v =
          try f ()
          with exn ->
            cleanup ();
            release latch;
            raise exn
        in
        Mutex.lock sh.lock;
        insert sh key v (size_of v);
        (match Tbl.find_opt sh.inflight key with
        | Some l when l == latch -> Tbl.remove sh.inflight key
        | _ -> ());
        Mutex.unlock sh.lock;
        release latch;
        v
  in
  attempt true
