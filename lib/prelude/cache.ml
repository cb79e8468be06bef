open Xt_obs

let c_hits = Obs.counter "cache.hits"
let c_misses = Obs.counter "cache.misses"
let c_evictions = Obs.counter "cache.evictions"

module Tbl = Hashtbl.Make (String)

type 'a entry = {
  key : string;
  value : 'a;
  size : int;
  mutable prev : 'a entry option; (* towards the head (more recent) *)
  mutable next : 'a entry option; (* towards the tail (less recent) *)
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  resident_bytes : int;
}

type 'a t = {
  table : 'a entry Tbl.t;
  mutable head : 'a entry option;
  mutable tail : 'a entry option;
  mutable nbytes : int;
  mutable n_hits : int;
  mutable n_misses : int;
  mutable n_evictions : int;
  cap_entries : int;
  cap_bytes : int;
}

let create ?(capacity = 256) ?max_bytes () =
  if capacity < 1 then invalid_arg "Cache.create: capacity < 1";
  let cap_bytes =
    match max_bytes with
    | None -> max_int
    | Some b ->
        if b < 1 then invalid_arg "Cache.create: max_bytes < 1";
        b
  in
  {
    table = Tbl.create 64;
    head = None;
    tail = None;
    nbytes = 0;
    n_hits = 0;
    n_misses = 0;
    n_evictions = 0;
    cap_entries = capacity;
    cap_bytes;
  }

(* Recency-list surgery. *)

let unlink t e =
  (match e.prev with Some p -> p.next <- e.next | None -> t.head <- e.next);
  (match e.next with Some n -> n.prev <- e.prev | None -> t.tail <- e.prev);
  e.prev <- None;
  e.next <- None

let push_front t e =
  e.next <- t.head;
  (match t.head with Some h -> h.prev <- Some e | None -> t.tail <- Some e);
  t.head <- Some e

let promote t e =
  match t.head with
  | Some h when h == e -> ()
  | _ ->
      unlink t e;
      push_front t e

let drop t e =
  Tbl.remove t.table e.key;
  unlink t e;
  t.nbytes <- t.nbytes - e.size

let rec evict_over t =
  match t.tail with
  | Some lru when Tbl.length t.table > t.cap_entries || t.nbytes > t.cap_bytes ->
      drop t lru;
      t.n_evictions <- t.n_evictions + 1;
      Obs.incr c_evictions;
      evict_over t
  | _ -> ()

let add t ?(bytes = 0) key value =
  (match Tbl.find_opt t.table key with Some old -> drop t old | None -> ());
  let e = { key; value; size = bytes; prev = None; next = None } in
  Tbl.add t.table key e;
  push_front t e;
  t.nbytes <- t.nbytes + bytes;
  evict_over t

let lookup t key ~count_miss =
  match Tbl.find_opt t.table key with
  | Some e ->
      promote t e;
      t.n_hits <- t.n_hits + 1;
      Obs.incr c_hits;
      Some e.value
  | None ->
      if count_miss then begin
        t.n_misses <- t.n_misses + 1;
        Obs.incr c_misses
      end;
      None

let find t key = lookup t key ~count_miss:true
let probe t key = lookup t key ~count_miss:false
let mem t key = Tbl.mem t.table key
let length t = Tbl.length t.table

let stats t =
  {
    hits = t.n_hits;
    misses = t.n_misses;
    evictions = t.n_evictions;
    entries = Tbl.length t.table;
    resident_bytes = t.nbytes;
  }

let fold t ~init ~f =
  (* Snapshot the chain before running [f], so that [f] may use the
     cache. Walking head to tail and consing leaves the least recent
     entry first, so replaying the fold through [add] reproduces the
     recency order. *)
  let rec snapshot acc = function
    | None -> acc
    | Some e -> snapshot ((e.key, e.value, e.size) :: acc) e.next
  in
  List.fold_left
    (fun acc (key, value, size) -> f acc ~key ~bytes:size value)
    init (snapshot [] t.head)

let clear t =
  Tbl.reset t.table;
  t.head <- None;
  t.tail <- None;
  t.nbytes <- 0

let with_memo t ?bytes key f =
  match find t key with
  | Some v -> v
  | None ->
      let v = f () in
      add t ?bytes:(Option.map (fun size_of -> size_of v) bytes) key v;
      v
