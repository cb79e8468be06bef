(* Persistent domain pool with chunked fork-join primitives.

   One pool per process, created lazily at the first parallel call and
   kept alive until exit (no Domain.spawn per call). The submitting
   domain participates in every batch, so a pool of [d] budgeted domains
   runs batches on [d-1] workers plus the caller.

   Batches live in a FIFO queue, so a call made from inside a batch body
   (nested parallelism) dispatches to the pool like any other instead of
   running inline. Deadlock-freedom: a submitter first claims every
   remaining chunk of its own batch itself, so when it blocks, each
   outstanding chunk is held by a domain actively executing it; a blocked
   domain always waits on a batch nested strictly deeper than the chunk
   it holds, so wait chains strictly increase nesting depth, are bounded
   by the number of domains, and end at a domain making progress. *)

open Xt_obs

(* Telemetry. [items]/[batches]/[chunks] count scheduled work (items are
   counted on the sequential fallback too, so their total is independent
   of the domain budget); [queue_wait_ns] is the time a pool worker spent
   blocked between batches; [forks_taken]/[forks_sequentialized] count
   {!fork_cutoff} decisions (where the cutoff bites). All of it is off
   unless Obs metrics are enabled. *)
let c_items = Obs.counter "parallel.items"
let c_batches = Obs.counter "parallel.batches"
let c_chunks = Obs.counter "parallel.chunks"
let c_forks_taken = Obs.counter "parallel.forks_taken"
let c_forks_seq = Obs.counter "parallel.forks_sequentialized"
let g_lanes = Obs.gauge "parallel.lanes"
let h_queue_wait = Obs.histogram "parallel.queue_wait_ns"

let recommended_domains () =
  let cores = Domain.recommended_domain_count () in
  min 8 (max 1 (cores - 1))

let override : int option ref = ref None

let env_domains =
  lazy
    (match Sys.getenv_opt "XT_DOMAINS" with
    | None -> None
    | Some s -> ( match int_of_string_opt (String.trim s) with Some d when d >= 1 -> Some d | _ -> None))

let domain_budget () =
  match !override with
  | Some d -> max 1 d
  | None -> ( match Lazy.force env_domains with Some d -> d | None -> recommended_domains ())

let set_domain_budget d = override := Some (max 1 d)

(* ------------------------------------------------------------------ *)
(* Batches                                                             *)
(* ------------------------------------------------------------------ *)

type batch = {
  n : int;                      (* item count *)
  chunk : int;                  (* items per chunk *)
  chunks : int;                 (* ceil (n / chunk) *)
  body : int -> unit;
  next : int Atomic.t;          (* next unclaimed chunk *)
  completed : int Atomic.t;     (* chunks accounted for *)
  failed : (int * exn) option Atomic.t; (* lowest failed item index *)
}

let first_failed b = match Atomic.get b.failed with None -> max_int | Some (i, _) -> i

(* Keep the failure with the smallest item index: the propagated
   exception is then exactly the one sequential execution would raise
   first, because every item below the final minimum still runs. *)
let record_failure b i e =
  let rec cas () =
    let cur = Atomic.get b.failed in
    let better = match cur with None -> true | Some (j, _) -> i < j in
    if better && not (Atomic.compare_and_set b.failed cur (Some (i, e))) then cas ()
  in
  cas ()

(* Claim chunks until exhausted. Chunks entirely above the current first
   failure are skipped; a running chunk re-checks the failure frontier
   before every item, so workers stop promptly once something fails
   while still executing every item that precedes the failure. *)
let run_batch b =
  let continue_ = ref true in
  while !continue_ do
    let c = Atomic.fetch_and_add b.next 1 in
    if c >= b.chunks then continue_ := false
    else begin
      Obs.incr c_chunks;
      let lo = c * b.chunk in
      let hi = min b.n (lo + b.chunk) in
      let j = ref lo in
      while !j < hi && !j < first_failed b do
        (try b.body !j with e -> record_failure b !j e);
        incr j
      done;
      Atomic.incr b.completed
    end
  done

let exhausted b = Atomic.get b.next >= b.chunks
let complete b = Atomic.get b.completed >= b.chunks

(* ------------------------------------------------------------------ *)
(* The pool                                                            *)
(* ------------------------------------------------------------------ *)

type pool = {
  m : Mutex.t;
  work_cv : Condition.t;
  done_cv : Condition.t;
  mutable queue : batch list;   (* FIFO of batches with work left *)
  mutable shutdown : bool;
  mutable workers : unit Domain.t array;
}

(* Drop batches with no unclaimed chunks; serve the front of the rest.
   Called with [pool.m] held. *)
let pick_work pool =
  pool.queue <- List.filter (fun b -> not (exhausted b)) pool.queue;
  match pool.queue with b :: _ -> Some b | [] -> None

let worker_loop pool =
  let running = ref true in
  while !running do
    let wait_from = if Obs.metrics_enabled () then Obs.now_ns () else 0 in
    Mutex.lock pool.m;
    let job = ref (pick_work pool) in
    while !job = None && not pool.shutdown do
      Condition.wait pool.work_cv pool.m;
      job := pick_work pool
    done;
    Mutex.unlock pool.m;
    match !job with
    | None -> running := false
    | Some b ->
        if wait_from <> 0 then Obs.observe h_queue_wait (Obs.now_ns () - wait_from);
        Obs.span "parallel.batch" (fun () -> run_batch b);
        if complete b then begin
          Mutex.lock pool.m;
          Condition.broadcast pool.done_cv;
          Mutex.unlock pool.m
        end
  done

(* The pool is sized once, at first use: enough workers for the budget in
   force, but never fewer than three — so a later, larger [--jobs] (or a
   test raising the budget after a sequential phase) still finds real
   lanes. Oversubscription is harmless: idle workers sleep on [work_cv]. *)
let the_pool =
  lazy
    (let pool =
       {
         m = Mutex.create ();
         work_cv = Condition.create ();
         done_cv = Condition.create ();
         queue = [];
         shutdown = false;
         workers = [||];
       }
     in
     let workers = max 3 (domain_budget () - 1) in
     pool.workers <- Array.init workers (fun _ -> Domain.spawn (fun () -> worker_loop pool));
     at_exit (fun () ->
         Mutex.lock pool.m;
         pool.shutdown <- true;
         Condition.broadcast pool.work_cv;
         Mutex.unlock pool.m;
         Array.iter Domain.join pool.workers);
     pool)

(* ------------------------------------------------------------------ *)
(* Fork-join primitives                                                *)
(* ------------------------------------------------------------------ *)

let sequential_for n body =
  for i = 0 to n - 1 do
    body i
  done

let parallel_for ?domains ?chunk n body =
  if n < 0 then invalid_arg "Parallel.parallel_for";
  Obs.add c_items n;
  let budget = match domains with Some d -> max 1 (min d (domain_budget ())) | None -> domain_budget () in
  if n = 0 then ()
  else if budget <= 1 || n = 1 then sequential_for n body
  else begin
    let pool = Lazy.force the_pool in
    if Array.length pool.workers = 0 then sequential_for n body
    else begin
      let lanes = min budget (Array.length pool.workers + 1) in
      let chunk =
        match chunk with
        | Some c -> max 1 c
        | None -> max 1 ((n + (4 * lanes) - 1) / (4 * lanes))
      in
      let chunks = (n + chunk - 1) / chunk in
      let b =
        {
          n;
          chunk;
          chunks;
          body;
          next = Atomic.make 0;
          completed = Atomic.make 0;
          failed = Atomic.make None;
        }
      in
      Obs.incr c_batches;
      Obs.set_gauge g_lanes lanes;
      Obs.span ~arg:n "parallel.for" @@ fun () ->
      Mutex.lock pool.m;
      pool.queue <- pool.queue @ [ b ];
      Condition.broadcast pool.work_cv;
      Mutex.unlock pool.m;
      (* Participate: claim our own batch's chunks to exhaustion before
         blocking, preserving the deadlock-freedom argument above. *)
      Obs.span "parallel.batch" (fun () -> run_batch b);
      Mutex.lock pool.m;
      pool.queue <- List.filter (fun b' -> b' != b) pool.queue;
      while not (complete b) do
        Condition.wait pool.done_cv pool.m
      done;
      Mutex.unlock pool.m;
      match Atomic.get b.failed with Some (_, e) -> raise e | None -> ()
    end
  end

(* Binary fork over the same machinery: index 0 runs [fa], index 1 [fb].
   The failure protocol guarantees that if both raise, [fa]'s exception
   wins — exactly the sequential order. *)
let fork_join fa fb =
  let ra = ref None and rb = ref None in
  parallel_for ~chunk:1 2 (fun i ->
      if i = 0 then ra := Some (fa ()) else rb := Some (fb ()));
  match (!ra, !rb) with
  | Some a, Some b -> (a, b)
  | _ -> failwith "Parallel.fork_join: missing result"

let fork_cutoff ~size ~cutoff fa fb =
  if size < cutoff || domain_budget () <= 1 then begin
    Obs.incr c_forks_seq;
    let a = fa () in
    let b = fb () in
    (a, b)
  end
  else begin
    Obs.incr c_forks_taken;
    fork_join fa fb
  end

let map_array ?domains ?chunk f xs =
  let n = Array.length xs in
  let out = Array.make n None in
  parallel_for ?domains ?chunk n (fun i -> out.(i) <- Some (f xs.(i)));
  Array.map (function Some r -> r | None -> failwith "Parallel.map_array: missing result") out

let map ?domains f xs = Array.to_list (map_array ?domains f (Array.of_list xs))

let iter ?domains f xs = ignore (map ?domains (fun x -> f x) xs)

let map_reduce ?domains ~map:m ~combine init xs =
  let n = Array.length xs in
  if n = 0 then init
  else begin
    let budget = match domains with Some d -> max 1 d | None -> domain_budget () in
    let chunk = max 1 ((n + (4 * budget) - 1) / (4 * budget)) in
    let chunks = (n + chunk - 1) / chunk in
    let partials = Array.make chunks None in
    parallel_for ?domains ~chunk:1 chunks (fun c ->
        let lo = c * chunk in
        let hi = min n (lo + chunk) in
        let acc = ref (m xs.(lo)) in
        for i = lo + 1 to hi - 1 do
          acc := combine !acc (m xs.(i))
        done;
        partials.(c) <- Some !acc);
    Array.fold_left
      (fun acc p -> match p with Some v -> combine acc v | None -> acc)
      init partials
  end
