open Xt_obs
open Xt_topology

let c_sent = Obs.counter "netsim.sent"
let c_delivered = Obs.counter "netsim.delivered"
let c_hops = Obs.counter "netsim.hops"
let h_latency = Obs.histogram "netsim.latency_cycles"

(* Directed-link index: the undirected edge id from [Graph.edge_index]
   doubled, plus the direction bit (0 = towards the higher-numbered
   endpoint). Dense, so per-send queue lookup is a binary search in the
   sender's adjacency instead of a hash, and per-link series (loads,
   utilisation) are plain array sweeps. *)
let link_index g ~at ~hop = (2 * Graph.edge_index g at hop) + if at < hop then 0 else 1

(* The core is event-driven: instead of sweeping all 2m directed links
   and all n inboxes every cycle (the retained [Sim_ref] does exactly
   that), we keep dense worklists — "active sets" — of only the links
   and inboxes that currently hold messages, re-sorted into index order
   at the top of each cycle so the drain order, and therefore every
   observable (cycle counts, delivery order, link loads, high-water
   marks), is bit-identical to the sweep semantics. Messages live in
   flat arenas of parallel int arrays recycled through free lists, and
   each link/inbox FIFO is a growable power-of-two ring of message ids,
   so the steady-state loop moves only integers and allocates nothing
   (guarded by a [Gc.minor_words] test). When exactly one message is in
   flight on a link — the latency-bound regime, e.g. [pingpong_sweep] —
   [run] skips the idle cycles entirely and fast-forwards the message
   along its whole remaining route in one jump.

   A stepped cycle is two passes over the active sets: [drain_links]
   moves every non-empty link one batch forward, then [serve_inboxes]
   completes up to [service_rate] messages per non-empty inbox, and the
   served batch is handed to the delivery callbacks. *)

type t = {
  graph : Graph.t;
  router : Router.t;
  link_capacity : int;
  service_rate : int;
  (* message arena: parallel fields indexed by message id *)
  mutable msg_dst : int array;
  mutable msg_tag : int array;
  mutable msg_sent : int array;   (* injection cycle *)
  mutable free_ids : int array;   (* recycled ids, stack of size [n_free] *)
  mutable n_free : int;
  mutable arena_top : int;        (* ids below this have been handed out *)
  (* FIFO ring per directed link, holding message ids *)
  lring : int array array;
  lhead : int array;
  llen : int array;
  link_dst : int array;           (* directed link -> its receiving endpoint *)
  link_load : int array;          (* messages that traversed each directed link *)
  (* FIFO ring per vertex inbox: arrived messages awaiting CPU service *)
  iring : int array array;
  ihead : int array;
  ilen : int array;
  (* active sets: dense stacks of the non-empty links / inboxes, with
     their in-set flags; sized to 2m / n, so they never grow *)
  act_link : int array;
  mutable n_act_link : int;
  link_in_set : int array;
  act_inbox : int array;
  mutable n_act_inbox : int;
  inbox_in_set : int array;
  (* per-cycle scratch, persistent so the run loop reallocates nothing *)
  mutable moved_id : int array;   (* message popped off a link this cycle *)
  mutable moved_at : int array;   (* ... and the endpoint it arrived at *)
  mutable nmoved : int;
  mutable served : int array;     (* messages completing service this cycle *)
  mutable nserved : int;
  mutable nkeep : int;            (* compaction cursor for the active sets *)
  mutable high_water : int;
  mutable inbox_high_water : int;
  mutable cycle : int;
  mutable in_flight : int;
  mutable delivered : int;
  mutable latencies : int array;  (* first [nlat] entries, delivery order *)
  mutable nlat : int;
}

type handler = tag:int -> t -> unit

let empty_ring : int array = [||]

(* ------------------------------------------------------------------ *)
(* Message arena                                                       *)
(* ------------------------------------------------------------------ *)

let grow_arena t =
  let cap = Array.length t.msg_dst in
  let grow a =
    let b = Array.make (2 * cap) 0 in
    Array.blit a 0 b 0 cap;
    b
  in
  t.msg_dst <- grow t.msg_dst;
  t.msg_tag <- grow t.msg_tag;
  t.msg_sent <- grow t.msg_sent;
  t.free_ids <- grow t.free_ids

let alloc_msg t ~dst ~tag ~sent =
  let id =
    if t.n_free > 0 then begin
      t.n_free <- t.n_free - 1;
      t.free_ids.(t.n_free)
    end
    else begin
      if t.arena_top = Array.length t.msg_dst then grow_arena t;
      let id = t.arena_top in
      t.arena_top <- id + 1;
      id
    end
  in
  t.msg_dst.(id) <- dst;
  t.msg_tag.(id) <- tag;
  t.msg_sent.(id) <- sent;
  id

(* [free_ids] is grown alongside the arena, so the push can't overflow *)
let free_msg t id =
  t.free_ids.(t.n_free) <- id;
  t.n_free <- t.n_free + 1

(* ------------------------------------------------------------------ *)
(* Power-of-two ring buffers (shared across links and inboxes)         *)
(* ------------------------------------------------------------------ *)

let rpush rings heads lens i v =
  let buf = rings.(i) in
  let cap = Array.length buf in
  let len = lens.(i) in
  if len = cap then begin
    (* grow, unwrapping the ring to the front of the new buffer *)
    let nbuf = Array.make (if cap = 0 then 4 else 2 * cap) 0 in
    let h = heads.(i) in
    for k = 0 to len - 1 do
      nbuf.(k) <- buf.((h + k) land (cap - 1))
    done;
    rings.(i) <- nbuf;
    heads.(i) <- 0;
    nbuf.(len) <- v;
    lens.(i) <- len + 1
  end
  else begin
    buf.((heads.(i) + len) land (cap - 1)) <- v;
    lens.(i) <- len + 1
  end

let rpop rings heads lens i =
  let buf = rings.(i) in
  let v = buf.(heads.(i)) in
  heads.(i) <- (heads.(i) + 1) land (Array.length buf - 1);
  lens.(i) <- lens.(i) - 1;
  v

(* ------------------------------------------------------------------ *)
(* Active-set sort: in-place quicksort over a prefix of an int array.
   Written with recursion instead of refs so sorting allocates nothing
   (a local [ref] is a minor-heap cell in vanilla ocamlopt); recursing
   on the smaller half first keeps the stack at O(log n).              *)
(* ------------------------------------------------------------------ *)

let rec scan_up a p i = if a.(i) < p then scan_up a p (i + 1) else i
let rec scan_down a p j = if a.(j) > p then scan_down a p (j - 1) else j

let rec partition a p i j =
  let i = scan_up a p i and j = scan_down a p j in
  if i >= j then j
  else begin
    let v = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- v;
    partition a p (i + 1) (j - 1)
  end

let rec sort_range a lo hi =
  if lo < hi then begin
    let mid = partition a a.((lo + hi) / 2) lo hi in
    if mid - lo < hi - mid then begin
      sort_range a lo mid;
      sort_range a (mid + 1) hi
    end
    else begin
      sort_range a (mid + 1) hi;
      sort_range a lo mid
    end
  end

(* ------------------------------------------------------------------ *)
(* Enqueue paths                                                       *)
(* ------------------------------------------------------------------ *)

let push_inbox t ~at id =
  rpush t.iring t.ihead t.ilen at id;
  if t.ilen.(at) > t.inbox_high_water then t.inbox_high_water <- t.ilen.(at);
  if t.inbox_in_set.(at) = 0 then begin
    t.inbox_in_set.(at) <- 1;
    t.act_inbox.(t.n_act_inbox) <- at;
    t.n_act_inbox <- t.n_act_inbox + 1
  end

let push_link t l id =
  rpush t.lring t.lhead t.llen l id;
  if t.llen.(l) > t.high_water then t.high_water <- t.llen.(l);
  if t.link_in_set.(l) = 0 then begin
    t.link_in_set.(l) <- 1;
    t.act_link.(t.n_act_link) <- l;
    t.n_act_link <- t.n_act_link + 1
  end

let send t ~src ~dst ~tag =
  if src < 0 || src >= Graph.n t.graph || dst < 0 || dst >= Graph.n t.graph then
    invalid_arg "Sim.send: vertex out of range";
  t.in_flight <- t.in_flight + 1;
  Obs.incr c_sent;
  if src = dst then push_inbox t ~at:src (alloc_msg t ~dst ~tag ~sent:t.cycle)
  else begin
    let hop = Router.next_hop t.router ~current:src ~dst in
    push_link t (link_index t.graph ~at:src ~hop) (alloc_msg t ~dst ~tag ~sent:t.cycle)
  end

let record_latency t v =
  let cap = Array.length t.latencies in
  if t.nlat = cap then begin
    let a = Array.make (max 64 (2 * cap)) 0 in
    Array.blit t.latencies 0 a 0 cap;
    t.latencies <- a
  end;
  t.latencies.(t.nlat) <- v;
  t.nlat <- t.nlat + 1;
  Obs.observe h_latency v

(* ------------------------------------------------------------------ *)
(* Scratch buffers                                                     *)
(* ------------------------------------------------------------------ *)

let push_moved t at id =
  let cap = Array.length t.moved_id in
  if t.nmoved = cap then begin
    let a = Array.make (2 * cap) 0 and b = Array.make (2 * cap) 0 in
    Array.blit t.moved_id 0 a 0 cap;
    Array.blit t.moved_at 0 b 0 cap;
    t.moved_id <- a;
    t.moved_at <- b
  end;
  t.moved_id.(t.nmoved) <- id;
  t.moved_at.(t.nmoved) <- at;
  t.nmoved <- t.nmoved + 1

let push_served t id =
  let cap = Array.length t.served in
  if t.nserved = cap then begin
    let a = Array.make (2 * cap) 0 in
    Array.blit t.served 0 a 0 cap;
    t.served <- a
  end;
  t.served.(t.nserved) <- id;
  t.nserved <- t.nserved + 1

(* ------------------------------------------------------------------ *)
(* The two passes of a stepped cycle                                   *)
(* ------------------------------------------------------------------ *)

(* Advance one batch per non-empty link, in link-index order (hence the
   sort) so runs are deterministic; arrivals join the destination's
   inbox and may still be served this cycle, forwards re-enter the ring
   of their next link. Links drained dry drop out of the active set in
   place. *)
let drain_links t =
  if t.n_act_link > 1 then sort_range t.act_link 0 (t.n_act_link - 1);
  t.nmoved <- 0;
  t.nkeep <- 0;
  for j = 0 to t.n_act_link - 1 do
    let l = t.act_link.(j) in
    let npop = if t.link_capacity < t.llen.(l) then t.link_capacity else t.llen.(l) in
    for _ = 1 to npop do
      t.link_load.(l) <- t.link_load.(l) + 1;
      push_moved t t.link_dst.(l) (rpop t.lring t.lhead t.llen l)
    done;
    if t.llen.(l) > 0 then begin
      t.act_link.(t.nkeep) <- l;
      t.nkeep <- t.nkeep + 1
    end
    else t.link_in_set.(l) <- 0
  done;
  t.n_act_link <- t.nkeep;
  for k = 0 to t.nmoved - 1 do
    let at = t.moved_at.(k) in
    let id = t.moved_id.(k) in
    let dst = t.msg_dst.(id) in
    if dst = at then push_inbox t ~at id
    else begin
      let hop = Router.next_hop t.router ~current:at ~dst in
      push_link t (link_index t.graph ~at ~hop) id
    end
  done

(* CPU service: each non-empty inbox completes up to service_rate
   messages, swept in ascending vertex order into the served batch. *)
let serve_inboxes t =
  if t.n_act_inbox > 1 then sort_range t.act_inbox 0 (t.n_act_inbox - 1);
  t.nserved <- 0;
  t.nkeep <- 0;
  for j = 0 to t.n_act_inbox - 1 do
    let x = t.act_inbox.(j) in
    let npop = if t.service_rate < t.ilen.(x) then t.service_rate else t.ilen.(x) in
    for _ = 1 to npop do
      push_served t (rpop t.iring t.ihead t.ilen x)
    done;
    if t.ilen.(x) > 0 then begin
      t.act_inbox.(t.nkeep) <- x;
      t.nkeep <- t.nkeep + 1
    end
    else t.inbox_in_set.(x) <- 0
  done;
  t.n_act_inbox <- t.nkeep

(* ------------------------------------------------------------------ *)
(* Delivery, in the order the reference core's list-consing produces —
   descending vertex, reverse pop order within a vertex. The served
   batch was built in ascending vertex order, so iterating it
   backwards is already that order.                                    *)
(* ------------------------------------------------------------------ *)

let deliver_one t id ~on_deliver =
  let tag = t.msg_tag.(id) in
  let sent = t.msg_sent.(id) in
  free_msg t id;
  t.in_flight <- t.in_flight - 1;
  t.delivered <- t.delivered + 1;
  Obs.incr c_delivered;
  record_latency t (t.cycle - sent);
  on_deliver ~tag t

let deliver_batch t ~on_deliver =
  for k = t.nserved - 1 downto 0 do
    deliver_one t t.served.(k) ~on_deliver
  done

(* ------------------------------------------------------------------ *)
(* Per-cycle series for the trace viewer; only non-empty queues can
   contribute, so sweeping the active sets sees every message. Only
   called with tracing enabled (it allocates).                         *)
(* ------------------------------------------------------------------ *)

let trace_series t =
  let links = Array.length t.link_load in
  let maxq = ref 0 and queued = ref 0 and maxinbox = ref 0 in
  for j = 0 to t.n_act_link - 1 do
    let l = t.llen.(t.act_link.(j)) in
    if l > !maxq then maxq := l;
    queued := !queued + l
  done;
  for j = 0 to t.n_act_inbox - 1 do
    let l = t.ilen.(t.act_inbox.(j)) in
    if l > !maxinbox then maxinbox := l
  done;
  Obs.counter_event "netsim.in_flight" t.in_flight;
  Obs.counter_event "netsim.queued" !queued;
  Obs.counter_event "netsim.queue_depth_max" !maxq;
  Obs.counter_event "netsim.inbox_depth_max" !maxinbox;
  Obs.counter_event "netsim.link_util_pct"
    (if links = 0 then 0 else 100 * t.nmoved / (links * t.link_capacity))

(* ------------------------------------------------------------------ *)
(* One simulated cycle, semantics identical to the [Sim_ref] sweep      *)
(* ------------------------------------------------------------------ *)

let step t ~on_deliver =
  t.cycle <- t.cycle + 1;
  drain_links t;
  Obs.add c_hops t.nmoved;
  serve_inboxes t;
  deliver_batch t ~on_deliver;
  if Obs.tracing_enabled () then trace_series t

(* ------------------------------------------------------------------ *)
(* Idle-cycle skipping                                                 *)
(* ------------------------------------------------------------------ *)

(* Walk the remaining route, charging each link traversed; the hop
   count is the number of cycles the stepped simulation would spend. *)
let rec walk_route t at dst =
  if at = dst then 0
  else begin
    let hop = Router.next_hop t.router ~current:at ~dst in
    let l = link_index t.graph ~at ~hop in
    t.link_load.(l) <- t.link_load.(l) + 1;
    1 + walk_route t hop dst
  end

(* Exactly one message in flight, sitting on a link: every cycle until
   it arrives would move it one hop and touch nothing else, so jump the
   clock over all of them at once. Per-hop queue lengths never exceed 1
   (the originating push already raised [high_water]); the arrival
   passes through the destination inbox, raising [inbox_high_water] to
   at least 1; the message is served on its arrival cycle, as in the
   stepped semantics. *)
let fast_forward t ~on_deliver =
  let l = t.act_link.(0) in
  let id = rpop t.lring t.lhead t.llen l in
  t.n_act_link <- 0;
  t.link_in_set.(l) <- 0;
  t.link_load.(l) <- t.link_load.(l) + 1;
  let hops = 1 + walk_route t t.link_dst.(l) t.msg_dst.(id) in
  if t.inbox_high_water < 1 then t.inbox_high_water <- 1;
  Obs.add c_hops hops;
  t.cycle <- t.cycle + hops;
  if Obs.tracing_enabled () then Obs.instant ~arg:hops "netsim.idle_skip";
  deliver_one t id ~on_deliver

let run t ~on_deliver =
  Obs.span "netsim.run" @@ fun () ->
  let start = t.cycle in
  while t.in_flight > 0 do
    if t.in_flight = 1 && t.n_act_link = 1 && t.n_act_inbox = 0 then
      fast_forward t ~on_deliver
    else step t ~on_deliver
  done;
  t.cycle - start

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create ?(link_capacity = 1) ?(service_rate = max_int) graph =
  if link_capacity <= 0 then invalid_arg "Sim.create: link capacity";
  if service_rate <= 0 then invalid_arg "Sim.create: service rate";
  let n = Graph.n graph in
  let m = Graph.m graph in
  let link_dst = Array.make (2 * m) (-1) in
  Graph.iter_edges graph (fun u v ->
      let eid = Graph.edge_index graph u v in
      link_dst.(2 * eid) <- max u v;
      link_dst.((2 * eid) + 1) <- min u v);
  {
    graph;
    router = Router.create graph;
    link_capacity;
    service_rate;
    msg_dst = Array.make 64 0;
    msg_tag = Array.make 64 0;
    msg_sent = Array.make 64 0;
    free_ids = Array.make 64 0;
    n_free = 0;
    arena_top = 0;
    lring = Array.make (2 * m) empty_ring;
    lhead = Array.make (2 * m) 0;
    llen = Array.make (2 * m) 0;
    link_dst;
    link_load = Array.make (2 * m) 0;
    iring = Array.make n empty_ring;
    ihead = Array.make n 0;
    ilen = Array.make n 0;
    act_link = Array.make (2 * m) 0;
    n_act_link = 0;
    link_in_set = Array.make (2 * m) 0;
    act_inbox = Array.make n 0;
    n_act_inbox = 0;
    inbox_in_set = Array.make n 0;
    moved_id = Array.make 64 0;
    moved_at = Array.make 64 0;
    nmoved = 0;
    served = Array.make 64 0;
    nserved = 0;
    nkeep = 0;
    high_water = 0;
    inbox_high_water = 0;
    cycle = 0;
    in_flight = 0;
    delivered = 0;
    latencies = [||];
    nlat = 0;
  }

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let delivered t = t.delivered
let max_link_queue t = t.high_water
let max_inbox_queue t = t.inbox_high_water
let link_loads t = Array.copy t.link_load
let latencies t = Array.sub t.latencies 0 t.nlat
