open Xt_obs
open Xt_topology

let c_sent = Obs.counter "netsim.sent"
let c_delivered = Obs.counter "netsim.delivered"
let c_hops = Obs.counter "netsim.hops"
let h_latency = Obs.histogram "netsim.latency_cycles"

(* The core is event-driven: instead of sweeping all 2m directed links
   and all n inboxes every cycle (the retained [Sim_ref] does exactly
   that), we keep "active sets" of only the links and inboxes that
   currently hold messages. Each is a two-level bitset (one bit per
   index, one summary bit per non-empty word), so inserting and removing
   cost O(1) and a walk visits the members in ascending index order —
   the order of the sweep, so the drain order, and therefore every
   observable (cycle counts, delivery order, link loads, high-water
   marks), is bit-identical to the sweep semantics. Messages live in
   flat arenas of parallel int arrays recycled through free lists, and
   each link/inbox FIFO is an intrusive list threaded through the
   arena's [msg_next] field (first, last and length per queue), so the
   steady-state loop moves only integers and allocates nothing (guarded
   by a [Gc.minor_words] test).
   When exactly one message is in flight on a link — the latency-bound
   regime, e.g. [pingpong_sweep] — [run] skips the idle cycles entirely
   and fast-forwards the message along its whole remaining route in one
   jump.

   Links are indexed by directed-link number: the undirected edge id
   doubled, plus the direction bit (0 = towards the higher-numbered
   endpoint), as [Router.next_link] names it. So each hop's queue is one
   route lookup away, and per-link series (loads, utilisation) are
   plain array sweeps.

   A stepped cycle is two walks over the active sets: [drain_links]
   moves every non-empty link one batch forward, then [serve_inboxes]
   completes up to [service_rate] messages per non-empty inbox, and the
   served batch is handed to the delivery callbacks. *)

(* ------------------------------------------------------------------ *)
(* Active sets: two-level bitsets                                      *)
(* ------------------------------------------------------------------ *)

(* Members are link or vertex indices. [bits] holds one bit per index and
   [summary] one bit per non-zero word of [bits], in 32-bit words, so the
   lowest set bit of a word is one multiply into a de Bruijn table.
   [card] counts the members and [lo] is the lowest non-zero summary word
   while [card > 0]: a walk starts there and stops at the last member, so
   a step over one queued message costs the same on any host. *)
type aset = {
  bits : int array;
  summary : int array;
  mutable card : int;
  mutable lo : int;
}

let make_aset n =
  { bits = Array.make ((n + 31) lsr 5) 0; summary = Array.make ((n + 1023) lsr 10) 0; card = 0; lo = 0 }

let debruijn =
  "\000\001\028\002\029\014\024\003\030\022\020\015\025\017\004\008\
   \031\027\013\023\021\019\016\007\026\012\018\006\011\005\010\009"

(* The position of a single set bit [b] of a 32-bit word. *)
let[@inline] bit_pos b = Char.code (String.unsafe_get debruijn (((b * 0x077CB531) lsr 27) land 31))

let[@inline] add s i =
  let w = i lsr 5 in
  let word = s.bits.(w) and bit = 1 lsl (i land 31) in
  if word land bit = 0 then begin
    s.bits.(w) <- word lor bit;
    if word = 0 then begin
      let sw = w lsr 5 in
      s.summary.(sw) <- s.summary.(sw) lor (1 lsl (w land 31));
      if s.card = 0 || sw < s.lo then s.lo <- sw
    end;
    s.card <- s.card + 1
  end

(* The least member of a non-empty set. *)
let least s =
  let sum = s.summary.(s.lo) in
  let w = (s.lo lsl 5) lor bit_pos (sum land -sum) in
  let word = s.bits.(w) in
  (w lsl 5) lor bit_pos (word land -word)

(* Empty a set whose only member is [i]. *)
let clear s i =
  s.bits.(i lsr 5) <- 0;
  s.summary.(i lsr 10) <- 0;
  s.card <- 0

(* [walk s t f] calls [f t i] on every member [i] of [s] in ascending
   order and drops [i] from [s] when [f] returns [false]. [f] must not
   add to [s]. *)
let walk s t f =
  let left = ref s.card and sw = ref s.lo and lo = ref (-1) in
  while !left > 0 do
    let sum = s.summary.(!sw) in
    let rest = ref sum and kept = ref sum in
    while !rest <> 0 do
      let wbit = !rest land - !rest in
      rest := !rest lxor wbit;
      let w = (!sw lsl 5) lor bit_pos wbit in
      let word = s.bits.(w) in
      let r = ref word and keep = ref word in
      while !r <> 0 do
        let bit = !r land - !r in
        r := !r lxor bit;
        decr left;
        if not (f t ((w lsl 5) lor bit_pos bit)) then begin
          keep := !keep lxor bit;
          s.card <- s.card - 1
        end
      done;
      s.bits.(w) <- !keep;
      if !keep = 0 then kept := !kept lxor wbit
    done;
    s.summary.(!sw) <- !kept;
    if !kept <> 0 && !lo < 0 then lo := !sw;
    incr sw
  done;
  if !lo >= 0 then s.lo <- !lo

type t = {
  graph : Graph.t;
  router : Router.t;
  link_capacity : int;
  service_rate : int;
  (* message arena: parallel fields indexed by message id *)
  mutable msg_dst : int array;
  mutable msg_tag : int array;
  mutable msg_sent : int array;   (* injection cycle *)
  mutable msg_next : int array;   (* the next message in its queue *)
  mutable free_ids : int array;   (* recycled ids, stack of size [n_free] *)
  mutable n_free : int;
  mutable arena_top : int;        (* ids below this have been handed out *)
  (* FIFO per directed link: first and last message id, and length *)
  lfirst : int array;
  llast : int array;
  llen : int array;
  link_load : int array;          (* messages that traversed each directed link *)
  (* FIFO per vertex inbox: arrived messages awaiting CPU service *)
  ifirst : int array;
  ilast : int array;
  ilen : int array;
  (* active sets: the non-empty links / inboxes; sized to 2m / n, so
     they never grow *)
  links : aset;
  inboxes : aset;
  (* per-cycle scratch, persistent so the run loop reallocates nothing *)
  mutable moved_id : int array;   (* message popped off a link this cycle *)
  mutable moved_at : int array;   (* ... and the endpoint it arrived at *)
  mutable nmoved : int;
  mutable served : int array;     (* messages completing service this cycle *)
  mutable nserved : int;
  mutable high_water : int;
  mutable inbox_high_water : int;
  mutable cycle : int;
  mutable in_flight : int;
  mutable delivered : int;
  mutable latencies : int array;  (* first [nlat] entries, delivery order *)
  mutable nlat : int;
}

type handler = tag:int -> t -> unit

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
  t.msg_next <- grow t.msg_next;
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
(* Intrusive FIFOs: queue [i] runs from [first.(i)] along [msg_next]    *)
(* for [lens.(i)] messages, ending at [last.(i)]                       *)
(* ------------------------------------------------------------------ *)

let qpush t first last lens i id =
  if lens.(i) = 0 then first.(i) <- id else t.msg_next.(last.(i)) <- id;
  last.(i) <- id;
  lens.(i) <- lens.(i) + 1

let qpop t first lens i =
  let id = first.(i) in
  first.(i) <- t.msg_next.(id);
  lens.(i) <- lens.(i) - 1;
  id

(* ------------------------------------------------------------------ *)
(* Enqueue paths                                                       *)
(* ------------------------------------------------------------------ *)

let push_inbox t ~at id =
  qpush t t.ifirst t.ilast t.ilen at id;
  if t.ilen.(at) > t.inbox_high_water then t.inbox_high_water <- t.ilen.(at);
  add t.inboxes at

let push_link t l id =
  qpush t t.lfirst t.llast t.llen l id;
  if t.llen.(l) > t.high_water then t.high_water <- t.llen.(l);
  add t.links l

let send t ~src ~dst ~tag =
  if src < 0 || src >= Graph.n t.graph || dst < 0 || dst >= Graph.n t.graph then
    invalid_arg "Sim.send: vertex out of range";
  t.in_flight <- t.in_flight + 1;
  Obs.incr c_sent;
  if src = dst then push_inbox t ~at:src (alloc_msg t ~dst ~tag ~sent:t.cycle)
  else
    push_link t (Router.next_link t.router ~current:src ~dst) (alloc_msg t ~dst ~tag ~sent:t.cycle)

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

(* Advance one batch per non-empty link, in link-index order so runs
   are deterministic; arrivals join the destination's inbox and may
   still be served this cycle, forwards re-enter the queue of their next
   link once every link has moved. Links drained dry leave the set. *)
let drain_link t l =
  let npop = if t.link_capacity < t.llen.(l) then t.link_capacity else t.llen.(l) in
  for _ = 1 to npop do
    t.link_load.(l) <- t.link_load.(l) + 1;
    push_moved t (Router.link_dst t.router l) (qpop t t.lfirst t.llen l)
  done;
  t.llen.(l) > 0

let drain_links t =
  t.nmoved <- 0;
  walk t.links t drain_link;
  for k = 0 to t.nmoved - 1 do
    let at = t.moved_at.(k) in
    let id = t.moved_id.(k) in
    let dst = t.msg_dst.(id) in
    if dst = at then push_inbox t ~at id
    else push_link t (Router.next_link t.router ~current:at ~dst) id
  done

(* CPU service: each non-empty inbox completes up to service_rate
   messages, walked in ascending vertex order into the served batch. *)
let serve_inbox t x =
  let npop = if t.service_rate < t.ilen.(x) then t.service_rate else t.ilen.(x) in
  for _ = 1 to npop do
    push_served t (qpop t t.ifirst t.ilen x)
  done;
  t.ilen.(x) > 0

let serve_inboxes t =
  t.nserved <- 0;
  walk t.inboxes t serve_inbox

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
   contribute, so scanning the active sets sees every message. Only
   called with tracing enabled (it allocates).                         *)
(* ------------------------------------------------------------------ *)

(* The largest and the total length of the queues of [s]'s members,
   whose lengths are [lens]: [walk]'s visit order, read-only. *)
let queue_stats s lens =
  let maxq = ref 0 and total = ref 0 and left = ref s.card and sw = ref s.lo in
  while !left > 0 do
    let rest = ref s.summary.(!sw) in
    while !rest <> 0 do
      let wbit = !rest land - !rest in
      rest := !rest lxor wbit;
      let w = (!sw lsl 5) lor bit_pos wbit in
      let r = ref s.bits.(w) in
      while !r <> 0 do
        let bit = !r land - !r in
        r := !r lxor bit;
        decr left;
        let q = lens.((w lsl 5) lor bit_pos bit) in
        total := !total + q;
        if q > !maxq then maxq := q
      done
    done;
    incr sw
  done;
  (!maxq, !total)

let trace_series t =
  let links = Array.length t.link_load in
  let maxq, queued = queue_stats t.links t.llen in
  let maxinbox, _ = queue_stats t.inboxes t.ilen in
  let ts = Obs.now_ns () in
  Obs.counter_event ~ts "netsim.in_flight" t.in_flight;
  Obs.counter_event ~ts "netsim.queued" queued;
  Obs.counter_event ~ts "netsim.queue_depth_max" maxq;
  Obs.counter_event ~ts "netsim.inbox_depth_max" maxinbox;
  Obs.counter_event ~ts "netsim.link_util_pct"
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
    let l = Router.next_link t.router ~current:at ~dst in
    t.link_load.(l) <- t.link_load.(l) + 1;
    1 + walk_route t (Router.link_dst t.router l) dst
  end

(* Exactly one message in flight, sitting on a link: every cycle until
   it arrives would move it one hop and touch nothing else, so jump the
   clock over all of them at once. Per-hop queue lengths never exceed 1
   (the originating push already raised [high_water]); the arrival
   passes through the destination inbox, raising [inbox_high_water] to
   at least 1; the message is served on its arrival cycle, as in the
   stepped semantics. *)
let fast_forward t ~on_deliver =
  let l = least t.links in
  let id = qpop t t.lfirst t.llen l in
  clear t.links l;
  t.link_load.(l) <- t.link_load.(l) + 1;
  let hops = 1 + walk_route t (Router.link_dst t.router l) t.msg_dst.(id) in
  if t.inbox_high_water < 1 then t.inbox_high_water <- 1;
  Obs.add c_hops hops;
  t.cycle <- t.cycle + hops;
  if Obs.tracing_enabled () then Obs.instant ~arg:hops "netsim.idle_skip";
  deliver_one t id ~on_deliver

let run t ~on_deliver =
  Obs.span "netsim.run" @@ fun () ->
  let start = t.cycle in
  while t.in_flight > 0 do
    if t.in_flight = 1 && t.links.card = 1 && t.inboxes.card = 0 then
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
  {
    graph;
    router = Router.create graph;
    link_capacity;
    service_rate;
    msg_dst = Array.make 64 0;
    msg_tag = Array.make 64 0;
    msg_sent = Array.make 64 0;
    msg_next = Array.make 64 0;
    free_ids = Array.make 64 0;
    n_free = 0;
    arena_top = 0;
    lfirst = Array.make (2 * m) 0;
    llast = Array.make (2 * m) 0;
    llen = Array.make (2 * m) 0;
    link_load = Array.make (2 * m) 0;
    ifirst = Array.make n 0;
    ilast = Array.make n 0;
    ilen = Array.make n 0;
    links = make_aset (2 * m);
    inboxes = make_aset n;
    moved_id = Array.make 64 0;
    moved_at = Array.make 64 0;
    nmoved = 0;
    served = Array.make 64 0;
    nserved = 0;
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
