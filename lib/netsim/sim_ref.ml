open Xt_topology

(* The retained reference simulator: the original sweep-based core,
   kept verbatim (minus telemetry) as the semantic oracle for the
   active-set rewrite in [Sim]. Every cycle it scans ALL 2m directed
   links and ALL n inboxes — O(cycles x topology) — which is exactly
   the cost profile the rewrite removes; the qcheck equivalence suite
   ([test_netsim_ref.ml]) and the bench speedup record both run
   workloads through this module. Do not optimise it. *)

type message = { dst : int; tag : int; sent : int (* injection cycle *) }

let link_index g ~at ~hop = (2 * Graph.edge_index g at hop) + if at < hop then 0 else 1

type t = {
  graph : Graph.t;
  router : Router.t;
  link_capacity : int;
  service_rate : int;
  queues : message Queue.t array; (* FIFO per directed link *)
  link_dst : int array;           (* directed link -> its receiving endpoint *)
  link_load : int array;          (* messages that traversed each directed link *)
  inbox : message Queue.t array;  (* arrived messages awaiting CPU service *)
  mutable cycle : int;
  mutable in_flight : int;
  mutable delivered : int;
  mutable high_water : int;
  mutable inbox_high_water : int;
  mutable latencies : int array;  (* first [nlat] entries, delivery order *)
  mutable nlat : int;
}

let create ?(link_capacity = 1) ?(service_rate = max_int) graph =
  if link_capacity <= 0 then invalid_arg "Sim_ref.create: link capacity";
  if service_rate <= 0 then invalid_arg "Sim_ref.create: service rate";
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
    queues = Array.init (2 * m) (fun _ -> Queue.create ());
    link_dst;
    link_load = Array.make (2 * m) 0;
    inbox = Array.init (Graph.n graph) (fun _ -> Queue.create ());
    cycle = 0;
    in_flight = 0;
    delivered = 0;
    high_water = 0;
    inbox_high_water = 0;
    latencies = [||];
    nlat = 0;
  }

let add_inbox t ~at msg =
  Queue.add msg t.inbox.(at);
  if Queue.length t.inbox.(at) > t.inbox_high_water then
    t.inbox_high_water <- Queue.length t.inbox.(at)

let enqueue t ~at msg =
  if at = msg.dst then add_inbox t ~at msg
  else begin
    let hop = Router.next_hop t.router ~current:at ~dst:msg.dst in
    let q = t.queues.(link_index t.graph ~at ~hop) in
    Queue.add msg q;
    if Queue.length q > t.high_water then t.high_water <- Queue.length q
  end

let send t ~src ~dst ~tag =
  if src < 0 || src >= Graph.n t.graph || dst < 0 || dst >= Graph.n t.graph then
    invalid_arg "Sim_ref.send: vertex out of range";
  t.in_flight <- t.in_flight + 1;
  enqueue t ~at:src { dst; tag; sent = t.cycle }

let record_latency t v =
  let cap = Array.length t.latencies in
  if t.nlat = cap then begin
    let a = Array.make (max 64 (2 * cap)) 0 in
    Array.blit t.latencies 0 a 0 cap;
    t.latencies <- a
  end;
  t.latencies.(t.nlat) <- v;
  t.nlat <- t.nlat + 1

let run t ~on_deliver =
  let start = t.cycle in
  while t.in_flight > 0 do
    t.cycle <- t.cycle + 1;
    (* 1. links: advance one batch per directed link (in link-index
       order); arrivals join the destination's inbox and may still be
       served this cycle *)
    let moved = ref [] in
    Array.iteri
      (fun idx q ->
        for _ = 1 to min t.link_capacity (Queue.length q) do
          t.link_load.(idx) <- t.link_load.(idx) + 1;
          moved := (t.link_dst.(idx), Queue.pop q) :: !moved
        done)
      t.queues;
    List.iter
      (fun (at, msg) ->
        if msg.dst = at then add_inbox t ~at msg else enqueue t ~at msg)
      (List.rev !moved);
    (* 2. CPU service: each vertex completes up to service_rate messages;
       completions may inject new traffic (carried next cycle) *)
    let served = ref [] in
    Array.iter
      (fun q ->
        for _ = 1 to min t.service_rate (Queue.length q) do
          served := Queue.pop q :: !served
        done)
      t.inbox;
    List.iter
      (fun msg ->
        t.in_flight <- t.in_flight - 1;
        t.delivered <- t.delivered + 1;
        record_latency t (t.cycle - msg.sent);
        on_deliver ~tag:msg.tag t)
      !served
  done;
  t.cycle - start

let delivered t = t.delivered
let max_link_queue t = t.high_water
let max_inbox_queue t = t.inbox_high_water
let link_loads t = Array.copy t.link_load
let latencies t = Array.sub t.latencies 0 t.nlat
