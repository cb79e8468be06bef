open Xt_obs
open Xt_topology
open Xt_bintree

(* Guest nodes walked while re-forming pieces after a placement: the
   work of [reform] and of [regrow]. *)
let c_reform_nodes = Obs.counter "state.reform_nodes"

type boundary = Separator.boundary = { bnode : int; anchor : int }

type piece = {
  pid : int;
  size : int;
  nodes : int list;
  bounds : boundary list;
  start : int;
  top : int;
}

type held = {
  h_start : int array;
  h_top : int array;
  h_pid : int array;
  h_bnodes : int list array;
  mutable h_len : int;
}

type search = {
  seen : int array;
  queue : int array;
  mutable stamp : int;
  mutable tail : int;
}

type t = {
  tree : Bintree.t;
  xt : Xtree.t;
  height : int;
  capacity : int;
  place : int array;
  occ : int array;
  weight : int array;
  attached : piece list array;
  last : int array;
  ws : Separator.ws;
  held : held;
  search : search;
  mutable placed : int;
  mutable next_pid : int;
  mutable fallbacks : int;
  mutable wide_pieces : int;
}

(* A fill lays at most [capacity] nodes, and never more than the guest
   has; each peel replaces one held piece by at most three. *)
let make_held ~laid =
  let m = (2 * laid) + 2 in
  {
    h_start = Array.make m 0;
    h_top = Array.make m 0;
    h_pid = Array.make m 0;
    h_bnodes = Array.make m [];
    h_len = 0;
  }

let create (m : Bintree.mirror) ~height ~capacity =
  if capacity <= 0 then invalid_arg "State.create: capacity";
  let tree = m.copy in
  let xt = Xtree.create ~height in
  let order = Xtree.order xt in
  {
    tree;
    xt;
    height;
    capacity;
    place = Array.make (Bintree.n tree) (-1);
    occ = Array.make order 0;
    weight = Array.make order 0;
    attached = Array.make order [];
    last = m.last;
    ws = Separator.mirror_ws m;
    held = make_held ~laid:(min capacity (Bintree.n tree));
    search = { seen = Array.make order 0; queue = Array.make order 0; stamp = 0; tail = 0 };
    placed = 0;
    next_pid = 0;
    fallbacks = 0;
    wide_pieces = 0;
  }

let weight_of st v = st.weight.(v)

let rec add_weight st v delta =
  st.weight.(v) <- st.weight.(v) + delta;
  if v > 0 then add_weight st ((v - 1) / 2) delta

(* Nearest vertex with a free slot among levels <= max_level, by BFS from
   [from_] in the X-tree. The search stamps the vertices it reaches in
   the state's scratch, so it allocates only its [visit] closure. *)
let nearest_free st ~max_level ~from_ =
  let g = Xtree.graph st.xt and s = st.search in
  s.stamp <- s.stamp + 1;
  s.tail <- 0;
  let visit w =
    if s.seen.(w) <> s.stamp then begin
      s.seen.(w) <- s.stamp;
      s.queue.(s.tail) <- w;
      s.tail <- s.tail + 1
    end
  in
  visit from_;
  let head = ref 0 and found = ref (-1) in
  while !found < 0 && !head < s.tail do
    let v = s.queue.(!head) in
    incr head;
    if st.occ.(v) < st.capacity && Xtree.level v <= max_level then found := v
    else Graph.iter_neighbours g v visit
  done;
  !found

let lay st ~max_level ~node ~vertex =
  if st.place.(node) >= 0 then invalid_arg "State.lay: node already placed";
  let target =
    if st.occ.(vertex) < st.capacity && Xtree.level vertex <= max_level then vertex
    else begin
      st.fallbacks <- st.fallbacks + 1;
      let v = nearest_free st ~max_level ~from_:vertex in
      (* Tight capacities (e.g. 4) can exhaust every level the round is
         allowed to touch while deeper levels still have slack; diverting
         below [max_level] costs dilation but keeps the load bound and
         places every node, where raising would abandon the embedding. *)
      let v =
        if v >= 0 then v
        else nearest_free st ~max_level:(Xtree.height st.xt) ~from_:vertex
      in
      if v < 0 then invalid_arg "State.lay: host is full";
      v
    end
  in
  st.place.(node) <- target;
  st.occ.(target) <- st.occ.(target) + 1;
  st.placed <- st.placed + 1;
  add_weight st target 1

let attach st ~vertex piece =
  st.attached.(vertex) <- piece :: st.attached.(vertex);
  add_weight st vertex piece.size

(* Piece ids are unique, so the first match is the only one; a piece at
   the head of the list (the fill loop's case) goes in O(1). *)
let rec remove_pid pid = function
  | [] -> invalid_arg "State.detach: piece not attached here"
  | p :: rest -> if p.pid = pid then rest else p :: remove_pid pid rest

let detach st ~vertex piece =
  st.attached.(vertex) <- remove_pid piece.pid st.attached.(vertex);
  add_weight st vertex (-piece.size)

let draw_pid st =
  let pid = st.next_pid in
  st.next_pid <- pid + 1;
  pid

let make_piece st nodes =
  let bounds = ref [] in
  List.iter
    (fun w ->
      Bintree.iter_neighbours st.tree w (fun x ->
          if st.place.(x) >= 0 then bounds := { bnode = w; anchor = st.place.(x) } :: !bounds))
    nodes;
  let bounds = !bounds in
  if List.length bounds > 2 then st.wide_pieces <- st.wide_pieces + 1;
  let pid = draw_pid st in
  (* the top of a connected set comes first in preorder: the least id *)
  let top = List.fold_left Int.min (List.hd nodes) nodes in
  { pid; size = List.length nodes; nodes; bounds; start = List.hd (List.rev nodes); top }

let piece_of st (c : Separator.component) =
  (match c.bounds with _ :: _ :: _ :: _ -> st.wide_pieces <- st.wide_pieces + 1 | _ -> ());
  let pid = draw_pid st in
  Obs.add c_reform_nodes c.count;
  { pid; size = c.count; nodes = c.members; bounds = c.bounds; start = c.start; top = c.top }

let regrow st ~pid v =
  let c = Separator.component_at st.ws ~place:st.place v in
  Obs.add c_reform_nodes c.count;
  { pid; size = c.count; nodes = c.members; bounds = c.bounds; start = c.start; top = c.top }

(* Ids are drawn in list order, as [make_piece] over each component
   would draw them. *)
let reform st ?outside nodes =
  let rec wrap = function
    | [] -> []
    | c :: rest ->
        let p = piece_of st c in
        p :: wrap rest
  in
  wrap (Separator.unplaced_components st.ws ~place:st.place ?outside nodes)

let pieces_at st v = st.attached.(v)

let separator_piece p =
  match p.bounds with
  | [] -> invalid_arg "State.separator_piece: piece has no boundary"
  | b :: rest ->
      let r2 =
        List.fold_left
          (fun acc b' -> match acc with Some _ -> acc | None -> if b'.bnode <> b.bnode then Some b'.bnode else None)
          None rest
      in
      { Separator.top = p.top; bounds = p.bounds; r1 = b.bnode; r2 }

(* An attached piece that is not the whole unplaced component of its
   start as re-grown from there — other nodes, size, bounds or top —
   as (vertex, pid). *)
let stale_piece st =
  let stale = ref None in
  Array.iteri
    (fun v pieces ->
      List.iter
        (fun p ->
          if !stale = None then begin
            let c = Separator.component_at st.ws ~place:st.place p.start in
            if c.members <> p.nodes || c.count <> p.size || c.bounds <> p.bounds || c.top <> p.top
            then stale := Some (v, p.pid)
          end)
        pieces)
    st.attached;
  !stale

let check_invariants st =
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  let order = Xtree.order st.xt in
  (* occupancy matches place *)
  let occ' = Array.make order 0 in
  let placed' = ref 0 in
  Array.iter
    (fun v ->
      if v >= 0 then begin
        occ'.(v) <- occ'.(v) + 1;
        incr placed'
      end)
    st.place;
  if occ' <> st.occ then fail "occupancy out of sync"
  else if !placed' <> st.placed then fail "placed counter out of sync"
  else begin
    (* every guest node is placed xor belongs to exactly one piece *)
    let covered = Array.make (Bintree.n st.tree) 0 in
    Array.iteri (fun v p -> if p >= 0 then covered.(v) <- covered.(v) + 1) st.place;
    Array.iter
      (fun pieces ->
        List.iter (fun p -> List.iter (fun v -> covered.(v) <- covered.(v) + 1) p.nodes) pieces)
      st.attached;
    let bad = ref None in
    Array.iteri
      (fun v c -> if c <> 1 && !bad = None then bad := Some (v, c))
      covered;
    match (!bad, stale_piece st) with
    | Some (v, c), _ -> fail "guest node %d covered %d times" v c
    | None, Some (v, pid) -> fail "piece %d at vertex %d is not its start's re-grown component" pid v
    | None, None ->
        (* weights: recompute bottom-up *)
        let w = Array.make order 0 in
        for v = order - 1 downto 0 do
          let own = st.occ.(v) + List.fold_left (fun acc p -> acc + p.size) 0 st.attached.(v) in
          let kids =
            let c0 = (2 * v) + 1 and c1 = (2 * v) + 2 in
            (if c0 < order then w.(c0) else 0) + if c1 < order then w.(c1) else 0
          in
          w.(v) <- own + kids
        done;
        if w <> st.weight then fail "weights out of sync" else Ok ()
  end
