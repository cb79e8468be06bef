open Xt_topology
open Xt_bintree

type boundary = Separator.boundary = { bnode : int; anchor : int }

type piece = { pid : int; size : int; bounds : boundary list; start : int; top : int }

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
  rg : Ranges.t;
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
  let ws = Separator.mirror_ws m in
  {
    tree;
    xt;
    height;
    capacity;
    place = Array.make (Bintree.n tree) (-1);
    occ = Array.make order 0;
    weight = Array.make order 0;
    attached = Array.make order [];
    rg = Separator.ranges ws;
    ws;
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

(* ------------------------------------------------------------------ *)
(* Pieces from ranges                                                  *)
(*                                                                     *)
(* A maximal piece is its top's range minus its cut roots' ranges, the *)
(* placed children of its boundary nodes; its DFS from its start pops  *)
(* a node's neighbours right, left, parent. Once nodes L inside a      *)
(* maximal piece P are laid, its remnants are maximal pieces again:    *)
(* their tops are P's top, if unplaced, and the unplaced children of   *)
(* L; their boundary nodes are the tops (but a root) and the unplaced  *)
(* parents of P's cut roots and of L; each one's start is the node its *)
(* list order would discover it at. All of it is range arithmetic      *)
(* (Ranges), with the holes named by their parents: P's boundary nodes *)
(* and L's parents.                                                    *)
(* ------------------------------------------------------------------ *)

let rec bnodes_of = function [] -> [] | b :: rest -> b.bnode :: bnodes_of rest

(* Prepend [w]'s boundary entry towards its neighbour [x] when [x] is placed. *)
let bound st w x acc =
  if x >= 0 && st.place.(x) >= 0 then { bnode = w; anchor = st.place.(x) } :: acc else acc

(* A strict order as a comparison: nothing it orders is equal. *)
let by lt a b = if lt a b then -1 else 1

let form st ~pid ~top ~start bnodes =
  let rg = st.rg and t = st.tree in
  let before = Ranges.before rg ~s:start in
  let ordered = List.sort_uniq (fun a b -> if a = b then 0 else by before a b) bnodes in
  let size = ref (rg.last.(top) - top + 1) in
  let cut c = if c >= 0 && st.place.(c) >= 0 then size := !size - (rg.last.(c) - c + 1) in
  List.iter
    (fun w ->
      cut (Bintree.left_id t w);
      cut (Bintree.right_id t w))
    ordered;
  let bounds =
    List.fold_right
      (fun w acc ->
        bound st w (Bintree.right_id t w)
          (bound st w (Bintree.left_id t w) (bound st w (Bintree.parent_id t w) acc)))
      ordered []
  in
  { pid; size = !size; bounds; start; top }

let new_piece st ~top ~start bnodes =
  let p = form st ~pid:(draw_pid st) ~top ~start bnodes in
  (match p.bounds with _ :: _ :: _ :: _ -> st.wide_pieces <- st.wide_pieces + 1 | _ -> ());
  p

(* One remnant while it is worked out: its top, boundary nodes, start,
   and the index of the carved root whose subtree holds it (-1 off the
   carved part). *)
type part = { ptop : int; mutable pbn : int list; pstart : int; pseg : int }

(* The index in [roots] of the rooted subtree (rooted at [r1]) holding
   [u], unless an excluded one holds it; -1 when none does. *)
let segment rg ~r1 ~roots ~excluded u =
  let inside a = Ranges.in_rooted rg ~root:r1 a u in
  let rec find i = function [] -> -1 | a :: rest -> if inside a then i else find (i + 1) rest in
  if List.exists inside excluded then -1 else find 0 roots

(* The remnants of [p] once [laid] are placed, each started at the node
   of it that its DFS pops last, in the order of those starts: the rest
   of the piece by the DFS from its start, the carved part root by root
   in reverse, each by the DFS from [r1]. *)
let parts st (p : piece) ~laid ~r1 ~roots ~excluded =
  let rg = st.rg and place = st.place and t = st.tree in
  let holes =
    List.fold_left
      (fun acc l -> if l = p.top then acc else Bintree.parent_id t l :: acc)
      (bnodes_of p.bounds) laid
  in
  let add_top acc c = if Ranges.free place c then c :: acc else acc in
  let tops =
    List.fold_left
      (fun acc l -> add_top (add_top acc (Bintree.left_id t l)) (Bintree.right_id t l))
      (add_top [] p.top) laid
  in
  let parts =
    List.map
      (fun u ->
        let pseg = segment rg ~r1 ~roots ~excluded u in
        let rho = if pseg < 0 then p.start else r1 in
        let pstart =
          if Ranges.above rg u rho then Ranges.last_popped rg ~place holes ~s:rho u
          else Ranges.last_below rg ~place holes u
        in
        { ptop = u; pbn = (if Bintree.parent_id t u >= 0 then [ u ] else []); pstart; pseg })
      tops
  in
  (* an unplaced hole parent is a boundary node of the remnant whose top
     is the lowest above it *)
  List.iter
    (fun w ->
      if Ranges.free place w then begin
        let holder =
          List.fold_left
            (fun best q ->
              if Ranges.above rg q.ptop w && (best.ptop < 0 || q.ptop > best.ptop) then q else best)
            { ptop = -1; pbn = []; pstart = -1; pseg = -1 }
            parts
        in
        holder.pbn <- w :: holder.pbn
      end)
    holes;
  let earlier a b =
    if a.pseg <> b.pseg then a.pseg > b.pseg
    else Ranges.before rg ~s:(if a.pseg < 0 then p.start else r1) a.pstart b.pstart
  in
  List.sort (by earlier) parts

let rec forms st = function
  | [] -> []
  | q :: rest ->
      let piece = new_piece st ~top:q.ptop ~start:q.pstart q.pbn in
      piece :: forms st rest

let remnants st p ~laid = forms st (parts st p ~laid ~r1:p.start ~roots:[] ~excluded:[])

let split_remnants st p (c : Separator.cut) =
  let parts =
    parts st p ~laid:(c.lay1 @ c.lay2) ~r1:c.r1 ~roots:c.roots ~excluded:c.excluded
  in
  let carved, rest = List.partition (fun q -> q.pseg >= 0) parts in
  let side1, side2 = if c.swapped then (carved, rest) else (rest, carved) in
  let side1 = forms st side1 in
  (side1, forms st side2)

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

(* The independent re-grow behind [check_invariants]: the DFS from [v]
   over the unplaced nodes, neighbours pushed parent, left, right.
   Returns its size, its bounds in popped order (right, left, parent
   within a node) and its top; marks its nodes [k] in [mark] and counts
   them in [covered]. *)
let regrow st ~mark ~covered k v =
  let t = st.tree and place = st.place in
  let stack = ref [ v ] and size = ref 0 and acc = ref [] and top = ref v in
  mark.(v) <- k;
  let push w = if w >= 0 && place.(w) < 0 && mark.(w) <> k then begin
      mark.(w) <- k;
      stack := w :: !stack
    end
  in
  while !stack <> [] do
    let u = List.hd !stack in
    stack := List.tl !stack;
    incr size;
    covered.(u) <- covered.(u) + 1;
    let p = Bintree.parent_id t u and l = Bintree.left_id t u and r = Bintree.right_id t u in
    if p < 0 || place.(p) >= 0 then top := u;
    push p;
    push l;
    push r;
    acc := bound st u p (bound st u l (bound st u r !acc))
  done;
  (!size, List.rev !acc, !top)

(* Re-grow every attached piece from its start, counting the nodes each
   reaches; the first piece whose start is placed, or whose re-grown
   size, bounds or top differ from its own, as (vertex, pid). *)
let stale_piece st covered =
  let mark = Array.make (Bintree.n st.tree) 0 and k = ref 0 and stale = ref None in
  Array.iteri
    (fun v pieces ->
      List.iter
        (fun p ->
          incr k;
          let ok =
            st.place.(p.start) < 0
            &&
            let size, bounds, top = regrow st ~mark ~covered !k p.start in
            size = p.size && bounds = p.bounds && top = p.top
          in
          if (not ok) && !stale = None then stale := Some (v, p.pid))
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
    (* every guest node is placed xor reached by exactly one piece's re-grow *)
    let covered = Array.make (Bintree.n st.tree) 0 in
    Array.iteri (fun v p -> if p >= 0 then covered.(v) <- covered.(v) + 1) st.place;
    let stale = stale_piece st covered in
    let bad = ref None in
    Array.iteri
      (fun v c -> if c <> 1 && !bad = None then bad := Some (v, c))
      covered;
    match (!bad, stale) with
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
