type boundary = { bnode : int; anchor : int }

type region = { top : int; bounds : boundary list; r1 : int; r2 : int option }

type piece = { nodes : int list; r1 : int; r2 : int option }

type split = { s1 : int list; t1 : int list; s2 : int list; t2 : int list }

let side_sizes sp =
  (List.length sp.s1 + List.length sp.t1, List.length sp.s2 + List.length sp.t2)

(* Workspace: the ranges of the tree, and the view of the piece under the
   current lemma call.

   The view needs no scratch at all. The tree is a mirror copy: node v's
   subtree is the id range [v, last v]. A maximal unplaced piece is its
   top's range minus the ranges of its cut roots, the placed children of
   its boundary nodes, and every quantity a carve reads — rooted sizes
   and parents, membership, effective sizes — is arithmetic on those
   ranges (see [below], [rpar], [rsize], [eff]).

   The list API ([components], the list lemmas, [verify_split]) walks
   node lists with generation-stamped arrays and an explicit DFS stack;
   they are allocated on its first call, so a workspace the core carves
   with holds none. *)
type ws = {
  rg : Ranges.t;
  caller_id : int array; (* node -> the caller's id *)
  mutable mark : int array; (* list API: set membership stamp *)
  mutable vis : int array; (* list API: DFS visited stamp *)
  mutable stack : int array; (* list API: explicit DFS stack *)
  mutable gen : int;    (* current set generation *)
  mutable visgen : int; (* current visited generation *)
  (* the view of the current lemma call's piece *)
  mutable place : int array; (* members are unplaced: [place.(v) < 0] *)
  mutable vtop : int;   (* the member whose parent is outside *)
  mutable vsize : int;  (* number of members *)
  mutable root : int;   (* r1, where the view is rooted *)
  mutable other : int;  (* r2 when it is given and not r1, else -1 *)
  mutable cuts : int array; (* cut roots in increasing id: cuts.(0 .. ncuts-1) *)
  mutable ncuts : int;
  mutable ex1 : int;    (* excluded roots (at most two), -1 when unused, *)
  mutable ex1_size : int; (* and their rooted sizes *)
  mutable ex2 : int;
  mutable ex2_size : int;
}

let create rg ~caller_id =
  {
    rg;
    caller_id;
    mark = [||];
    vis = [||];
    stack = [||];
    gen = 0;
    visgen = 0;
    place = [||];
    vtop = -1;
    vsize = 0;
    root = -1;
    other = -1;
    cuts = Array.make 8 0;
    ncuts = 0;
    ex1 = -1;
    ex1_size = 0;
    ex2 = -1;
    ex2_size = 0;
  }

let make_ws tree = create (Ranges.plain tree) ~caller_id:(Array.init (Bintree.n tree) Fun.id)
let mirror_ws (m : Bintree.mirror) = create (Ranges.of_mirror m) ~caller_id:m.to_caller
let ranges ws = ws.rg

(* The list API's scratch, allocated on first use. *)
let scratch ws =
  if Array.length ws.mark = 0 then begin
    let n = Bintree.n ws.rg.tree in
    ws.mark <- Array.make n 0;
    ws.vis <- Array.make n 0;
    ws.stack <- Array.make n 0
  end

let rec stamp a g = function
  | [] -> ()
  | v :: rest ->
      a.(v) <- g;
      stamp a g rest

(* ------------------------------------------------------------------ *)
(* The piece view                                                      *)
(* ------------------------------------------------------------------ *)

let above ws a b = Ranges.above ws.rg a b
let toward ws a b = Ranges.toward ws.rg a b

(* g(x): the members in member [x]'s tree subtree — its range minus the
   cut ranges inside it (cut ranges are disjoint, and a member's range
   holds a cut range whole or misses it). *)
let below ws x =
  let hi = ws.rg.last.(x) in
  let s = ref (hi - x + 1) in
  for i = 0 to ws.ncuts - 1 do
    let c = ws.cuts.(i) in
    if x < c && c <= hi then s := !s - (ws.rg.last.(c) - c + 1)
  done;
  !s

(* Rooted at r1, a member off the r1–top path keeps its tree parent and
   its subtree's members; a member on it — r1 or a tree ancestor of r1 —
   hangs from its child towards r1, and its rooted subtree is the piece
   minus that child's tree subtree. *)
let rpar ws v =
  if v = ws.root then -1
  else if above ws v ws.root then toward ws v ws.root
  else Bintree.parent_id ws.rg.tree v

let rsize ws v =
  if v = ws.root then ws.vsize
  else if above ws v ws.root then ws.vsize - below ws (toward ws v ws.root)
  else below ws v

(* Member [v] lies in member [u]'s rooted subtree. *)
let in_subtree ws ~root:u v = Ranges.in_rooted ws.rg ~root:ws.root u v

let rec in_cut ws v i =
  i < ws.ncuts
  &&
  let c = ws.cuts.(i) in
  (c <= v && v <= ws.rg.last.(c)) || in_cut ws v (i + 1)

let member ws v =
  v >= 0
  && v < Array.length ws.place
  && ws.place.(v) < 0
  && above ws ws.vtop v
  && not (in_cut ws v 0)

(* Insert a placed child [c] of a boundary node into the sorted cut
   roots; a node with two placed neighbours is listed twice. *)
let add_cut ws c =
  if c >= 0 && ws.place.(c) >= 0 then begin
    let k = ref ws.ncuts in
    while !k > 0 && ws.cuts.(!k - 1) > c do
      decr k
    done;
    if !k = 0 || ws.cuts.(!k - 1) <> c then begin
      if ws.ncuts = Array.length ws.cuts then begin
        let bigger = Array.make (2 * ws.ncuts) 0 in
        Array.blit ws.cuts 0 bigger 0 ws.ncuts;
        ws.cuts <- bigger
      end;
      Array.blit ws.cuts !k ws.cuts (!k + 1) (ws.ncuts - !k);
      ws.cuts.(!k) <- c;
      ws.ncuts <- ws.ncuts + 1
    end
  end

let rec add_cuts ws = function
  | [] -> ()
  | b :: rest ->
      add_cut ws (Bintree.left_id ws.rg.tree b.bnode);
      add_cut ws (Bintree.right_id ws.rg.tree b.bnode);
      add_cuts ws rest

(* Point the view at a maximal unplaced piece, rooted at [r1], with no
   exclusions. *)
let set_view ws ~name ~place ~top ~bounds r1 r2 =
  if not (Ranges.has_ranges ws.rg) then
    invalid_arg (name ^ ": workspace is not over a mirror copy");
  ws.place <- place;
  ws.vtop <- top;
  ws.ncuts <- 0;
  add_cuts ws bounds;
  ws.ex1 <- -1;
  ws.ex2 <- -1;
  if not (member ws r1) then invalid_arg "Separator: designated node not in piece";
  (match r2 with
  | Some r2 when not (member ws r2) -> invalid_arg (name ^ ": r2 not in piece")
  | _ -> ());
  ws.vsize <- below ws top;
  ws.root <- r1;
  ws.other <- (match r2 with Some r2 when r2 <> r1 -> r2 | _ -> -1)

(* Exclusions: rooted subtrees carved out of the effective sizes. A
   carve excludes at most two, and each records its rooted size. *)
let exclude ws u =
  let s = rsize ws u in
  if ws.ex1 < 0 then begin
    ws.ex1 <- u;
    ws.ex1_size <- s
  end
  else begin
    assert (ws.ex2 < 0);
    ws.ex2 <- u;
    ws.ex2_size <- s
  end

let eff ws v =
  let s = rsize ws v in
  if ws.ex1 < 0 then s
  else
    let s = if in_subtree ws ~root:v ws.ex1 then s - ws.ex1_size else s in
    if ws.ex2 >= 0 && in_subtree ws ~root:v ws.ex2 then s - ws.ex2_size else s

(* The effective size of [c], a tree neighbour of a member whose rooted
   parent is [pv], when [c] is a rooted child of it, else -1. A maximal
   piece's unplaced neighbours are its own, so membership is [place]. *)
let child_eff ws pv c = if c >= 0 && c <> pv && ws.place.(c) < 0 then eff ws c else -1

(* Procedure find1 of the paper: starting at [v], descend into the child
   of maximal (effective) cardinality while the current subtree is
   bigger than 4A/3; the first heaviest child in parent, left, right
   order wins ties. Integer form of |T(u)| > 4A/3 is 3|T(u)| > 4A.
   [ev] is [eff v]. *)
let rec descend ws v ev ~target =
  if 3 * ev <= 4 * target then v
  else begin
    let t = ws.rg.tree and pv = rpar ws v in
    let p = Bintree.parent_id t v and l = Bintree.left_id t v and r = Bintree.right_id t v in
    let ep = child_eff ws pv p and el = child_eff ws pv l and er = child_eff ws pv r in
    let e = Int.max ep (Int.max el er) in
    if e <= 0 then v
    else
      let c = if el > ep then if er > el then r else l else if er > ep then r else p in
      descend ws c e ~target
  end

let find1 ws v ~target = descend ws v (eff ws v) ~target

(* The lowest rooted ancestor of [u] whose rooted subtree holds [v]. *)
let rec lca ws u v = if in_subtree ws ~root:u v then u else lca ws (rpar ws u) v

let uniq ws xs = List.sort_uniq (fun a b -> Int.compare ws.caller_id.(a) ws.caller_id.(b)) xs

(* ------------------------------------------------------------------ *)
(* The carved part                                                     *)
(* ------------------------------------------------------------------ *)

type cut = {
  lay1 : int list;
  lay2 : int list;
  roots : int list;
  excluded : int list;
  r1 : int;
  swapped : bool;
}

(* A carve's result: the laid-out sets, and the carved part — side 2 — as
   the rooted subtrees of [roots] (pairwise disjoint, each laid on side
   2) minus those of the exclusions that are not roots (each laid on
   side 1). *)
let cut ws ~s1 ~s2 ~roots =
  let keep e acc = if e >= 0 && not (List.mem e roots) then e :: acc else acc in
  {
    lay1 = uniq ws s1;
    lay2 = uniq ws s2;
    roots;
    excluded = keep ws.ex1 (keep ws.ex2 []);
    r1 = ws.root;
    swapped = false;
  }

let swap c = { c with lay1 = c.lay2; lay2 = c.lay1; swapped = not c.swapped }

(* Carving nothing keeps the piece on side 1; moving it all is the swap. *)
let move_all ws =
  swap
    {
      lay1 = uniq ws (if ws.other >= 0 then [ ws.root; ws.other ] else [ ws.root ]);
      lay2 = [];
      roots = [];
      excluded = [];
      r1 = ws.root;
      swapped = false;
    }

(* ------------------------------------------------------------------ *)
(* Lemma 1                                                             *)
(* ------------------------------------------------------------------ *)

(* Core carve for Lemma 1, under n > 4A/3. *)
let carve1 ws ~target =
  let r1 = ws.root and r2 = ws.other in
  let u = find1 ws r1 ~target in
  if u = r1 then
    (* No descent possible: piece is a single node or all children empty;
       degenerate, move everything. *)
    move_all ws
  else begin
    let z = rpar ws u in
    if r2 < 0 then cut ws ~s1:[ r1; z ] ~s2:[ u ] ~roots:[ u ]
    else if in_subtree ws ~root:u r2 then cut ws ~s1:[ r1; z ] ~s2:[ u; r2 ] ~roots:[ u ]
    else cut ws ~s1:[ r1; r2; z; lca ws u r2 ] ~s2:[ u ] ~roots:[ u ]
  end

(* ------------------------------------------------------------------ *)
(* Lemma 2                                                             *)
(* ------------------------------------------------------------------ *)

(* Two-stage carve: take T(u1) aiming at [target], then correct the error
   with a second find1 — either carving the overshoot back out of T(u1),
   or carving a second subtree next to it. [from_] is the descent start
   (r2 in case 1, x in case 2). Returns (s1_extra, s2, carved roots). *)
let two_stage_carve ws ~from_ ~target =
  let u1 = find1 ws from_ ~target in
  if u1 = from_ then None
  else begin
    let z1 = rpar ws u1 in
    let e = eff ws u1 - target in
    if e > 0 then begin
      (* carve the overshoot back out of T(u1) *)
      let u2 = find1 ws u1 ~target:e in
      if u2 = u1 then
        (* cannot correct; accept the coarse carve *)
        Some ([ z1 ], [ u1 ], [ u1 ])
      else begin
        let p2 = rpar ws u2 in
        exclude ws u2;
        Some ([ z1; u2 ], [ u1; p2 ], [ u1 ])
      end
    end
    else if e < 0 then begin
      (* Add a second subtree next to T(u1). The second descent starts at
         z1 (not at [from_]): this keeps z2 strictly below z1, so every
         component of side 1 touches at most two separator nodes. The
         descent always makes progress: eff(z1) > 4(-e)/3 follows from the
         first descent's invariant |T(z1)| > 4A/3. A node find1 returns
         other than its start has a positive effective size. *)
      exclude ws u1;
      let u2 = find1 ws z1 ~target:(-e) in
      if u2 = z1 then Some ([ z1 ], [ u1 ], [ u1 ])
      else Some ([ z1; rpar ws u2 ], [ u1; u2 ], [ u1; u2 ])
    end
    else Some ([ z1 ], [ u1 ], [ u1 ])
  end

(* procedure find2: walk from r1 towards r2 while |T(v)| > 4A/3. Sizes
   fall strictly along that path, so the walk stops at its highest node
   with |T(v)| <= 4A/3, or at r2 when there is none: climb to that node
   from r2 instead. *)
let rec climb ws v ~target =
  if v = ws.root then v
  else
    let p = rpar ws v in
    if 3 * rsize ws p <= 4 * target then climb ws p ~target else v

let carve2 ws ~target =
  let r1 = ws.root in
  let r2 = if ws.other >= 0 then ws.other else r1 in
  let v = climb ws r2 ~target in
  let sv = rsize ws v in
  if v = r2 && 3 * sv > 4 * target then begin
    (* Case 1: both designated nodes stay in S1; carve inside T(r2). *)
    match two_stage_carve ws ~from_:r2 ~target with
    | Some (s1x, s2, roots) -> cut ws ~s1:(r1 :: r2 :: s1x) ~s2 ~roots
    | None -> move_all ws
  end
  else if sv < target then begin
    (* Case 2: T(v) (containing r2) moves entirely; top up from T(x,v). *)
    let x = rpar ws v in
    if x < 0 then move_all ws
    else begin
      exclude ws v;
      match two_stage_carve ws ~from_:x ~target:(target - sv) with
      | Some (s1x, s2x, roots) -> cut ws ~s1:(r1 :: x :: s1x) ~s2:(r2 :: v :: s2x) ~roots:(v :: roots)
      | None -> cut ws ~s1:[ r1; x ] ~s2:[ r2; v ] ~roots:[ v ]
    end
  end
  else begin
    (* Case 3: A <= |T(v)| <= 4A/3. Carve |T(v)| - A nodes out of T(v)
       with Lemma 1 (designated v and r2); the carved part stays on
       side 1, the rest of T(v) moves. *)
    let x = rpar ws v in
    if x < 0 then move_all ws
    else begin
      let a' = sv - target in
      let u' = if a' = 0 then v else find1 ws v ~target:a' in
      if u' = v then cut ws ~s1:[ r1; x ] ~s2:[ r2; v ] ~roots:[ v ]
      else begin
        let z' = rpar ws u' in
        (* side 2 = T(v) minus T(u') *)
        exclude ws u';
        if in_subtree ws ~root:u' r2 then
          (* r2 is inside the carved part: it stays on side 1 *)
          cut ws ~s1:(r1 :: x :: [ u'; r2 ]) ~s2:[ v; z' ] ~roots:[ v ]
        else cut ws ~s1:[ r1; x; u' ] ~s2:[ v; z'; r2; lca ws u' r2 ] ~roots:[ v ]
      end
    end
  end

(* Both lemmas: side 2 aims at [target]. Under the carves'
   precondition ([3n > 4 target]) carve directly; past it, carve the
   complement and swap sides; from [target >= n] on, move the piece. *)
let lemma carve ws ~target =
  let n = ws.vsize in
  if target >= n then move_all ws
  else if 3 * n > 4 * target then carve ws ~target
  else swap (carve ws ~target:(n - target))

let cut_of ~name carve ws ~place (r : region) ~target =
  if target <= 0 then invalid_arg (name ^ ": target must be positive");
  set_view ws ~name ~place ~top:r.top ~bounds:r.bounds r.r1 r.r2;
  lemma carve ws ~target

let cut1 ws ~place r ~target = cut_of ~name:"Separator.lemma1" carve1 ws ~place r ~target
let cut2 ws ~place r ~target = cut_of ~name:"Separator.lemma2" carve2 ws ~place r ~target

(* ------------------------------------------------------------------ *)
(* The list lemmas                                                     *)
(* ------------------------------------------------------------------ *)

(* A listed piece, relabelled in mirror preorder: a workspace over r1's
   component of the listed nodes alone, viewed whole and rooted at r1,
   and the original id of each of its nodes. The relabelling keeps every
   parent, left and right link, and the workspace's caller ids are the
   originals', so the carve makes the same choices as on the piece
   itself. *)
let relabel ws ~name piece =
  scratch ws;
  ws.gen <- ws.gen + 1;
  stamp ws.mark ws.gen piece.nodes;
  let inside v = v >= 0 && ws.mark.(v) = ws.gen in
  if not (inside piece.r1) then invalid_arg "Separator: designated node not in piece";
  let t = ws.rg.tree in
  let rec up v = if inside (Bintree.parent_id t v) then up (Bintree.parent_id t v) else v in
  let cap = List.length piece.nodes in
  let orig = Array.make cap 0 and from = Array.make cap (-1) in
  let parent = Array.make cap (-1) and left = Array.make cap (-1) and right = Array.make cap (-1) in
  let r2 = Option.value piece.r2 ~default:(-1) in
  let r1' = ref (-1) and r2' = ref (-1) and sp = ref 1 and k = ref 0 in
  ws.stack.(0) <- up piece.r1;
  (* [from] is the pushing node's new id, doubled, plus 1 for a left child *)
  let push c tag i =
    if inside c then begin
      ws.stack.(!sp) <- c;
      from.(!sp) <- (2 * i) + tag;
      incr sp
    end
  in
  while !sp > 0 do
    decr sp;
    let v = ws.stack.(!sp) and f = from.(!sp) and i = !k in
    incr k;
    orig.(i) <- v;
    if v = piece.r1 then r1' := i;
    if v = r2 then r2' := i;
    if f >= 0 then begin
      parent.(i) <- f lsr 1;
      if f land 1 = 1 then left.(f lsr 1) <- i else right.(f lsr 1) <- i
    end;
    (* the right child pops first: node, right subtree, left subtree *)
    push (Bintree.left_id t v) 1 i;
    push (Bintree.right_id t v) 0 i
  done;
  let k = !k in
  if r2 >= 0 && !r2' < 0 then invalid_arg (name ^ ": r2 not in piece");
  let left = Array.sub left 0 k and right = Array.sub right 0 k in
  let last = Array.make k 0 in
  for i = k - 1 downto 0 do
    last.(i) <-
      (if left.(i) >= 0 then last.(left.(i)) else if right.(i) >= 0 then last.(right.(i)) else i)
  done;
  let tree = Bintree.of_arrays ~root:0 ~parent:(Array.sub parent 0 k) ~left ~right in
  let sub = create (Ranges.make tree ~last) ~caller_id:(Array.init k (fun i -> ws.caller_id.(orig.(i)))) in
  scratch sub;
  set_view sub ~name ~place:(Array.make k (-1)) ~top:0 ~bounds:[] !r1'
    (if !r2' >= 0 then Some !r2' else None);
  (sub, orig)

(* The carved part of a cut in the workspace's view, root by root, each
   in the reverse of the order in which the DFS from r1 pops it: a
   rooted subtree minus the excluded ones, walked away from r1. *)
let carved_nodes ws c =
  let t = ws.rg.tree in
  let segment acc u =
    let acc = ref acc and sp = ref 1 in
    ws.stack.(0) <- u;
    while !sp > 0 do
      decr sp;
      let v = ws.stack.(!sp) in
      acc := v :: !acc;
      let pv = rpar ws v in
      let push w =
        if w >= 0 && w <> pv && not (List.mem w c.excluded) then begin
          ws.stack.(!sp) <- w;
          incr sp
        end
      in
      push (Bintree.parent_id t v);
      push (Bintree.left_id t v);
      push (Bintree.right_id t v)
    done;
    !acc
  in
  List.fold_left segment [] (List.rev c.roots)

(* The lists of the split a cut describes: the carved part in its own
   order, the rest in the piece's. *)
let split_of ws (piece : piece) c ~carved =
  ws.gen <- ws.gen + 1;
  stamp ws.mark ws.gen carved;
  let keep s v = not (List.mem v s) in
  let rest s = List.filter (fun v -> ws.mark.(v) <> ws.gen && keep s v) piece.nodes in
  let carved s = List.filter (keep s) carved in
  if c.swapped then { s1 = c.lay1; t1 = carved c.lay1; s2 = c.lay2; t2 = rest c.lay2 }
  else { s1 = c.lay1; t1 = rest c.lay1; s2 = c.lay2; t2 = carved c.lay2 }

let lemma_of ~name carve ws piece ~target =
  if target <= 0 then invalid_arg (name ^ ": target must be positive");
  let sub, orig = relabel ws ~name piece in
  let c = lemma carve sub ~target in
  let back = List.map (fun i -> orig.(i)) in
  split_of ws piece
    { c with lay1 = back c.lay1; lay2 = back c.lay2 }
    ~carved:(back (carved_nodes sub c))

let lemma1 ws piece ~target = lemma_of ~name:"Separator.lemma1" carve1 ws piece ~target
let lemma2 ws piece ~target = lemma_of ~name:"Separator.lemma2" carve2 ws piece ~target

module View = struct
  let set ws ~place (r : region) =
    set_view ws ~name:"Separator.View.set" ~place ~top:r.top ~bounds:r.bounds r.r1 r.r2

  let size ws = ws.vsize
  let mem = member
  let rooted_parent = rpar
  let rooted_size = rsize
  let exclude = exclude
  let effective_size = eff
end

(* ------------------------------------------------------------------ *)
(* Components and verification                                         *)
(* ------------------------------------------------------------------ *)

(* Push [w] when it is in the walked set and not yet visited; returns
   the new stack height. *)
let visit ws w sp =
  if w >= 0 && ws.mark.(w) = ws.gen && ws.vis.(w) <> ws.visgen then begin
    ws.vis.(w) <- ws.visgen;
    ws.stack.(sp) <- w;
    sp + 1
  end
  else sp

(* One component of the walked set: DFS from [v], neighbours pushed
   parent, left, right. Members come out last-popped first. No closure
   captures the refs, so the walk allocates only its output. *)
let grow ws v =
  ws.vis.(v) <- ws.visgen;
  ws.stack.(0) <- v;
  let t = ws.rg.tree in
  let sp = ref 1 and members = ref [] in
  while !sp > 0 do
    decr sp;
    let u = ws.stack.(!sp) in
    members := u :: !members;
    let p = Bintree.parent_id t u and l = Bintree.left_id t u and r = Bintree.right_id t u in
    sp := visit ws r (visit ws l (visit ws p !sp))
  done;
  !members

(* Removed nodes are stamped out of the set, so skipping them gives
   exactly the order a filtered copy of [nodes] would. A component is
   discovered at the first occurrence of one of its nodes in [nodes]. *)
let components ws ~nodes ~removed =
  scratch ws;
  ws.gen <- ws.gen + 1;
  stamp ws.mark ws.gen nodes;
  stamp ws.mark (ws.gen - 1) removed;
  ws.visgen <- ws.visgen + 1;
  let rec scan acc = function
    | [] -> acc
    | v :: rest ->
        if ws.mark.(v) = ws.gen && ws.vis.(v) <> ws.visgen then scan (grow ws v :: acc) rest
        else scan acc rest
  in
  scan [] nodes

let verify_split ws piece sp =
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  let tree = ws.rg.tree in
  let n = Bintree.n tree in
  (* code.(v): 0 outside the piece, 1 in it, 2 once a split list names
     it; after the partition check, 3-6 encode (side, laid) as t1 s1 t2
     s2 *)
  let code = Array.make n 0 in
  let piece_n = ref 0 in
  List.iter
    (fun v ->
      code.(v) <- 1;
      incr piece_n)
    piece.nodes;
  (* partition: every split node is a distinct piece node, and the counts
     match — multiset equality without sorting *)
  let seen_n = ref 0 and dup = ref false in
  let scan =
    List.iter (fun v ->
        if v >= 0 && v < n && code.(v) = 1 then begin
          code.(v) <- 2;
          incr seen_n
        end
        else dup := true)
  in
  scan sp.s1;
  scan sp.t1;
  scan sp.s2;
  scan sp.t2;
  if !dup || !seen_n <> !piece_n then fail "split is not a partition of the piece"
  else begin
    let designated = piece.r1 :: Option.to_list piece.r2 in
    let laid = sp.s1 @ sp.s2 in
    if not (List.for_all (fun r -> List.mem r laid) designated) then
      fail "designated node not laid out"
    else begin
      let put c = List.iter (fun v -> code.(v) <- c) in
      put 3 sp.t1;
      put 4 sp.s1;
      put 5 sp.t2;
      put 6 sp.s2;
      let side_of v = if code.(v) <= 4 then 1 else 2 in
      let laid_of v = code.(v) land 1 = 0 in
      let bad = ref None in
      List.iter
        (fun v ->
          let sv = side_of v and lv = laid_of v in
          Bintree.iter_neighbours tree v (fun w ->
              if code.(w) >= 3 then begin
                let sw = side_of w and lw = laid_of w in
                if sv <> sw && not (lv && lw) then
                  bad := Some (Printf.sprintf "cut edge %d-%d not between s1 and s2" v w)
              end))
        piece.nodes;
      match !bad with
      | Some msg -> Error msg
      | None ->
          (* collinearity of each side *)
          let collinear t_side s_side =
            let comps = components ws ~nodes:(t_side @ s_side) ~removed:s_side in
            List.for_all
              (fun comp ->
                let edges = ref 0 in
                List.iter
                  (fun v ->
                    Bintree.iter_neighbours tree v (fun w ->
                        if List.mem w s_side then incr edges))
                  comp;
                !edges <= 2)
              comps
          in
          if not (collinear sp.t1 sp.s1) then fail "side 1 not collinear"
          else if not (collinear sp.t2 sp.s2) then fail "side 2 not collinear"
          else Ok ()
    end
  end
