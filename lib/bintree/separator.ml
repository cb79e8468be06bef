type piece = { nodes : int list; r1 : int; r2 : int option }

type split = { s1 : int list; t1 : int list; s2 : int list; t2 : int list }

let side_sizes sp =
  (List.length sp.s1 + List.length sp.t1, List.length sp.s2 + List.length sp.t2)

(* Workspace: generation-stamped scratch arrays over the host tree, so that
   no per-call allocation proportional to the whole tree is needed. Every
   transient set (piece membership, DFS visited, exclusion prefix sums,
   ancestor marks) is an int-stamp array compared against its generation
   counter, the DFS stack and the preorder are preallocated int arrays —
   [prepare] (piece loading, the O(n) hot path of both lemmas) allocates
   nothing at all, so one workspace serves every call on its tree. *)
type ws = {
  tree : Bintree.t;
  caller_id : int array; (* node -> the caller's id *)
  mark : int array;    (* piece membership stamp *)
  par : int array;     (* parent within the rooted piece *)
  size : int array;    (* subtree size within the rooted piece *)
  exq : int array;     (* stamp for exclusion prefix sums *)
  exval : int array;   (* total excluded size inside T(v) *)
  anc : int array;     (* stamp for ancestor marking / misc sets *)
  vis : int array;     (* DFS visited stamp *)
  ord : int array;     (* preorder of the loaded piece *)
  stack : int array;   (* explicit DFS stack *)
  mutable ordn : int;          (* number of loaded nodes *)
  mutable gen : int;           (* current piece generation *)
  mutable exgen : int;         (* current exclusion generation *)
  mutable ancgen : int;        (* current ancestor-set generation *)
  mutable visgen : int;        (* current visited generation *)
}

let make_ws ?caller_id tree =
  let n = Bintree.n tree in
  let caller_id = match caller_id with Some ids -> ids | None -> Array.init n Fun.id in
  if Array.length caller_id <> n then
    invalid_arg "Separator.make_ws: caller_id size does not match the tree";
  {
    tree;
    caller_id;
    mark = Array.make n 0;
    par = Array.make n (-1);
    size = Array.make n 0;
    exq = Array.make n 0;
    exval = Array.make n 0;
    anc = Array.make n 0;
    vis = Array.make n 0;
    ord = Array.make n 0;
    stack = Array.make n 0;
    ordn = 0;
    gen = 0;
    exgen = 0;
    ancgen = 0;
    visgen = 0;
  }

let member ws v = ws.mark.(v) = ws.gen

let rec stamp a g = function
  | [] -> ()
  | v :: rest ->
      a.(v) <- g;
      stamp a g rest

(* Push [w], a tree neighbour of [v], when it is in the loaded set —
   the nodes [set] maps to [key] — and not yet visited: stamp it a
   member, orient it below [v], give it size 1; returns the new stack
   height. Top-level, so the walk allocates nothing. *)
let load_visit ws (set : int array) key v w sp =
  if w >= 0 && set.(w) = key && ws.vis.(w) <> ws.visgen then begin
    ws.vis.(w) <- ws.visgen;
    ws.mark.(w) <- ws.gen;
    ws.par.(w) <- v;
    ws.size.(w) <- 1;
    ws.stack.(sp) <- w;
    sp + 1
  end
  else sp

(* Root the piece at [r1]: one DFS from [r1] over the nodes [set] maps
   to [key], which stamps membership and sets the [par] orientation,
   then subtree [size]s. Iterative on the preallocated stack — pieces
   can be path-shaped. Allocation-free. *)
let load ws ~set ~key r1 =
  ws.visgen <- ws.visgen + 1;
  ws.vis.(r1) <- ws.visgen;
  ws.mark.(r1) <- ws.gen;
  ws.par.(r1) <- -1;
  ws.size.(r1) <- 1;
  ws.stack.(0) <- r1;
  let t = ws.tree in
  let sp = ref 1 and n = ref 0 in
  while !sp > 0 do
    decr sp;
    let v = ws.stack.(!sp) in
    ws.ord.(!n) <- v;
    incr n;
    (* same neighbour order as [Bintree.iter_neighbours]: parent, left,
       right — the preorder, and so every placement, depends on it *)
    sp :=
      load_visit ws set key v (Bintree.right_id t v)
        (load_visit ws set key v (Bintree.left_id t v)
           (load_visit ws set key v (Bintree.parent_id t v) !sp))
  done;
  ws.ordn <- !n;
  (* sizes bottom-up: walk the preorder backwards down to r1's children *)
  for k = !n - 1 downto 1 do
    let v = ws.ord.(k) in
    let p = ws.par.(v) in
    ws.size.(p) <- ws.size.(p) + ws.size.(v)
  done;
  !n

(* The piece's members are its listed nodes, or — given [place] — the
   unplaced component of [r1], which the piece's nodes are when it is a
   maximal unplaced set: the load then never reads the list. *)
let prepare ws ?place piece =
  ws.gen <- ws.gen + 1;
  match place with
  | Some place ->
      if place.(piece.r1) >= 0 then invalid_arg "Separator: designated node not in piece";
      load ws ~set:place ~key:(-1) piece.r1
  | None ->
      stamp ws.mark ws.gen piece.nodes;
      if not (member ws piece.r1) then invalid_arg "Separator: designated node not in piece";
      load ws ~set:ws.mark ~key:ws.gen piece.r1

(* Exclusion bookkeeping: effective size of T(v) once some subtrees have
   been carved out. [exclude] walks the root path adding the carved size. *)
let reset_exclusions ws = ws.exgen <- ws.exgen + 1

let exclude ws u =
  let s = ws.size.(u) in
  let rec up v =
    if ws.exq.(v) = ws.exgen then ws.exval.(v) <- ws.exval.(v) + s
    else begin
      ws.exq.(v) <- ws.exgen;
      ws.exval.(v) <- s
    end;
    if ws.par.(v) >= 0 then up ws.par.(v)
  in
  up u

let eff ws v = ws.size.(v) - if ws.exq.(v) = ws.exgen then ws.exval.(v) else 0

(* [c] is a child of [v] in the rooted piece. Callers pass [v]'s tree
   neighbours inline in parent, left, right order (the order of
   [Bintree.iter_neighbours]): a closure per step would put minor words
   on every node of every descent. *)
let is_child ws v c = c >= 0 && member ws c && ws.par.(c) = v

(* [c] when it is a child of [v] strictly heavier than [best] (effective
   sizes; [best = -1] weighs 0), else [best]: the first heaviest child
   wins ties. *)
let heavier ws v c best =
  if is_child ws v c && eff ws c > (if best < 0 then 0 else eff ws best) then c else best

(* Procedure find1 of the paper: starting at [v], descend into the child
   of maximal (effective) cardinality while the current subtree is
   bigger than 4A/3. Integer form of |T(u)| > 4A/3 is 3|T(u)| > 4A. *)
let rec find1 ws v ~target =
  if 3 * eff ws v <= 4 * target then v
  else begin
    let t = ws.tree in
    let best =
      heavier ws v (Bintree.right_id t v)
        (heavier ws v (Bintree.left_id t v) (heavier ws v (Bintree.parent_id t v) (-1)))
    in
    if best < 0 then v else find1 ws best ~target
  end

(* Push child [c] of [v] when it is non-empty; returns the stack height. *)
let push_child ws v c sp =
  if is_child ws v c && eff ws c > 0 then begin
    ws.stack.(sp) <- c;
    sp + 1
  end
  else sp

(* Collect the nodes of T(u) minus currently excluded subtrees. The
   excluded subtree roots have effective size 0 and are skipped whole. *)
let subtree_nodes ws u =
  let acc = ref [] in
  let sp = ref 0 in
  if eff ws u > 0 then begin
    ws.stack.(0) <- u;
    sp := 1
  end;
  let t = ws.tree in
  while !sp > 0 do
    decr sp;
    let v = ws.stack.(!sp) in
    acc := v :: !acc;
    sp :=
      push_child ws v (Bintree.right_id t v)
        (push_child ws v (Bintree.left_id t v) (push_child ws v (Bintree.parent_id t v) !sp))
  done;
  !acc

(* Mark the ancestors (inclusive) of u; returns the marking generation so
   lca can test membership. *)
let mark_root_path ws u =
  ws.ancgen <- ws.ancgen + 1;
  let rec up v =
    ws.anc.(v) <- ws.ancgen;
    if ws.par.(v) >= 0 then up ws.par.(v)
  in
  up u

let lca ws u v =
  mark_root_path ws u;
  let rec up w = if ws.anc.(w) = ws.ancgen then w else up ws.par.(w) in
  up v

let in_subtree ws ~root v =
  (* v ∈ T(root) iff root lies on v's root path *)
  let rec up w = if w = root then true else if ws.par.(w) >= 0 then up ws.par.(w) else false in
  up v

let uniq ws xs = List.sort_uniq (fun a b -> Int.compare ws.caller_id.(a) ws.caller_id.(b)) xs

type cut = { lay1 : int list; lay2 : int list; carved : int list; swapped : bool }

(* A carve's result: the laid-out sets, and the carved part — side 2 —
   stamped in [anc] so that the rest of the piece, side 1, is the piece
   minus one array read per node, never a filtered copy. *)
let cut ws ~s1 ~s2 ~side2_nodes =
  ws.ancgen <- ws.ancgen + 1;
  stamp ws.anc ws.ancgen side2_nodes;
  { lay1 = uniq ws s1; lay2 = uniq ws s2; carved = side2_nodes; swapped = false }

let swap c = { c with lay1 = c.lay2; lay2 = c.lay1; swapped = not c.swapped }

(* Carving nothing keeps the piece on side 1; moving it all is the swap. *)
let move_all ws piece =
  swap (cut ws ~s1:(piece.r1 :: Option.to_list piece.r2) ~s2:[] ~side2_nodes:[])

let in_carved ws v = ws.anc.(v) = ws.ancgen

(* The lists of the split a cut describes: the carved part in its own
   order, the rest in the piece's. *)
let split_of ws piece c =
  let carved s = List.filter (fun v -> not (List.mem v s)) c.carved in
  let rest s = List.filter (fun v -> not (in_carved ws v || List.mem v s)) piece.nodes in
  if c.swapped then { s1 = c.lay1; t1 = carved c.lay1; s2 = c.lay2; t2 = rest c.lay2 }
  else { s1 = c.lay1; t1 = rest c.lay1; s2 = c.lay2; t2 = carved c.lay2 }

(* ------------------------------------------------------------------ *)
(* Lemma 1                                                             *)
(* ------------------------------------------------------------------ *)

(* Core carve for Lemma 1, assuming the piece is loaded, n > 4A/3. *)
let carve1 ws piece ~target =
  let r1 = piece.r1 in
  let r2 = match piece.r2 with Some r2 when r2 <> r1 -> Some r2 | _ -> None in
  reset_exclusions ws;
  let u = find1 ws r1 ~target in
  if u = r1 then
    (* No descent possible: piece is a single node or all children empty;
       degenerate, move everything. *)
    move_all ws piece
  else begin
    let z = ws.par.(u) in
    let side2 = subtree_nodes ws u in
    match r2 with
    | Some r2 when in_subtree ws ~root:u r2 ->
        cut ws ~s1:[ r1; z ] ~s2:[ u; r2 ] ~side2_nodes:side2
    | Some r2 ->
        let y = lca ws u r2 in
        cut ws ~s1:[ r1; r2; z; y ] ~s2:[ u ] ~side2_nodes:side2
    | None -> cut ws ~s1:[ r1; z ] ~s2:[ u ] ~side2_nodes:side2
  end

(* ------------------------------------------------------------------ *)
(* Lemma 2                                                             *)
(* ------------------------------------------------------------------ *)

(* Two-stage carve: take T(u1) aiming at [target], then correct the error
   with a second find1 — either carving the overshoot back out of T(u1),
   or carving a second subtree next to it. [from_] is the descent start
   (r2 in case 1, x in case 2); [keep] are nodes that must not be swallowed
   (the carve is abandoned rather than including them).
   Returns (s1_extra, s2, side2_nodes). *)
let two_stage_carve ws ~from_ ~target =
  let u1 = find1 ws from_ ~target in
  if u1 = from_ then None
  else begin
    let z1 = ws.par.(u1) in
    let e = eff ws u1 - target in
    if e > 0 then begin
      (* carve the overshoot back out of T(u1) *)
      let u2 = find1 ws u1 ~target:e in
      if u2 = u1 then
        (* cannot correct; accept the coarse carve *)
        Some ([ z1 ], [ u1 ], subtree_nodes ws u1)
      else begin
        let p2 = ws.par.(u2) in
        exclude ws u2;
        let side2 = subtree_nodes ws u1 in
        Some ([ z1; u2 ], [ u1; p2 ], side2)
      end
    end
    else if e < 0 then begin
      (* Add a second subtree next to T(u1). The second descent starts at
         z1 (not at [from_]): this keeps z2 strictly below z1, so every
         component of side 1 touches at most two separator nodes. The
         descent always makes progress: eff(z1) > 4(-e)/3 follows from the
         first descent's invariant |T(z1)| > 4A/3. *)
      let side2a = subtree_nodes ws u1 in
      exclude ws u1;
      let u2 = find1 ws z1 ~target:(-e) in
      if u2 = z1 || eff ws u2 <= 0 then Some ([ z1 ], [ u1 ], side2a)
      else begin
        let z2 = ws.par.(u2) in
        let side2b = subtree_nodes ws u2 in
        Some ([ z1; z2 ], [ u1; u2 ], side2a @ side2b)
      end
    end
    else Some ([ z1 ], [ u1 ], subtree_nodes ws u1)
  end

let carve2 ws piece ~target =
  let r1 = piece.r1 in
  let r2 = match piece.r2 with Some r2 when r2 <> r1 -> r2 | _ -> r1 in
  reset_exclusions ws;
  (* procedure find2: walk from r1 towards r2 while |T(v)| > 4A/3. Sizes
     fall strictly along that path, so the walk stops at its highest node
     with |T(v)| <= 4A/3, or at r2 when there is none: climb to that node
     from r2 instead. *)
  let rec climb v =
    if v <> r1 && 3 * ws.size.(ws.par.(v)) <= 4 * target then climb ws.par.(v) else v
  in
  let v = climb r2 in
  if v = r2 && 3 * ws.size.(v) > 4 * target then begin
    (* Case 1: both designated nodes stay in S1; carve inside T(r2). *)
    match two_stage_carve ws ~from_:r2 ~target with
    | Some (s1x, s2, side2) ->
        cut ws ~s1:(r1 :: r2 :: s1x) ~s2 ~side2_nodes:side2
    | None -> move_all ws piece
  end
  else if ws.size.(v) < target then begin
    (* Case 2: T(v) (containing r2) moves entirely; top up from T(x,v). *)
    let x = ws.par.(v) in
    if x < 0 then move_all ws piece
    else begin
      let a2 = target - ws.size.(v) in
      let side2v = subtree_nodes ws v in
      exclude ws v;
      match two_stage_carve ws ~from_:x ~target:a2 with
      | Some (s1x, s2x, side2c) ->
          cut ws ~s1:(r1 :: x :: s1x) ~s2:(r2 :: v :: s2x)
            ~side2_nodes:(side2v @ side2c)
      | None ->
          cut ws ~s1:[ r1; x ] ~s2:[ r2; v ] ~side2_nodes:side2v
    end
  end
  else begin
    (* Case 3: A <= |T(v)| <= 4A/3. Carve |T(v)| - A nodes out of T(v)
       with Lemma 1 (designated v and r2); the carved part stays on
       side 1, the rest of T(v) moves. *)
    let x = ws.par.(v) in
    if x < 0 then move_all ws piece
    else begin
      let a' = ws.size.(v) - target in
      if a' = 0 then
        cut ws ~s1:[ r1; x ] ~s2:[ r2; v ] ~side2_nodes:(subtree_nodes ws v)
      else begin
        let u' = find1 ws v ~target:a' in
        if u' = v then
          cut ws ~s1:[ r1; x ] ~s2:[ r2; v ]
            ~side2_nodes:(subtree_nodes ws v)
        else begin
          let z' = ws.par.(u') in
          (* side 2 = T(v) minus T(u') *)
          exclude ws u';
          let side2 = subtree_nodes ws v in
          if in_subtree ws ~root:u' r2 then
            (* r2 is inside the carved part: it stays on side 1 *)
            cut ws ~s1:(r1 :: x :: [ u'; r2 ]) ~s2:[ v; z' ]
              ~side2_nodes:side2
          else begin
            let y' = lca ws u' r2 in
            cut ws ~s1:[ r1; x; u' ] ~s2:[ v; z'; r2; y' ]
              ~side2_nodes:side2
          end
        end
      end
    end
  end

(* Both lemmas: side 2 aims at [target]. Under the carves'
   precondition ([3n > 4 target]) carve directly; past it, carve the
   complement and swap sides; from [target >= n] on, move the piece. *)
let lemma ~name carve ws ?place piece ~target =
  if target <= 0 then invalid_arg (name ^ ": target must be positive");
  let n = prepare ws ?place piece in
  (match piece.r2 with
  | Some r2 when not (member ws r2) -> invalid_arg (name ^ ": r2 not in piece")
  | _ -> ());
  if target >= n then move_all ws piece
  else if 3 * n > 4 * target then carve ws piece ~target
  else swap (carve ws piece ~target:(n - target))

let cut1 ws ~place piece ~target = lemma ~name:"Separator.lemma1" carve1 ws ~place piece ~target
let cut2 ws ~place piece ~target = lemma ~name:"Separator.lemma2" carve2 ws ~place piece ~target

let lemma1 ws piece ~target =
  split_of ws piece (lemma ~name:"Separator.lemma1" carve1 ws piece ~target)

let lemma2 ws piece ~target =
  split_of ws piece (lemma ~name:"Separator.lemma2" carve2 ws piece ~target)

(* ------------------------------------------------------------------ *)
(* Components and verification                                         *)
(* ------------------------------------------------------------------ *)

type boundary = { bnode : int; anchor : int }

type component = {
  members : int list;
  count : int;
  bounds : boundary list;
  start : int;
  top : int;
}

(* Push [w] when it is in the walked set — the nodes [set] maps to
   [key] — and not yet visited; returns the new stack height. *)
let visit ws (set : int array) key w sp =
  if w >= 0 && set.(w) = key && ws.vis.(w) <> ws.visgen then begin
    ws.vis.(w) <- ws.visgen;
    ws.stack.(sp) <- w;
    sp + 1
  end
  else sp

(* Prepend [u]'s boundary towards neighbour [x] when [x] is placed. *)
let bound place u x acc =
  if x >= 0 && place.(x) >= 0 then { bnode = u; anchor = place.(x) } :: acc else acc

(* One component of the walked set: DFS from [v], neighbours pushed
   parent, left, right — the node order of every re-formed piece, and so
   every placement, depends on it. Members come out last-popped first.
   Boundaries (when [bounds]) are prepended right, left, parent per node
   and reversed once at the end: popped order, right, left, parent within
   a node — what a scan of the finished member list would give. The top
   is the member whose parent is outside the set. No closure captures
   the refs, so the walk allocates only its output. *)
let grow ws ~(set : int array) ~key ~place ~bounds v =
  ws.vis.(v) <- ws.visgen;
  ws.stack.(0) <- v;
  let t = ws.tree in
  let sp = ref 1 and members = ref [] and count = ref 0 and acc = ref [] and top = ref v in
  while !sp > 0 do
    decr sp;
    let u = ws.stack.(!sp) in
    members := u :: !members;
    incr count;
    let p = Bintree.parent_id t u and l = Bintree.left_id t u and r = Bintree.right_id t u in
    if p < 0 || set.(p) <> key then top := u;
    sp := visit ws set key r (visit ws set key l (visit ws set key p !sp));
    if bounds then acc := bound place u p (bound place u l (bound place u r !acc))
  done;
  let bounds = match !acc with ([] | [ _ ]) as b -> b | b -> List.rev b in
  { members = !members; count = !count; bounds; start = v; top = !top }

(* Components of the walked set in reverse order of discovery; a
   component is discovered at the first occurrence of one of its nodes
   in [nodes], unless that node's anc stamp is [skip] (every stamp is a
   positive generation, so -1 skips nothing). *)
let walk ws ~set ~key ~skip ~place ~bounds nodes =
  ws.visgen <- ws.visgen + 1;
  let rec scan acc = function
    | [] -> acc
    | v :: rest ->
        if set.(v) = key && ws.vis.(v) <> ws.visgen && ws.anc.(v) <> skip then
          scan (grow ws ~set ~key ~place ~bounds v :: acc) rest
        else scan acc rest
  in
  scan [] nodes

(* Removed nodes are stamped out of the set, so skipping them gives
   exactly the order a filtered copy of [nodes] would. *)
let components ws ~nodes ~removed =
  ws.gen <- ws.gen + 1;
  stamp ws.mark ws.gen nodes;
  stamp ws.mark (ws.gen - 1) removed;
  List.map
    (fun c -> c.members)
    (walk ws ~set:ws.mark ~key:ws.gen ~skip:(-1) ~place:[||] ~bounds:false nodes)

let unplaced_components ws ~place ?outside nodes =
  let skip = match outside with Some _ -> ws.ancgen | None -> -1 in
  walk ws ~set:place ~key:(-1) ~skip ~place ~bounds:true nodes

(* The unplaced nodes are the ones [place] maps to -1. *)
let component_at ws ~place v =
  ws.visgen <- ws.visgen + 1;
  grow ws ~set:place ~key:(-1) ~place ~bounds:true v

let placed place w = w >= 0 && place.(w) >= 0

let first_bound ws ~place v =
  let t = ws.tree in
  ws.visgen <- ws.visgen + 1;
  ws.vis.(v) <- ws.visgen;
  ws.stack.(0) <- v;
  let sp = ref 1 and found = ref (-1) and walked = ref 0 in
  while !found < 0 && !sp > 0 do
    decr sp;
    let u = ws.stack.(!sp) in
    incr walked;
    let p = Bintree.parent_id t u and l = Bintree.left_id t u and r = Bintree.right_id t u in
    if placed place p || placed place l || placed place r then found := u
    else sp := visit ws place (-1) r (visit ws place (-1) l (visit ws place (-1) p !sp))
  done;
  (!found, !walked)

let verify_split ws piece sp =
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  (* partition: every split node is a distinct piece node, and the counts
     match — multiset equality without sorting *)
  ws.exgen <- ws.exgen + 1;
  let piece_n = ref 0 in
  List.iter
    (fun v ->
      ws.exq.(v) <- ws.exgen;
      ws.exval.(v) <- 0;
      incr piece_n)
    piece.nodes;
  let seen_n = ref 0 and dup = ref false in
  let scan = List.iter (fun v ->
      if v >= 0 && v < Array.length ws.exq && ws.exq.(v) = ws.exgen && ws.exval.(v) = 0 then begin
        ws.exval.(v) <- 1;
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
      (* side and laid-set lookup, stamped into exq/exval: 1-4 encode
         (side, laid) as t1 s1 t2 s2 *)
      ws.exgen <- ws.exgen + 1;
      let put code = List.iter (fun v ->
          ws.exq.(v) <- ws.exgen;
          ws.exval.(v) <- code)
      in
      put 1 sp.t1;
      put 2 sp.s1;
      put 3 sp.t2;
      put 4 sp.s2;
      let side_of v = if ws.exval.(v) <= 2 then 1 else 2 in
      let laid_of v = ws.exval.(v) land 1 = 0 in
      let bad = ref None in
      List.iter
        (fun v ->
          let sv = side_of v and lv = laid_of v in
          Bintree.iter_neighbours ws.tree v (fun w ->
              if ws.exq.(w) = ws.exgen then begin
                let sw = side_of w and lw = laid_of w in
                if sv <> sw && not (lv && lw) then
                  bad := Some (Printf.sprintf "cut edge %d-%d not between s1 and s2" v w)
              end))
        piece.nodes;
      match !bad with
      | Some msg -> Error msg
      | None ->
          (* collinearity of each side; [components] only touches the
             mark/vis stamps, so the side encoding above survives it *)
          let collinear t_side s_side =
            let comps = components ws ~nodes:(t_side @ s_side) ~removed:s_side in
            List.for_all
              (fun comp ->
                let edges = ref 0 in
                List.iter
                  (fun v ->
                    Bintree.iter_neighbours ws.tree v (fun w ->
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
