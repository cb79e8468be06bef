type node = int

type t = {
  root : node;
  parent : int array;
  left : int array;
  right : int array;
}

module Builder = struct
  type t = {
    mutable parent : int array;
    mutable left : int array;
    mutable right : int array;
    mutable size : int;
    mutable has_root : bool;
  }

  let create ?(capacity = 16) () =
    let capacity = max capacity 1 in
    {
      parent = Array.make capacity (-1);
      left = Array.make capacity (-1);
      right = Array.make capacity (-1);
      size = 0;
      has_root = false;
    }

  (* Grow to [max (2*cap) needed] in one blit, so a reserve for n nodes
     costs one copy instead of log n doublings. *)
  let ensure b needed =
    let cap = Array.length b.parent in
    if needed > cap then begin
      let cap' = max (2 * cap) needed in
      let extend a =
        let a' = Array.make cap' (-1) in
        Array.blit a 0 a' 0 cap;
        a'
      in
      b.parent <- extend b.parent;
      b.left <- extend b.left;
      b.right <- extend b.right
    end

  let grow b = ensure b (b.size + 1)

  let reserve b n = if n > 0 then ensure b (b.size + n)

  let fresh b =
    grow b;
    let v = b.size in
    b.size <- v + 1;
    v

  let add_root b =
    if b.has_root then invalid_arg "Bintree.Builder.add_root: root exists";
    b.has_root <- true;
    fresh b

  let add_left b p =
    if p < 0 || p >= b.size then invalid_arg "Bintree.Builder.add_left: bad parent";
    if b.left.(p) >= 0 then invalid_arg "Bintree.Builder.add_left: occupied";
    let v = fresh b in
    b.left.(p) <- v;
    b.parent.(v) <- p;
    v

  let add_right b p =
    if p < 0 || p >= b.size then invalid_arg "Bintree.Builder.add_right: bad parent";
    if b.right.(p) >= 0 then invalid_arg "Bintree.Builder.add_right: occupied";
    let v = fresh b in
    b.right.(p) <- v;
    b.parent.(v) <- p;
    v

  let size b = b.size

  let finish b =
    if not b.has_root then invalid_arg "Bintree.Builder.finish: empty";
    {
      root = 0;
      parent = Array.sub b.parent 0 b.size;
      left = Array.sub b.left 0 b.size;
      right = Array.sub b.right 0 b.size;
    }
end

let n t = Array.length t.parent
let root t = t.root

let opt v = if v < 0 then None else Some v

let parent t v = opt t.parent.(v)
let left t v = opt t.left.(v)
let right t v = opt t.right.(v)
let parent_id t v = t.parent.(v)
let left_id t v = t.left.(v)
let right_id t v = t.right.(v)

let children t v =
  match (opt t.left.(v), opt t.right.(v)) with
  | None, None -> []
  | Some a, None | None, Some a -> [ a ]
  | Some a, Some b -> [ a; b ]

let iter_neighbours t v f =
  if t.parent.(v) >= 0 then f t.parent.(v);
  if t.left.(v) >= 0 then f t.left.(v);
  if t.right.(v) >= 0 then f t.right.(v)

let neighbours t v =
  let acc = ref [] in
  iter_neighbours t v (fun w -> acc := w :: !acc);
  List.rev !acc

let degree t v = List.length (neighbours t v)

let edges t =
  let acc = ref [] in
  for v = 0 to n t - 1 do
    if t.left.(v) >= 0 then acc := (v, t.left.(v)) :: !acc;
    if t.right.(v) >= 0 then acc := (v, t.right.(v)) :: !acc
  done;
  !acc

let is_leaf t v = t.left.(v) < 0 && t.right.(v) < 0

(* Iterative preorder: avoids stack overflow on path-shaped trees. *)
let preorder t =
  let acc = ref [] in
  let stack = Stack.create () in
  Stack.push t.root stack;
  while not (Stack.is_empty stack) do
    let v = Stack.pop stack in
    acc := v :: !acc;
    (* push right first so left is visited first *)
    if t.right.(v) >= 0 then Stack.push t.right.(v) stack;
    if t.left.(v) >= 0 then Stack.push t.left.(v) stack
  done;
  List.rev !acc

(* Postorder = reverse of the (root, right, left) preorder. *)
let postorder t =
  let acc = ref [] in
  let stack = Stack.create () in
  Stack.push t.root stack;
  while not (Stack.is_empty stack) do
    let v = Stack.pop stack in
    acc := v :: !acc;
    if t.left.(v) >= 0 then Stack.push t.left.(v) stack;
    if t.right.(v) >= 0 then Stack.push t.right.(v) stack
  done;
  !acc

let fold_preorder t ~init ~f = List.fold_left f init (preorder t)

let depth t =
  let d = Array.make (n t) 0 in
  List.iter (fun v -> if v <> t.root then d.(v) <- d.(t.parent.(v)) + 1) (preorder t);
  d

let subtree_sizes t =
  let s = Array.make (n t) 1 in
  List.iter (fun v -> if v <> t.root then s.(t.parent.(v)) <- s.(t.parent.(v)) + s.(v)) (postorder t);
  s

let height t =
  let d = depth t in
  Array.fold_left max 0 d

type stats = { size : int; height : int; leaves : int; max_degree : int }

let stats t =
  let leaves = ref 0 and maxd = ref 0 in
  for v = 0 to n t - 1 do
    if is_leaf t v then incr leaves;
    let d = degree t v in
    if d > !maxd then maxd := d
  done;
  { size = n t; height = height t; leaves = !leaves; max_degree = !maxd }

(* The number of nodes a walk from the root reaches, in mirror preorder
   — each node, then its right subtree, then its left subtree — walking
   with the parent pointers: down to the right child, else the left one,
   else up until a node is left from its right child and has a left one.
   The walk checks each edge it descends and returns -1 at a child out
   of range or naming another parent, or at a node with one child twice;
   so it enters every node at most once, from its parent, and needs no
   stack and no visited set. *)
let reach t =
  let size = n t in
  let rec down v count =
    let r = t.right.(v) and l = t.left.(v) in
    if r >= 0 && r = l then -1
    else if r >= 0 then edge v r count
    else if l >= 0 then edge v l count
    else climb v count
  and edge v c count = if c < size && t.parent.(c) = v then down c (count + 1) else -1
  and climb c count =
    let p = t.parent.(c) in
    if p < 0 then count
    else
      let l = t.left.(p) in
      if l >= 0 && l <> c then edge p l count else climb p count
  in
  down t.root 1

(* The last defect found in node order, as the message to report. *)
let local_defect t =
  let size = n t in
  let bad = ref None in
  for v = 0 to size - 1 do
    let check_child c label =
      if c >= size then bad := Some (Printf.sprintf "%s child of %d out of range" label v)
      else if c >= 0 && t.parent.(c) <> v then
        bad := Some (Printf.sprintf "%s child of %d has wrong parent" label v)
    in
    check_child t.left.(v) "left";
    check_child t.right.(v) "right";
    if t.left.(v) >= 0 && t.left.(v) = t.right.(v) then
      bad := Some (Printf.sprintf "left and right child of %d coincide" v);
    if v <> t.root && t.parent.(v) < 0 then bad := Some (Printf.sprintf "node %d has no parent" v);
    if v <> t.root && t.parent.(v) >= 0 then begin
      let p = t.parent.(v) in
      if p >= size then bad := Some (Printf.sprintf "parent of %d out of range" v)
      else if t.left.(p) <> v && t.right.(p) <> v then
        bad := Some (Printf.sprintf "node %d not a child of its parent" v)
    end
  done;
  !bad

(* A walk that reaches every node proves every node-local check too:
   each node was entered from the parent it names, as one of that
   parent's children. Only a failed walk pays for the node-by-node scan
   that names the defect, with the messages' old precedence. *)
let check t =
  let size = n t in
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  if size = 0 then fail "empty tree"
  else if t.root < 0 || t.root >= size then fail "root out of range"
  else if t.parent.(t.root) >= 0 then fail "root has a parent"
  else
    let count = reach t in
    if count = size then Ok ()
    else
      match local_defect t with
      | Some msg -> Error msg
      | None -> fail "tree not connected (preorder reached %d of %d)" count size

type mirror = { copy : t; to_copy : int array; to_caller : int array; last : int array }

(* [reach]'s walk on a valid tree, carrying each node's copy id [k]: a
   child gets the next free id, and a climb reads its parent's id back
   from the copy. Climbing out of a node ends its subtree, whose last id
   is then the one just given out. *)
let mirror_copy t =
  let size = n t in
  let to_copy = Array.make size 0 and to_caller = Array.make size 0 and last = Array.make size 0 in
  let parent = Array.make size (-1) and left = Array.make size (-1) and right = Array.make size (-1) in
  let rec down v k =
    to_copy.(v) <- k;
    to_caller.(k) <- v;
    let r = t.right.(v) and l = t.left.(v) in
    if r >= 0 then begin
      right.(k) <- k + 1;
      parent.(k + 1) <- k;
      down r (k + 1)
    end
    else if l >= 0 then begin
      left.(k) <- k + 1;
      parent.(k + 1) <- k;
      down l (k + 1)
    end
    else climb v k (k + 1)
  and climb c kc next =
    last.(kc) <- next - 1;
    let p = t.parent.(c) in
    if p >= 0 then begin
      let kp = parent.(kc) and l = t.left.(p) in
      if l >= 0 && l <> c then begin
        left.(kp) <- next;
        parent.(next) <- kp;
        down l next
      end
      else climb p kp next
    end
  in
  down t.root 0;
  { copy = { root = 0; parent; left; right }; to_copy; to_caller; last }

let of_arrays ~root ~parent ~left ~right =
  let t = { root; parent; left; right } in
  if Array.length parent <> Array.length left || Array.length left <> Array.length right then
    invalid_arg "Bintree.of_arrays: array lengths differ";
  match check t with Ok () -> t | Error msg -> invalid_arg ("Bintree.of_arrays: " ^ msg)

let rec pp_node t fmt v =
  match (opt t.left.(v), opt t.right.(v)) with
  | None, None -> Format.fprintf fmt "%d" v
  | l, r ->
      let pp_opt fmt = function
        | None -> Format.fprintf fmt "_"
        | Some c -> pp_node t fmt c
      in
      Format.fprintf fmt "%d(%a,%a)" v pp_opt l pp_opt r

let pp fmt t = pp_node t fmt t.root
