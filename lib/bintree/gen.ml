open Xt_prelude

let positive n = if n <= 0 then invalid_arg "Gen: n must be positive"

let complete n =
  positive n;
  let parent = Array.make n (-1) and left = Array.make n (-1) and right = Array.make n (-1) in
  for v = 0 to n - 1 do
    let l = (2 * v) + 1 and r = (2 * v) + 2 in
    if l < n then begin
      left.(v) <- l;
      parent.(l) <- v
    end;
    if r < n then begin
      right.(v) <- r;
      parent.(r) <- v
    end
  done;
  Bintree.of_arrays ~root:0 ~parent ~left ~right

let path n =
  positive n;
  let b = Bintree.Builder.create ~capacity:n () in
  let v = ref (Bintree.Builder.add_root b) in
  for _ = 2 to n do
    v := Bintree.Builder.add_left b !v
  done;
  Bintree.Builder.finish b

let zigzag n =
  positive n;
  let b = Bintree.Builder.create ~capacity:n () in
  let v = ref (Bintree.Builder.add_root b) in
  for i = 2 to n do
    v := if i mod 2 = 0 then Bintree.Builder.add_left b !v else Bintree.Builder.add_right b !v
  done;
  Bintree.Builder.finish b

let caterpillar n =
  positive n;
  let b = Bintree.Builder.create ~capacity:n () in
  let spine = ref (Bintree.Builder.add_root b) in
  let parity = ref true in
  while Bintree.Builder.size b < n do
    (* a leg on every other spine node, spine continues to the left *)
    if !parity && Bintree.Builder.size b + 1 < n then ignore (Bintree.Builder.add_right b !spine);
    parity := not !parity;
    if Bintree.Builder.size b < n then spine := Bintree.Builder.add_left b !spine
  done;
  Bintree.Builder.finish b

(* Attach leaves breadth-first under every free child slot until the tree
   has exactly [n] nodes. *)
let pad_to b n =
  let queue = Queue.create () in
  for v = 0 to Bintree.Builder.size b - 1 do
    Queue.add v queue
  done;
  while Bintree.Builder.size b < n do
    let v = Queue.pop queue in
    if Bintree.Builder.size b < n then begin
      (try Queue.add (Bintree.Builder.add_left b v) queue with Invalid_argument _ -> ());
      if Bintree.Builder.size b < n then
        try Queue.add (Bintree.Builder.add_right b v) queue with Invalid_argument _ -> ()
    end
  done

let broom n =
  positive n;
  let b = Bintree.Builder.create ~capacity:n () in
  let handle = max 1 (n / 2) in
  let v = ref (Bintree.Builder.add_root b) in
  for _ = 2 to handle do
    v := Bintree.Builder.add_left b !v
  done;
  (* bushy head: breadth-first fill below the handle end *)
  let queue = Queue.create () in
  Queue.add !v queue;
  while Bintree.Builder.size b < n do
    let u = Queue.pop queue in
    if Bintree.Builder.size b < n then Queue.add (Bintree.Builder.add_left b u) queue;
    if Bintree.Builder.size b < n then Queue.add (Bintree.Builder.add_right b u) queue
  done;
  Bintree.Builder.finish b

let fibonacci n =
  positive n;
  (* Fibonacci-tree sizes: s(0) = 1, s(1) = 2, s(h) = s(h-1) + s(h-2) + 1 *)
  let rec sizes acc a b = if b > n then List.rev acc else sizes (b :: acc) b (a + b + 1) in
  let table = Array.of_list (sizes [ 1 ] 1 2) in
  let h = Array.length table - 1 in
  let b = Bintree.Builder.create ~capacity:n () in
  let root = Bintree.Builder.add_root b in
  let rec build v h =
    if h >= 1 then begin
      let l = Bintree.Builder.add_left b v in
      build l (h - 1);
      if h >= 2 then begin
        let r = Bintree.Builder.add_right b v in
        build r (h - 2)
      end
    end
  in
  build root h;
  pad_to b n;
  Bintree.Builder.finish b

let random_bst rng n =
  positive n;
  let keys = Array.init n Fun.id in
  Rng.shuffle rng keys;
  let parent = Array.make n (-1) and left = Array.make n (-1) and right = Array.make n (-1) in
  let key = Array.make n 0 in
  key.(0) <- keys.(0);
  for i = 1 to n - 1 do
    let k = keys.(i) in
    let rec descend v =
      if k < key.(v) then
        if left.(v) < 0 then begin
          left.(v) <- i;
          parent.(i) <- v
        end
        else descend left.(v)
      else if right.(v) < 0 then begin
        right.(v) <- i;
        parent.(i) <- v
      end
      else descend right.(v)
    in
    key.(i) <- k;
    descend 0
  done;
  Bintree.of_arrays ~root:0 ~parent ~left ~right

(* Rémy's algorithm: a uniform full binary tree with [n] internal nodes,
   then delete the n+1 external leaves; the internal nodes form a uniform
   (Catalan) binary tree on n nodes. *)
let uniform rng n =
  positive n;
  let total = (2 * n) + 1 in
  let parent = Array.make total (-1) in
  let left = Array.make total (-1) in
  let right = Array.make total (-1) in
  (* node 0 is the initial lone leaf *)
  let count = ref 1 in
  let root = ref 0 in
  for _ = 1 to n do
    let x = Rng.int rng !count in
    let y = !count and leaf = !count + 1 in
    count := !count + 2;
    let p = parent.(x) in
    parent.(y) <- p;
    if p >= 0 then begin
      if left.(p) = x then left.(p) <- y else right.(p) <- y
    end
    else root := y;
    if Rng.bool rng then begin
      left.(y) <- x;
      right.(y) <- leaf
    end
    else begin
      left.(y) <- leaf;
      right.(y) <- x
    end;
    parent.(x) <- y;
    parent.(leaf) <- y
  done;
  (* strip external leaves: internal nodes are those with children *)
  let internal v = left.(v) >= 0 in
  let id = Array.make total (-1) in
  let next = ref 0 in
  let visit = Queue.create () in
  Queue.add !root visit;
  while not (Queue.is_empty visit) do
    let v = Queue.pop visit in
    if internal v then begin
      id.(v) <- !next;
      incr next;
      Queue.add left.(v) visit;
      Queue.add right.(v) visit
    end
  done;
  let parent' = Array.make n (-1) and left' = Array.make n (-1) and right' = Array.make n (-1) in
  for v = 0 to total - 1 do
    if internal v then begin
      let i = id.(v) in
      if parent.(v) >= 0 then parent'.(i) <- id.(parent.(v));
      if internal left.(v) then left'.(i) <- id.(left.(v));
      if internal right.(v) then right'.(i) <- id.(right.(v))
    end
  done;
  Bintree.of_arrays ~root:0 ~parent:parent' ~left:left' ~right:right'

type slot = { node : int; side : bool } (* true = left *)

let grow_with pick rng n =
  positive n;
  let b = Bintree.Builder.create ~capacity:n () in
  let root = Bintree.Builder.add_root b in
  let slots = ref [| { node = root; side = true }; { node = root; side = false } |] in
  let nslots = ref 2 in
  let push s =
    if !nslots >= Array.length !slots then begin
      let bigger = Array.make (2 * !nslots) s in
      Array.blit !slots 0 bigger 0 !nslots;
      slots := bigger
    end;
    !slots.(!nslots) <- s;
    incr nslots
  in
  while Bintree.Builder.size b < n do
    let i = pick rng !nslots in
    let s = !slots.(i) in
    !slots.(i) <- !slots.(!nslots - 1);
    decr nslots;
    let v = if s.side then Bintree.Builder.add_left b s.node else Bintree.Builder.add_right b s.node in
    push { node = v; side = true };
    push { node = v; side = false }
  done;
  Bintree.Builder.finish b

let random_grow rng n = grow_with (fun rng k -> Rng.int rng k) rng n

let skewed_grow rng ?(bias = 0.8) n =
  (* Newly created slots sit at the end of the array, so "last" = deepest. *)
  let pick rng k = if Rng.float rng 1.0 < bias then k - 1 else Rng.int rng k in
  grow_with pick rng n

(* Divide-and-conquer arena fill. A subtree occupies the contiguous index
   range [lo, lo+n) with its root at [lo]; the left-subtree size is drawn
   from a hash of (master seed, lo, n), so every range's shape is a pure
   function of the master seed. Uniform split sizes give the random-BST
   shape distribution, so the expected depth is O(log n) and the
   recursion stack stays shallow even at a million nodes. *)
let random_split rng n =
  positive n;
  let master = Rng.int rng 0x3FFFFFFF in
  let parent = Array.make n (-1) and left = Array.make n (-1) and right = Array.make n (-1) in
  let rec fill lo n =
    if n > 0 then begin
      let k = if n = 1 then 0 else Hashtbl.hash (master, lo, n) mod n in
      (* left subtree: k nodes at [lo+1, lo+1+k); right: the rest *)
      if k > 0 then begin
        left.(lo) <- lo + 1;
        parent.(lo + 1) <- lo
      end;
      if n - 1 - k > 0 then begin
        let r = lo + 1 + k in
        right.(lo) <- r;
        parent.(r) <- lo
      end;
      fill (lo + 1) k;
      fill (lo + 1 + k) (n - 1 - k)
    end
  in
  fill 0 n;
  Bintree.of_arrays ~root:0 ~parent ~left ~right

type family = { name : string; generate : Xt_prelude.Rng.t -> int -> Bintree.t }

let families =
  [
    { name = "complete"; generate = (fun _ n -> complete n) };
    { name = "path"; generate = (fun _ n -> path n) };
    { name = "zigzag"; generate = (fun _ n -> zigzag n) };
    { name = "caterpillar"; generate = (fun _ n -> caterpillar n) };
    { name = "broom"; generate = (fun _ n -> broom n) };
    { name = "fibonacci"; generate = (fun _ n -> fibonacci n) };
    { name = "random-bst"; generate = random_bst };
    { name = "uniform"; generate = uniform };
    { name = "random-grow"; generate = random_grow };
    { name = "skewed"; generate = (fun rng n -> skewed_grow rng n) };
    { name = "random-split"; generate = random_split };
  ]

let family name = List.find (fun f -> f.name = name) families
