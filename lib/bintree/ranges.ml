type t = { tree : Bintree.t; last : int array; jump : int array }

(* Myers' skew-binary jump pointers: a node jumps as far as its parent's
   jump jumps twice when those two jumps cover equal depths, else to its
   parent. The depths are needed only while building. *)
let make tree ~last =
  let n = Bintree.n tree in
  let jump = Array.make n 0 and depth = Array.make n 0 in
  for v = 1 to n - 1 do
    let p = Bintree.parent_id tree v in
    depth.(v) <- depth.(p) + 1;
    let j = jump.(p) in
    jump.(v) <- (if depth.(p) - depth.(j) = depth.(j) - depth.(jump.(j)) then jump.(j) else p)
  done;
  { tree; last; jump }

let of_mirror (m : Bintree.mirror) = make m.copy ~last:m.last
let plain tree = { tree; last = [||]; jump = [||] }
let has_ranges r = Array.length r.last > 0
let free place v = v >= 0 && place.(v) < 0
let above r a b = a <= b && b <= r.last.(a)

let toward r a b =
  let l = Bintree.left_id r.tree a in
  if l >= 0 && above r l b then l else Bintree.right_id r.tree a

(* The first ancestor of [s] whose range holds [v]: a jump is taken
   whenever it still falls short, so the search is logarithmic. The
   root's range holds every node. *)
let rec meet r s v =
  if above r s v then s
  else
    let j = r.jump.(s) in
    if above r j v then meet r (Bintree.parent_id r.tree s) v else meet r j v

(* Only two nodes off the path from [s] up, in disjoint ranges, and
   outside [s]'s own, need their meeting points: every other pair is
   decided by ancestry. *)
let before r ~s a b =
  if above r a b then not (above r a s) || a = s || not (above r (toward r a s) b)
  else if above r b a then above r b s && b <> s && above r (toward r b s) a
  else
    let sa = above r s a and sb = above r s b in
    if sa || sb then sa && ((not sb) || a < b)
    else if above r a s then true
    else if above r b s then false
    else
      let ma = meet r s a and mb = meet r s b in
      ma > mb || (ma = mb && a < b)

let in_rooted r ~root a v =
  a = root || if above r a root then not (above r (toward r a root) v) else above r a v

(* The placed child of a hole-list node whose range holds [k], among
   those below [lo]; -1 when there is none. *)
let rec cut_root r place ~lo k = function
  | [] -> -1
  | b :: rest ->
      let l = Bintree.left_id r.tree b and c = Bintree.right_id r.tree b in
      if l > lo && place.(l) >= 0 && above r l k then l
      else if c > lo && place.(c) >= 0 && above r c k then c
      else cut_root r place ~lo k rest

(* Ids run in mirror preorder, so the last node of a range outside the
   cuts is found by stepping back over each cut that holds the candidate. *)
let rec last_index r place holes ~lo k =
  let c = cut_root r place ~lo k holes in
  if c < 0 then k else last_index r place holes ~lo (c - 1)

let last_below r ~place holes w = last_index r place holes ~lo:w r.last.(w)

let last_from_top r ~place holes t c =
  let l = Bintree.left_id r.tree t in
  let other = if c = l then Bintree.right_id r.tree t else l in
  if free place other then last_below r ~place holes other else t

let last_popped r ~place holes ~s t =
  if s = t then last_below r ~place holes t else last_from_top r ~place holes t (toward r t s)
