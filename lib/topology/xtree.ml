open Xt_prelude

type vertex = int

type t = { height : int; graph : Graph.t }

let id ~level ~index =
  if level < 0 || level > 24 then invalid_arg "Xtree.id: bad level";
  if index < 0 || index >= Bits.pow2 level then invalid_arg "Xtree.id: bad index";
  Bits.pow2 level - 1 + index

let level v =
  if v < 0 then invalid_arg "Xtree.level";
  Bits.ilog2 (v + 1)

let index v = v + 1 - Bits.pow2 (level v)

let root = 0

let parent v = if v = 0 then None else Some ((v - 1) / 2)

let child v b =
  if b <> 0 && b <> 1 then invalid_arg "Xtree.child";
  (2 * v) + 1 + b

let successor v =
  let l = level v in
  if index v = Bits.pow2 l - 1 then None else Some (v + 1)

let predecessor v = if index v = 0 then None else Some (v - 1)

let is_ancestor a v =
  let la = level a and lv = level v in
  la <= lv && index v lsr (lv - la) = index a

let to_string v =
  let l = level v in
  if l = 0 then "e" else Bits.string_of_bits ~width:l (index v)

let of_string s =
  if s = "" || s = "e" then root
  else begin
    let l = String.length s in
    if l > 24 then invalid_arg "Xtree.of_string: too long";
    let k = ref 0 in
    String.iter
      (fun c ->
        match c with
        | '0' -> k := 2 * !k
        | '1' -> k := (2 * !k) + 1
        | _ -> invalid_arg "Xtree.of_string: non-binary character")
      s;
    id ~level:l ~index:!k
  end

let order_of_height r = Bits.pow2 (r + 1) - 1

let build_graph r =
  let n = order_of_height r in
  let edges = ref [] in
  for v = 0 to n - 1 do
    let l = level v in
    if l < r then begin
      edges := (v, child v 0) :: (v, child v 1) :: !edges
    end;
    match successor v with
    | Some s -> edges := (v, s) :: !edges
    | None -> ()
  done;
  Graph.of_edges ~n !edges

let create ~height =
  if height < 0 || height > 24 then invalid_arg "Xtree.create";
  { height; graph = build_graph height }

let height t = t.height
let order t = Graph.n t.graph
let graph t = t.graph

let vertices_at_level t l =
  if l < 0 || l > t.height then invalid_arg "Xtree.vertices_at_level";
  List.init (Bits.pow2 l) (fun k -> id ~level:l ~index:k)

let leaves t = vertices_at_level t t.height

let mem t v = v >= 0 && v < order t

(* Top-level, with accumulators in place of refs and options, so no
   closure or box is allocated per query (a local [let rec] capturing the
   indices would cost ~7 minor words per call): every embedding metric
   issues millions of these, and a [Gc.minor_words] test keeps them
   allocation-free. *)
let rec analytic_scan top la ka lb kb l best =
  if l > top then best
  else begin
    let gap = abs ((ka lsr (la - l)) - (kb lsr (lb - l))) in
    let cost = la - l + (lb - l) + gap in
    analytic_scan top la ka lb kb (l + 1) (if cost < best then cost else best)
  end

let analytic_distance a b =
  let la = level a and ka = index a in
  let lb = level b and kb = index b in
  analytic_scan (min la lb) la ka lb kb 0 max_int

let distance t u v =
  if not (mem t u && mem t v) then invalid_arg "Xtree.distance";
  analytic_distance u v

(* N(a), Figure 2: horizontal displacement by at most 3 on a's own level,
   or one/two downward steps followed by horizontal displacement by at most
   2. Descendants one level down span indices [2k, 2k+1]; two levels down
   [4k, 4k+3]. *)
let neighbourhood t a =
  if not (mem t a) then invalid_arg "Xtree.neighbourhood";
  let l = level a and k = index a in
  let acc = ref [] in
  let add_range lvl lo hi =
    if lvl <= t.height then begin
      let width = Bits.pow2 lvl in
      let lo = max 0 lo and hi = min (width - 1) hi in
      for i = lo to hi do
        acc := id ~level:lvl ~index:i :: !acc
      done
    end
  in
  add_range l (k - 3) (k + 3);
  add_range (l + 1) ((2 * k) - 2) ((2 * k) + 1 + 2);
  add_range (l + 2) ((4 * k) - 2) ((4 * k) + 3 + 2);
  List.sort_uniq compare !acc

let neighbourhood_closure_bound = 20

(* The same windows, on indices [ka] and [kb] of vertices [gap] levels
   apart. *)
let in_window ~gap ka kb =
  match gap with
  | 0 -> abs (kb - ka) <= 3
  | 1 -> (2 * ka) - 2 <= kb && kb <= (2 * ka) + 3
  | 2 -> (4 * ka) - 2 <= kb && kb <= (4 * ka) + 5
  | _ -> false

(* Membership in N(a) by those windows, clipped by [b] being a vertex. *)
let in_neighbourhood t a b =
  if not (mem t a) then invalid_arg "Xtree.in_neighbourhood";
  mem t b && in_window ~gap:(level b - level a) (index a) (index b)

(* ------------------------------------------------------------------ *)
(* Table-free routing                                                  *)
(* ------------------------------------------------------------------ *)

let neighbours_of t v =
  let acc = ref [] in
  (match parent v with Some p -> acc := p :: !acc | None -> ());
  if level v < t.height then acc := child v 0 :: child v 1 :: !acc;
  (match predecessor v with Some p -> acc := p :: !acc | None -> ());
  (match successor v with Some s -> acc := s :: !acc | None -> ());
  !acc

let route_next_hop t ~src ~dst =
  if src = dst then invalid_arg "Xtree.route_next_hop: already there";
  if not (mem t src && mem t dst) then invalid_arg "Xtree.route_next_hop";
  let current = analytic_distance src dst in
  let candidates = neighbours_of t src in
  let best = ref (-1) and best_d = ref max_int in
  List.iter
    (fun w ->
      let d = analytic_distance w dst in
      if d < !best_d then begin
        best := w;
        best_d := d
      end)
    candidates;
  (* The greedy potential always admits a strictly decreasing step (see
     the interface documentation); assert it rather than loop forever. *)
  if !best_d >= current then invalid_arg "Xtree.route_next_hop: potential failed to decrease";
  !best

let route t ~src ~dst =
  let rec go acc v = if v = dst then List.rev (v :: acc) else go (v :: acc) (route_next_hop t ~src:v ~dst) in
  go [] src
