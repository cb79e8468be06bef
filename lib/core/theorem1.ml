open Xt_obs
open Xt_prelude
open Xt_topology
open Xt_bintree
open Xt_embedding

let c_rounds = Obs.counter "theorem1.rounds"

type trace = {
  rounds : int array array;
  spreads : (int * int) array array;
}

type result = {
  embedding : Embedding.t;
  xt : Xtree.t;
  height : int;
  capacity : int;
  fallbacks : int;
  wide_pieces : int;
  trace : trace option;
}

let optimal_size ?(capacity = 16) r =
  if capacity <= 0 then invalid_arg "Theorem1.optimal_size: capacity must be positive";
  capacity * (Bits.pow2 (r + 1) - 1)

let height_for ?(capacity = 16) n =
  if capacity <= 0 then invalid_arg "Theorem1.height_for: capacity must be positive";
  if n <= 0 then invalid_arg "Theorem1.height_for";
  let rec find r = if optimal_size ~capacity r >= n then r else find (r + 1) in
  find 0

(* First [k] nodes of the guest in BFS order from its root: a connected
   set whose complement's components each hang by a single edge. *)
let bfs_prefix tree k =
  let queue = Queue.create () in
  Queue.add (Bintree.root tree) queue;
  let taken = ref [] and count = ref 0 in
  while !count < k && not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    taken := v :: !taken;
    incr count;
    List.iter (fun c -> Queue.add c queue) (Bintree.children tree v)
  done;
  List.rev !taken

(* Round 0 forms the pieces D0 leaves as re-forming them along the
   caller's ids did: each piece is discovered, and its DFS starts, at its
   least caller id. A piece is the subtree of a child of D0 (D0 holds
   every ancestor of its nodes), so in the copy a contiguous id range,
   scanned once for that start; its one boundary node is its top. The
   pieces come out in the reverse of their starts' caller-id order, the
   order re-forming the whole guest in caller-id order would give. *)
let round0_pieces st (m : Bintree.mirror) d0 =
  let caller_id = m.to_caller in
  let start c =
    let best = ref c in
    for k = c + 1 to m.last.(c) do
      if caller_id.(k) < caller_id.(!best) then best := k
    done;
    !best
  in
  let hanging c acc = if c >= 0 && st.State.place.(c) < 0 then (start c, c) :: acc else acc in
  let discovered =
    List.sort
      (fun (a, _) (b, _) -> Int.compare caller_id.(b) caller_id.(a))
      (List.fold_left
         (fun acc v -> hanging (Bintree.left_id m.copy v) (hanging (Bintree.right_id m.copy v) acc))
         [] d0)
  in
  List.map (fun (s, c) -> State.new_piece st ~top:c ~start:s [ c ]) discovered

let snapshot st ~height =
  let row = Array.make (max height 1) 0 in
  for j = 0 to height - 1 do
    let best = ref 0 in
    List.iter
      (fun a ->
        let d =
          abs
            (State.weight_of st (Xtree.child a 0) - State.weight_of st (Xtree.child a 1))
        in
        if d > !best then best := d)
      (Xtree.vertices_at_level st.State.xt j);
    row.(j) <- !best
  done;
  row

(* nl(j,i) / nh(j,i) of the paper: the per-level extremes of the number
   of guest nodes associated to one X-subtree. *)
let snapshot_spread st ~height =
  let row = Array.make (height + 1) (0, 0) in
  for j = 0 to height do
    let lo = ref max_int and hi = ref 0 in
    List.iter
      (fun a ->
        let w = State.weight_of st a in
        if w < !lo then lo := w;
        if w > !hi then hi := w)
      (Xtree.vertices_at_level st.State.xt j);
    row.(j) <- ((if !lo = max_int then 0 else !lo), !hi)
  done;
  row

(* Place every node still living in a piece: breadth-first from the
   piece's boundary nodes, each node next to an already-placed tree
   neighbour (State.lay diverts to the nearest free slot if needed).
   Every piece is maximal, so an unplaced neighbour of a piece's node is
   the piece's own: [place] is the membership test. One stamp array
   serves every piece: the [k]-th piece drained marks a node [k] once
   queued. *)
let final_fill st =
  let height = st.State.height in
  let order = Xtree.order st.State.xt in
  let tree = st.State.tree and place = st.State.place in
  let stamp = Array.make (Bintree.n tree) 0 in
  let gen = ref 0 in
  let queue = Queue.create () in
  (* the last placed neighbour in parent, left, right order, else [h] *)
  let hint x h = if x >= 0 && place.(x) >= 0 then place.(x) else h in
  for v = 0 to order - 1 do
    let rec drain () =
      match State.pieces_at st v with
      | [] -> ()
      | (p : State.piece) :: _ ->
          State.detach st ~vertex:v p;
          incr gen;
          let queued = !gen in
          let enqueue w =
            if stamp.(w) <> queued then begin
              stamp.(w) <- queued;
              Queue.add w queue
            end
          in
          let follow x = if x >= 0 && place.(x) < 0 then enqueue x in
          (match p.bounds with
          | [] -> enqueue (Ranges.last_popped st.State.rg ~place [] ~s:p.start p.top)
          | bs -> List.iter (fun b -> enqueue b.State.bnode) bs);
          while not (Queue.is_empty queue) do
            let w = Queue.pop queue in
            let pw = Bintree.parent_id tree w
            and lw = Bintree.left_id tree w
            and rw = Bintree.right_id tree w in
            State.lay st ~max_level:height ~node:w ~vertex:(hint rw (hint lw (hint pw v)));
            follow pw;
            follow lw;
            follow rw
          done;
          drain ()
    in
    drain ()
  done

(* The construction runs on a copy of the guest numbered in mirror
   preorder, the order in which every DFS of the core pops nodes: each
   subtree is a contiguous id range, so a piece is its top's range minus
   its cuts' ranges, and carves and re-forms are arithmetic on ranges.
   Every decision that reads node-id order reads the caller's: round 0
   discovers its pieces along the caller's ids ([round0_pieces]), and
   every lay order sorts by them ([Separator.uniq]). So placements are
   the caller numbering's own. *)
let embed_uncached ?(capacity = 16) ?height ?(record_trace = false) ?(options = Options.default)
    guest =
  let n = Bintree.n guest in
  let height = match height with Some h -> h | None -> height_for ~capacity n in
  if optimal_size ~capacity height < n then
    invalid_arg "Theorem1.embed: X-tree too small for this guest";
  Obs.span ~arg:n "theorem1.embed" @@ fun () ->
  let m = Obs.span ~arg:n "theorem1.relabel" (fun () -> Bintree.mirror_copy guest) in
  let st = State.create m ~height ~capacity in
  (* Round 0: the initial subtree D0 at the root. *)
  let d0 = bfs_prefix m.copy (min capacity n) in
  List.iter (fun node -> State.lay st ~max_level:0 ~node ~vertex:Xtree.root) d0;
  Moves.attach_near st ~floor_level:0 ~fallback:Xtree.root (round0_pieces st m d0);
  (* Rounds 1..r. *)
  let rows = ref [] and spread_rows = ref [] in
  for i = 1 to height do
    Obs.span ~arg:i "theorem1.round" @@ fun () ->
    Obs.incr c_rounds;
    if options.Options.adjust then
      for j = 0 to i - 2 do
        Obs.span ~arg:j "theorem1.adjust-sweep" @@ fun () ->
        List.iter (fun a -> Adjust.run st ~round:i ~a) (Xtree.vertices_at_level st.State.xt j)
      done;
    (* Snapshot the level-i weights once: every SPLIT of the sweep breaks
       orientation ties against the same pre-sweep outer weights, not
       against weights the sweep's earlier calls have already moved. *)
    let outer_snap =
      Array.of_list (List.map (State.weight_of st) (Xtree.vertices_at_level st.State.xt i))
    in
    let outer_weight v = outer_snap.(Xtree.index v) in
    (Obs.span ~arg:(i - 1) "theorem1.split-sweep" @@ fun () ->
     List.iter
       (fun alpha -> Split.run ~options ~outer_weight st ~round:i ~alpha)
       (Xtree.vertices_at_level st.State.xt (i - 1)));
    if record_trace then begin
      rows := snapshot st ~height :: !rows;
      spread_rows := snapshot_spread st ~height :: !spread_rows
    end
  done;
  Obs.span "theorem1.final-fill" (fun () -> final_fill st);
  (* back to the caller's ids, in place over [to_copy] *)
  let place = m.to_copy in
  for v = 0 to n - 1 do
    place.(v) <- st.State.place.(place.(v))
  done;
  let embedding = Embedding.make ~tree:guest ~host:(Xtree.graph st.State.xt) ~place in
  {
    embedding;
    xt = st.State.xt;
    height;
    capacity;
    fallbacks = st.State.fallbacks;
    wide_pieces = st.State.wide_pieces;
    trace =
      (if record_trace then
         Some
           {
             rounds = Array.of_list (List.rev !rows);
             spreads = Array.of_list (List.rev !spread_rows);
           }
       else None);
  }

(* ------------------------------------------------------------------ *)
(* Canonical-shape cache                                               *)
(* ------------------------------------------------------------------ *)

(* Everything of a result except the embedding and the trace is shared
   verbatim between the hits of one entry; the host [Xtree.t] in
   particular amortises its graph across all trees of the shape. *)
type cache_meta = {
  m_xt : Xtree.t;
  m_height : int;
  m_capacity : int;
  m_fallbacks : int;
  m_wide : int;
}

type cache = cache_meta Shape_memo.t

let make_cache ?capacity ?max_bytes () = Shape_memo.create ?capacity ?max_bytes ()

let cache_length = Shape_memo.length
let cache_stats = Shape_memo.stats

(* Snapshot meta codec: the host [Xtree.t] is fully determined by its
   height, so only the three integers travel; reloads rebuild the host
   once per distinct height and share it across entries, exactly as the
   live cache shares it across hits. An entry's height must be the one
   its key's prefix names, and its capacity is the prefix's. *)
let encode_cache_meta m = Printf.sprintf "%d %d %d" m.m_height m.m_fallbacks m.m_wide

let make_cache_meta_decoder () =
  let hosts = Hashtbl.create 4 in
  fun ~prefix s ->
    let named () = Scanf.sscanf prefix "t1|c=%d|h=%d|o=%_c%_c%_c%!" (fun c h -> (c, h)) in
    match (Scanf.sscanf s " %d %d %d %!" (fun h f w -> (h, f, w)), named ()) with
    | exception _ -> None
    | (h, f, w), (c, h') when h = h' && c > 0 && f >= 0 && w >= 0 -> (
        let meta xt =
          Some { m_xt = xt; m_height = h; m_capacity = c; m_fallbacks = f; m_wide = w }
        in
        match Hashtbl.find_opt hosts h with
        | Some xt -> meta xt
        | None -> (
            match Xtree.create ~height:h with
            | exception Invalid_argument _ -> None
            | xt ->
                Hashtbl.add hosts h xt;
                meta xt))
    | _ -> None

let cache_save cache ~file = Shape_memo.save cache ~encode_meta:encode_cache_meta ~file

let cache_load cache ~file =
  Shape_memo.load cache ~decode_meta:(make_cache_meta_decoder ())
    ~vertices:(fun m -> Xtree.order m.m_xt)
    ~capacity:(fun m -> m.m_capacity)
    ~file

let flag b = if b then 't' else 'f'

let cache_prefix ~name ~capacity ~height (options : Options.t) =
  Printf.sprintf "%s|c=%d|h=%d|o=%c%c%c" name capacity height (flag options.adjust)
    (flag options.pairing) (flag options.balance_split)

let cache_meta (r : result) =
  {
    m_xt = r.xt;
    m_height = r.height;
    m_capacity = r.capacity;
    m_fallbacks = r.fallbacks;
    m_wide = r.wide_pieces;
  }

let embed ?capacity ?height ?record_trace ?options ?cache tree =
  match cache with
  | Some memo when record_trace <> Some true ->
      let cap = Option.value capacity ~default:16 in
      let opts = Option.value options ~default:Options.default in
      let h =
        match height with Some h -> h | None -> height_for ~capacity:cap (Bintree.n tree)
      in
      let prefix = cache_prefix ~name:"t1" ~capacity:cap ~height:h opts in
      let place, m =
        Shape_memo.memo memo ~prefix ~tree ~compute:(fun () ->
            let r = embed_uncached ~capacity:cap ~height:h ~options:opts tree in
            (r.embedding.Embedding.place, cache_meta r))
      in
      {
        embedding = Embedding.make ~tree ~host:(Xtree.graph m.m_xt) ~place;
        xt = m.m_xt;
        height = m.m_height;
        capacity = cap;
        fallbacks = m.m_fallbacks;
        wide_pieces = m.m_wide;
        trace = None;
      }
  | _ -> embed_uncached ?capacity ?height ?record_trace ?options tree

type packed = { p_height : int; p_fallbacks : int; p_place : string }

let packed_of (place, m) = { p_height = m.m_height; p_fallbacks = m.m_fallbacks; p_place = place }

(* The key prefix [embed ~capacity ~cache] uses for an [n]-node guest. *)
let default_prefix ~capacity n =
  cache_prefix ~name:"t1" ~capacity ~height:(height_for ~capacity n) Options.default

let find_packed cache ~capacity payload =
  (* A canonical Codec string of n nodes is 3n + 1 bytes: one '(' and
     one ')' per node and one '.' per empty child slot. *)
  let len = String.length payload in
  if len < 4 || (len - 1) mod 3 <> 0 then None
  else
    let prefix = default_prefix ~capacity ((len - 1) / 3) in
    Option.map packed_of (Shape_memo.find cache ~prefix payload)

let embed_packed cache ~capacity ~canon tree =
  let prefix = default_prefix ~capacity (Bintree.n tree) in
  packed_of
    (Shape_memo.memo_canonical cache ~prefix ~canon ~compute:(fun () ->
         let r = embed_uncached ~capacity tree in
         (r.embedding.Embedding.place, cache_meta r)))

let distance_oracle result = Xtree.distance result.xt
