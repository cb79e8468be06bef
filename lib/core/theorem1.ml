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
   One stamp array serves every piece: the [k]-th piece drained marks its
   nodes [2k+1] and raises a node to [2k+2] once queued. *)
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
          gen := !gen + 2;
          let member = !gen - 1 and queued = !gen in
          List.iter (fun w -> stamp.(w) <- member) p.nodes;
          let enqueue w =
            if stamp.(w) <> queued then begin
              stamp.(w) <- queued;
              Queue.add w queue
            end
          in
          let follow x = if x >= 0 && stamp.(x) = member && place.(x) < 0 then enqueue x in
          (match p.bounds with
          | [] -> enqueue (List.hd p.nodes)
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

(* ------------------------------------------------------------------ *)
(* Parallel sweeps                                                     *)
(*                                                                     *)
(* ADJUST sweeps a whole X-tree level, one call per vertex, and so does *)
(* SPLIT one level further down. A call at vertex [a] usually only      *)
(* reads and writes state inside subtree(a) — subtrees of distinct      *)
(* level-j vertices are disjoint, so such calls commute and a left-to-  *)
(* right sweep can run them concurrently without changing any result.   *)
(* The driver below proves confinement per vertex before the sweep      *)
(* (conservatively: every neighbour of every piece at the call's sites  *)
(* resolves inside the subtree, and enough capacity slack rules out     *)
(* diverted placements), runs maximal runs of confined vertices as one  *)
(* pool batch on forked state views, and executes the rest sequentially *)
(* in order — invalidating pending analyses through [State.on_touch]    *)
(* whenever a sequential call mutates a foreign subtree.                *)
(* ------------------------------------------------------------------ *)

(* Guest node -> id of the level-[j] ancestor of the vertex its piece is
   attached to; -1 when placed, loose, or attached above level [j]. *)
let owner_map st ~level:j =
  let own = Array.make (Bintree.n st.State.tree) (-1) in
  let base = Bits.pow2 j - 1 in
  Array.iteri
    (fun v pieces ->
      if v >= base && pieces <> [] then begin
        let anc = Xtree.id ~level:j ~index:(Xtree.index v lsr (Xtree.level v - j)) in
        List.iter
          (fun (p : State.piece) -> List.iter (fun x -> own.(x) <- anc) p.State.nodes)
          pieces
      end)
    st.State.attached;
  own

(* A piece is confined to subtree(a) when every tree-neighbour of its
   nodes either is already placed inside that subtree (placed nodes never
   move, so the read is stable) or is unplaced but owned by [a] itself
   (only a's own call may place it). *)
let piece_confined st own a (p : State.piece) =
  List.for_all
    (fun x ->
      let ok = ref true in
      Bintree.iter_neighbours st.State.tree x (fun y ->
          if !ok then begin
            let pv = st.State.place.(y) in
            if pv >= 0 then begin
              if not (Xtree.is_ancestor a pv) then ok := false
            end
            else if own.(y) <> a then ok := false
          end);
      !ok)
    p.State.nodes

(* Capacity slack: a confined call must never trigger the nearest-free
   fallback in [State.lay], which wanders outside the subtree. ADJUST
   lays at most 4 nodes on each new leaf (separator Lemmas 1/2 and the
   move budget); 4 free slots at both suffice. *)
let adjust_confined st own ~round:i ~a =
  match Adjust.plan st ~round:i ~a with
  | None -> true
  | Some { Adjust.donor_leaf; donor_new; receiver_new; _ } ->
      st.State.occ.(donor_new) + 4 <= st.State.capacity
      && st.State.occ.(receiver_new) + 4 <= st.State.capacity
      && List.for_all (piece_confined st own a) (State.pieces_at st donor_leaf)

(* SPLIT lays the old-anchored boundary nodes of its pieces (at most
   [s] in total, whichever way the bags fall) plus at most 4 nodes per
   child from the final Lemma 2 balance; the fill loop guards its own
   occupancy. *)
let split_confined st own ~round:i ~alpha =
  let c0 = Xtree.child alpha 0 and c1 = Xtree.child alpha 1 in
  let pieces = State.pieces_at st alpha @ State.pieces_at st c0 @ State.pieces_at st c1 in
  let to_lay (p : State.piece) =
    List.length
      (List.sort_uniq compare
         (List.filter_map
            (fun (b : State.boundary) ->
              if Xtree.level b.State.anchor <= i - 2 then Some b.State.bnode else None)
            p.State.bounds))
  in
  let s = List.fold_left (fun acc p -> acc + to_lay p) 0 pieces in
  st.State.occ.(c0) + s + 4 <= st.State.capacity
  && st.State.occ.(c1) + s + 4 <= st.State.capacity
  && List.for_all (piece_confined st own alpha) pieces

(* Separator workspaces for forked views: one per pool domain, owned for
   the life of the process and rebound (grow-to-fit, no clearing pass) to
   whatever tree the current batch works on. A domain executes one chunk
   at a time, so the workspace is never shared — even when batches of
   distinct concurrent embeds interleave on the same domain. *)
let sep_slots : Separator.ws Parallel.slots = Parallel.make_slots ()

let domain_ws tree =
  let ws = Parallel.slot sep_slots ~default:(fun () -> Separator.make_ws tree) in
  Separator.rebind_ws ws tree;
  ws

let min_parallel_level = 8 (* levels narrower than this aren't worth analysing *)
let min_parallel_run = 2

let sweep st ~par ~level:j ~confined_of ~op verts =
  let nv = Array.length verts in
  if (not par) || nv < min_parallel_level || Parallel.domain_budget () <= 1 then
    Array.iter (op st) verts
  else begin
    let own = owner_map st ~level:j in
    let confined = Array.map (confined_of own) verts in
    let demoted = Array.make nv false in
    let base = Bits.pow2 j - 1 in
    (* A sequential call touched vertex [v]: any pending analysis for
       v's level-j ancestor is stale. *)
    let hook v =
      if v >= base then begin
        let k = Xtree.index v lsr (Xtree.level v - j) in
        if k < nv then demoted.(k) <- true
      end
    in
    let run_seq a =
      st.State.on_touch <- hook;
      Fun.protect ~finally:(fun () -> st.State.on_touch <- ignore) (fun () -> op st a)
    in
    let run_batch lo hi =
      let w_before = Array.init (hi - lo) (fun k -> State.weight_of st verts.(lo + k)) in
      let lanes = min (hi - lo) (Parallel.domain_budget ()) in
      let nchunks = min (hi - lo) (2 * lanes) in
      let csize = (hi - lo + nchunks - 1) / nchunks in
      let forks = Array.make nchunks None in
      Parallel.parallel_for ~chunk:1 nchunks (fun c ->
          let fst_ =
            State.fork st ~ws:(domain_ws st.State.tree) ~pid_base:(st.State.next_pid + c)
              ~pid_stride:nchunks ~weight_barrier:base
          in
          forks.(c) <- Some fst_;
          let b = min hi (lo + ((c + 1) * csize)) in
          for k = lo + (c * csize) to b - 1 do
            op fst_ verts.(k)
          done);
      State.join st (Array.to_list forks |> List.filter_map Fun.id);
      (* Forked weight updates stopped at level j; restore the ancestors
         with one additive fixup per swept vertex. *)
      for k = 0 to hi - lo - 1 do
        let delta = State.weight_of st verts.(lo + k) - w_before.(k) in
        if delta <> 0 then begin
          let rec up v =
            match Xtree.parent v with
            | Some p ->
                st.State.weight.(p) <- st.State.weight.(p) + delta;
                up p
            | None -> ()
          in
          up verts.(lo + k)
        end
      done
    in
    let pos = ref 0 in
    while !pos < nv do
      if confined.(!pos) && not demoted.(!pos) then begin
        let e = ref !pos in
        while !e < nv && confined.(!e) && not demoted.(!e) do
          incr e
        done;
        if !e - !pos >= min_parallel_run then run_batch !pos !e
        else
          for k = !pos to !e - 1 do
            run_seq verts.(k)
          done;
        pos := !e
      end
      else begin
        run_seq verts.(!pos);
        incr pos
      end
    done
  end

let embed_uncached ?(capacity = 16) ?height ?(record_trace = false) ?(options = Options.default)
    ?par tree =
  let n = Bintree.n tree in
  let height = match height with Some h -> h | None -> height_for ~capacity n in
  if optimal_size ~capacity height < n then
    invalid_arg "Theorem1.embed: X-tree too small for this guest";
  let par =
    match par with
    | Some b -> b
    | None -> Parallel.domain_budget () > 1 && not (Parallel.in_parallel_region ())
  in
  let st = State.create ~tree ~height ~capacity in
  (* Round 0: the initial subtree D0 at the root. *)
  let d0 = bfs_prefix tree (min capacity n) in
  List.iter (fun node -> State.lay st ~max_level:0 ~node ~vertex:Xtree.root) d0;
  Moves.reattach st ~floor_level:0 ~fallback:Xtree.root ~removed:d0 (List.init n Fun.id);
  (* Rounds 1..r. *)
  let rows = ref [] and spread_rows = ref [] in
  Obs.span ~arg:n "theorem1.embed" (fun () ->
      for i = 1 to height do
        Obs.span ~arg:i "theorem1.round" @@ fun () ->
        Obs.incr c_rounds;
        if options.Options.adjust then
          for j = 0 to i - 2 do
            Obs.span ~arg:j "theorem1.adjust-sweep" @@ fun () ->
            sweep st ~par ~level:j
              ~confined_of:(fun own a -> adjust_confined st own ~round:i ~a)
              ~op:(fun stv a -> Adjust.run stv ~round:i ~a)
              (Array.of_list (Xtree.vertices_at_level st.State.xt j))
          done;
        (* Snapshot the level-i weights once: every SPLIT of the sweep breaks
           orientation ties against the same pre-sweep outer weights, in both
           sequential and parallel execution. *)
        let level_i = Array.of_list (Xtree.vertices_at_level st.State.xt i) in
        let outer_snap = Array.map (State.weight_of st) level_i in
        let outer_weight v = outer_snap.(Xtree.index v) in
        (Obs.span ~arg:(i - 1) "theorem1.split-sweep" @@ fun () ->
         sweep st ~par ~level:(i - 1)
           ~confined_of:(fun own alpha -> split_confined st own ~round:i ~alpha)
           ~op:(fun stv alpha -> Split.run ~options ~outer_weight stv ~round:i ~alpha)
           (Array.of_list (Xtree.vertices_at_level st.State.xt (i - 1))));
        if record_trace then begin
          rows := snapshot st ~height :: !rows;
          spread_rows := snapshot_spread st ~height :: !spread_rows
        end
      done;
      Obs.span "theorem1.final-fill" (fun () -> final_fill st));
  let embedding = Embedding.make ~tree ~host:(Xtree.graph st.State.xt) ~place:st.State.place in
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
   particular amortises its graph (and its memoised BFS rows) across all
   trees of the shape. *)
type cache_meta = {
  m_xt : Xtree.t;
  m_height : int;
  m_fallbacks : int;
  m_wide : int;
}

type cache = cache_meta Shape_memo.t

let make_cache ?shards ?capacity ?max_bytes () = Shape_memo.create ?shards ?capacity ?max_bytes ()

let cache_length = Shape_memo.length
let cache_stats = Shape_memo.stats

(* Snapshot meta codec: the host [Xtree.t] is fully determined by its
   height, so only the three integers travel; reloads rebuild the host
   once per distinct height and share it across entries, exactly as the
   live cache shares it across hits. An entry's height must be the one
   its key's prefix names. *)
let encode_cache_meta m = Printf.sprintf "%d %d %d" m.m_height m.m_fallbacks m.m_wide

let make_cache_meta_decoder () =
  let hosts = Hashtbl.create 4 in
  fun ~prefix s ->
    let named_height () =
      Scanf.sscanf prefix "t1|c=%_d|h=%d|o=%_c%_c%_c%!" Fun.id
    in
    match (Scanf.sscanf s " %d %d %d %!" (fun h f w -> (h, f, w)), named_height ()) with
    | exception _ -> None
    | (h, f, w), h' when h = h' && f >= 0 && w >= 0 -> (
        match Hashtbl.find_opt hosts h with
        | Some xt -> Some { m_xt = xt; m_height = h; m_fallbacks = f; m_wide = w }
        | None -> (
            match Xtree.create ~height:h with
            | exception Invalid_argument _ -> None
            | xt ->
                Hashtbl.add hosts h xt;
                Some { m_xt = xt; m_height = h; m_fallbacks = f; m_wide = w }))
    | _ -> None

let cache_save cache ~file = Shape_memo.save cache ~encode_meta:encode_cache_meta ~file

let cache_load cache ~file =
  Shape_memo.load cache ~decode_meta:(make_cache_meta_decoder ())
    ~vertices:(fun m -> Xtree.order m.m_xt)
    ~file

let flag b = if b then 't' else 'f'

let cache_prefix ~name ~capacity ~height (options : Options.t) =
  (* [par] is deliberately absent: parallel sweeps are bit-identical to
     sequential ones, so both populate and consume the same entries. *)
  Printf.sprintf "%s|c=%d|h=%d|o=%c%c%c" name capacity height (flag options.adjust)
    (flag options.pairing) (flag options.balance_split)

let cache_meta (r : result) =
  { m_xt = r.xt; m_height = r.height; m_fallbacks = r.fallbacks; m_wide = r.wide_pieces }

let embed ?capacity ?height ?record_trace ?options ?par ?cache tree =
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
            let r = embed_uncached ~capacity:cap ~height:h ~options:opts ?par tree in
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
  | _ -> embed_uncached ?capacity ?height ?record_trace ?options ?par tree

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
