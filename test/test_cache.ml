(* The canonical-shape cache: structural fingerprints, the LRU with its
   exact entry and byte bounds, and the bit-identity guarantee of cached
   embeddings. *)

open Xt_obs
open Xt_prelude
open Xt_bintree
open Xt_embedding
open Xt_core
open Xt_baseline

let place (res : Theorem1.result) = res.Theorem1.embedding.Embedding.place

let roundtrip tree =
  match Codec.of_string (Codec.to_string tree) with
  | Ok t -> t
  | Error msg -> Alcotest.failf "roundtrip: %s" msg

(* ---------------- fingerprints ---------------- *)

let test_enum_shapes_distinct () =
  for n = 1 to 8 do
    let keys = Hashtbl.create 512 in
    Seq.iter
      (fun t ->
        let key = Fingerprint.canonical_key t in
        Alcotest.(check bool)
          (Printf.sprintf "no collision among all %d-node shapes" n)
          false (Hashtbl.mem keys key);
        Hashtbl.add keys key ())
      (Enum.all_shapes n);
    Alcotest.(check int)
      (Printf.sprintf "catalan(%d) distinct keys" n)
      (Enum.catalan n) (Hashtbl.length keys)
  done

let chain side k =
  let b = Bintree.Builder.create () in
  let v = ref (Bintree.Builder.add_root b) in
  for _ = 2 to k do
    v := (if side = `L then Bintree.Builder.add_left else Bintree.Builder.add_right) b !v
  done;
  Bintree.Builder.finish b

let mirror tree =
  let n = Bintree.n tree in
  Bintree.of_arrays ~root:(Bintree.root tree)
    ~parent:(Array.init n (Bintree.parent_id tree))
    ~left:(Array.init n (Bintree.right_id tree))
    ~right:(Array.init n (Bintree.left_id tree))

let test_mirrors_differ () =
  Alcotest.(check bool)
    "left chain vs right chain" false
    (Fingerprint.equal (Fingerprint.of_tree (chain `L 7)) (Fingerprint.of_tree (chain `R 7)));
  let t = Gen.uniform (Rng.make ~seed:5) 41 in
  Alcotest.(check bool)
    "asymmetric tree vs its mirror" false
    (Fingerprint.equal (Fingerprint.of_tree t) (Fingerprint.of_tree (mirror t)));
  let symmetric = Gen.complete 15 in
  Alcotest.(check bool)
    "symmetric tree equals its mirror" true
    (Fingerprint.equal (Fingerprint.of_tree symmetric) (Fingerprint.of_tree (mirror symmetric)))

let test_label_independent () =
  List.iter
    (fun (f : Gen.family) ->
      let t = f.Gen.generate (Rng.make ~seed:3) 57 in
      Alcotest.(check string)
        (f.Gen.name ^ ": key survives relabeling")
        (Fingerprint.canonical_key t)
        (Fingerprint.canonical_key (roundtrip t)))
    Gen.families

let test_subtrees_and_ranks () =
  let t = Gen.uniform (Rng.make ~seed:11) 63 in
  let subs = Fingerprint.subtrees t in
  Alcotest.(check bool)
    "root subtree = whole tree" true
    (Fingerprint.equal subs.(Bintree.root t) (Fingerprint.of_tree t));
  let leaf_fp = ref None in
  for v = 0 to Bintree.n t - 1 do
    if Bintree.is_leaf t v then
      match !leaf_fp with
      | None -> leaf_fp := Some subs.(v)
      | Some fp -> Alcotest.(check bool) "all leaves share a fingerprint" true (Fingerprint.equal fp subs.(v))
  done;
  let canon = roundtrip t in
  Alcotest.(check (array int))
    "codec-parsed trees are rank-labelled"
    (Array.init (Bintree.n canon) Fun.id)
    (Fingerprint.preorder_ranks canon)

(* ---------------- LRU ---------------- *)

let test_lru_eviction_order () =
  let c : int Cache.t = Cache.create ~capacity:3 () in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  Cache.add c "c" 3;
  ignore (Cache.find c "a");
  (* recency now a, c, b *)
  Cache.add c "d" 4;
  Alcotest.(check bool) "lru entry b evicted" false (Cache.mem c "b");
  Alcotest.(check bool) "promoted a kept" true (Cache.mem c "a");
  Alcotest.(check bool) "c kept" true (Cache.mem c "c");
  Alcotest.(check bool) "d kept" true (Cache.mem c "d");
  Alcotest.(check int) "capacity respected" 3 (Cache.length c);
  Cache.add c "e" 5;
  Alcotest.(check bool) "then c evicted" false (Cache.mem c "c");
  (* The entry bound is exact: [capacity] distinct keys fit with no
     eviction, and each key past it evicts one. *)
  let key i = Printf.sprintf "k%d" i in
  List.iter
    (fun (capacity, adds) ->
      let c : int Cache.t = Cache.create ~capacity () in
      for i = 0 to adds - 1 do
        Cache.add c (key i) i
      done;
      let s = Cache.stats c in
      let what = Printf.sprintf "capacity %d after %d adds" capacity adds in
      Alcotest.(check int) (what ^ ": entries") (min capacity adds) s.Cache.entries;
      Alcotest.(check int) (what ^ ": evictions") (max 0 (adds - capacity)) s.Cache.evictions)
    [ (4, 100); (256, 256) ];
  (* Recency is global: in a full cache, the key touched last is kept
     and the least recent of all the others goes. *)
  let c : int Cache.t = Cache.create ~capacity:16 () in
  for i = 0 to 15 do
    Cache.add c (key i) i
  done;
  ignore (Cache.find c "k0");
  Cache.add c "k16" 16;
  Alcotest.(check bool) "touched k0 kept" true (Cache.mem c "k0");
  Alcotest.(check bool) "k1, the lru, evicted" false (Cache.mem c "k1")

let test_byte_bound () =
  let c : string Cache.t = Cache.create ~capacity:100 ~max_bytes:100 () in
  Cache.add c ~bytes:40 "a" "x";
  Cache.add c ~bytes:40 "b" "y";
  Cache.add c ~bytes:40 "c" "z";
  Alcotest.(check bool) "oldest evicted by byte bound" false (Cache.mem c "a");
  Alcotest.(check int) "bytes within bound" 80 (Cache.stats c).Cache.resident_bytes;
  Alcotest.(check int) "two entries left" 2 (Cache.length c);
  (* The byte bound is exact too: an entry within it stays. *)
  let c : string Cache.t = Cache.create ~max_bytes:1000 () in
  Cache.add c ~bytes:200 "a" "x";
  Alcotest.(check bool) "200 bytes kept under a 1000-byte bound" true (Cache.mem c "a");
  Alcotest.(check int) "no eviction" 0 (Cache.stats c).Cache.evictions

let test_with_memo_and_verify () =
  let c : int Cache.t = Cache.create ~capacity:8 () in
  let computes = ref 0 in
  let get key =
    Cache.with_memo c key (fun () ->
        incr computes;
        !computes)
  in
  Obs.enable_metrics ();
  ignore (Obs.drain ());
  Alcotest.(check int) "first call computes" 1 (get "k");
  Alcotest.(check int) "second call hits" 1 (get "k");
  Alcotest.(check int) "one compute so far" 1 !computes;
  Alcotest.(check int) "another key computes" 2 (get "j");
  Alcotest.(check int) "and then hits" 2 (get "j");
  (* A probe counts its hit but not its miss: the miss is counted by the
     with_memo call it falls back to. *)
  Alcotest.(check (option int)) "probe hit" (Some 1) (Cache.probe c "k");
  Alcotest.(check (option int)) "probe miss" None (Cache.probe c "absent");
  let d = Obs.drain () in
  Obs.disable_metrics ();
  let counter name = List.assoc name d.Obs.counters in
  (* Keys are exact, so no hit is ever re-verified or rejected. *)
  Alcotest.(check bool) "no verify-reject counter" false
    (List.mem_assoc "cache.verify_rejects" d.Obs.counters);
  Alcotest.(check int) "hits counted" 3 (counter "cache.hits");
  Alcotest.(check int) "misses counted" 2 (counter "cache.misses")

(* ---------------- cached embeds: bit-identity ---------------- *)

type case = { fname : string; size : int; capacity : int; seed : int }

let case_gen =
  QCheck2.Gen.(
    let families = Array.of_list (List.map (fun (f : Gen.family) -> f.Gen.name) Gen.families) in
    let* fi = int_bound (Array.length families - 1) in
    let* size = map (fun k -> k + 1) (int_bound 400) in
    let* ci = int_bound 1 in
    let* seed = int_bound 1_000_000 in
    return { fname = families.(fi); size; capacity = [| 4; 16 |].(ci); seed })

let print_case c = Printf.sprintf "%s n=%d cap=%d seed=%d" c.fname c.size c.capacity c.seed

let tree_of_case c = (Gen.family c.fname).generate (Rng.make ~seed:c.seed) c.size

let cache_props =
  [
    QCheck2.Test.make ~count:60 ~name:"theorem1: cached (miss then hit) = uncached"
      ~print:print_case case_gen (fun c ->
        let tree = tree_of_case c in
        let un = place (Theorem1.embed ~capacity:c.capacity tree) in
        let cache = Theorem1.make_cache () in
        let miss = place (Theorem1.embed ~capacity:c.capacity ~cache tree) in
        let hit = place (Theorem1.embed ~capacity:c.capacity ~cache tree) in
        un = miss && un = hit);
    QCheck2.Test.make ~count:30 ~name:"theorem1: cached = uncached after evictions"
      ~print:print_case case_gen (fun c ->
        let t1 = tree_of_case c in
        let t2 = (Gen.family c.fname).generate (Rng.make ~seed:(c.seed + 1)) (c.size + 1) in
        let cache = Theorem1.make_cache ~capacity:1 () in
        (* capacity 1: every alternation evicts the other shape *)
        let ok tree = place (Theorem1.embed ~capacity:c.capacity ~cache tree)
                      = place (Theorem1.embed ~capacity:c.capacity tree) in
        ok t1 && ok t2 && ok t1 && ok t2);
    QCheck2.Test.make ~count:40 ~name:"theorem2: cached (miss then hit) = uncached"
      ~print:print_case case_gen (fun c ->
        let tree = tree_of_case c in
        let p2 (r : Theorem2.result) = r.Theorem2.embedding.Embedding.place in
        let un = p2 (Theorem2.embed ~capacity:c.capacity tree) in
        let cache = Theorem1.make_cache () in
        let miss = p2 (Theorem2.embed ~capacity:c.capacity ~cache tree) in
        let hit = p2 (Theorem2.embed ~capacity:c.capacity ~cache tree) in
        un = miss && un = hit);
    QCheck2.Test.make ~count:30 ~name:"baselines: cached (miss then hit) = uncached"
      ~print:print_case case_gen (fun c ->
        let tree = tree_of_case c in
        let pb (r : Recursive_bisection.result) = r.Recursive_bisection.embedding.Embedding.place in
        let po (r : Order_layout.result) = r.Order_layout.embedding.Embedding.place in
        let bc = Recursive_bisection.make_cache () in
        let oc = Order_layout.make_cache () in
        let un_b = pb (Recursive_bisection.embed ~capacity:c.capacity tree) in
        let un_d = po (Order_layout.embed ~capacity:c.capacity ~order:Order_layout.Dfs tree) in
        un_b = pb (Recursive_bisection.embed ~capacity:c.capacity ~cache:bc tree)
        && un_b = pb (Recursive_bisection.embed ~capacity:c.capacity ~cache:bc tree)
        && un_d = po (Order_layout.embed ~capacity:c.capacity ~cache:oc ~order:Order_layout.Dfs tree)
        && un_d = po (Order_layout.embed ~capacity:c.capacity ~cache:oc ~order:Order_layout.Dfs tree));
  ]

(* A hit served to a differently-labelled tree of the same shape is the
   stored embedding transported along the shape isomorphism: same host,
   same metrics, and still a valid embedding. (Bit-identity is guaranteed
   for preorder-labelled callers — everything Codec parses — which the
   property tests above cover via miss-then-hit on one labelling.) *)
let test_cross_label_hit () =
  let tree = Gen.uniform (Rng.make ~seed:21) 300 in
  let cache = Theorem1.make_cache () in
  let a = Theorem1.embed ~cache tree in
  let b = Theorem1.embed ~cache (roundtrip tree) in
  Alcotest.(check int) "one entry serves both labellings" 1 (Theorem1.cache_length cache);
  Alcotest.(check bool) "host shared between hits" true (a.Theorem1.xt == b.Theorem1.xt);
  (match Embedding.verify ~dist:(Theorem1.distance_oracle b) ~max_load:16 b.Theorem1.embedding with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "cross-label hit invalid: %s" msg);
  let dist r = Theorem1.distance_oracle r in
  Alcotest.(check int)
    "identical dilation"
    (Embedding.dilation ~dist:(dist a) a.Theorem1.embedding)
    (Embedding.dilation ~dist:(dist b) b.Theorem1.embedding);
  Alcotest.(check int)
    "identical load" (Embedding.load a.Theorem1.embedding) (Embedding.load b.Theorem1.embedding)

let test_shape_dedup_counts () =
  let cache = Theorem1.make_cache () in
  let shapes = [ Gen.complete 63; Gen.path 63; Gen.zigzag 63 ] in
  List.iter
    (fun t ->
      ignore (Theorem1.embed ~cache t);
      ignore (Theorem1.embed ~cache (roundtrip t)))
    shapes;
  Alcotest.(check int) "one entry per shape" (List.length shapes) (Theorem1.cache_length cache)

let test_stats () =
  let c : int Cache.t = Cache.create ~capacity:2 () in
  let z = Cache.stats c in
  Alcotest.(check (list int)) "fresh cache all zero"
    [ 0; 0; 0; 0; 0 ]
    [ z.Cache.hits; z.Cache.misses; z.Cache.evictions; z.Cache.entries; z.Cache.resident_bytes ];
  Alcotest.(check bool) "miss" true (Cache.find c "a" = None);
  Cache.add c ~bytes:10 "a" 1;
  Alcotest.(check bool) "hit" true (Cache.find c "a" = Some 1);
  Alcotest.(check int) "memo miss computes" 2
    (Cache.with_memo c ~bytes:(fun _ -> 5) "b" (fun () -> 2));
  Alcotest.(check int) "memo hit serves" 2
    (Cache.with_memo c "b" (fun () -> Alcotest.fail "hit recomputed"));
  Cache.add c ~bytes:7 "c" 3 (* capacity 2: evicts "a", the LRU *);
  let s = Cache.stats c in
  Alcotest.(check (list int)) "hits/misses/evictions/entries/bytes"
    [ 2; 2; 1; 2; 12 ]
    [ s.Cache.hits; s.Cache.misses; s.Cache.evictions; s.Cache.entries; s.Cache.resident_bytes ]

let test_fold_order () =
  let c : int Cache.t = Cache.create ~capacity:8 () in
  List.iter (fun (k, v) -> Cache.add c ~bytes:v k v) [ ("a", 1); ("b", 2); ("c", 3) ];
  ignore (Cache.find c "a") (* recency now a > c > b *);
  let got =
    List.rev (Cache.fold c ~init:[] ~f:(fun acc ~key ~bytes v -> (key, bytes, v) :: acc))
  in
  Alcotest.(check bool) "least recent first, bytes preserved" true
    (got = [ ("b", 2, 2); ("c", 3, 3); ("a", 1, 1) ])

let suite =
  [
    Alcotest.test_case "enum shapes map to distinct keys" `Quick test_enum_shapes_distinct;
    Alcotest.test_case "per-instance stats" `Quick test_stats;
    Alcotest.test_case "fold is lru-first snapshot" `Quick test_fold_order;
    Alcotest.test_case "mirror trees differ" `Quick test_mirrors_differ;
    Alcotest.test_case "fingerprint is label independent" `Quick test_label_independent;
    Alcotest.test_case "subtree fingerprints and ranks" `Quick test_subtrees_and_ranks;
    Alcotest.test_case "lru eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "byte bound evicts" `Quick test_byte_bound;
    Alcotest.test_case "with_memo hit, verify-reject counters" `Quick test_with_memo_and_verify;
    Alcotest.test_case "cross-label hit shares entry, metrics" `Quick test_cross_label_hit;
    Alcotest.test_case "shape dedup counts entries" `Quick test_shape_dedup_counts;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) cache_props
