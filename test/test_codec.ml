open Xt_bintree

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_single_node () =
  Alcotest.(check string) "print" "(..)" (Codec.to_string (Gen.complete 1));
  match Codec.of_string "(..)" with
  | Ok t -> check "size" 1 (Bintree.n t)
  | Error e -> Alcotest.fail e

let test_small_shapes () =
  (* root with left leaf only *)
  let t = Gen.path 2 in
  Alcotest.(check string) "left leaf" "((..).)" (Codec.to_string t);
  (* complete 3 *)
  Alcotest.(check string) "two leaves" "((..)(..))" (Codec.to_string (Gen.complete 3))

let test_whitespace_tolerated () =
  match Codec.of_string " ( ( . . )\n . )\t" with
  | Ok t -> check "size" 2 (Bintree.n t)
  | Error e -> Alcotest.fail e

let shape_signature t = Codec.to_string t

let test_roundtrip_families () =
  let rng = Xt_prelude.Rng.make ~seed:4 in
  List.iter
    (fun (f : Gen.family) ->
      let t = f.generate rng 300 in
      match Codec.of_string (Codec.to_string t) with
      | Ok t' ->
          check (f.name ^ " size") (Bintree.n t) (Bintree.n t');
          Alcotest.(check string) (f.name ^ " shape") (shape_signature t) (shape_signature t')
      | Error e -> Alcotest.failf "%s: %s" f.name e)
    Gen.families

let test_deep_path_no_overflow () =
  let t = Gen.path 200_000 in
  match Codec.of_string (Codec.to_string t) with
  | Ok t' -> check "size" 200_000 (Bintree.n t')
  | Error e -> Alcotest.fail e

let test_errors () =
  let bad input =
    match Codec.of_string input with
    | Ok _ -> Alcotest.failf "%S should not parse" input
    | Error _ -> ()
  in
  bad "";
  bad "(";
  bad ")";
  bad "(.)";
  bad "(...)";
  bad "(..)(..)";
  bad "(..)x";
  bad "((..)";
  bad "x"

let test_right_only_child () =
  (* a root whose single child is on the right: (.(..)) *)
  match Codec.of_string "(.(..))" with
  | Ok t ->
      check "size" 2 (Bintree.n t);
      Alcotest.(check (option int)) "no left" None (Bintree.left t (Bintree.root t));
      checkb "has right" true (Bintree.right t (Bintree.root t) <> None);
      Alcotest.(check string) "reprints" "(.(..))" (Codec.to_string t)
  | Error e -> Alcotest.fail e

let qcheck_tests =
  let gen_tree =
    QCheck2.Gen.(
      map
        (fun (seed, n) ->
          let rng = Xt_prelude.Rng.make ~seed in
          Gen.uniform rng (n + 1))
        (pair (int_bound 1_000_000) (int_bound 300)))
  in
  [
    QCheck2.Test.make ~count:200 ~name:"codec roundtrip preserves shape" gen_tree (fun t ->
        match Codec.of_string (Codec.to_string t) with
        | Ok t' -> Codec.to_string t' = Codec.to_string t && Bintree.n t' = Bintree.n t
        | Error _ -> false);
    QCheck2.Test.make ~count:200 ~name:"codec output is balanced" gen_tree (fun t ->
        let s = Codec.to_string t in
        let depth = ref 0 and ok = ref true in
        String.iter
          (fun c ->
            match c with
            | '(' -> incr depth
            | ')' ->
                decr depth;
                if !depth < 0 then ok := false
            | _ -> ())
          s;
        !ok && !depth = 0);
  ]

let suite =
  [
    ("single node", `Quick, test_single_node);
    ("small shapes", `Quick, test_small_shapes);
    ("whitespace tolerated", `Quick, test_whitespace_tolerated);
    ("roundtrip families", `Quick, test_roundtrip_families);
    ("deep path no overflow", `Quick, test_deep_path_no_overflow);
    ("errors", `Quick, test_errors);
    ("right-only child", `Quick, test_right_only_child);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_tests

(* Fuzz: the parser must never raise on arbitrary input, only Ok/Error. *)
let fuzz_tests =
  let gen_junk =
    QCheck2.Gen.(
      let* len = int_bound 60 in
      let* chars = list_size (return len) (oneofl [ '('; ')'; '.'; ' '; 'x'; '\n' ]) in
      return (String.init (List.length chars) (List.nth chars)))
  in
  [
    QCheck2.Test.make ~count:500 ~name:"codec parser is total" ~print:(fun s -> String.escaped s)
      gen_junk (fun s ->
        match Codec.of_string s with
        | Ok t -> Bintree.check t = Ok ()
        | Error _ -> true);
  ]

let suite = suite @ List.map (QCheck_alcotest.to_alcotest ~long:false) fuzz_tests

(* Fuzz from valid strings: a random tree of any family, its Codec string
   mutated by byte flips among the three codec characters, deletions,
   insertions, duplicated or swapped substrings, truncation, and leaves
   grown or pruned ("." and "(..)" swapped), so that some mutants still
   parse. Every
   mutant parses to Ok or Error without raising; an Ok tree is valid,
   prints to a string that parses back to the same shape, and embeds by
   Theorem 1 with every node placed at load <= 16 — the core on shapes
   no generator makes. *)
type mutant = { fam : string; n : int; mseed : int; text : string }

let mutate rng s =
  let open Xt_prelude in
  let b = Buffer.create (String.length s + 8) in
  let codec () = [| '('; ')'; '.' |].(Rng.int rng 3) in
  let s = ref s in
  for _ = 1 to Rng.int_in rng 1 4 do
    let cur = !s in
    let len = String.length cur in
    let at () = Rng.int rng (len + 1) in
    Buffer.clear b;
    (match Rng.int rng 8 with
    | 0 when len > 0 ->
        (* flip a byte to another codec character *)
        let i = Rng.int rng len in
        String.iteri (fun j c -> Buffer.add_char b (if j = i then codec () else c)) cur
    | 1 when len > 0 ->
        let i = Rng.int rng len and k = Rng.int_in rng 1 3 in
        Buffer.add_string b (String.sub cur 0 i);
        if i + k < len then Buffer.add_string b (String.sub cur (i + k) (len - i - k))
    | 2 ->
        let i = at () in
        Buffer.add_string b (String.sub cur 0 i);
        for _ = 1 to Rng.int_in rng 1 3 do
          Buffer.add_char b (codec ())
        done;
        Buffer.add_string b (String.sub cur i (len - i))
    | 3 when len > 0 ->
        (* duplicate a substring in place *)
        let i = Rng.int rng len in
        let k = Rng.int_in rng 1 (min 12 (len - i)) in
        Buffer.add_string b (String.sub cur 0 (i + k));
        Buffer.add_string b (String.sub cur i (len - i))
    | 4 when len > 1 ->
        (* swap two adjacent substrings *)
        let i = Rng.int rng (len - 1) in
        let k = Rng.int_in rng 1 (min 8 (len - i - 1)) in
        let m = Rng.int_in rng 1 (min 8 (len - i - k)) in
        Buffer.add_string b (String.sub cur 0 i);
        Buffer.add_string b (String.sub cur (i + k) m);
        Buffer.add_string b (String.sub cur i k);
        Buffer.add_string b (String.sub cur (i + k + m) (len - i - k - m))
    | 5 -> Buffer.add_string b (String.sub cur 0 (Rng.int rng (len + 1)))
    | _ ->
        (* grow a leaf at an empty slot, or prune one, from a random point on *)
        let i = at () in
        let grow = Rng.bool rng in
        let j = ref i and found = ref (-1) in
        while !found < 0 && !j < len do
          if grow && cur.[!j] = '.' then found := !j
          else if (not grow) && !j + 3 < len && String.sub cur !j 4 = "(..)" then found := !j;
          incr j
        done;
        if !found < 0 then Buffer.add_string b cur
        else begin
          let k = !found in
          Buffer.add_string b (String.sub cur 0 k);
          Buffer.add_string b (if grow then "(..)" else ".");
          let skip = if grow then 1 else 4 in
          Buffer.add_string b (String.sub cur (k + skip) (len - k - skip))
        end);
    s := Buffer.contents b
  done;
  !s

let mutant_gen =
  QCheck2.Gen.(
    let* fam = oneofl (List.map (fun (f : Gen.family) -> f.name) Gen.families) in
    let* n = int_range 1 200 in
    let* mseed = int_bound 1_000_000 in
    let rng = Xt_prelude.Rng.make ~seed:mseed in
    let t = (Gen.family fam).generate rng n in
    return { fam; n; mseed; text = mutate rng (Codec.to_string t) })

let print_mutant m = Printf.sprintf "%s(%d) seed=%d %S" m.fam m.n m.mseed m.text

let run_mutant m =
  let open Xt_core in
  match Codec.of_string m.text with
  | Error _ -> true
  | Ok t -> (
      let fail fmt = QCheck2.Test.fail_reportf fmt in
      if Bintree.check t <> Ok () then fail "parsed tree is invalid";
      let s = Codec.to_string t in
      (match Codec.of_string s with
      | Ok t' when Codec.to_string t' = s && Bintree.n t' = Bintree.n t -> ()
      | _ -> fail "reprint %S does not parse back to the same shape" s);
      let r = Theorem1.embed t in
      match
        Xt_embedding.Embedding.verify ~dist:(Theorem1.distance_oracle r) ~max_load:16
          r.Theorem1.embedding
      with
      | Ok () -> true
      | Error e -> fail "embedding of %d nodes: %s" (Bintree.n t) e)

let mutation_tests =
  [
    QCheck2.Test.make ~count:500 ~name:"codec mutants parse, reprint and embed"
      ~print:print_mutant mutant_gen run_mutant;
  ]

let suite = suite @ List.map (QCheck_alcotest.to_alcotest ~long:false) mutation_tests
