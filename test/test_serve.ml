(* Embedding-as-a-service (ISSUE 10): wire framing, the Shape_memo
   snapshot codec, and the serve loop's bit-identity with direct
   Theorem1.embed calls — the equivalence suite the snapshot and serve
   paths are held to. *)

open Xt_obs
open Xt_prelude
open Xt_bintree
open Xt_embedding
open Xt_core
open Xt_serve

let place (r : Theorem1.result) = r.Theorem1.embedding.Embedding.place

let roundtrip tree =
  match Codec.of_string (Codec.to_string tree) with
  | Ok t -> t
  | Error msg -> Alcotest.failf "roundtrip: %s" msg

let tmp_snapshot () = Filename.temp_file "xtsm_test" ".snap"

(* The bytes [write] puts on a channel. *)
let written write =
  let file = Filename.temp_file "wire_test" ".bin" in
  Out_channel.with_open_bin file write;
  let s = In_channel.with_open_bin file In_channel.input_all in
  Sys.remove file;
  s

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* The reply a server owes [payload]: an error if it does not parse, else
   the encoding of a direct uncached embed of its parse. *)
let direct_reply ~capacity payload =
  match Codec.of_string payload with
  | Error _ -> None
  | Ok t ->
      let r = Theorem1.embed ~capacity t in
      Some
        (Wire.encode_ok
           { Wire.height = r.Theorem1.height; fallbacks = r.Theorem1.fallbacks; place = place r })

(* ---------------- wire ---------------- *)

let test_wire_frames () =
  let file = Filename.temp_file "wire_test" ".bin" in
  let payloads = [ "hello"; ""; String.make 1000 'x'; "(()())" ] in
  Out_channel.with_open_bin file (fun oc ->
      List.iter (Wire.write_frame oc) payloads;
      Wire.write_flush oc);
  In_channel.with_open_bin file (fun ic ->
      List.iter
        (fun want ->
          match Wire.read_frame ic with
          | Some got -> Alcotest.(check string) "frame round-trips" want got
          | None -> Alcotest.fail "premature EOF")
        (payloads @ [ "" ]);
      Alcotest.(check bool) "clean EOF" true (Wire.read_frame ic = None));
  (* Torn payload: a frame announcing more bytes than the stream holds. *)
  Out_channel.with_open_bin file (fun oc ->
      let hdr = Bytes.create 4 in
      Bytes.set_int32_be hdr 0 99l;
      output_bytes oc hdr;
      output_string oc "short");
  In_channel.with_open_bin file (fun ic ->
      Alcotest.check_raises "EOF inside frame" (Wire.Protocol "EOF inside frame")
        (fun () -> ignore (Wire.read_frame ic)));
  Sys.remove file

(* A length word cut short at the end of the stream cannot be told from
   a clean EOF: [read_frame] returns [None] for it, as wire.ml says. *)
let test_wire_torn_length_word () =
  let stream = written (fun oc -> Wire.write_frame oc "abc") ^ "\000\000" in
  let file = Filename.temp_file "wire_test" ".bin" in
  Out_channel.with_open_bin file (fun oc -> output_string oc stream);
  In_channel.with_open_bin file (fun ic ->
      Alcotest.(check (option string)) "whole frame" (Some "abc") (Wire.read_frame ic);
      Alcotest.(check (option string)) "torn length word" None (Wire.read_frame ic));
  Sys.remove file

(* A payload past 64 KiB is read in 64 KiB chunks into a buffer that
   grows as they arrive: a 7-byte stream whose length word announces
   max_frame (2^26) bytes allocates one chunk, not 64 MB, before the EOF
   (67.1 MB when the payload was allocated up front); honest frames
   around the chunk size round-trip. *)
let test_wire_chunked_payload () =
  let file = Filename.temp_file "wire_test" ".bin" in
  Out_channel.with_open_bin file (fun oc ->
      let hdr = Bytes.create 4 in
      Bytes.set_int32_be hdr 0 (Int32.of_int Wire.max_frame);
      output_bytes oc hdr;
      output_string oc "abc");
  In_channel.with_open_bin file (fun ic ->
      let before = Gc.allocated_bytes () in
      (match Wire.read_frame ic with
      | exception Wire.Protocol "EOF inside frame" -> ()
      | _ -> Alcotest.fail "a lying length word must raise Protocol");
      let mb = (Gc.allocated_bytes () -. before) /. 1e6 in
      Alcotest.(check bool) (Printf.sprintf "lying length word allocated %.3f MB" mb) true (mb < 1.0));
  let sizes = [ 0; 1; 65_536; 65_537; 1 lsl 20 ] in
  let payload k = String.init k (fun i -> Char.chr ((i * 7) land 255)) in
  Out_channel.with_open_bin file (fun oc -> List.iter (fun k -> Wire.write_frame oc (payload k)) sizes);
  In_channel.with_open_bin file (fun ic ->
      List.iter
        (fun k ->
          match Wire.read_frame ic with
          | Some got -> Alcotest.(check bool) (Printf.sprintf "%d-byte frame" k) true (got = payload k)
          | None -> Alcotest.fail "premature EOF")
        sizes;
      Alcotest.(check bool) "clean EOF" true (Wire.read_frame ic = None));
  Sys.remove file

let wire_response_prop =
  QCheck2.Test.make ~count:200 ~name:"wire: response payload round-trips"
    QCheck2.Gen.(
      triple (int_bound 30) (int_bound 1000) (array_size (int_bound 200) (int_bound 10000)))
    (fun (height, fallbacks, plc) ->
      let r = { Wire.height; fallbacks; place = plc } in
      (* A hit's frame is written from the packed placement the memo
         stores; it must be the frame of the encoded response. *)
      let packed = Bytes.create (4 * Array.length plc) in
      Shape_memo.blit_packed plc packed 0;
      let hit_frame =
        written (fun oc -> Wire.write_ok oc ~height ~fallbacks (Bytes.to_string packed))
      in
      String.equal hit_frame (written (fun oc -> Wire.write_frame oc (Wire.encode_ok r)))
      &&
      match Wire.decode_response (Wire.encode_ok r) with
      | Ok r' ->
          r'.Wire.height = height && r'.Wire.fallbacks = fallbacks && r'.Wire.place = plc
      | Error _ -> false)

let test_wire_error_response () =
  let p = Wire.encode_error "no parse" in
  Alcotest.(check bool) "status peek" true (Wire.is_error p);
  match Wire.decode_response p with
  | Error msg -> Alcotest.(check string) "message carried" "no parse" msg
  | Ok _ -> Alcotest.fail "error payload decoded as success"

(* ---------------- snapshot codec ---------------- *)

let snapshot_roundtrip_prop =
  QCheck2.Test.make ~count:25 ~name:"snapshot: reload serves bit-identical placements"
    QCheck2.Gen.(list_size (int_range 1 8) (pair (int_range 1 140) (int_bound 1000)))
    (fun specs ->
      let trees =
        List.map (fun (n, seed) -> roundtrip (Gen.uniform (Rng.make ~seed) n)) specs
      in
      let c1 = Theorem1.make_cache () in
      let direct = List.map (fun t -> place (Theorem1.embed ~capacity:8 ~cache:c1 t)) trees in
      let file = tmp_snapshot () in
      let saved = Theorem1.cache_save c1 ~file in
      let c2 = Theorem1.make_cache () in
      let loaded = Theorem1.cache_load c2 ~file in
      Sys.remove file;
      (match loaded with
      | Ok n ->
          if n <> saved then
            QCheck2.Test.fail_reportf "loaded %d entries of %d saved" n saved
      | Error msg -> QCheck2.Test.fail_reportf "load failed: %s" msg);
      let again = List.map (fun t -> place (Theorem1.embed ~capacity:8 ~cache:c2 t)) trees in
      let st = Theorem1.cache_stats c2 in
      if st.Cache.misses <> 0 then
        QCheck2.Test.fail_reportf "%d misses after a full reload" st.Cache.misses;
      List.for_all2 (fun a b -> a = b) direct again)

(* A snapshot keeps the recency order: touch a full cache's entries in a
   known order, save it, load it into a fresh cache of the same capacity
   and add one new shape. The entry evicted is the one that was least
   recently used before the save. *)
let test_snapshot_keeps_recency () =
  let shapes = Loadgen.make_shapes ~seed:41 ~count:5 ~size:50 in
  let embed cache i =
    match Codec.of_string shapes.(i) with
    | Ok t -> ignore (Theorem1.embed ~cache t)
    | Error msg -> Alcotest.failf "pool shape %d: %s" i msg
  in
  let c1 = Theorem1.make_cache ~capacity:4 () in
  List.iter (embed c1) [ 0; 1; 2; 3; 2; 0; 3; 1 ];
  (* most recent first: 1, 3, 0, 2 *)
  let file = tmp_snapshot () in
  Alcotest.(check int) "every entry saved" 4 (Theorem1.cache_save c1 ~file);
  let c2 = Theorem1.make_cache ~capacity:4 () in
  let loaded = Theorem1.cache_load c2 ~file in
  Sys.remove file;
  Alcotest.(check (result int string)) "every entry loaded" (Ok 4) loaded;
  embed c2 4;
  let cached i = Option.is_some (Theorem1.find_packed c2 ~capacity:16 shapes.(i)) in
  Alcotest.(check (list bool)) "only shape 2, the lru, evicted"
    [ true; true; false; true; true ] (List.init 5 cached)

(* Corrupt a saved snapshot every way the codec guards against; each
   attempt must reject atomically, leaving the target cache empty. *)
let test_snapshot_rejection () =
  let c = Theorem1.make_cache () in
  List.iter
    (fun seed -> ignore (Theorem1.embed ~capacity:8 ~cache:c (Gen.uniform (Rng.make ~seed) 60)))
    [ 1; 2; 3 ];
  let file = tmp_snapshot () in
  ignore (Theorem1.cache_save c ~file);
  let bytes = In_channel.with_open_bin file In_channel.input_all in
  let try_load mutated what expect_substring =
    Out_channel.with_open_bin file (fun oc -> output_string oc mutated);
    let fresh = Theorem1.make_cache () in
    (match Theorem1.cache_load fresh ~file with
    | Ok n -> Alcotest.failf "%s: load accepted %d entries" what n
    | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: error mentions %S (got %S)" what expect_substring msg)
          true (contains msg expect_substring));
    Alcotest.(check int) (what ^ ": nothing inserted") 0 (Theorem1.cache_length fresh)
  in
  let flip s i =
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
    Bytes.to_string b
  in
  try_load (flip bytes 0) "bad magic" "magic";
  try_load (flip bytes 4) "wrong version" "version";
  let v1 = Bytes.of_string bytes in
  Bytes.set_int32_le v1 4 1l;
  try_load (Bytes.to_string v1) "version 1 file" "unsupported version 1";
  try_load (String.sub bytes 0 (String.length bytes / 2)) "truncated file" "truncated";
  try_load (flip bytes (String.length bytes - 20)) "corrupted entry" "checksum";
  try_load (bytes ^ "tail") "trailing bytes" "trailing";
  Sys.remove file;
  let missing = Theorem1.make_cache () in
  (match Theorem1.cache_load missing ~file with
  | Ok _ -> Alcotest.fail "missing file: load accepted"
  | Error _ -> ());
  Alcotest.(check int) "missing file: nothing inserted" 0 (Theorem1.cache_length missing)

(* Entries that pass their checksum but not the loader's checks: each
   must reject the whole file. A crafted entry is written through the
   memo itself, which trusts its caller. *)
let test_snapshot_entry_checks () =
  let load ?(prefix = "t1|c=16|h=1|o=ttt") ?(meta = "1 0 0") canon place =
    let m : string Shape_memo.t = Shape_memo.create () in
    ignore (Shape_memo.memo_canonical m ~prefix ~canon ~compute:(fun () -> (place, meta)));
    let file = tmp_snapshot () in
    ignore (Shape_memo.save m ~encode_meta:Fun.id ~file);
    let fresh = Theorem1.make_cache () in
    let r = Theorem1.cache_load fresh ~file in
    Sys.remove file;
    (r, Theorem1.cache_length fresh)
  in
  let rejects what expect (r, len) =
    (match r with
    | Ok n -> Alcotest.failf "%s: load accepted %d entries" what n
    | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: error mentions %S (got %S)" what expect msg)
          true (contains msg expect));
    Alcotest.(check int) (what ^ ": nothing inserted") 0 len
  in
  (match load "((..)(..))" [| 0; 1; 2 |] with
  | Ok 1, 1 -> ()
  | _ -> Alcotest.fail "a well-formed crafted entry must load");
  rejects "non-canonical key" "canonical" (load "((..) (..))" [| 0; 1; 2 |]);
  rejects "not a Codec string" "canonical" (load "((..)(..)" [| 0; 1; 2 |]);
  rejects "short placement" "length" (load "((..)(..))" [| 0; 1 |]);
  rejects "placement outside X(1)" "outside" (load "((..)(..))" [| 0; 1; 3 |]);
  rejects "negative placement" "outside" (load "((..)(..))" [| 0; -1; 2 |]);
  rejects "height the key does not name" "metadata" (load ~meta:"2 0 0" "((..)(..))" [| 0; 1; 2 |]);
  rejects "zero capacity" "metadata" (load ~prefix:"t1|c=0|h=1|o=ttt" "((..)(..))" [| 0; 1; 2 |]);
  rejects "two nodes on a capacity-1 vertex" "capacity"
    (load ~prefix:"t1|c=1|h=1|o=ttt" "((..)(..))" [| 0; 1; 1 |]);
  (* every node of a 40-node guest on the root of X(1), capacity 16 *)
  let path40 = Codec.to_string (Gen.path 40) in
  rejects "every node on vertex 0" "capacity" (load path40 (Array.make 40 0));
  rejects "foreign key prefix" "metadata" (load ~prefix:"rb|h=1" "((..)(..))" [| 0; 1; 2 |])

(* 64-bit FNV-1a, as the snapshot codec checksums each entry body. *)
let fnv1a s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

(* Mutations of a valid snapshot: a byte flip, a truncation, or a lying
   length field (the entry count, a body length, or one of the three
   lengths inside a body). With [reseal], every entry body is
   re-checksummed afterwards, so a mutated body reaches the loader's
   entry checks instead of stopping at the checksum. *)
type mutation = Flip of int * int | Truncate of int | Lie of int * int32

let snapshot_fuzz_prop =
  let c = Theorem1.make_cache () in
  List.iter
    (fun seed -> ignore (Theorem1.embed ~capacity:8 ~cache:c (Gen.uniform (Rng.make ~seed) 40)))
    [ 1; 2; 3 ];
  let file = tmp_snapshot () in
  ignore (Theorem1.cache_save c ~file);
  let valid = In_channel.with_open_bin file In_channel.input_all in
  Sys.remove file;
  let len = String.length valid in
  let u32 p = Int32.to_int (String.get_int32_le valid p) in
  (* Offsets of every length field and every entry body. *)
  let fields = ref [ 8 ] and bodies = ref [] and pos = ref 12 in
  for _ = 1 to u32 8 do
    let body = !pos + 4 and body_len = u32 !pos in
    fields := !pos :: !fields;
    bodies := (body, body_len) :: !bodies;
    let q = ref body in
    for _ = 1 to 3 do
      fields := !q :: !fields;
      q := !q + 4 + u32 !q
    done;
    pos := body + body_len + 8
  done;
  let fields = Array.of_list !fields and bodies = !bodies in
  let gen =
    QCheck2.Gen.(
      pair
        (oneof
           [
             map2 (fun i m -> Flip (i, m)) (int_bound (len - 1)) (int_range 1 255);
             map (fun n -> Truncate n) (int_bound (len - 1));
             map2
               (fun k v -> Lie (fields.(k), v))
               (int_bound (Array.length fields - 1))
               (oneof
                  [
                    map Int32.of_int (int_bound 64);
                    pure 0x7fffffffl;
                    pure (-1l);
                    map Int32.of_int (int_bound (2 * len));
                  ]);
           ])
        bool)
  in
  let print (m, reseal) =
    (match m with
    | Flip (i, x) -> Printf.sprintf "flip byte %d by 0x%02x" i x
    | Truncate n -> Printf.sprintf "truncate to %d bytes" n
    | Lie (p, v) -> Printf.sprintf "length field at %d := %ld" p v)
    ^ if reseal then ", resealed" else ""
  in
  QCheck2.Test.make ~count:300 ~print ~name:"snapshot: mutated files load or reject atomically"
    gen
    (fun (m, reseal) ->
      let b = Bytes.of_string valid in
      let b =
        match m with
        | Flip (i, x) ->
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor x));
            b
        | Truncate n -> Bytes.sub b 0 n
        | Lie (p, v) ->
            Bytes.set_int32_le b p v;
            b
      in
      if reseal then
        List.iter
          (fun (body, body_len) ->
            if body + body_len + 8 <= Bytes.length b then
              Bytes.set_int64_le b (body + body_len) (fnv1a (Bytes.sub_string b body body_len)))
          bodies;
      let file = tmp_snapshot () in
      Out_channel.with_open_bin file (fun oc -> Out_channel.output_bytes oc b);
      let fresh = Theorem1.make_cache () in
      let result = try Ok (Theorem1.cache_load fresh ~file) with exn -> Error exn in
      Sys.remove file;
      match result with
      | Error exn -> QCheck2.Test.fail_reportf "load raised %s" (Printexc.to_string exn)
      | Ok (Ok n) -> Theorem1.cache_length fresh <= n
      | Ok (Error _) -> Theorem1.cache_length fresh = 0)

(* Mutations of a valid framed stream (flush markers, Codec strings and
   a long payload): a byte flip, a truncation, or a lying length word,
   mostly a small lie, sometimes one byte past [Wire.max_frame]. Read to
   the end, every mutant gives frames then [None], or [Wire.Protocol];
   no other exception. A truncated stream reads as a prefix of the
   original frames. *)
let wire_fuzz_prop =
  let payloads =
    [ Codec.to_string (Gen.uniform (Rng.make ~seed:5) 30); ""; String.make 1000 'x'; "(()())"; "" ]
  in
  let valid = written (fun oc -> List.iter (Wire.write_frame oc) payloads) in
  let len = String.length valid in
  (* Offsets of every length word. *)
  let words =
    let pos = ref 0 in
    Array.of_list
      (List.map
         (fun p ->
           let w = !pos in
           pos := w + 4 + String.length p;
           w)
         payloads)
  in
  let gen =
    QCheck2.Gen.(
      oneof
        [
          map2 (fun i m -> Flip (i, m)) (int_bound (len - 1)) (int_range 1 255);
          map (fun n -> Truncate n) (int_bound (len - 1));
          map2
            (fun k v -> Lie (words.(k), v))
            (int_bound (Array.length words - 1))
            (frequency
               [
                 (8, map Int32.of_int (int_bound 64));
                 (4, map Int32.of_int (int_bound (2 * len)));
                 (1, pure (Int32.of_int (Wire.max_frame + 1)));
               ]);
        ])
  in
  let print = function
    | Flip (i, x) -> Printf.sprintf "flip byte %d by 0x%02x" i x
    | Truncate n -> Printf.sprintf "truncate to %d bytes" n
    | Lie (p, v) -> Printf.sprintf "length word at %d := %ld" p v
  in
  QCheck2.Test.make ~count:300 ~print ~name:"wire: mutated streams read or fail with Protocol" gen
    (fun m ->
      let b = Bytes.of_string valid in
      let b =
        match m with
        | Flip (i, x) ->
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor x));
            b
        | Truncate n -> Bytes.sub b 0 n
        | Lie (p, v) ->
            Bytes.set_int32_be b p v;
            b
      in
      let file = Filename.temp_file "wire_fuzz" ".bin" in
      Out_channel.with_open_bin file (fun oc -> Out_channel.output_bytes oc b);
      let result =
        In_channel.with_open_bin file (fun ic ->
            let rec go acc =
              match Wire.read_frame ic with
              | None -> Ok (List.rev acc)
              | Some p -> go (p :: acc)
              | exception Wire.Protocol _ -> Error ()
            in
            try go [] with exn -> QCheck2.Test.fail_reportf "read raised %s" (Printexc.to_string exn))
      in
      Sys.remove file;
      match (m, result) with
      | Truncate _, Ok frames ->
          List.length frames <= List.length payloads
          && List.for_all2 String.equal frames (List.filteri (fun i _ -> i < List.length frames) payloads)
      | _ -> true)

(* ---------------- the serve loop ---------------- *)

let collect_replies () =
  let acc = ref [] in
  let on_reply (r : Loadgen.reply) = acc := r :: !acc in
  (on_reply, fun () -> List.rev !acc)

(* Every response must be byte-for-byte what a direct Theorem1.embed
   returns for that request — the acceptance criterion of ISSUE 10. *)
let test_serve_equivalence () =
  let pool = Loadgen.make_shapes ~seed:11 ~count:5 ~size:90 in
  let stream = Loadgen.skewed_stream ~seed:11 ~shapes:pool ~requests:30 ~skew:1.2 in
  let on_reply, replies = collect_replies () in
  let config = { Serve.default with capacity = 8 } in
  let outcome, summary =
    Serve.in_process ~config (fun ch ->
        Loadgen.replay ~window:7 ~on_reply ~requests:stream ch)
  in
  Alcotest.(check int) "all requests answered" 30 outcome.Loadgen.sent;
  Alcotest.(check int) "server counted them" 30 summary.Serve.requests;
  Alcotest.(check int) "no errors" 0 summary.Serve.errors;
  List.iter
    (fun (r : Loadgen.reply) ->
      let resp =
        match Wire.decode_response r.Loadgen.payload with
        | Ok resp -> resp
        | Error msg -> Alcotest.failf "request %d got error: %s" r.Loadgen.index msg
      in
      let tree =
        match Codec.of_string r.Loadgen.request with
        | Ok t -> t
        | Error msg -> Alcotest.failf "unparsable request: %s" msg
      in
      let direct = Theorem1.embed ~capacity:8 tree in
      Alcotest.(check int) "height matches direct embed" direct.Theorem1.height
        resp.Wire.height;
      Alcotest.(check int) "fallbacks match direct embed" direct.Theorem1.fallbacks
        resp.Wire.fallbacks;
      Alcotest.(check bool) "placement bit-identical to direct embed" true
        (place direct = resp.Wire.place))
    (replies ())

let test_serve_error_reply () =
  let stream = [ Codec.to_string (Gen.complete 15); "(()"; Codec.to_string (Gen.path 7) ] in
  let on_reply, replies = collect_replies () in
  let outcome, summary =
    Serve.in_process (fun ch -> Loadgen.replay ~window:2 ~on_reply ~requests:stream ch)
  in
  Alcotest.(check int) "client saw one error" 1 outcome.Loadgen.errors;
  Alcotest.(check int) "server counted one error" 1 summary.Serve.errors;
  match List.map (fun (r : Loadgen.reply) -> Wire.decode_response r.Loadgen.payload) (replies ()) with
  | [ Ok _; Error msg; Ok _ ] ->
      Alcotest.(check bool) "error message non-empty" true (String.length msg > 0)
  | _ -> Alcotest.fail "expected ok/error/ok replies in order"

(* A restarted server with a snapshot answers from the restored cache:
   zero misses, and responses byte-identical to the first session's. *)
let test_serve_snapshot_warm_restart () =
  let file = tmp_snapshot () in
  Sys.remove file;
  let config = { Serve.default with capacity = 8; snapshot = Some file } in
  let pool = Loadgen.make_shapes ~seed:23 ~count:4 ~size:70 in
  let stream = Loadgen.skewed_stream ~seed:23 ~shapes:pool ~requests:20 ~skew:1.0 in
  let session () =
    let on_reply, replies = collect_replies () in
    let _, summary =
      Serve.in_process ~config (fun ch ->
          Loadgen.replay ~window:6 ~on_reply ~requests:stream ch)
    in
    (summary, List.map (fun (r : Loadgen.reply) -> r.Loadgen.payload) (replies ()))
  in
  let s1, replies1 = session () in
  Alcotest.(check int) "first session starts cold" 0 s1.Serve.loaded;
  Alcotest.(check int) "first session snapshots every shape" 4 s1.Serve.saved;
  let s2, replies2 = session () in
  Alcotest.(check int) "restart restores every shape" 4 s2.Serve.loaded;
  Alcotest.(check int) "restart never misses" 0 s2.Serve.stats.Cache.misses;
  Alcotest.(check bool) "responses byte-identical across restart" true
    (replies1 = replies2);
  Sys.remove file

(* A periodic snapshot flush that fails costs only itself: it is counted
   in [serve.snapshot_errors], every request is still answered with the
   bytes a run without a snapshot writes, and only the flush at EOF
   raises. The snapshot's directory is a regular file, so no flush can
   create its temporary file. *)
let test_serve_failed_flush () =
  let pool = Loadgen.make_shapes ~seed:41 ~count:3 ~size:50 in
  let stream = Loadgen.skewed_stream ~seed:41 ~shapes:pool ~requests:6 ~skew:1.0 in
  let input = Filename.temp_file "serve_flush" ".in" in
  let output = Filename.temp_file "serve_flush" ".out" in
  let oc = open_out_bin input in
  List.iter (Wire.write_frame oc) stream;
  close_out oc;
  let run snapshot =
    let ic = open_in_bin input and oc = open_out_bin output in
    let config = { Serve.default with snapshot; snapshot_every = 1; max_batch = 1 } in
    let outcome = try Ok (Serve.run ~config ic oc) with Sys_error msg -> Error msg in
    close_in ic;
    close_out oc;
    let ic = open_in_bin output in
    let bytes = really_input_string ic (in_channel_length ic) in
    close_in ic;
    (outcome, bytes)
  in
  let was_on = Obs.metrics_enabled () in
  Obs.enable_metrics ();
  let failures () =
    Option.value ~default:0 (List.assoc_opt "serve.snapshot_errors" (Obs.snapshot ()).Obs.counters)
  in
  let plain, plain_bytes = run None in
  let before = failures () in
  let flushed, flushed_bytes = run (Some (Filename.concat input "snap.bin")) in
  let counted = failures () - before in
  if not was_on then Obs.disable_metrics ();
  Sys.remove input;
  Sys.remove output;
  (match plain with
  | Ok s -> Alcotest.(check int) "plain run answers all" 6 s.Serve.requests
  | Error msg -> Alcotest.failf "plain run failed: %s" msg);
  Alcotest.(check bool) "the flush at EOF raises" true (Result.is_error flushed);
  Alcotest.(check int) "each periodic flush counted" 6 counted;
  Alcotest.(check bool) "replies byte-identical to the plain run" true (plain_bytes = flushed_bytes)

(* A fresh session over R requests and U distinct shapes embeds each
   shape once and counts each once: misses = U. The stream repeats shapes
   within and across windows, and spells one shape with whitespace. *)
let test_serve_counts_misses () =
  let pool = Loadgen.make_shapes ~seed:31 ~count:6 ~size:60 in
  let stream = Loadgen.skewed_stream ~seed:31 ~shapes:pool ~requests:40 ~skew:0.8 in
  let stream = stream @ [ " " ^ List.hd stream ^ "\n" ] in
  let distinct = List.length (List.sort_uniq compare (List.map String.trim stream)) in
  let config = { Serve.default with capacity = 8 } in
  let outcome, summary =
    Serve.in_process ~config (fun ch -> Loadgen.replay ~window:7 ~requests:stream ch)
  in
  Alcotest.(check int) "no errors" 0 outcome.Loadgen.errors;
  Alcotest.(check int) "misses = distinct shapes" distinct summary.Serve.stats.Cache.misses;
  Alcotest.(check bool) "no request counted twice" true
    (summary.Serve.stats.Cache.hits + summary.Serve.stats.Cache.misses <= List.length stream)

(* The byte path may answer a request only with the reply its own bytes
   are owed. Pool shapes share their first and last 64 bytes and differ
   inside, so a lookup that compares less than the whole string answers
   some request with another entry's bytes. *)
let byte_path_prop =
  let capacity = 2 in
  let codec t = Codec.to_string t in
  let gen =
    QCheck2.Gen.(
      let* seed = int_bound 1_000_000 in
      let* middle = int_range 3 24 in
      let* variants = int_range 2 3 in
      let* lone = int_range 1 90 in
      let* edits = list_repeat 48 (pair (int_bound 1_000_000) (int_bound 255)) in
      let tree k n = Gen.uniform (Rng.make ~seed:(seed + k)) n in
      let head = codec (tree 0 30) and tail = codec (tree 1 30) in
      let shared m = "(" ^ head ^ "(" ^ codec m ^ tail ^ "))" in
      let pool =
        List.sort_uniq compare
          (codec (tree 2 lone) :: List.init variants (fun k -> shared (tree (3 + k) middle)))
      in
      return (pool, edits))
  in
  let mutants pool edits =
    let edits = ref edits in
    let next () =
      match !edits with
      | (a, b) :: rest ->
          edits := rest;
          (a, b)
      | [] -> (0, 0)
    in
    List.concat_map
      (fun s ->
        let n = String.length s in
        let at () = fst (next ()) mod (n + 1) in
        let ws () = [| " "; "\t"; "\n"; "\r" |].(snd (next ()) mod 4) in
        let insert s =
          let i = at () mod (String.length s + 1) in
          String.sub s 0 i ^ ws () ^ String.sub s i (String.length s - i)
        in
        let flipped =
          let i, x = next () in
          let b = Bytes.of_string s in
          let i = i mod n in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + (x mod 255))));
          Bytes.to_string b
        in
        [
          insert s;
          insert (insert (insert s));
          flipped;
          (* not to zero bytes: an empty frame is a flush marker *)
          String.sub s 0 (1 + (at () mod (n - 1)));
          s ^ String.make 1 "(). x".[snd (next ()) mod 5];
        ])
      pool
  in
  QCheck2.Test.make ~count:200 ~name:"serve: byte-path replies are owed to the request bytes"
    gen
    (fun (pool, edits) ->
      let requests = pool @ pool @ mutants pool edits in
      let config = { Serve.default with capacity } in
      let on_reply, replies = collect_replies () in
      (* The first window warms the server on the pool. *)
      let _, summary =
        Serve.in_process ~config (fun ch ->
            Loadgen.replay ~window:(List.length pool) ~on_reply ~requests ch)
      in
      let owed = Hashtbl.create 16 in
      let owed payload =
        match Hashtbl.find_opt owed payload with
        | Some r -> r
        | None ->
            let r = direct_reply ~capacity payload in
            Hashtbl.add owed payload r;
            r
      in
      List.for_all
        (fun (r : Loadgen.reply) ->
          match owed r.Loadgen.request with
          | None -> Wire.is_error r.Loadgen.payload
          | Some want ->
              String.equal want r.Loadgen.payload
              || QCheck2.Test.fail_reportf "request %d (%d bytes): wrong reply" r.Loadgen.index
                   (String.length r.Loadgen.request))
        (replies ())
      && summary.Serve.stats.Cache.misses = List.length pool)

(* A client that hangs up before reading its replies costs only its own
   connection: the server keeps accepting, and the next client is served
   as usual. *)
let test_listen_survives_hangup () =
  let path = Filename.temp_file "xt_serve" ".sock" in
  let config = { Serve.default with capacity = 8 } in
  let server = Domain.spawn (fun () -> Serve.listen ~config ~max_conns:2 ~path ()) in
  let rec connect tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 0 ->
        Unix.close fd;
        Unix.sleepf 0.01;
        connect (tries - 1)
  in
  let pool = Loadgen.make_shapes ~seed:17 ~count:3 ~size:120 in
  (* A window, its flush marker, a second window, then hang up: the
     server answers the second window at EOF, after the close, so those
     replies go to a dead peer. *)
  let fd = connect 500 in
  let oc = Unix.out_channel_of_descr fd in
  set_binary_mode_out oc true;
  Array.iter (Wire.write_frame oc) pool;
  Wire.write_flush oc;
  Array.iter (Wire.write_frame oc) pool;
  close_out oc;
  let stream = Loadgen.skewed_stream ~seed:17 ~shapes:pool ~requests:12 ~skew:0.5 in
  let fd = connect 500 in
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  set_binary_mode_in ic true;
  set_binary_mode_out oc true;
  let on_reply, replies = collect_replies () in
  let outcome = Loadgen.replay ~window:5 ~on_reply ~requests:stream (ic, oc) in
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  Alcotest.(check int) "second client answered" 12 outcome.Loadgen.sent;
  List.iter
    (fun (r : Loadgen.reply) ->
      Alcotest.(check (option string))
        (Printf.sprintf "reply %d = direct embed" r.Loadgen.index)
        (direct_reply ~capacity:8 r.Loadgen.request)
        (Some r.Loadgen.payload))
    (replies ());
  close_in ic;
  Domain.join server;
  Alcotest.(check bool) "socket removed on return" false (Sys.file_exists path)

(* The socket path appears only once the server listens: a client that
   connects the moment the path exists is accepted, every time. *)
let test_listen_publishes_listening_socket () =
  for i = 1 to 20 do
    let path = Filename.temp_file "xt_serve" ".sock" in
    Sys.remove path;
    let server = Domain.spawn (fun () -> Serve.listen ~max_conns:1 ~path ()) in
    let deadline = Unix.gettimeofday () +. 10. in
    while not (Sys.file_exists path) do
      if Unix.gettimeofday () > deadline then Alcotest.failf "attempt %d: no socket after 10 s" i;
      Domain.cpu_relax ()
    done;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> ()
    | exception Unix.Unix_error (err, _, _) ->
        Alcotest.failf "attempt %d: connect as the path appeared: %s" i (Unix.error_message err));
    Unix.close fd;
    Domain.join server
  done

let suite =
  [
    Alcotest.test_case "wire frames round-trip" `Quick test_wire_frames;
    Alcotest.test_case "wire error response" `Quick test_wire_error_response;
    Alcotest.test_case "wire torn length word is a clean EOF" `Quick test_wire_torn_length_word;
    Alcotest.test_case "wire reads long payloads in chunks" `Quick test_wire_chunked_payload;
    Alcotest.test_case "snapshot rejection is atomic" `Quick test_snapshot_rejection;
    Alcotest.test_case "snapshot keeps recency order" `Quick test_snapshot_keeps_recency;
    Alcotest.test_case "serve responses = direct embeds" `Quick test_serve_equivalence;
    Alcotest.test_case "serve reports request errors" `Quick test_serve_error_reply;
    Alcotest.test_case "snapshot-warm restart" `Quick test_serve_snapshot_warm_restart;
    Alcotest.test_case "snapshot entries are checked" `Quick test_snapshot_entry_checks;
    Alcotest.test_case "a failed periodic flush keeps serving" `Quick test_serve_failed_flush;
    Alcotest.test_case "serve counts each shape's miss once" `Quick test_serve_counts_misses;
    Alcotest.test_case "listen survives a client hang-up" `Quick test_listen_survives_hangup;
    Alcotest.test_case "listen publishes a listening socket" `Quick
      test_listen_publishes_listening_socket;
  ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~long:false)
      [ wire_response_prop; wire_fuzz_prop; snapshot_roundtrip_prop; snapshot_fuzz_prop; byte_path_prop ]
