(* Allocation guards for the @serve-smoke alias. Prints parseable lines
   for check.sh.

   1. A cached embed is a cache hit: a repeated shape must be answered
      from the memoised placement, never by re-running the embedding
      pipeline. A full run on a ~500-node tree allocates megawords; a hit
      unpacks the stored entry and rebuilds the result record, which is
      O(n). The threshold sits well above the hit path and well below the
      pipeline, so a regression that silently stops hitting the cache
      fails loudly.

   2. A warm server answers a hit from the request bytes: reading the
      frame and forming the cache key are the only payload-sized
      allocations, so a hot request may allocate at most 4x its payload
      plus 1 KB. Parsing, fingerprinting or re-encoding the reply would
      each break the bound. *)

open Xt_prelude
open Xt_bintree
open Xt_core
open Xt_serve

let hit_guard () =
  let tree = Gen.uniform (Rng.make ~seed:5) 509 in
  let cache = Theorem1.make_cache ~capacity:64 () in
  let embed () = Theorem1.embed ~capacity:16 ~cache tree in
  ignore (embed ());
  for _ = 1 to 4 do
    ignore (embed ())
  done;
  Gc.minor ();
  let before = Gc.minor_words () in
  ignore (embed ());
  let allocated = Gc.minor_words () -. before in
  Printf.printf "hit-minor-words = %.0f\n" allocated;
  let stats = Theorem1.cache_stats cache in
  Printf.printf "hits = %d misses = %d\n" stats.Cache.hits stats.Cache.misses;
  print_endline
    (if allocated < 65536. && stats.Cache.misses = 1 then "guard PASS" else "guard FAIL")

let serve_guard () =
  let payload = Codec.to_string (Gen.uniform (Rng.make ~seed:7) 2040) in
  let requests = 512 and window = 16 in
  let input = Filename.temp_file "serve_guard" ".req" in
  let output = Filename.temp_file "serve_guard" ".resp" in
  Out_channel.with_open_bin input (fun oc ->
      for i = 1 to requests do
        Wire.write_frame oc payload;
        if i mod window = 0 then Wire.write_flush oc
      done);
  let state = Serve.make_state Serve.default in
  let serve () =
    In_channel.with_open_bin input (fun ic ->
        Out_channel.with_open_bin output (fun oc -> Serve.run ~state ic oc))
  in
  (* The first request embeds the shape; the measured pass is all hits. *)
  ignore (serve ());
  let before = Gc.allocated_bytes () in
  let summary = serve () in
  let per_request = (Gc.allocated_bytes () -. before) /. float_of_int requests in
  let bound = (4. *. float_of_int (String.length payload)) +. 1024. in
  Sys.remove input;
  Sys.remove output;
  Printf.printf "serve-hit bytes/request = %.0f (payload %d, bound %.0f)\n" per_request
    (String.length payload) bound;
  Printf.printf "serve requests = %d misses = %d\n" summary.Serve.requests
    summary.Serve.stats.Cache.misses;
  print_endline
    (if
       per_request <= bound
       && summary.Serve.requests = requests
       && summary.Serve.stats.Cache.misses = 1
     then "serve guard PASS"
     else "serve guard FAIL")

let () =
  hit_guard ();
  serve_guard ()
