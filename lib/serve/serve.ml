open Xt_obs
open Xt_prelude
open Xt_bintree
open Xt_core

let c_requests = Obs.counter "serve.requests"
let c_batches = Obs.counter "serve.batches"
let c_errors = Obs.counter "serve.errors"
let c_unique = Obs.counter "serve.unique_shapes"
let c_snapshot_loaded = Obs.counter "serve.snapshot_loaded"
let c_snapshot_saved = Obs.counter "serve.snapshot_saved"
let h_request_ns = Obs.histogram "serve.request_ns"

type config = {
  capacity : int;
  cache_entries : int;
  cache_bytes : int option;
  snapshot : string option;
  snapshot_every : int;
  max_batch : int;
  status : bool;
}

let default =
  {
    capacity = 16;
    cache_entries = 4096;
    cache_bytes = None;
    snapshot = None;
    snapshot_every = 0;
    max_batch = 512;
    status = false;
  }

type summary = {
  requests : int;
  batches : int;
  errors : int;
  loaded : int;
  saved : int;
  stats : Cache.stats;
}

let make_state config =
  let cache =
    Theorem1.make_cache ~capacity:config.cache_entries ?max_bytes:config.cache_bytes ()
  in
  let loaded =
    match config.snapshot with
    | None -> 0
    | Some file when not (Sys.file_exists file) -> 0
    | Some file -> (
        match Theorem1.cache_load cache ~file with
        | Ok n ->
            Obs.add c_snapshot_loaded n;
            n
        | Error msg ->
            Printf.eprintf "serve: ignoring snapshot %s: %s\n%!" file msg;
            0)
  in
  (cache, loaded)

(* How one request of a batch is answered. *)
type answer =
  | Packed of Theorem1.packed  (* a cache hit on the request's bytes *)
  | Shape of int  (* a miss: this distinct shape of the batch *)
  | Failed of string  (* the payload does not parse *)

let run ?(config = default) ?state ic oc =
  (* A client that hangs up must cost only its own connection: ignore
     SIGPIPE, so that a write to it fails with [Sys_error] instead. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let cache, loaded = match state with Some s -> s | None -> make_state config in
  let capacity = config.capacity in
  let requests = ref 0 and batches = ref 0 and errors = ref 0 in
  let saved = ref 0 and since_flush = ref 0 in
  let flush_snapshot () =
    match config.snapshot with
    | None -> ()
    | Some file ->
        let n = Theorem1.cache_save cache ~file in
        saved := n;
        since_flush := 0;
        Obs.add c_snapshot_saved n
  in
  (* [batch] holds the payloads in input order, each with the time its
     frame was read. *)
  let process batch =
    incr batches;
    Obs.incr c_batches;
    Obs.span "serve.batch" (fun () ->
        let metered = Obs.metrics_enabled () in
        (* Hits are answered from the request bytes. Misses alone are
           parsed, deduplicated on their canonical string, and each
           distinct shape is embedded once. *)
        let index = Hashtbl.create 16 and shapes = ref [] in
        let answers =
          Array.map
            (fun (payload, _) ->
              match Theorem1.find_packed cache ~capacity payload with
              | Some p -> Packed p
              | None -> (
                  match Codec.of_string payload with
                  | Error msg -> Failed msg
                  | Ok t -> (
                      let canon = Codec.to_string t in
                      match Hashtbl.find_opt index canon with
                      | Some k -> Shape k
                      | None ->
                          let k = Hashtbl.length index in
                          Hashtbl.add index canon k;
                          shapes := (canon, t) :: !shapes;
                          Shape k)))
            batch
        in
        let shapes = Array.of_list (List.rev !shapes) in
        Obs.add c_unique (Array.length shapes);
        let embedded =
          Array.map (fun (canon, t) -> Theorem1.embed_packed cache ~capacity ~canon t) shapes
        in
        let write_packed (p : Theorem1.packed) =
          Wire.write_ok oc ~height:p.p_height ~fallbacks:p.p_fallbacks p.p_place
        in
        Array.iteri
          (fun i (_, read_ns) ->
            (match answers.(i) with
            | Packed p -> write_packed p
            | Shape k -> write_packed embedded.(k)
            | Failed msg ->
                incr errors;
                Obs.incr c_errors;
                Wire.write_frame oc (Wire.encode_error msg));
            incr requests;
            Obs.incr c_requests;
            if metered then Obs.observe h_request_ns (Obs.now_ns () - read_ns))
          batch;
        flush oc);
    if config.status then begin
      let s = Theorem1.cache_stats cache in
      Printf.eprintf
        "serve: batches=%d requests=%d errors=%d cache: hits=%d misses=%d evictions=%d \
         entries=%d bytes=%d\n\
         %!"
        !batches !requests !errors s.Cache.hits s.Cache.misses s.Cache.evictions
        s.Cache.entries s.Cache.resident_bytes
    end;
    since_flush := !since_flush + Array.length batch;
    if config.snapshot_every > 0 && !since_flush >= config.snapshot_every then
      flush_snapshot ()
  in
  let pending = ref [] and npending = ref 0 in
  let flush_pending () =
    if !npending > 0 then begin
      let batch = Array.of_list (List.rev !pending) in
      pending := [];
      npending := 0;
      process batch
    end
  in
  (try
     (try
        let eof = ref false in
        while not !eof do
          match Wire.read_frame ic with
          | None -> eof := true
          | Some "" -> flush_pending ()
          | Some payload ->
              pending := (payload, Obs.now_ns ()) :: !pending;
              incr npending;
              if !npending >= config.max_batch then flush_pending ()
        done
      with Wire.Protocol msg -> Printf.eprintf "serve: protocol error: %s\n%!" msg);
     flush_pending ()
   with Sys_error msg ->
     (* The client went away; whatever is pending has no reader left. *)
     if config.status then Printf.eprintf "serve: connection lost: %s\n%!" msg);
  flush_snapshot ();
  {
    requests = !requests;
    batches = !batches;
    errors = !errors;
    loaded;
    saved = !saved;
    stats = Theorem1.cache_stats cache;
  }

(* Names for the socket before it listens, one per [listen] call. *)
let unpublished = Atomic.make 0

let listen ?(config = default) ?max_conns ~path () =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try if Sys.file_exists path then Sys.remove path with Sys_error _ -> ());
  (* Bind and listen under a sibling name, then rename the socket onto
     [path]: a client that waits for [path] to exist finds a socket that
     already accepts, never one that refuses. *)
  let tmp =
    Filename.concat (Filename.dirname path)
      (Printf.sprintf ".xt%d-%d" (Unix.getpid ()) (Atomic.fetch_and_add unpublished 1))
  in
  (try
     (try Sys.remove tmp with Sys_error _ -> ());
     Unix.bind sock (Unix.ADDR_UNIX tmp);
     Unix.listen sock 8;
     Unix.rename tmp path
   with Unix.Unix_error (err, fn, _) ->
     Unix.close sock;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise (Unix.Unix_error (err, fn, path)));
  let state = make_state config in
  let conns = ref 0 in
  let more () = match max_conns with None -> true | Some m -> !conns < m in
  Fun.protect
    ~finally:(fun () ->
      Unix.close sock;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      while more () do
        let fd, _ = Unix.accept sock in
        incr conns;
        let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
        set_binary_mode_in ic true;
        set_binary_mode_out oc true;
        let summary = run ~config ~state ic oc in
        if config.status then
          Printf.eprintf "serve: connection %d closed after %d requests\n%!" !conns
            summary.requests;
        (* Flushes what a live client still awaits and closes [fd]; the
           buffer of a client that hung up is dropped with it. *)
        close_out_noerr oc
      done)

let in_process ?(config = default) ?state client =
  let req_r, req_w = Unix.pipe ~cloexec:false () in
  let resp_r, resp_w = Unix.pipe ~cloexec:false () in
  let server_ic = Unix.in_channel_of_descr req_r in
  let server_oc = Unix.out_channel_of_descr resp_w in
  let client_ic = Unix.in_channel_of_descr resp_r in
  let client_oc = Unix.out_channel_of_descr req_w in
  List.iter (fun c -> set_binary_mode_in c true) [ server_ic; client_ic ];
  List.iter (fun c -> set_binary_mode_out c true) [ server_oc; client_oc ];
  let dom =
    Domain.spawn (fun () ->
        let summary = run ~config ?state server_ic server_oc in
        close_in_noerr server_ic;
        close_out_noerr server_oc;
        summary)
  in
  let finish () =
    close_out_noerr client_oc;
    let summary = Domain.join dom in
    close_in_noerr client_ic;
    summary
  in
  match client (client_ic, client_oc) with
  | result -> (result, finish ())
  | exception exn ->
      ignore (finish ());
      raise exn
