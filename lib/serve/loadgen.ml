open Xt_obs
open Xt_prelude
open Xt_bintree

let c_requests = Obs.counter "loadgen.requests"
let c_errors = Obs.counter "loadgen.errors"
let h_rtt = Obs.histogram "loadgen.rtt_ns"

let make_shapes ~seed ~count ~size =
  if count < 1 then invalid_arg "Loadgen.make_shapes: count < 1";
  if size < 1 then invalid_arg "Loadgen.make_shapes: size < 1";
  let fams = Array.of_list Gen.families in
  let seen = Hashtbl.create count in
  let out = Array.make count "" in
  let filled = ref 0 and attempt = ref 0 in
  while !filled < count do
    if !attempt > 100 * count then
      invalid_arg "Loadgen.make_shapes: cannot find enough distinct shapes";
    let f = fams.(!attempt mod Array.length fams) in
    (* Nudge the size so deterministic families (complete, caterpillar …)
       still contribute distinct shapes to the pool. *)
    let sz = max 1 (size - (!attempt mod (1 + (size / 16)))) in
    let rng = Rng.make ~seed:(seed + (7919 * !attempt)) in
    let t = f.Gen.generate rng sz in
    incr attempt;
    let s = Codec.to_string t in
    if not (Hashtbl.mem seen s) then begin
      Hashtbl.add seen s ();
      out.(!filled) <- s;
      incr filled
    end
  done;
  out

let skewed_stream ~seed ~shapes ~requests ~skew =
  let k = Array.length shapes in
  if k = 0 then invalid_arg "Loadgen.skewed_stream: empty shape pool";
  if skew < 0.0 then invalid_arg "Loadgen.skewed_stream: negative skew";
  let rng = Rng.make ~seed:(seed lxor 0x10adf) in
  List.init requests (fun _ ->
      let u = Rng.float rng 1.0 in
      let idx = int_of_float (float_of_int k *. (u ** (1.0 +. skew))) in
      shapes.(min (k - 1) idx))

type reply = { index : int; request : string; payload : string }

type outcome = { sent : int; errors : int; wall_ns : int; rtt_ns : int array }

let replay ?(window = 64) ?on_reply ~requests (ic, oc) =
  if window < 1 then invalid_arg "Loadgen.replay: window < 1";
  let reqs = Array.of_list requests in
  let n = Array.length reqs in
  let rtt = Array.make n 0 in
  let sent_at = Array.make n 0 in
  let errors = ref 0 in
  let metered = Obs.metrics_enabled () in
  let t_start = Obs.now_ns () in
  let next_send = ref 0 and next_recv = ref 0 in
  while !next_recv < n do
    let upto = min n (!next_send + window) in
    while !next_send < upto do
      sent_at.(!next_send) <- Obs.now_ns ();
      Wire.write_frame oc reqs.(!next_send);
      Obs.incr c_requests;
      incr next_send
    done;
    Wire.write_flush oc;
    while !next_recv < !next_send do
      match Wire.read_frame ic with
      | None -> raise (Wire.Protocol "server closed mid-replay")
      | Some "" -> ()
      | Some payload ->
          let i = !next_recv in
          rtt.(i) <- Obs.now_ns () - sent_at.(i);
          if metered then Obs.observe h_rtt rtt.(i);
          if Wire.is_error payload then begin
            incr errors;
            Obs.incr c_errors
          end;
          (match on_reply with
          | Some f -> f { index = i; request = reqs.(i); payload }
          | None -> ());
          incr next_recv
    done
  done;
  { sent = n; errors = !errors; wall_ns = Obs.now_ns () - t_start; rtt_ns = rtt }

let write_requests oc payloads = List.iter (Wire.write_frame oc) payloads

let read_requests ic =
  let acc = ref [] in
  let eof = ref false in
  while not !eof do
    match Wire.read_frame ic with
    | None -> eof := true
    | Some "" -> ()
    | Some payload -> acc := payload :: !acc
  done;
  List.rev !acc
