exception Protocol of string

let max_frame = 1 lsl 26

let write_frame oc payload =
  let n = String.length payload in
  if n > max_frame then raise (Protocol "frame too large");
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int n);
  output_bytes oc hdr;
  output_string oc payload

let write_flush oc =
  write_frame oc "";
  flush oc

(* Payloads longer than [chunk] are read [chunk] bytes at a time into a
   buffer that doubles only once it is full, so a length word that
   promises more than the stream holds costs one chunk, not the promised
   size, before the EOF. *)
let chunk = 65536

let read_payload ic n =
  if n <= chunk then really_input_string ic n
  else begin
    let buf = ref (Bytes.create chunk) and got = ref 0 in
    while !got < n do
      if !got = Bytes.length !buf then begin
        let bigger = Bytes.create (Int.min n (2 * !got)) in
        Bytes.blit !buf 0 bigger 0 !got;
        buf := bigger
      end;
      let k = Int.min chunk (Bytes.length !buf - !got) in
      really_input ic !buf !got k;
      got := !got + k
    done;
    Bytes.unsafe_to_string !buf
  end

let read_frame ic =
  match really_input_string ic 4 with
  | exception End_of_file ->
      (* EOF exactly at a frame boundary is a clean shutdown; anywhere
         else it is a protocol error, but [really_input_string] cannot
         tell us how many of the 4 bytes it consumed, so a torn length
         word also lands here. Torn payloads are caught below. *)
      None
  | hdr ->
      let n = Int32.to_int (String.get_int32_be hdr 0) in
      if n < 0 || n > max_frame then
        raise (Protocol (Printf.sprintf "bad frame length %d" n));
      if n = 0 then Some ""
      else (
        match read_payload ic n with
        | payload -> Some payload
        | exception End_of_file -> raise (Protocol "EOF inside frame"))

type response = { height : int; fallbacks : int; place : int array }

(* The 13-byte header of a success payload, written at [off]. *)
let set_ok_header b off ~height ~fallbacks n =
  Bytes.set b off '\x01';
  Bytes.set_int32_be b (off + 1) (Int32.of_int height);
  Bytes.set_int32_be b (off + 5) (Int32.of_int fallbacks);
  Bytes.set_int32_be b (off + 9) (Int32.of_int n)

let encode_ok r =
  let n = Array.length r.place in
  let b = Bytes.create (13 + (4 * n)) in
  set_ok_header b 0 ~height:r.height ~fallbacks:r.fallbacks n;
  Xt_embedding.Shape_memo.blit_packed r.place b 13;
  Bytes.unsafe_to_string b

let write_ok oc ~height ~fallbacks packed =
  let len = 13 + String.length packed in
  if len > max_frame then raise (Protocol "frame too large");
  let hdr = Bytes.create 17 in
  Bytes.set_int32_be hdr 0 (Int32.of_int len);
  set_ok_header hdr 4 ~height ~fallbacks (String.length packed / 4);
  output_bytes oc hdr;
  output_string oc packed

let encode_error msg = "\x00" ^ msg

let is_error payload =
  if String.length payload = 0 then raise (Protocol "empty response payload");
  payload.[0] = '\x00'

let decode_response payload =
  if String.length payload = 0 then raise (Protocol "empty response payload");
  match payload.[0] with
  | '\x00' -> Error (String.sub payload 1 (String.length payload - 1))
  | '\x01' ->
      if String.length payload < 13 then raise (Protocol "short response payload");
      let u32 off = Int32.to_int (String.get_int32_be payload off) in
      let height = u32 1 and fallbacks = u32 5 and n = u32 9 in
      if n < 0 || String.length payload <> 13 + (4 * n) then
        raise (Protocol "response payload length mismatch");
      let place = Array.init n (fun i -> u32 (13 + (4 * i))) in
      Ok { height; fallbacks; place }
  | c -> raise (Protocol (Printf.sprintf "unknown response status 0x%02x" (Char.code c)))
