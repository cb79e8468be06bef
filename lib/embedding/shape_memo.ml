open Xt_prelude
open Xt_bintree

type 'meta entry = {
  packed : string;  (* placement by preorder rank, 4 bytes per node (see [blit_packed]) *)
  meta : 'meta;
}

type 'meta t = 'meta entry Cache.t

let create ?capacity ?max_bytes () = Cache.create ?capacity ?max_bytes ()

let blit_packed place b off =
  Array.iteri (fun i p -> Bytes.set_int32_be b (off + (4 * i)) (Int32.of_int p)) place

let pack place =
  let b = Bytes.create (4 * Array.length place) in
  blit_packed place b 0;
  Bytes.unsafe_to_string b

let packed_at packed i = Int32.to_int (String.get_int32_be packed (4 * i))

let key ~prefix canon = String.concat "|" [ prefix; canon ]

let entry_bytes key e =
  (* Rough heap footprint: header + fields, the key (which holds the
     canonical string) and the packed placement. The meta is charged a
     flat constant. *)
  64 + String.length key + String.length e.packed

let find t ~prefix canon =
  Option.map (fun e -> (e.packed, e.meta)) (Cache.probe t (key ~prefix canon))

let memo_canonical t ~prefix ~canon ~compute =
  let key = key ~prefix canon in
  let e =
    Cache.with_memo t ~bytes:(entry_bytes key) key (fun () ->
        let place, meta = compute () in
        { packed = pack place; meta })
  in
  (e.packed, e.meta)

let memo t ~prefix ~tree ~compute =
  let rank = Fingerprint.preorder_ranks tree in
  let n = Bintree.n tree in
  let packed, meta =
    memo_canonical t ~prefix ~canon:(Codec.to_string tree) ~compute:(fun () ->
        let place, meta = compute () in
        let cplace = Array.make n (-1) in
        for v = 0 to n - 1 do
          cplace.(rank.(v)) <- place.(v)
        done;
        (cplace, meta))
  in
  (Array.init n (fun v -> packed_at packed rank.(v)), meta)

let length = Cache.length
let clear = Cache.clear
let stats = Cache.stats

(* -------------------------------------------------------------------- *)
(* Snapshot codec.

   Layout (lengths and the checksum little-endian, fixed width):

     "XTSM" | u32 version | u32 entry count
     repeated per entry:
       u32 body length | body | u64 FNV-1a checksum of the body
     body:
       u32 key length | key | u32 meta length | meta
       u32 placement length | packed placement

   The key is "<prefix>|<canonical Codec string>"; the packed placement
   is the entry's bytes verbatim. The whole file is parsed and verified
   before the first insertion, so a truncated, corrupted or inconsistent
   snapshot rejects atomically and leaves the memo untouched. *)

let magic = "XTSM"
let version = 2

(* 64-bit FNV-1a; Int64 keeps the wrap-around exact. *)
let fnv1a s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let encode_entry buf ~key ~encode_meta e =
  let body = Buffer.create (String.length key + String.length e.packed + 64) in
  let str s =
    Buffer.add_int32_le body (Int32.of_int (String.length s));
    Buffer.add_string body s
  in
  str key;
  str (encode_meta e.meta);
  str e.packed;
  let body = Buffer.contents body in
  Buffer.add_int32_le buf (Int32.of_int (String.length body));
  Buffer.add_string buf body;
  Buffer.add_int64_le buf (fnv1a body)

let save t ~encode_meta ~file =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Buffer.add_int32_le buf (Int32.of_int version);
  let entries =
    (* Least recent first (Cache.fold order): re-adding in file order on
       load reproduces the recency order. *)
    Cache.fold t ~init:[] ~f:(fun acc ~key ~bytes:_ e -> (key, e) :: acc)
  in
  let entries = List.rev entries in
  Buffer.add_int32_le buf (Int32.of_int (List.length entries));
  List.iter (fun (key, e) -> encode_entry buf ~key ~encode_meta e) entries;
  let dir = Filename.dirname file in
  let tmp, oc = Filename.open_temp_file ~temp_dir:dir ~mode:[ Open_binary ] ".xtsm" ".tmp" in
  (try
     Buffer.output_buffer oc buf;
     close_out oc;
     Sys.rename tmp file
   with exn ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise exn);
  List.length entries

exception Bad of string

(* An entry is only as trustworthy as its checks: the byte path answers
   a request whose bytes equal the key's Codec part, so that part must be
   canonical, and the placement must cover its n nodes with host
   vertices, none holding more nodes than its capacity. *)
let check_entry ~decode_meta ~vertices ~capacity key packed meta_s =
  let prefix, canon =
    match String.rindex_opt key '|' with
    | Some i -> (String.sub key 0 i, String.sub key (i + 1) (String.length key - i - 1))
    | None -> raise (Bad "entry key has no prefix")
  in
  let n =
    match Codec.of_string canon with
    | Ok t when String.equal (Codec.to_string t) canon -> Bintree.n t
    | _ -> raise (Bad "entry key is not a canonical Codec string")
  in
  if String.length packed <> 4 * n then raise (Bad "entry placement length mismatch");
  let meta =
    match decode_meta ~prefix meta_s with
    | Some m -> m
    | None -> raise (Bad "undecodable entry metadata")
  in
  let order = vertices meta and cap = capacity meta in
  let load = Array.make order 0 in
  for i = 0 to n - 1 do
    let v = packed_at packed i in
    if v < 0 || v >= order then raise (Bad "entry placement outside its host");
    load.(v) <- load.(v) + 1;
    if load.(v) > cap then raise (Bad "entry placement exceeds its capacity")
  done;
  { packed; meta }

let load t ~decode_meta ~vertices ~capacity ~file =
  match
    let s = In_channel.with_open_bin file In_channel.input_all in
    let len = String.length s in
    let pos = ref 0 in
    let need n what = if !pos + n > len then raise (Bad ("truncated " ^ what)) in
    let u32 what =
      need 4 what;
      let v = Int32.to_int (String.get_int32_le s !pos) in
      pos := !pos + 4;
      if v < 0 then raise (Bad ("negative length in " ^ what));
      v
    in
    need 4 "header";
    if String.sub s 0 4 <> magic then raise (Bad "bad magic");
    pos := 4;
    let v = u32 "header" in
    if v <> version then raise (Bad (Printf.sprintf "unsupported version %d" v));
    let count = u32 "header" in
    let parsed = ref [] in
    for _ = 1 to count do
      let body_len = u32 "entry frame" in
      need body_len "entry body";
      let body = String.sub s !pos body_len in
      pos := !pos + body_len;
      need 8 "entry checksum";
      let sum = String.get_int64_le s !pos in
      pos := !pos + 8;
      if not (Int64.equal sum (fnv1a body)) then raise (Bad "entry checksum mismatch");
      (* Re-parse the verified body with its own cursor. *)
      let bpos = ref 0 in
      let bstr () =
        if !bpos + 4 > body_len then raise (Bad "malformed entry body");
        let n = Int32.to_int (String.get_int32_le body !bpos) in
        bpos := !bpos + 4;
        if n < 0 || !bpos + n > body_len then raise (Bad "malformed entry body");
        let r = String.sub body !bpos n in
        bpos := !bpos + n;
        r
      in
      let key = bstr () in
      let meta_s = bstr () in
      let packed = bstr () in
      if !bpos <> body_len then raise (Bad "malformed entry body");
      parsed := (key, check_entry ~decode_meta ~vertices ~capacity key packed meta_s) :: !parsed
    done;
    if !pos <> len then raise (Bad "trailing bytes");
    List.rev !parsed
  with
  | entries ->
      List.iter (fun (key, e) -> Cache.add t ~bytes:(entry_bytes key e) key e) entries;
      Ok (List.length entries)
  | exception Bad msg -> Error msg
  | exception Sys_error msg -> Error msg
