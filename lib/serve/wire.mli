(** Length-framed wire protocol for [xtree serve].

    Every message is one {e frame}: a 4-byte big-endian payload length
    followed by the payload. A zero-length frame is a {e flush marker} —
    the client asking the server to embed everything buffered so far and
    write the responses; it carries no payload and receives no response.

    Request payloads are {!Xt_bintree.Codec} strings. Response payloads
    are binary: a status byte ([0x01] success, [0x00] error), then for a
    success [u32 height], [u32 fallbacks], [u32 n] and [n] i32 placement
    entries (all big-endian, placement indexed by the request's preorder
    node numbering); for an error, the UTF-8 message. *)

exception Protocol of string
(** A malformed stream: EOF inside a frame, an oversized frame, or an
    undecodable response payload. *)

val max_frame : int
(** Upper bound on accepted payload length (2{^26} bytes — a hundred
    times the largest benchmarked guest); larger length words raise
    {!Protocol} rather than attempting the allocation. *)

val write_frame : out_channel -> string -> unit
(** Write one frame. Does not flush. *)

val write_flush : out_channel -> unit
(** Write a flush marker and flush the channel. *)

val read_frame : in_channel -> string option
(** Read one frame; [None] on a clean EOF at a frame boundary, [Some ""]
    for a flush marker. Raises {!Protocol} on EOF inside a frame or an
    oversized length word. A payload of more than 64 KiB is read in
    64 KiB chunks into a buffer that grows only as they arrive, so a
    length word that promises more than the stream holds allocates one
    chunk, not the promised size, before the EOF. *)

type response = { height : int; fallbacks : int; place : int array }

val encode_ok : response -> string
(** The placement is packed by {!Xt_embedding.Shape_memo.blit_packed},
    the layout the shape memo stores. *)

val write_ok : out_channel -> height:int -> fallbacks:int -> string -> unit
(** [write_ok oc ~height ~fallbacks packed] writes the frame
    [write_frame oc (encode_ok r)] writes, for a response whose placement
    is already packed: the length word, the 13-byte header, then
    [packed] as it is. Does not flush. *)

val encode_error : string -> string

val is_error : string -> bool
(** Status-byte peek, without decoding the payload. Raises {!Protocol}
    on an empty payload. *)

val decode_response : string -> (response, string) result
(** [Error] carries the server-reported message of an error response.
    Raises {!Protocol} if the payload itself is malformed. *)
