(** RESP2 wire framing (the Redis serialization protocol, request subset).

    Requests are arrays of bulk strings — [*N\r\n] followed by N
    [$len\r\ndata\r\n] frames — and replies are the five RESP2 reply
    kinds. The codec is allocation-light and incremental: parsers take a
    buffer and an offset and either return the decoded value with the
    offset one past its last byte, or report that more bytes are needed,
    so a connection can accumulate partial frames across reads
    (pipelining falls out for free: keep parsing until [Incomplete]).

    Malformed input raises {!Malformed} — a protocol error, distinct
    from short input, which is never an error. *)

exception Malformed of string
(** The bytes cannot be a RESP frame (bad type byte, non-numeric length,
    missing CRLF, negative or oversized length). Connection-fatal. *)

(** {1 Requests — arrays of bulk strings} *)

val encode_command : string list -> string
(** Client side: [encode_command ["PUT"; k; v]] is the request frame. *)

(** {1 Replies} *)

type reply =
  | Simple of string  (** [+OK\r\n] *)
  | Error of string  (** [-CODE message\r\n]; the string is "CODE message" *)
  | Int of int  (** [:n\r\n] *)
  | Bulk of string  (** [$len\r\ndata\r\n] *)
  | Nil  (** [$-1\r\n] — absent value *)
  | Array of reply list  (** [*N\r\n] followed by N replies *)

(* lsm-lint: allow R14 — the reference encoder: a property test checks add_reply's bytes
   against it *)
val encode_reply : reply -> string
(** One reply as a fresh string: the bytes {!add_reply} appends. *)

(** {2 Connection buffers}

    A connection owns two {!buf}s. Requests are read into one and parsed
    where they lie ({!fill}, {!next_command}); every reply is encoded
    straight into the other, and a socket write takes the unsent bytes
    from it in place: no string per reply, no copy per write. *)

type buf
(** A growable byte buffer of pending bytes, consumed from the front. *)

val buf_create : unit -> buf
(** An empty buffer with a small default store (4 KiB). *)

val add_reply : buf -> reply -> unit
(** Append one encoded reply, growing the store if needed. *)

val fill : buf -> (Bytes.t -> int -> int -> int) -> int
(** [fill b read] makes room after the pending bytes (at least 16 KiB
    and half the store, sliding them to the front or growing the
    store), calls
    [read bytes off n] to write at most [n] bytes at [off] into that
    room, and appends the count it returns (which it also returns). *)

val next_command : buf -> string list option
(** Parse and consume the first pending command;
    [None] (consuming nothing) while its frame is incomplete.
    @raise Malformed on protocol errors. *)

val pending : buf -> int
(** Bytes appended and not yet consumed. *)

val capacity : buf -> int
(** Bytes the store holds, pending or not. *)

val buf_bytes : buf -> Bytes.t
val buf_pos : buf -> int
(** The pending bytes are [buf_bytes b] from [buf_pos b], [pending b] of
    them — valid until the next append or {!consume}. *)

val consume : buf -> int -> unit
(** [consume b n] drops the first [n] pending bytes ([n <= pending b]):
    what a socket write took, or a parsed command. When nothing is left
    the buffer empties, and a store grown past 64 KiB drops back to the
    default size, so an idle connection does not pin the memory of its
    largest request or reply. *)

val parse_reply : Bytes.t -> pos:int -> len:int -> (reply * int) option
(** Client side: decode one reply from [bytes[pos, len)]: [Some (reply,
    pos')] on a complete frame, [None] if more bytes are needed.
    @raise Malformed on protocol errors. *)

val error_code : reply -> string option
(** [Some code] (the first word) when the reply is an [Error]. *)
