(** Typed error taxonomy for the storage engine.

    Every failure mode that can escape the public [Db] API is a
    constructor of {!t}, carried by the single exception {!Error}.
    Internal detect-and-die exceptions ([Codec.Corrupt], [Not_found],
    [Failure]) are converted at the API boundary; callers match on the
    payload instead of string-matching exception messages. *)

type t =
  | Corruption of { file : string; offset : int option; detail : string }
      (** A checksum, framing, or structural-invariant failure pinned to a
          file (and block offset when known). The bytes on the device do
          not decode to what the engine wrote — never silently ignored. *)
  | Io_error of { retriable : bool; detail : string }
      (** A device read/write fault. [retriable = true] means a bounded
          retry with backoff may succeed (transient fault injection, or a
          real device hiccup); [false] means the operation is lost. *)
  | Read_only of string
      (** The store is in fail-safe read-only mode (background maintenance
          failed, or corruption was quarantined); writes are rejected until
          [Db.try_resume]. The payload describes the original cause. *)
  | Shutdown  (** The store handle has been closed. *)

exception Error of t

val corruption : ?offset:int -> file:string -> string -> exn
(** [corruption ~file detail] is [Error (Corruption _)] ready to raise. *)

val io_error : retriable:bool -> string -> exn
val read_only : string -> exn

val to_string : t -> string
