(** WiscKey-style engine: an {!Lsm_core.Db} of keys and pointers over a
    {!Value_log} of large values (§2.2.2).

    Values at or above [value_threshold] go to the value log; the tree
    stores a pointer. Small values stay inline — the hybrid most
    production adopters of the idea (Titan, BlobDB) use. Reads follow the
    pointer (one extra random read); range scans pay one log read per
    large value, WiscKey's documented cost. {!gc} reclaims dead log space
    by re-appending live values and dropping the segment. *)

type t

val open_db :
  ?config:Lsm_core.Config.t ->
  ?value_threshold:int ->
  ?segment_bytes:int ->
  dev:Lsm_storage.Device.t ->
  unit ->
  t
(** [value_threshold] defaults to 128 bytes. *)

(* lsm-lint: allow R14 — public API of the key-value-separated engine, the peer of Db.put *)
val put : t -> key:string -> string -> unit
(* lsm-lint: allow R14 — public API of the key-value-separated engine, the peer of Db.get *)
val get : t -> string -> string option
(* lsm-lint: allow R14 — public API of the key-value-separated engine, the peer of
   Db.delete *)
val delete : t -> string -> unit

(* lsm-lint: allow R14 — public API of the key-value-separated engine, the peer of Db.scan *)
val scan :
  t -> ?limit:int -> lo:string -> hi:string option -> unit -> (string * string) list

(* lsm-lint: allow R14 — public API of the key-value-separated engine, the peer of
   Db.flush *)
val flush : t -> unit
(* lsm-lint: allow R14 — public API of the key-value-separated engine, the peer of
   Db.close *)
val close : t -> unit

type gc_result = { segments_dropped : int; live_moved : int; dead_dropped : int }

(* lsm-lint: allow R14 — public API of the key-value-separated engine: value-log garbage
   collection *)
val gc : t -> ?max_segments:int -> unit -> gc_result
(** Process the oldest sealed segments: live values (pointer in the tree
    still points into the segment) are re-appended and re-pointed; dead
    ones are dropped with the segment. *)

(* lsm-lint: allow R14 — public API of the key-value-separated engine: its value log, to
   size it *)
val value_log : t -> Value_log.t
val to_kv_store : t -> Lsm_workload.Kv_store.t
