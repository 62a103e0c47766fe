(** The store interface the workload runner drives.

    Each engine variant (the core LSM under any layout, the kv-separated
    WiscKey build) adapts itself to this record, so every experiment runs
    the exact same operation stream against each. *)

type t = {
  store_name : string;
  put : key:string -> string -> unit;
  get : string -> string option;
  scan : lo:string -> hi:string option -> limit:int -> (string * string) list;
  delete : string -> unit;
  rmw : key:string -> string -> unit;
      (** read-modify-write; engines with a merge operator use it,
          others emulate with get+put *)
  flush : unit -> unit;
  quiesce : unit -> unit;
      (** wait for any background maintenance to drain without forcing a
          flush; a no-op for engines that do all maintenance inline *)
  io_stats : unit -> Lsm_storage.Io_stats.t;
  user_bytes : unit -> int;  (** logical bytes ingested so far *)
  space_bytes : unit -> int;  (** physical bytes on the device *)
}

val of_db : Lsm_core.Db.t -> t
