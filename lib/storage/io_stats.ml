type op_class =
  | C_user_write
  | C_user_read
  | C_flush
  | C_compaction_read
  | C_compaction_write
  | C_gc
  | C_misc

let all_classes =
  [ C_user_write; C_user_read; C_flush; C_compaction_read; C_compaction_write; C_gc; C_misc ]

let class_name = function
  | C_user_write -> "user-write"
  | C_user_read -> "user-read"
  | C_flush -> "flush"
  | C_compaction_read -> "compaction-read"
  | C_compaction_write -> "compaction-write"
  | C_gc -> "gc"
  | C_misc -> "misc"

let class_index = function
  | C_user_write -> 0
  | C_user_read -> 1
  | C_flush -> 2
  | C_compaction_read -> 3
  | C_compaction_write -> 4
  | C_gc -> 5
  | C_misc -> 6

let num_classes = 7

(* The counter arrays are shared by every domain touching the device, so
   updates go through a mutex. Reads of a live record (the accessors
   below) stay lock-free: they are only meaningful on a quiescent device
   anyway, and int loads cannot tear. *)
type t = {
  pages_read : int array;
  bytes_read : int array;
  pages_written : int array;
  bytes_written : int array;
  sync_calls : int array;
  m : Lsm_util.Ordered_mutex.t;
}

let mk_mutex () =
  Lsm_util.Ordered_mutex.create ~rank:Lsm_util.Ordered_mutex.Rank.stats ~name:"io_stats"

let create () =
  {
    pages_read = Array.make num_classes 0;
    bytes_read = Array.make num_classes 0;
    pages_written = Array.make num_classes 0;
    bytes_written = Array.make num_classes 0;
    sync_calls = Array.make num_classes 0;
    m = mk_mutex ();
  }

let clear t =
  Lsm_util.Ordered_mutex.with_lock t.m @@ fun () ->
  Array.fill t.pages_read 0 num_classes 0;
  Array.fill t.bytes_read 0 num_classes 0;
  Array.fill t.pages_written 0 num_classes 0;
  Array.fill t.bytes_written 0 num_classes 0;
  Array.fill t.sync_calls 0 num_classes 0

(* Every device read and append lands here, so the counters are bumped
   between a bare [lock] and [unlock] rather than in a [with_lock]
   closure: nothing between them can raise. *)
let record_read t cls ~pages ~bytes =
  let i = class_index cls in
  Lsm_util.Ordered_mutex.lock t.m;
  t.pages_read.(i) <- t.pages_read.(i) + pages;
  t.bytes_read.(i) <- t.bytes_read.(i) + bytes;
  Lsm_util.Ordered_mutex.unlock t.m

let record_write t cls ~pages ~bytes =
  let i = class_index cls in
  Lsm_util.Ordered_mutex.lock t.m;
  t.pages_written.(i) <- t.pages_written.(i) + pages;
  t.bytes_written.(i) <- t.bytes_written.(i) + bytes;
  Lsm_util.Ordered_mutex.unlock t.m

(* Syncs are the durability cost the WA/RA numbers do not show: a
   per-write fsync discipline can dominate latency at identical byte
   counts, so recovery experiments track them separately. *)
let record_sync t cls =
  let i = class_index cls in
  Lsm_util.Ordered_mutex.with_lock t.m @@ fun () ->
  t.sync_calls.(i) <- t.sync_calls.(i) + 1

let sum_or_one a = function
  | Some cls -> a.(class_index cls)
  | None -> Array.fold_left ( + ) 0 a

let pages_read ?cls t = sum_or_one t.pages_read cls
let pages_written ?cls t = sum_or_one t.pages_written cls
let bytes_read ?cls t = sum_or_one t.bytes_read cls
let bytes_written ?cls t = sum_or_one t.bytes_written cls
let syncs ?cls t = sum_or_one t.sync_calls cls

let write_amplification t ~user_bytes =
  if user_bytes <= 0 then 0.0
  else float_of_int (bytes_written t) /. float_of_int user_bytes

let snapshot t =
  List.map
    (fun cls ->
      let i = class_index cls in
      (cls, (t.pages_read.(i), t.bytes_read.(i), t.pages_written.(i), t.bytes_written.(i))))
    all_classes

let copy t =
  Lsm_util.Ordered_mutex.with_lock t.m @@ fun () ->
  {
    pages_read = Array.copy t.pages_read;
    bytes_read = Array.copy t.bytes_read;
    pages_written = Array.copy t.pages_written;
    bytes_written = Array.copy t.bytes_written;
    sync_calls = Array.copy t.sync_calls;
    m = mk_mutex ();
  }

let diff now before =
  let sub a b = Array.init num_classes (fun i -> a.(i) - b.(i)) in
  {
    pages_read = sub now.pages_read before.pages_read;
    bytes_read = sub now.bytes_read before.bytes_read;
    pages_written = sub now.pages_written before.pages_written;
    bytes_written = sub now.bytes_written before.bytes_written;
    sync_calls = sub now.sync_calls before.sync_calls;
    m = mk_mutex ();
  }

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun cls ->
      let i = class_index cls in
      if t.pages_read.(i) + t.pages_written.(i) + t.sync_calls.(i) > 0 then
        Format.fprintf ppf
          "%-17s read %8d pages / %10d B, wrote %8d pages / %10d B, %6d syncs@,"
          (class_name cls) t.pages_read.(i) t.bytes_read.(i) t.pages_written.(i)
          t.bytes_written.(i) t.sync_calls.(i))
    all_classes;
  Format.fprintf ppf "@]"
