type op_class =
  | C_user_write
  | C_user_read
  | C_flush
  | C_compaction_read
  | C_compaction_write
  | C_gc
  | C_misc

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
  bytes_written : int array;
  m : Lsm_util.Ordered_mutex.t;
}

let mk_mutex () =
  Lsm_util.Ordered_mutex.create ~rank:Lsm_util.Ordered_mutex.Rank.stats ~name:"io_stats"

let create () =
  {
    pages_read = Array.make num_classes 0;
    bytes_read = Array.make num_classes 0;
    bytes_written = Array.make num_classes 0;
    m = mk_mutex ();
  }

(* Every device read and append lands here, so the counters are bumped
   between a bare [lock] and [unlock] rather than in a [with_lock]
   closure: nothing between them can raise. *)
let record_read t cls ~pages ~bytes =
  let i = class_index cls in
  Lsm_util.Ordered_mutex.lock t.m;
  t.pages_read.(i) <- t.pages_read.(i) + pages;
  t.bytes_read.(i) <- t.bytes_read.(i) + bytes;
  Lsm_util.Ordered_mutex.unlock t.m

let record_write t cls ~bytes =
  let i = class_index cls in
  Lsm_util.Ordered_mutex.lock t.m;
  t.bytes_written.(i) <- t.bytes_written.(i) + bytes;
  Lsm_util.Ordered_mutex.unlock t.m

let sum_or_one a = function
  | Some cls -> a.(class_index cls)
  | None -> Array.fold_left ( + ) 0 a

let pages_read ?cls t = sum_or_one t.pages_read cls
let bytes_read ?cls t = sum_or_one t.bytes_read cls
let bytes_written ?cls t = sum_or_one t.bytes_written cls

let copy t =
  Lsm_util.Ordered_mutex.with_lock t.m @@ fun () ->
  {
    pages_read = Array.copy t.pages_read;
    bytes_read = Array.copy t.bytes_read;
    bytes_written = Array.copy t.bytes_written;
    m = mk_mutex ();
  }

let diff now before =
  let sub a b = Array.init num_classes (fun i -> a.(i) - b.(i)) in
  {
    pages_read = sub now.pages_read before.pages_read;
    bytes_read = sub now.bytes_read before.bytes_read;
    bytes_written = sub now.bytes_written before.bytes_written;
    m = mk_mutex ();
  }
