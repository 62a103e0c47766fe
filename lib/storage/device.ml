type mem_file = {
  mutable buf : Buffer.t;
  mutable synced : int;  (** crash-durable prefix length *)
  mutable sealed : bool;
  mutable writing : bool;
}

type backend =
  | Mem of (string, mem_file) Hashtbl.t
  | Disk of { dir : string; open_writers : (string, unit) Hashtbl.t }

exception Crashed

type tear = Tear_none | Tear_keep of int | Tear_corrupt of int

type crash_point = After_syncs of int | After_ops of int | After_bytes of int

type file_class = F_sst | F_manifest | F_wal | F_other

let classify name =
  if Filename.check_suffix name ".sst" then F_sst
  else if name = "MANIFEST" || name = "MANIFEST.tmp" then F_manifest
  else if String.length name >= 4 && String.sub name 0 4 = "wal-" then F_wal
  else F_other

type corruption_hit = { hit_file : string; hit_class : file_class; hit_off : int }

(* Countdown state of an armed crash; unused triggers sit at [max_int].
   Crash planning is a test-only, single-domain facility: the workload
   that arms a plan is the only mutator until the crash fires. *)
type plan = {
  mutable syncs_left : int;
  mutable ops_left : int;
  mutable bytes_left : int;
  tear : tear;
}

(* [m] guards the file table (Mem hashtable / Disk open-writer set) and
   the sync counter, making concurrent reads and writer open/close from
   several domains safe. Appends to an already-open writer deliberately
   bypass it: each file has exactly one writer, and files become readable
   only once sealed, so sink buffers are never shared across domains.
   (The crash-plan hook in [post_mutation] takes it only briefly.) *)
type t = {
  backend : backend;
  page_size : int;
  io : Io_stats.t;
  m : Lsm_util.Ordered_mutex.t;
  mutable syncs : int;
  mutable mutations : int;  (** count of durability-relevant device ops *)
  mutable plan : plan option;
  mutable is_crashed : bool;
  mutable read_faults : read_faults option;
  mutable read_faults_fired : int;
  mutable read_lat_ns : int;  (** simulated latency per page read (0 = off) *)
  mutable write_lat_ns : int;  (** simulated latency per page appended (0 = off) *)
}

(* Scheduled transient read faults: the next [left] reads of files in
   [fault_classes] fail with a retriable [Lsm_error.Io_error] before any
   bytes are returned. Models a device hiccup (not data loss — the bytes
   are fine on the next attempt). *)
and read_faults = { mutable left : int; fault_classes : file_class list }

type writer = {
  dev : t;
  name : string;
  cls : Io_stats.op_class;
  mutable w_written : int;
  sink : sink;
  mutable closed : bool;
}

and sink = Mem_sink of mem_file | Disk_sink of out_channel

let in_memory ?(page_size = 4096) () =
  {
    backend = Mem (Hashtbl.create 64);
    page_size;
    io = Io_stats.create ();
    m = Lsm_util.Ordered_mutex.create ~rank:Lsm_util.Ordered_mutex.Rank.device ~name:"device";
    syncs = 0;
    mutations = 0;
    plan = None;
    is_crashed = false;
    read_faults = None;
    read_faults_fired = 0;
    read_lat_ns = 0;
    write_lat_ns = 0;
  }

let on_disk ?(page_size = 4096) ~dir () =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  {
    backend = Disk { dir; open_writers = Hashtbl.create 8 };
    page_size;
    io = Io_stats.create ();
    m = Lsm_util.Ordered_mutex.create ~rank:Lsm_util.Ordered_mutex.Rank.device ~name:"device";
    syncs = 0;
    mutations = 0;
    plan = None;
    is_crashed = false;
    read_faults = None;
    read_faults_fired = 0;
    read_lat_ns = 0;
    write_lat_ns = 0;
  }

let locked t f = Lsm_util.Ordered_mutex.with_lock t.m f

let simulate_latency t ?(read_ns_per_page = 0) ?(write_ns_per_page = 0) () =
  (match t.backend with
  | Mem _ -> ()
  | Disk _ -> invalid_arg "Device.simulate_latency: in-memory backend only");
  if read_ns_per_page < 0 || write_ns_per_page < 0 then
    invalid_arg "Device.simulate_latency: negative latency";
  t.read_lat_ns <- read_ns_per_page;
  t.write_lat_ns <- write_ns_per_page

(* The simulated device stall. Never called with the device lock held —
   concurrent I/O from different domains must overlap, exactly like
   queued requests on a real disk. *)
let lat_sleep ~per_page_ns ~pages =
  if per_page_ns > 0 && pages > 0 then
    Unix.sleepf (float_of_int (per_page_ns * pages) *. 1e-9)

let page_size t = t.page_size
let stats t = t.io
let sync_count t = t.syncs
let mutation_count t = t.mutations

let pages_of t ~off ~len =
  if len = 0 then 0
  else (((off + len - 1) / t.page_size) - (off / t.page_size)) + 1

let disk_path dir name = Filename.concat dir name

(* ---------------- crash machinery ---------------- *)

(* Power loss, as seen by one file: everything past the synced prefix is
   gone (Tear_none), except that the torn last page(s) being written at
   the instant of failure may survive partially (Tear_keep) or survive
   scrambled (Tear_corrupt). Corruption never touches synced bytes — the
   sync contract is exactly that they are immune. Whatever survives is,
   by definition, the new durable image. *)
let apply_tear f tear =
  let len = Buffer.length f.buf in
  let keep, corrupt =
    match tear with
    | Tear_none -> (f.synced, false)
    | Tear_keep n -> (min len (f.synced + max 0 n), false)
    | Tear_corrupt n -> (min len (f.synced + max 0 n), true)
  in
  if keep < len || corrupt then begin
    let data = Bytes.of_string (Buffer.sub f.buf 0 keep) in
    if corrupt then
      for i = f.synced to keep - 1 do
        Bytes.set data i (Char.chr (Char.code (Bytes.get data i) lxor 0x5a))
      done;
    let b = Buffer.create (max 16 keep) in
    Buffer.add_bytes b data;
    f.buf <- b
  end;
  f.synced <- keep;
  f.sealed <- true;
  f.writing <- false

(* Must be called with [t.m] held. *)
let fire_crash_locked t tear =
  (match t.backend with
  | Mem files -> Hashtbl.iter (fun _ f -> apply_tear f tear) files
  | Disk _ -> ());
  t.plan <- None;
  t.is_crashed <- true

(* Every durability-relevant op (open/append/sync/delete/rename) funnels
   through here after its effect has been applied; an armed plan counts
   down and, at zero, the device dies mid-flight: the triggering call
   raises {!Crashed} and all unsynced state is torn away. *)
let count_mutation_locked t is_sync =
  t.mutations <- t.mutations + 1;
  match t.plan with
  | None -> false
  | Some p ->
    if is_sync && p.syncs_left <> max_int then p.syncs_left <- p.syncs_left - 1;
    if p.ops_left <> max_int then p.ops_left <- p.ops_left - 1;
    if p.syncs_left <= 0 || p.ops_left <= 0 then begin
      fire_crash_locked t p.tear;
      true
    end
    else false

(* Runs after every append (a WAL record per put, a block per table
   write), so it takes the lock with [protect], which allocates nothing. *)
let post_mutation t ~is_sync =
  if Lsm_util.Ordered_mutex.protect t.m count_mutation_locked t is_sync then raise Crashed

let check_alive t = if t.is_crashed then raise Crashed

let plan_crash t ?(tear = Tear_none) point =
  (match t.backend with
  | Disk _ -> invalid_arg "Device.plan_crash: only supported on the in-memory backend"
  | Mem _ -> ());
  let p =
    { syncs_left = max_int; ops_left = max_int; bytes_left = max_int; tear }
  in
  (match point with
  | After_syncs n ->
    if n < 1 then invalid_arg "Device.plan_crash: After_syncs needs n >= 1";
    p.syncs_left <- n
  | After_ops n ->
    if n < 1 then invalid_arg "Device.plan_crash: After_ops needs n >= 1";
    p.ops_left <- n
  | After_bytes n ->
    if n < 1 then invalid_arg "Device.plan_crash: After_bytes needs n >= 1";
    p.bytes_left <- n);
  locked t (fun () -> t.plan <- Some p)

let cancel_crash_plan t = locked t (fun () -> t.plan <- None)
let is_crashed t = t.is_crashed

let revive t =
  locked t @@ fun () ->
  t.plan <- None;
  t.is_crashed <- false

(* ---------------- bit-rot + read-fault injection ---------------- *)

(* Seeded bit-rot on the *durable image*: unlike crash tears, which by
   contract never touch synced bytes, this deliberately flips bits inside
   the synced prefix — the storage layer lying about data it acknowledged.
   One random bit per chosen page, deterministic in [seed]; matching files
   are visited in name order. Returns the exact byte offsets hit so a
   harness can reason about which blocks were physically damaged. *)
let plan_corruption t ~seed ?(classes = [ F_sst; F_manifest; F_wal; F_other ])
    ?(pattern = fun _ -> true) ~pages () =
  let files =
    match t.backend with
    | Disk _ ->
      invalid_arg "Device.plan_corruption: only supported on the in-memory backend"
    | Mem files -> files
  in
  if pages < 1 then invalid_arg "Device.plan_corruption: pages >= 1";
  let rng = Lsm_util.Rng.create seed in
  locked t @@ fun () ->
  let victims =
    Hashtbl.fold (fun name f acc -> (name, f) :: acc) files []
    |> List.filter (fun (name, f) ->
           f.synced > 0 && List.mem (classify name) classes && pattern name)
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.concat_map
    (fun (name, f) ->
      let synced_pages = ((f.synced - 1) / t.page_size) + 1 in
      let page_idx = Array.init synced_pages Fun.id in
      Lsm_util.Rng.shuffle rng page_idx;
      let n = min pages synced_pages in
      let data = Buffer.to_bytes f.buf in
      let hits = ref [] in
      for i = 0 to n - 1 do
        let page = page_idx.(i) in
        let page_len = min t.page_size (f.synced - (page * t.page_size)) in
        let off = (page * t.page_size) + Lsm_util.Rng.int rng page_len in
        let bit = Lsm_util.Rng.int rng 8 in
        Bytes.set data off
          (Char.chr (Char.code (Bytes.get data off) lxor (1 lsl bit)));
        hits := { hit_file = name; hit_class = classify name; hit_off = off } :: !hits
      done;
      let b = Buffer.create (max 16 (Bytes.length data)) in
      Buffer.add_bytes b data;
      f.buf <- b;
      List.rev !hits)
    victims

let plan_read_faults t ?(classes = [ F_sst; F_manifest; F_wal; F_other ]) n =
  if n < 0 then invalid_arg "Device.plan_read_faults: n >= 0";
  locked t (fun () ->
      t.read_faults <- (if n = 0 then None else Some { left = n; fault_classes = classes }))

let read_faults_fired t = t.read_faults_fired

(* With [t.m] held: raises a retriable [Lsm_error.Io_error] if an armed
   fault applies to [name], consuming one fault charge. Each read calls
   it first in its one locked section, before any byte is copied. *)
let read_fault_locked t name =
  match t.read_faults with
  | Some rf when rf.left > 0 && List.mem (classify name) rf.fault_classes ->
    rf.left <- rf.left - 1;
    if rf.left = 0 then t.read_faults <- None;
    t.read_faults_fired <- t.read_faults_fired + 1;
    raise
      (Lsm_util.Lsm_error.io_error ~retriable:true
         ("injected transient read fault: " ^ name))
  | _ -> ()

(* ---------------- writing ---------------- *)

let open_writer t ~cls name =
  check_alive t;
  let w =
    locked t @@ fun () ->
    match t.backend with
    | Mem files ->
      (match Hashtbl.find_opt files name with
      | Some f when f.writing -> invalid_arg ("Device.open_writer: already open: " ^ name)
      | _ -> ());
      let f = { buf = Buffer.create 4096; synced = 0; sealed = false; writing = true } in
      Hashtbl.replace files name f;
      { dev = t; name; cls; w_written = 0; sink = Mem_sink f; closed = false }
    | Disk d ->
      if Hashtbl.mem d.open_writers name then
        invalid_arg ("Device.open_writer: already open: " ^ name);
      Hashtbl.replace d.open_writers name ();
      let oc = open_out_bin (disk_path d.dir name) in
      { dev = t; name; cls; w_written = 0; sink = Disk_sink oc; closed = false }
  in
  post_mutation t ~is_sync:false;
  w

let check_open w = if w.closed then invalid_arg "Device: writer is closed"

let account_write w len =
  let pages = pages_of w.dev ~off:w.w_written ~len in
  Io_stats.record_write w.dev.io w.cls ~pages ~bytes:len;
  w.w_written <- w.w_written + len

(* A byte-triggered plan fires *inside* the append: only the prefix of
   the [len] bytes that fit before the failure instant reaches the
   (volatile) page cache — the torn-write case CRC framing exists for.
   Returns that prefix's length if the plan trips here, else -1. *)
let trip_point w len =
  match w.dev.plan with
  | Some p when p.bytes_left <> max_int ->
    if p.bytes_left <= len then p.bytes_left
    else begin
      p.bytes_left <- p.bytes_left - len;
      -1
    end
  | _ -> -1

(* Sealed under an open writer: a crash fired on another domain (a
   maintenance lane) since [check_alive]. The crash holds the device lock
   until it has marked the device dead, so read that under the lock. A
   writer that outlived a revive is a bug. *)
let check_unsealed w f =
  if f.sealed then begin
    if locked w.dev (fun () -> w.dev.is_crashed) then raise Crashed;
    invalid_arg "Device.append: file sealed (crashed?)"
  end

(* What every append does once its bytes are in the sink. *)
let appended w len ~tripped =
  account_write w len;
  lat_sleep ~per_page_ns:w.dev.write_lat_ns ~pages:(pages_of w.dev ~off:(w.w_written - len) ~len);
  if tripped then begin
    locked w.dev (fun () ->
        match w.dev.plan with
        | Some p -> fire_crash_locked w.dev p.tear
        | None -> fire_crash_locked w.dev Tear_none);
    raise Crashed
  end;
  post_mutation w.dev ~is_sync:false

let append_sub w s ~off ~len =
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Device.append_sub: window out of bounds";
  check_open w;
  check_alive w.dev;
  let trip = trip_point w len in
  let len = if trip >= 0 then trip else len in
  (match w.sink with
  | Mem_sink f ->
    check_unsealed w f;
    Buffer.add_substring f.buf s off len
  | Disk_sink oc -> output_substring oc s off len);
  appended w len ~tripped:(trip >= 0)

let append w s = append_sub w s ~off:0 ~len:(String.length s)

(* Straight from the caller's buffer into the sink, unless a
   byte-triggered crash is armed and needs a prefix of it. *)
let append_buffer w b =
  match w.dev.plan with
  | Some p when p.bytes_left <> max_int -> append w (Buffer.contents b)
  | _ ->
    check_open w;
    check_alive w.dev;
    (match w.sink with
    | Mem_sink f ->
      check_unsealed w f;
      Buffer.add_buffer f.buf b
    | Disk_sink oc -> Buffer.output_buffer oc b);
    appended w (Buffer.length b) ~tripped:false

let written w = w.w_written

let sync w =
  check_open w;
  check_alive w.dev;
  (match w.sink with
  | Mem_sink f -> f.synced <- Buffer.length f.buf
  | Disk_sink oc -> flush oc);
  locked w.dev (fun () -> w.dev.syncs <- w.dev.syncs + 1);
  Io_stats.record_sync w.dev.io w.cls;
  post_mutation w.dev ~is_sync:true

let close w =
  if not w.closed then begin
    sync w;
    w.closed <- true;
    locked w.dev @@ fun () ->
    match w.sink with
    | Mem_sink f ->
      f.sealed <- true;
      f.writing <- false
    | Disk_sink oc ->
      close_out oc;
      (match w.dev.backend with
      | Disk d -> Hashtbl.remove d.open_writers w.name
      | Mem _ -> assert false)
  end

let find_mem files name =
  match Hashtbl.find_opt files name with
  | Some f -> f
  | None -> raise Not_found

(* With [t.m] held: consume an armed fault, then find the in-memory
   file's buffer. *)
let mem_buf_locked t name =
  read_fault_locked t name;
  match t.backend with
  | Mem files -> (find_mem files name).buf
  | Disk _ -> assert false

(* Open [name] on disk at [off], with [len] bytes available there. *)
let disk_open dir name ~off ~len =
  let path = disk_path dir name in
  if not (Sys.file_exists path) then raise Not_found;
  let ic = open_in_bin path in
  if off + len > in_channel_length ic then begin
    close_in ic;
    invalid_arg "Device.read: out of bounds"
  end;
  seek_in ic off;
  ic

(* A read takes the device lock once, to consume an armed fault and, in
   memory, to find the file; the bytes are copied after it. An in-memory
   file's buffer is only ever appended to, and a patch, a planted
   corruption or a crash tear replaces it whole, so the copy sees the
   file as it was when found. *)
let read_into t ~cls name ~off ~len dst =
  if off < 0 || len < 0 then invalid_arg "Device.read: negative range";
  if len > Bytes.length dst then invalid_arg "Device.read_into: buffer too small";
  (match t.backend with
  | Mem _ ->
    let buf = Lsm_util.Ordered_mutex.protect t.m mem_buf_locked t name in
    if off + len > Buffer.length buf then invalid_arg "Device.read: out of bounds";
    Buffer.blit buf off dst 0 len
  | Disk d ->
    Lsm_util.Ordered_mutex.protect t.m read_fault_locked t name;
    let ic = disk_open d.dir name ~off ~len in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input ic dst 0 len));
  Io_stats.record_read t.io cls ~pages:(pages_of t ~off ~len) ~bytes:len;
  lat_sleep ~per_page_ns:t.read_lat_ns ~pages:(pages_of t ~off ~len)

let read t ~cls name ~off ~len =
  let b = Bytes.create (max 0 len) in
  read_into t ~cls name ~off ~len b;
  Bytes.unsafe_to_string b

let size t name =
  match t.backend with
  | Mem files -> locked t (fun () -> Buffer.length (find_mem files name).buf)
  | Disk d ->
    let path = disk_path d.dir name in
    if not (Sys.file_exists path) then raise Not_found;
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> in_channel_length ic)

let exists t name =
  match t.backend with
  | Mem files -> locked t (fun () -> Hashtbl.mem files name)
  | Disk d -> Sys.file_exists (disk_path d.dir name)

(* In-place overwrite of already-written bytes — the primitive ECC repair
   stands on. Deliberately not routed through a writer handle: repair
   targets sealed, immutable tables, and never extends a file. Patched
   bytes inherit the durability of the bytes they replace (a repair of the
   synced prefix stays synced — the durable frontier never moves). *)
let patch t ~cls name ~off data =
  check_alive t;
  let len = String.length data in
  if off < 0 then invalid_arg "Device.patch: negative offset";
  (match t.backend with
  | Mem files ->
    locked t @@ fun () ->
    let f = find_mem files name in
    let n = Buffer.length f.buf in
    if off + len > n then invalid_arg "Device.patch: out of bounds";
    if f.writing then invalid_arg ("Device.patch: file has an open writer: " ^ name);
    if len > 0 then begin
      let bytes = Buffer.to_bytes f.buf in
      Bytes.blit_string data 0 bytes off len;
      let b = Buffer.create (max 16 n) in
      Buffer.add_bytes b bytes;
      f.buf <- b
    end
  | Disk d ->
    let path = disk_path d.dir name in
    if not (Sys.file_exists path) then raise Not_found;
    let oc = open_out_gen [ Open_wronly; Open_binary ] 0o644 path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        if off + len > out_channel_length oc then invalid_arg "Device.patch: out of bounds";
        seek_out oc off;
        output_string oc data));
  Io_stats.record_write t.io cls ~pages:(pages_of t ~off ~len) ~bytes:len;
  post_mutation t ~is_sync:false

let delete t name =
  check_alive t;
  (match t.backend with
  | Mem files -> locked t (fun () -> Hashtbl.remove files name)
  | Disk d ->
    let path = disk_path d.dir name in
    if Sys.file_exists path then Sys.remove path);
  post_mutation t ~is_sync:false

(* Atomic, immediately-durable replacement of [dst] by [src] — the
   idealized POSIX [rename(2)] the manifest-swap protocol builds on. An
   open writer keeps appending to the renamed file. *)
let rename t src dst =
  check_alive t;
  if src = dst then invalid_arg "Device.rename: src = dst";
  (match t.backend with
  | Mem files ->
    locked t @@ fun () ->
    let f = find_mem files src in
    Hashtbl.remove files src;
    Hashtbl.replace files dst f
  | Disk d ->
    let sp = disk_path d.dir src in
    if not (Sys.file_exists sp) then raise Not_found;
    Sys.rename sp (disk_path d.dir dst);
    if Hashtbl.mem d.open_writers src then begin
      Hashtbl.remove d.open_writers src;
      Hashtbl.replace d.open_writers dst ()
    end);
  post_mutation t ~is_sync:false

let list_files t =
  match t.backend with
  | Mem files ->
    locked t (fun () -> Hashtbl.fold (fun k _ acc -> k :: acc) files [])
    |> List.sort String.compare
  | Disk d -> Sys.readdir d.dir |> Array.to_list |> List.sort String.compare

let total_bytes t =
  match t.backend with
  | Mem files ->
    locked t (fun () -> Hashtbl.fold (fun _ f acc -> acc + Buffer.length f.buf) files 0)
  | Disk d ->
    Sys.readdir d.dir |> Array.to_list
    |> List.fold_left (fun acc name -> acc + size t name) 0

let crash ?(tear = Tear_none) t =
  match t.backend with
  | Disk _ -> invalid_arg "Device.crash: only supported on the in-memory backend"
  | Mem files ->
    locked t @@ fun () ->
    t.plan <- None;
    Hashtbl.iter (fun _ f -> apply_tear f tear) files
