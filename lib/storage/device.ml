(* An in-memory file is a table of fixed-size chunks, written once:
   an append copies its bytes into the last chunk, or into new ones,
   and no written byte is ever rewritten. Chunk [i] holds the file's
   bytes from [starts.(i)] up to [starts.(i + 1)] (the last chunk: up to
   the file's length, which a crash tear may lower past whole chunks);
   the rest of a chunk that an append did not fit in stays unused. An
   append of at most [chunk_size] bytes never straddles two chunks, so
   every table block is one window of one chunk and a read can hand it
   out in place ([read_view]).

   The table is immutable and replaced whole, by a compare-and-set,
   when an append adds chunks or a patch, a planted corruption or a
   crash tear rewrites bytes; those copy the chunks they touch, so a
   window handed out earlier keeps the bytes it was given. The length
   is published after the bytes and the table it covers, so a reader
   that loads the length and then the table sees a consistent prefix
   while the file's one writer appends on another domain. *)
let chunk_size = 65536

type chunks = { bufs : Bytes.t array; starts : int array }

(* [state] is the file's length shifted left by two, plus [sealed_bit]
   once a close or a crash tear has sealed the file and [frozen_bit]
   while a rewrite holds it (see [rewrite]). The writer publishes a
   longer length by a CAS from its own unflagged length, so that CAS
   fails while the file is frozen or sealed. *)
type mem_file = {
  tbl : chunks Atomic.t;
  state : int Atomic.t;
  mutable synced : int;  (** crash-durable prefix length *)
  mutable writing : bool;
}

let sealed_bit = 1
let frozen_bit = 2
let length_of state = state lsr 2
let length f = length_of (Atomic.get f.state)
let is_sealed f = Atomic.get f.state land sealed_bit <> 0
let no_chunks = { bufs = [||]; starts = [||] }

(* The chunk holding byte [off] of a non-empty table. *)
let chunk_index tbl off =
  let lo = ref 0 and hi = ref (Array.length tbl.starts - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if tbl.starts.(mid) <= off then lo := mid else hi := mid - 1
  done;
  !lo

(* Where chunk [i]'s bytes end in a file of [flen] bytes. *)
let chunk_end tbl i flen =
  if i + 1 < Array.length tbl.starts then tbl.starts.(i + 1) else flen

(* Copy the file's bytes [off, off + len) into [dst] from offset 0, chunk
   by chunk. *)
let blit_out tbl ~flen ~off ~len dst =
  let rec go i off dpos =
    if dpos < len then begin
      let n = min (len - dpos) (chunk_end tbl i flen - off) in
      Bytes.blit tbl.bufs.(i) (off - tbl.starts.(i)) dst dpos n;
      go (i + 1) (off + n) (dpos + n)
    end
  in
  if len > 0 then go (chunk_index tbl off) off 0

(* The writer's append of [src.[off, off + len)] to a file of [n] bytes,
   [blit] copying it. Only the file's one writer calls it, and it knows
   the length. It lands unless a rewrite or a crash tear took the file
   since the table was loaded: then the table swap or the length CAS
   fails, the result is [false] and nothing of the append is published
   (its bytes lie past the length). *)
let mem_append blit f src ~n ~off ~len =
  len = 0
  ||
  let tbl = Atomic.get f.tbl in
  let k = Array.length tbl.bufs in
  let room = if k = 0 then 0 else tbl.starts.(k - 1) + chunk_size - n in
  (if len <= room then begin
     blit src off tbl.bufs.(k - 1) (n - tbl.starts.(k - 1)) len;
     true
   end
   else begin
     (* Only an append that spans chunks anyway fills the last one's
        tail; a smaller one starts a chunk of its own. *)
     let head = if len > chunk_size then room else 0 in
     if head > 0 then blit src off tbl.bufs.(k - 1) (n - tbl.starts.(k - 1)) head;
     let fresh = (len - head + chunk_size - 1) / chunk_size in
     let bufs = Array.make (k + fresh) Bytes.empty and starts = Array.make (k + fresh) 0 in
     Array.blit tbl.bufs 0 bufs 0 k;
     Array.blit tbl.starts 0 starts 0 k;
     for j = 0 to fresh - 1 do
       let pos = head + (j * chunk_size) in
       let c = Bytes.create chunk_size in
       blit src (off + pos) c 0 (min chunk_size (len - pos));
       bufs.(k + j) <- c;
       starts.(k + j) <- n + pos
     done;
     Atomic.compare_and_set f.tbl tbl { bufs; starts }
   end)
  && Atomic.compare_and_set f.state (n lsl 2) ((n + len) lsl 2)

(* Copy-on-write over one file's table: a chunk is copied the first
   time one of its bytes changes, and [table] is the new table. *)
type cow = { orig : chunks; cbufs : Bytes.t array }

(* Over the chunks of [tbl] that start below [len]: any later ones hold
   only an append that has not landed. *)
let cow tbl ~len =
  let k = if len = 0 then 0 else chunk_index tbl (len - 1) + 1 in
  let orig =
    if k = Array.length tbl.bufs then tbl
    else { bufs = Array.sub tbl.bufs 0 k; starts = Array.sub tbl.starts 0 k }
  in
  { orig; cbufs = Array.copy orig.bufs }

let cow_chunk c i =
  if c.cbufs.(i) == c.orig.bufs.(i) then c.cbufs.(i) <- Bytes.copy c.orig.bufs.(i);
  c.cbufs.(i)

let cow_update c off g =
  let i = chunk_index c.orig off in
  let b = cow_chunk c i and p = off - c.orig.starts.(i) in
  Bytes.set b p (g (Bytes.get b p))

(* Write [data] over the file's bytes from [off], chunk by chunk. *)
let cow_blit c ~off data =
  let len = String.length data in
  let rec go off pos =
    if pos < len then begin
      let i = chunk_index c.orig off in
      let n = min (len - pos) (chunk_end c.orig i (off + len - pos) - off) in
      Bytes.blit_string data pos (cow_chunk c i) (off - c.orig.starts.(i)) n;
      go (off + n) (pos + n)
    end
  in
  go off 0

let table c = { bufs = c.cbufs; starts = c.orig.starts }

(* Sets [bits] in the file's state, a CAS loop against its writer's
   appends; returns the state it found. *)
let rec add_flags f bits =
  let v = Atomic.get f.state in
  if Atomic.compare_and_set f.state v (v lor bits) then v else add_flags f bits

(* A rewrite of bytes below the file's length (a patch, planted rot, a
   crash tear's scramble), made with the device lock held. It freezes
   the length first, so the writer's next length CAS fails: the writer
   then waits for the device lock and redoes its append on the new
   table. The table swap is a CAS loop: a table the writer swapped in
   meanwhile only adds chunks that [cow] drops, and [edit len c], which
   gets the frozen length, runs again on fresh copies of it. Returns the
   state the freeze found; the caller then stores the file's next
   state, which thaws it. *)
let rewrite f edit =
  let v = add_flags f frozen_bit in
  let len = length_of v in
  let rec swap () =
    let tbl = Atomic.get f.tbl in
    let c = cow tbl ~len in
    edit len c;
    if not (Atomic.compare_and_set f.tbl tbl (table c)) then swap ()
  in
  swap ();
  v

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
   bypass it: each file has exactly one writer, and a reader of a file
   being written (a live WAL scrub) sees a consistent prefix by the
   publication order of [mem_file]. (The crash-plan hook in
   [post_mutation] takes it only briefly.) *)
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

let scramble ch = Char.chr (Char.code ch lxor 0x5a)

(* Power loss, as seen by one file: everything past the synced prefix is
   gone (Tear_none), except that the torn last page(s) being written at
   the instant of failure may survive partially (Tear_keep) or survive
   scrambled (Tear_corrupt). Corruption never touches synced bytes — the
   sync contract is exactly that they are immune. Whatever survives is,
   by definition, the new durable image. The length only drops: a
   reader that loaded the old one still finds every chunk it
   addresses. The file ends sealed, so its writer's next length CAS
   fails for good. *)
let apply_tear f tear =
  let keep len =
    match tear with
    | Tear_none -> f.synced
    | Tear_keep n | Tear_corrupt n -> min len (f.synced + max 0 n)
  in
  let scramble_tail len c =
    match tear with
    | Tear_corrupt _ ->
      for i = f.synced to keep len - 1 do
        cow_update c i scramble
      done
    | Tear_none | Tear_keep _ -> ()
  in
  let keep = keep (length_of (rewrite f scramble_tail)) in
  f.synced <- keep;
  f.writing <- false;
  Atomic.set f.state ((keep lsl 2) lor sealed_bit)

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
      let flips =
        List.init (min pages synced_pages) (fun i ->
            let page = page_idx.(i) in
            let page_len = min t.page_size (f.synced - (page * t.page_size)) in
            let off = (page * t.page_size) + Lsm_util.Rng.int rng page_len in
            (off, Lsm_util.Rng.int rng 8))
      in
      let flip _ c =
        List.iter
          (fun (off, bit) -> cow_update c off (fun ch -> Char.chr (Char.code ch lxor (1 lsl bit))))
          flips
      in
      Atomic.set f.state (rewrite f flip);
      List.map (fun (off, _) -> { hit_file = name; hit_class = classify name; hit_off = off }) flips)
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
      let f =
        { tbl = Atomic.make no_chunks; state = Atomic.make 0; synced = 0; writing = true }
      in
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
  if is_sealed f then begin
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

(* Every append: [blit] copies a window of [src] into memory, [output]
   writes one to a file. A byte-triggered crash keeps only a prefix. *)
let append_from ~blit ~output w src ~off ~len =
  check_open w;
  check_alive w.dev;
  let trip = trip_point w len in
  let len = if trip >= 0 then trip else len in
  (match w.sink with
  | Mem_sink f ->
    check_unsealed w f;
    while not (mem_append blit f src ~n:w.w_written ~off ~len) do
      (* A rewrite holds the file, and the device lock until it is
         done; unless it was a crash tear, the append is made again. *)
      locked w.dev ignore;
      if is_sealed f then raise Crashed
    done
  | Disk_sink oc -> output oc src off len);
  appended w len ~tripped:(trip >= 0)

let append_sub w s ~off ~len =
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Device.append_sub: window out of bounds";
  append_from ~blit:Bytes.blit_string ~output:output_substring w s ~off ~len

let append w s = append_sub w s ~off:0 ~len:(String.length s)

(* A crash is never planned on disk, so a file append is always whole. *)
let output_buffer oc b _off _len = Buffer.output_buffer oc b

(* Straight from the caller's buffer into the chunks. *)
let append_buffer w b =
  append_from ~blit:Buffer.blit ~output:output_buffer w b ~off:0 ~len:(Buffer.length b)

let written w = w.w_written

let sync w =
  check_open w;
  check_alive w.dev;
  (match w.sink with
  | Mem_sink f -> f.synced <- length f
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
      ignore (add_flags f sealed_bit);
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
   file. *)
let mem_file_locked t name =
  read_fault_locked t name;
  match t.backend with
  | Mem files -> find_mem files name
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

(* Every read runs these three steps: [mem_table] or [disk_read_into]
   first, [account] last.

   A read takes the device lock once, to consume an armed fault and, in
   memory, to find the file; the bytes are located after it. The file's
   length is loaded before its chunk table (see [mem_file]), and no
   chunk is ever rewritten, so the read sees the file as it was when
   found. [mem_table] returns a table that covers [off, off + len). *)
let mem_table t name ~off ~len =
  if off < 0 || len < 0 then invalid_arg "Device.read: negative range";
  let f = Lsm_util.Ordered_mutex.protect t.m mem_file_locked t name in
  if off + len > length f then invalid_arg "Device.read: out of bounds";
  Atomic.get f.tbl

let disk_read_into t dir name ~off ~len dst =
  if off < 0 || len < 0 then invalid_arg "Device.read: negative range";
  Lsm_util.Ordered_mutex.protect t.m read_fault_locked t name;
  let ic = disk_open dir name ~off ~len in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input ic dst 0 len)

let account t cls ~off ~len =
  Io_stats.record_read t.io cls ~pages:(pages_of t ~off ~len) ~bytes:len;
  lat_sleep ~per_page_ns:t.read_lat_ns ~pages:(pages_of t ~off ~len)

type view = { mutable base : string; mutable pos : int }

let view () = { base = ""; pos = 0 }

(* Where a copied window lands: [dst], or a fresh buffer if it is too
   short. *)
let landing dst len = if Bytes.length dst >= len then dst else Bytes.create len

let show v b ~pos =
  v.base <- Bytes.unsafe_to_string b;
  v.pos <- pos

let read_view t ~cls name ~off ~len dst v =
  let in_place =
    match t.backend with
    | Mem _ ->
      let tbl = mem_table t name ~off ~len in
      let i = if len = 0 then -1 else chunk_index tbl off in
      if i >= 0 && off + len <= chunk_end tbl i (off + len) then begin
        show v tbl.bufs.(i) ~pos:(off - tbl.starts.(i));
        true
      end
      else begin
        (* The bounds check read the length; the last chunk's data ends
           at [off + len] at the latest, which is all [blit_out] needs. *)
        let b = landing dst len in
        blit_out tbl ~flen:(off + len) ~off ~len b;
        show v b ~pos:0;
        false
      end
    | Disk d ->
      let b = landing dst len in
      disk_read_into t d.dir name ~off ~len b;
      show v b ~pos:0;
      false
  in
  account t cls ~off ~len;
  in_place

(* A copy lands in a fresh buffer of [len] bytes, which is then the
   result. *)
let read t ~cls name ~off ~len =
  let v = view () in
  if read_view t ~cls name ~off ~len Bytes.empty v then String.sub v.base v.pos len else v.base

let size t name =
  match t.backend with
  | Mem files -> length (locked t (fun () -> find_mem files name))
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
    if off + len > length f then invalid_arg "Device.patch: out of bounds";
    if f.writing then invalid_arg ("Device.patch: file has an open writer: " ^ name);
    if len > 0 then Atomic.set f.state (rewrite f (fun _ c -> cow_blit c ~off data))
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
    locked t (fun () -> Hashtbl.fold (fun _ f acc -> acc + length f) files 0)
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
