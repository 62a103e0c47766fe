module Comparator = Lsm_util.Comparator
module Entry = Lsm_record.Entry
module Iter = Lsm_record.Iter
module Device = Lsm_storage.Device
module Io_stats = Lsm_storage.Io_stats
module Block_cache = Lsm_storage.Block_cache
module Wal = Lsm_storage.Wal
module Memtable = Lsm_memtable.Memtable
module Point_filter = Lsm_filter.Point_filter
module Monkey = Lsm_filter.Monkey
module Sstable = Lsm_sstable.Sstable
module Table_meta = Lsm_sstable.Table_meta
module Table_cache = Lsm_sstable.Table_cache
module Policy = Lsm_compaction.Policy
module Domain_pool = Lsm_util.Domain_pool
module Ordered_mutex = Lsm_util.Ordered_mutex
module Lsm_error = Lsm_util.Lsm_error

type buffer_unit = { mt : Memtable.t; wal : Wal.t option; wal_name : string option }

(* Health state machine (§ DESIGN.md 11): [Healthy] until something goes
   wrong; [Degraded] while quarantined tables exist but the engine still
   accepts writes; [Failsafe_read_only] after a maintenance failure —
   reads keep working, mutations raise [Lsm_error.Read_only] until
   [try_resume]. *)
type health = Healthy | Degraded | Failsafe_read_only

type quarantine_entry = {
  q_file : string;  (** the fenced-off [.sst] file *)
  q_min : string;
  q_max : string;  (** its key range: reads inside it fail loudly *)
  q_detail : string;  (** what the detector saw *)
}

type t = {
  cfg : Config.t;
  dev : Device.t;
  cache : Sstable.cached_block Block_cache.t;
  tables : Table_cache.t;
  db_stats : Stats.t;
  mutable active : buffer_unit;
  mutable immutables : buffer_unit list;  (** newest first; guarded by [buf_mutex] *)
  mutable imm_count : int;
      (** [List.length immutables], maintained so the per-write flush
          trigger and backpressure debt are O(1); same guard *)
  mutable imm_bytes : int;
      (** memtable bytes of immutable buffers not yet claimed by a
          flush ticket — the buffer component of the byte-denominated
          backpressure debt (claimed buffers move into the scheduler's
          unapplied bytes instead, so no byte is counted twice); same
          guard *)
  mutable flush_claims : int;
      (** immutable buffers claimed by enqueued-but-uncommitted flush
          tickets — always a prefix of the oldest, since flush tickets
          enqueue and commit in rotation order; same guard *)
  mutable vers : Version.t;
      (** the maintenance lane's working state — mutated only by the
          lane's committer (or a foreground caller that has quiesced it) *)
  mutable read_view : Read_path.view;
      (** what readers use: the installed version with what is derived
          from exactly that version, swapped in one field write so a
          reader can never pair a new version with stale tombstones (or
          vice versa, which would resurrect range-deleted keys) *)
  mutable manifest : Manifest.t;
  mutable seqno : int;
      (** last {e allocated} sequence number — may run ahead of what the
          memtable holds while a write/batch is mid-insert *)
  visible_seqno : int Atomic.t;
      (** last {e published} sequence number: every entry at or below it
          is fully inserted in the memtable stack. The writer stores it
          after the memtable insert(s) of a write/batch complete, so a
          reader that captures it as its read ceiling can never observe
          a half-applied batch (the atomic store/load pair also orders
          the plain memtable writes before the reader's traversal). *)
  clock : int Atomic.t;
      (** logical clock, ticked by every operation including concurrent
          readers — a plain read-modify-write here loses ticks under
          [multi_get]/[get] from several domains, starving TTL-based
          compaction triggers *)
  mutable snapshots : int list;
      (** live snapshot seqnos; guarded by [snap_mutex] — registration
          from one domain must never be lost to a concurrent
          register/release (a dropped registration lets compaction GC
          versions the snapshot still needs) *)
  snap_mutex : Ordered_mutex.t;  (** guards [snapshots] *)
  mutable next_file_id : int;
  mutable next_group : int;
  mutable wal_counter : int;
  rr_cursors : (int, string) Hashtbl.t;  (** round-robin movement cursor per level *)
  mutable dyn_buffer_size : int;
      (** runtime-adjustable rotation threshold (adaptive memory, §2.3.1);
          starts at [cfg.write_buffer_size] *)
  pool : Domain_pool.t option;
      (** worker domains for subcompactions and multi_get fan-out;
          [None] iff [cfg.compaction_parallelism = 1] *)
  id_mutex : Lsm_util.Ordered_mutex.t;
      (** guards [next_file_id] across subcompaction domains *)
  buf_mutex : Ordered_mutex.t;
      (** guards [immutables]/[imm_count]: the writer
          pushes on rotation, the flush job pops, readers snapshot *)
  sched : Scheduler.t;
      (** the maintenance lane: zero width for [Config.Inline] (jobs run
          on the writer), [cfg.compaction_workers] for [Background] *)
  mutable round_start : int;
      (** compaction bytes moved when the current budget round began;
          flush commits write it, the pick hook reads it *)
  pins : Version.Pins.registry;
      (** version pin registry: readers pin, and deletions of compacted
          [.sst] files are deferred through it *)
  health : health Atomic.t;
      (** atomic because reader domains (multi_get fan-out) and the
          maintenance lane both observe and flip it *)
  quarantined : quarantine_entry list Atomic.t;
      (** CAS-appended list of fenced-off tables; probes check it before
          touching a file so a known-bad table never serves *)
  mutable last_scrub : float;
      (** when the last [Config.scrub_interval]-scheduled scrub kicked
          off (wall clock); starts at open so the first one fires an
          interval after open, not on the first write *)
  scrub_tick : unit -> unit;
      (** rotation hook for scheduled scrubbing, built by [open_db] (it
          needs [scrub], defined long after the write path); called
          only when [scrub_interval > 0] *)
  reads : Read_path.env;
      (** what the read path reads through: the comparator, the merge
          operator, the table cache, the quarantine fence and
          [table_read_failed] *)
  mutable closed : bool;
}

let cmp_of t = t.cfg.Config.comparator

(* The one blessed read of the snapshot registry: a consistent copy taken
   under [snap_mutex]. Flush/merge planning captures through here; a
   registration that happened-before the capture is never missed, which
   is what keeps merge-time GC from dropping versions a live snapshot
   still needs. (The list itself is immutable — only the field mutates.) *)
let live_snapshots t = Ordered_mutex.with_lock t.snap_mutex (fun () -> t.snapshots)

(* ------------------------------------------------------------------ *)
(* Health & quarantine                                                 *)
(* ------------------------------------------------------------------ *)

let health t = Atomic.get t.health
let quarantined_tables t = Atomic.get t.quarantined

let is_quarantined t name =
  List.exists (fun q -> String.equal q.q_file name) (Atomic.get t.quarantined)

(* Healthy -> Degraded only — a CAS so a concurrent fail-safe transition
   can never be downgraded back to Degraded. *)
let degrade t = ignore (Atomic.compare_and_set t.health Healthy Degraded)

let rec enter_failsafe t =
  match Atomic.get t.health with
  | Failsafe_read_only -> ()
  | prev ->
    if Atomic.compare_and_set t.health prev Failsafe_read_only then
      t.db_stats.Stats.failsafe_entries <- t.db_stats.Stats.failsafe_entries + 1
    else enter_failsafe t

let note_corruption t =
  t.db_stats.Stats.corruptions_detected <- t.db_stats.Stats.corruptions_detected + 1

let rec add_quarantine t q =
  let cur = Atomic.get t.quarantined in
  if List.exists (fun e -> String.equal e.q_file q.q_file) cur then ()
  else if Atomic.compare_and_set t.quarantined cur (q :: cur) then begin
    t.db_stats.Stats.tables_quarantined <- t.db_stats.Stats.tables_quarantined + 1;
    degrade t
  end
  else add_quarantine t q

let quarantine_of_meta (f : Table_meta.t) detail =
  { q_file = f.Table_meta.file_name; q_min = f.Table_meta.min_key;
    q_max = f.Table_meta.max_key; q_detail = detail }

(* A probe that selected a quarantined table must fail loudly: falling
   through to an older run would silently serve a stale version of the
   key, which is exactly the wrong-data outcome quarantine exists to
   prevent. *)
let rec raise_quarantined_in (f : Table_meta.t) = function
  | [] -> ()
  | q :: rest ->
    if String.equal q.q_file f.Table_meta.file_name then
      raise (Lsm_error.corruption ~file:q.q_file ("table is quarantined: " ^ q.q_detail))
    else raise_quarantined_in f rest

(* The read path's handler for a failed table read: a decode failure —
   or a referenced file that has vanished — quarantines the table,
   degrades health, and surfaces as a typed error. *)
let table_read_failed t (f : Table_meta.t) e =
  let quarantine detail =
    note_corruption t;
    add_quarantine t (quarantine_of_meta f detail)
  in
  match e with
  | Lsm_error.Error (Lsm_error.Corruption _ as c) ->
    quarantine (Lsm_error.to_string c);
    raise e
  | Lsm_util.Codec.Corrupt msg ->
    quarantine msg;
    raise (Lsm_error.corruption ~file:f.Table_meta.file_name msg)
  | _ (* [Not_found]: the file is gone *) ->
    let detail = "referenced table missing" in
    quarantine detail;
    raise (Lsm_error.corruption ~file:f.Table_meta.file_name detail)

let new_buffer t =
  let name = Wal.file_name_of_seq t.wal_counter in
  t.wal_counter <- t.wal_counter + 1;
  let wal = if t.cfg.Config.wal_enabled then Some (Wal.create t.dev ~name) else None in
  {
    mt = Memtable.create ~kind:t.cfg.Config.memtable ~budget:t.dyn_buffer_size ~cmp:(cmp_of t) ();
    wal;
    wal_name = (if t.cfg.Config.wal_enabled then Some name else None);
  }

(* ------------------------------------------------------------------ *)
(* Version-edit installation                                           *)
(* ------------------------------------------------------------------ *)

(* Serialized: runs on the lane's committer, or during [open_db] before
   the lane has work — never two at once. Publishing [read_view] before
   [Pins.advance] keeps pinning conservative: a pin taken between the
   two blocks deletions for the version it just read. *)
let install_edit t edit =
  t.vers <- Version.apply t.vers edit;
  Manifest.log_edit t.manifest edit;
  if t.cfg.Config.paranoid_checks then begin
    match Version.check_invariants ~cmp:(cmp_of t) t.vers with
    | Ok () -> ()
    | Error e ->
      (* The just-logged edit produced an inconsistent tree: the manifest
         now describes a version that must never serve reads. *)
      raise
        (Lsm_error.corruption ~file:Manifest.file_name
           ("LSM invariant violation: " ^ e))
  end;
  t.read_view <- Read_path.view_of t.reads t.vers;
  Version.Pins.advance t.pins

(* ------------------------------------------------------------------ *)
(* Writing runs of SSTables                                            *)
(* ------------------------------------------------------------------ *)

(* Bits-per-key override for a level under Monkey allocation: project the
   level's population after this write lands there. *)
let monkey_bits t ~target_level ~incoming_entries =
  if not t.cfg.Config.monkey_filters then None
  else begin
    let entries =
      Array.init Version.max_levels (fun l -> Version.level_entries t.vers l)
    in
    entries.(target_level) <- entries.(target_level) + incoming_entries;
    let bits =
      Monkey.allocate
        ~total_bits:(float_of_int t.cfg.Config.filter_memory_bits)
        ~level_entries:entries
    in
    Some bits.(target_level)
  end

let build_config t ~filter_bits_override =
  {
    Sstable.block_size = t.cfg.Config.block_size;
    restart_interval = t.cfg.Config.restart_interval;
    filter = t.cfg.Config.filter;
    filter_bits_override;
    range_filter = t.cfg.Config.range_filter;
    compression = t.cfg.Config.compression;
    ecc =
      (match t.cfg.Config.ecc with
      | Some e -> Some (e.Config.ecc_data_pages, e.Config.ecc_parity_pages)
      | None -> None);
  }

(* File ids are allocated under a mutex: parallel subcompactions cut
   output files concurrently. Serial callers pay an uncontended lock. *)
let alloc_file_id t =
  Lsm_util.Ordered_mutex.with_lock t.id_mutex @@ fun () ->
  let id = t.next_file_id in
  t.next_file_id <- t.next_file_id + 1;
  id

(* Drain [src] into as many files as needed; returns their metadata.
   Each file takes records until, at a user-key boundary, it holds
   [target_file_size] bytes of them or [cut ~prev key] (a guarded
   level's guard boundaries) accepts the next key. *)
let write_run t ~cls ~filter_bits_override ?cut src =
  src.Iter.seek_to_first ();
  let config = build_config t ~filter_bits_override in
  let metas = ref [] in
  while src.Iter.valid () do
    let file_id = alloc_file_id t in
    let name = Table_meta.file_name_of_id file_id in
    let props =
      Sstable.build_from ~config ~limit:t.cfg.Config.target_file_size ?cut ~cmp:(cmp_of t)
        ~dev:t.dev ~cls ~name ~created_at:(Atomic.get t.clock) src
    in
    let size = Device.size t.dev name in
    metas := Table_meta.of_props ~file_id ~file_name:name ~size props :: !metas
  done;
  List.rev !metas

(* ------------------------------------------------------------------ *)
(* Flush                                                               *)
(* ------------------------------------------------------------------ *)

(* The buffer the writer retires stays reachable through [immutables]
   before [active] is swapped, so a reader snapshotting mid-rotation sees
   the buffer at least once (twice is benign: probe order dedupes).
   [new_buffer] creates the WAL (device I/O) outside the buffer lock. *)
let rotate t =
  if Memtable.count t.active.mt > 0 then begin
    let fresh = new_buffer t in
    Ordered_mutex.with_lock t.buf_mutex (fun () ->
        t.immutables <- t.active :: t.immutables;
        t.imm_count <- t.imm_count + 1;
        t.imm_bytes <- t.imm_bytes + Memtable.footprint t.active.mt;
        t.active <- fresh)
  end

(* Flushes are split into an execute phase (reads the frozen buffer and
   writes the L0 run — safe off the sequencer, the buffer is immutable)
   and a commit phase (group assignment, version edit, WAL retirement —
   runs only in commit order, so [t.next_group] stays single-threaded). *)
let flush_execute t buffer =
  let it = Memtable.iterator buffer.mt in
  (* Flush-time GC: drop same-stripe shadowed versions (never the bottom).
     The snapshot list is captured under its mutex: a snapshot registered
     after this point has a seqno at or above every seqno in the frozen
     buffer, so it only needs each key's newest version — which the
     filter always keeps. *)
  let filtered =
    Merge_filter.filtered ~cmp:(cmp_of t) ~snapshots:(live_snapshots t) ~bottom:false
      ~range_tombstones:(Memtable.range_tombstones buffer.mt)
      it
  in
  let bits = monkey_bits t ~target_level:0 ~incoming_entries:(Memtable.count buffer.mt) in
  write_run t ~cls:Io_stats.C_flush ~filter_bits_override:bits filtered

let flush_commit t buffer metas =
  let group = t.next_group in
  t.next_group <- t.next_group + 1;
  let edit =
    {
      Version.added = List.map (fun m -> (0, group, m)) metas;
      removed = [];
      seqno_watermark = t.seqno;
    }
  in
  install_edit t edit;
  (match buffer.wal with Some w -> Wal.close w | None -> ());
  (match buffer.wal_name with Some n -> Device.delete t.dev n | None -> ());
  t.db_stats.Stats.flushes <- t.db_stats.Stats.flushes + 1

(* Remove a flushed buffer from the stack. Its flush ticket claimed it,
   so its bytes already left [imm_bytes] at claim time (they were counted
   as the ticket's unapplied input instead). Flush first, pop after:
   between [install_edit] and the pop a reader may see the entries both
   in the immutable memtable and in L0, which probe order dedupes;
   popping first would open a window where a concurrent reader sees
   them in neither. *)
let pop_buffer t buffer =
  Ordered_mutex.with_lock t.buf_mutex (fun () ->
      t.immutables <- List.filter (fun b -> b != buffer) t.immutables;
      t.imm_count <- t.imm_count - 1;
      t.flush_claims <- t.flush_claims - 1)

(* ------------------------------------------------------------------ *)
(* Compaction                                                          *)
(* ------------------------------------------------------------------ *)

(* The largest key [f]'s entries can affect: a range tombstone in [f] may
   extend past [f.max_key]. The planner widens overlaps and guards with
   it. *)
let reach t (f : Table_meta.t) =
  List.fold_left
    (fun acc (rd : Entry.t) -> Comparator.max_key (cmp_of t) acc rd.value)
    f.max_key (Read_path.rds_of_files t.reads [ f ])

let plan t =
  Planner.next t.cfg t.vers ~now:(Atomic.get t.clock)
    ~cursor:(Hashtbl.find_opt t.rr_cursors) ~reach:(reach t)

(* Concurrent readers may still hold a version referencing these files;
   deletion waits for the last pin predating this install. *)
let retire_files t files =
  Version.Pins.defer t.pins (fun () ->
      List.iter
        (fun (f : Table_meta.t) ->
          Device.delete t.dev f.file_name;
          (* Deleting inputs implicitly evicts their hot blocks — the cache
             disturbance §2.1.3 attributes to compactions. *)
          Table_cache.evict t.tables f.file_name)
        files)

(* ---------------- subcompactions ---------------- *)

(* Cut the inputs' key space into at most [k] consecutive ranges at
   fence-pointer boundaries (file min-keys), weighted by file size so the
   ranges carry roughly equal bytes. Because a boundary is a user key and
   each run iterator covers [lo, hi), every version of a user key
   falls in exactly one range — the per-key GC of [Merge_filter] sees
   the same version stream as a serial merge, so the concatenated outputs
   are entry-for-entry identical to the serial output. Fully-overlapping
   inputs (a stack of level-0 runs) offer no usable boundaries and fall
   back to fewer, possibly one, range. *)
let partition_ranges t ~input_files ~k =
  let cmp = (cmp_of t).Comparator.compare in
  let sorted =
    List.sort (fun (a : Table_meta.t) (b : Table_meta.t) -> cmp a.min_key b.min_key) input_files
  in
  let total = List.fold_left (fun a (f : Table_meta.t) -> a + f.size) 0 input_files in
  let target = max 1 (total / k) in
  let bounds = ref [] in
  let acc = ref 0 in
  List.iter
    (fun (f : Table_meta.t) ->
      if
        !acc >= target
        && List.length !bounds < k - 1
        && (match !bounds with b :: _ -> cmp b f.min_key < 0 | [] -> true)
        (* a boundary at/below the global min would make an empty head range *)
        && (match sorted with first :: _ -> cmp first.Table_meta.min_key f.min_key < 0 | [] -> false)
      then begin
        bounds := f.min_key :: !bounds;
        acc := 0
      end;
      acc := !acc + f.size)
    sorted;
  let rec ranges lo = function
    | [] -> [ (lo, None) ]
    | b :: rest -> (lo, Some b) :: ranges (Some b) rest
  in
  ranges None (List.rev !bounds)

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* Merge [input_runs] (newest first) and write the result as one sorted
   run at [target_level] with [target_group]. [bottom] asserts that, for
   every key range the inputs cover, no data at or below [target_level]
   exists outside the inputs — only then may tombstones be retired.

   With [compaction_parallelism] > 1 the merge is executed as parallel
   subcompactions: the key space is partitioned at fence-pointer
   boundaries and each range is merged, filtered, and written by a pool
   domain; the per-range outputs concatenate (in key order) into the same
   single sorted run a serial merge would produce, installed by one
   version edit.

   Like flushes, merges are split in two: [plan_merge] captures every
   input from [t.vers] (sequencer context, deterministic), the execute
   phase does the heavy reading/merging/writing against those captured
   inputs on any worker, and the commit phase installs the edit in
   enqueue order. *)
type merge_plan = {
  mp_input_runs : Version.run list;
  mp_input_files : Table_meta.t list;
  mp_read_bytes : int;
  mp_target_level : int;
  mp_target_group : int;
  mp_bottom : bool;
  mp_bits : float option;
  mp_cut : (prev:string -> string -> bool) option;
      (** output cut at the target level's guards ({!write_run}) *)
  mp_snapshots : int list;
      (** live-snapshot seqnos captured (under [snap_mutex]) at plan
          time; the execute phase filters against exactly this list. A
          snapshot taken after planning has a seqno at or above every
          seqno in the captured inputs, so it only needs each key's
          newest input version, which [Merge_filter] always retains. *)
}

(* Where a merge into guarded [target_level] cuts its output: before
   every guard key of the level, and at every guard of the level already
   seen as a file min key at or below it, so guards whose keys are absent
   from this merge still bound its files. [None] for other layouts. *)
let guard_cut t ~target_level =
  match t.cfg.Config.compaction.Policy.layout with
  | Policy.Guarded { stride_base } when target_level >= 1 ->
    let cmp = (cmp_of t).Comparator.compare in
    let is_guard =
      Policy.is_guard ~stride_base ~size_ratio:t.cfg.Config.compaction.Policy.size_ratio
        ~level:target_level
    in
    let seen =
      List.init (Version.max_levels - target_level) (fun i ->
          Version.level_files t.vers (target_level + i))
      |> List.concat
      |> List.filter_map (fun (f : Table_meta.t) ->
             if is_guard f.min_key then Some f.min_key else None)
      |> List.sort_uniq cmp |> Array.of_list
    in
    (* a seen guard in (prev, key]: binary search for the first above prev *)
    let crosses ~prev key =
      let lo = ref 0 and hi = ref (Array.length seen) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cmp seen.(mid) prev <= 0 then lo := mid + 1 else hi := mid
      done;
      !lo < Array.length seen && cmp seen.(!lo) key <= 0
    in
    Some (fun ~prev key -> is_guard key || crosses ~prev key)
  | _ -> None

let plan_merge t ~input_runs ~target_level ~target_group ~bottom =
  let input_files = List.concat_map (fun (r : Version.run) -> r.Version.files) input_runs in
  let read_bytes = List.fold_left (fun a (f : Table_meta.t) -> a + f.size) 0 input_files in
  let input_entries = List.fold_left (fun a (f : Table_meta.t) -> a + f.entries) 0 input_files in
  {
    mp_input_runs = input_runs;
    mp_input_files = input_files;
    mp_read_bytes = read_bytes;
    mp_target_level = target_level;
    mp_target_group = target_group;
    mp_bottom = bottom;
    mp_bits = monkey_bits t ~target_level ~incoming_entries:input_entries;
    mp_cut = guard_cut t ~target_level;
    mp_snapshots = live_snapshots t;
  }

let merge_execute t (p : merge_plan) =
  let t_start = now_ns () in
  let input_runs = p.mp_input_runs in
  let input_files = p.mp_input_files in
  let bottom = p.mp_bottom in
  let rds = Read_path.rds_of_files t.reads input_files in
  let bits = p.mp_bits in
  (* Parallel input warm-up: with a pool, load every input file's data
     blocks into the block cache first, one file per domain. The block
     reads of one merge then overlap like queued requests on a real
     device instead of paying their I/O latency one at a time inside
     the merge loop. The cache disturbance is transient by the same
     rule as any compaction read: [retire_files] evicts the inputs as
     soon as the merge commits. *)
  let warmed =
    match t.pool with
    | Some pool when Domain_pool.size pool > 1 && List.length input_files > 1 ->
      ignore
        (Domain_pool.map_list pool
           (fun (f : Table_meta.t) ->
             Sstable.prefetch_into_cache
               (Table_cache.get t.tables f.file_name)
               ~cls:Io_stats.C_compaction_read)
           input_files);
      true
    | _ -> false
  in
  let ranges =
    (* Cap the fan-out so every range carries at least a target file's
       worth of input: splitting smaller merges buys no overlap worth
       having and litters the tree with undersized output files, whose
       cleanup merges then eat the throughput the split was meant to
       win. *)
    let k_bytes = max 1 (p.mp_read_bytes / max 1 t.cfg.Config.target_file_size) in
    match t.pool with
    | Some pool when Domain_pool.size pool > 1 && k_bytes > 1 ->
      partition_ranges t ~input_files ~k:(min (Domain_pool.size pool) k_bytes)
    | _ -> [ (None, None) ]
  in
  (* A compaction input reads through no quarantine fence: a failure
     fails the merge. *)
  let open_file (f : Table_meta.t) =
    Some
      (Sstable.iterator
         (Table_cache.get t.tables f.file_name)
         ~cls:Io_stats.C_compaction_read ~use_cache:warmed ())
  in
  let merge_range (lo, hi) =
    let merged =
      Iter.merge (cmp_of t)
        (List.map
           (fun (r : Version.run) ->
             Read_path.run_iter (cmp_of t) ~open_file ~failed:(fun _ e -> raise e) ~lo ~hi
               (Array.of_list r.Version.files))
           input_runs)
    in
    let filtered =
      Merge_filter.filtered ~cmp:(cmp_of t) ~snapshots:p.mp_snapshots ~bottom
        ~range_tombstones:rds merged
    in
    write_run t ~cls:Io_stats.C_compaction_write ~filter_bits_override:bits ?cut:p.mp_cut
      filtered
  in
  let metas =
    match (t.pool, ranges) with
    | Some pool, _ :: _ :: _ -> List.concat (Domain_pool.map_list pool merge_range ranges)
    | _ -> List.concat (List.map merge_range ranges)
  in
  (metas, List.length ranges, now_ns () - t_start)

let merge_commit t (p : merge_plan) (metas, nranges, exec_ns) =
  let written = List.fold_left (fun a (m : Table_meta.t) -> a + m.size) 0 metas in
  let edit =
    {
      Version.added = List.map (fun m -> (p.mp_target_level, p.mp_target_group, m)) metas;
      removed = List.map (fun (f : Table_meta.t) -> f.file_id) p.mp_input_files;
      seqno_watermark = t.seqno;
    }
  in
  install_edit t edit;
  retire_files t p.mp_input_files;
  t.db_stats.Stats.compactions <- t.db_stats.Stats.compactions + 1;
  t.db_stats.Stats.subcompactions <- t.db_stats.Stats.subcompactions + nranges;
  t.db_stats.Stats.compaction_wall_ns <- t.db_stats.Stats.compaction_wall_ns + exec_ns;
  t.db_stats.Stats.compaction_bytes_read <-
    t.db_stats.Stats.compaction_bytes_read + p.mp_read_bytes;
  t.db_stats.Stats.compaction_bytes_written <-
    t.db_stats.Stats.compaction_bytes_written + written;
  Lsm_util.Histogram.add t.db_stats.Stats.compaction_burst_bytes (p.mp_read_bytes + written);
  if t.cfg.Config.cache_refill_after_compaction then
    List.iter
      (fun (m : Table_meta.t) ->
        ignore
          (Sstable.prefetch_into_cache
             (Table_cache.get t.tables m.file_name)
             ~cls:Io_stats.C_compaction_read))
      metas;
  metas

let fresh_group t =
  let g = t.next_group in
  t.next_group <- t.next_group + 1;
  g

(* Relocate files one level down without rewriting them: legal whenever
   nothing at the target overlaps them and no garbage collection would
   have fired during a real merge. Content is unchanged, so snapshots are
   unaffected; write amplification for the move is zero. *)
let trivial_move t ~files ~target_level ~target_group =
  let edit =
    {
      Version.added = List.map (fun (f : Table_meta.t) -> (target_level, target_group, f)) files;
      removed = List.map (fun (f : Table_meta.t) -> f.file_id) files;
      seqno_watermark = t.seqno;
    }
  in
  install_edit t edit;
  t.db_stats.Stats.trivial_moves <- t.db_stats.Stats.trivial_moves + List.length files

let has_tombstones files =
  List.exists (fun (f : Table_meta.t) -> f.point_tombstones + f.range_tombstones > 0) files

(* ------------------------------------------------------------------ *)
(* Maintenance lane & backpressure                                      *)
(* ------------------------------------------------------------------ *)

let with_pin t f = Version.Pins.with_pin t.pins f

(* Lane jobs report through the scheduler's failure latch; this wrapper
   additionally flips the engine into fail-safe read-only mode and makes
   sure the parked exception is typed. [Device.Crashed] passes through
   unwrapped and does not change health — crash injection models power
   loss, which reopen-time recovery handles, not bad hardware. *)
let guard_job t job () =
  try job () with
  | Device.Crashed as e -> raise e
  | Lsm_error.Error _ as e ->
    enter_failsafe t;
    raise e
  | e ->
    enter_failsafe t;
    raise
      (Lsm_error.io_error ~retriable:false
         ("maintenance job failed: " ^ Printexc.to_string e))

(* Wrap both phases of a two-phase lane job with the fail-safe guard:
   an error in either phase flips the engine read-only and parks a typed
   error in the scheduler's failure latch. *)
let phases t mk () =
  let commit = guard_job t mk () in
  fun () -> guard_job t commit ()

(* Compaction budget rounds (Luo & Carey's throttling [81]): a round
   starts at every flush-ticket commit, and the pick hook stops once it
   has moved [compaction_bytes_per_round] bytes. *)
let compaction_bytes_moved t =
  t.db_stats.Stats.compaction_bytes_read + t.db_stats.Stats.compaction_bytes_written

let start_round t = t.round_start <- compaction_bytes_moved t

(* Claim the oldest unclaimed immutable buffer for a flush ticket iff
   the stack is over the limit net of buffers already claimed. Claiming
   moves the buffer's bytes out of [imm_bytes] into the ticket's
   unapplied input bytes until its commit pops it. *)
let claim_flush t =
  Ordered_mutex.with_lock t.buf_mutex (fun () ->
      if t.imm_count - t.flush_claims > t.cfg.Config.max_immutable_buffers then begin
        let buffer = List.nth (List.rev t.immutables) t.flush_claims in
        t.flush_claims <- t.flush_claims + 1;
        t.imm_bytes <- t.imm_bytes - Memtable.footprint buffer.mt;
        Some buffer
      end
      else None)

(* Claim or release every immutable buffer, on a drained lane: any claim
   still counted belongs to a failed or discarded ticket. [claim_all]
   returns the bytes claimed. *)
let claim_all t =
  Ordered_mutex.with_lock t.buf_mutex (fun () ->
      t.flush_claims <- t.imm_count;
      t.imm_bytes <- 0;
      List.fold_left (fun a b -> a + Memtable.footprint b.mt) 0 t.immutables)

let unclaim_all t =
  Ordered_mutex.with_lock t.buf_mutex (fun () ->
      t.flush_claims <- 0;
      t.imm_bytes <- List.fold_left (fun a b -> a + Memtable.footprint b.mt) 0 t.immutables)

(* A flush ticket: [execute] is its execute phase, returning the commit;
   every flush commit starts a budget round. *)
let submit_flush t ~input_bytes execute =
  Scheduler.submit t.sched ~key:Scheduler.Flush ~input_bytes
    ~execute:
      (phases t (fun () ->
           let commit = execute () in
           fun () ->
             commit ();
             start_round t))

(* An empty flush ticket only starts a round, whose commit hook picks:
   resuming deferred compaction work. *)
let new_round t = submit_flush t ~input_bytes:0 (fun () () -> ())

(* A rotation's flush: one claimed buffer, written in the execute phase. *)
let submit_buffer_flush t buffer =
  submit_flush t ~input_bytes:(Memtable.footprint buffer.mt) (fun () ->
      let metas = flush_execute t buffer in
      fun () ->
        flush_commit t buffer metas;
        pop_buffer t buffer)

(* {!flush}'s commit phase: the whole (claimed) stack, oldest first, each
   buffer sizing its Monkey filters against its predecessor's version,
   then one cascade. Re-reading the stack per buffer keeps a flushed one
   unreachable while the next is written. Only the lane pops, and the
   writer is inside [flush], so the stack is stable. *)
let rec flush_stack t =
  match List.rev t.immutables with
  | [] -> ()
  | oldest :: _ ->
    flush_commit t oldest (flush_execute t oldest);
    pop_buffer t oldest;
    flush_stack t

(* Submit planner pick [p] under conflict key [key], running [on_commit]
   after its commit. Everything here happens in sequencer context, in
   this order: the cursor write, the group allocation, and the merge plan
   (Monkey bits, guard cut, snapshot capture), so picks plan from the
   same tree states at every lane width — the sequencer front-inserts
   hook picks and runs the hook after every commit. What remains (the
   merge's execute phase) only reads the captured immutable files. *)
let submit_pick t ~key ?(on_commit = ignore) (p : Planner.pick) =
  Option.iter (fun (l, k) -> Hashtbl.replace t.rr_cursors l k) p.cursor;
  let target_group =
    match p.output with Planner.Join g -> g | Planner.Fresh_run -> fresh_group t
  in
  let files = Planner.input_files p in
  let execute =
    if
      p.trivial_move && t.cfg.Config.allow_trivial_move
      && not (p.bottom && has_tombstones files)
    then fun () () ->
      trivial_move t ~files ~target_level:p.target ~target_group;
      on_commit ()
    else begin
      let mp =
        plan_merge t ~input_runs:p.inputs ~target_level:p.target ~target_group ~bottom:p.bottom
      in
      fun () ->
        let res = merge_execute t mp in
        fun () ->
          ignore (merge_commit t mp res);
          on_commit ()
    end
  in
  Scheduler.submit t.sched ~key
    ~input_bytes:(List.fold_left (fun a (f : Table_meta.t) -> a + f.size) 0 files)
    ~execute:(phases t execute)

(* Commit-time compaction picker: the sequencer calls this after every
   committed edit, in commit order, on whichever domain holds the
   committer token — serialized, so it may read [t.vers] and allocate
   groups. Each call submits at most ONE pick, front-inserted at the
   commit head (before any already-queued flush); the pick's own commit
   re-runs the hook, until the planner finds nothing due or the round's
   budget is spent. A pick conflicting with an in-flight compaction is
   refused without side effects (the trigger fires again at that
   ticket's commit) — see [Scheduler.conflicts_pending]. *)
let pick_compactions t =
  let budget =
    match t.cfg.Config.compaction_bytes_per_round with Some b -> b | None -> max_int
  in
  if compaction_bytes_moved t - t.round_start < budget then
    Option.iter
      (fun (p : Planner.pick) ->
        let key = Scheduler.Compact { level = p.level; lo = p.lo; hi = p.hi } in
        if not (Scheduler.conflicts_pending t.sched key) then submit_pick t ~key p)
      (plan t)

(* RocksDB-style backpressure, re-denominated in bytes: debt = unclaimed
   immutable-buffer bytes + L0 run bytes + captured input bytes of every
   enqueued-but-unapplied ticket. The debt reads are deliberately
   lock-free (stale by at most a step — this is a throttle, not an
   invariant). *)
let backpressure_debt t =
  t.imm_bytes + Version.level_bytes t.vers 0 + Scheduler.unapplied_bytes t.sched

let backpressure t =
  let d = backpressure_debt t in
  if d >= t.cfg.Config.write_stop_trigger then begin
    t.db_stats.Stats.write_stops <- t.db_stats.Stats.write_stops + 1;
    Scheduler.wait_until t.sched (fun ~pending:_ ~unapplied_bytes ->
        t.imm_bytes + Version.level_bytes t.vers 0 + unapplied_bytes
        < t.cfg.Config.write_stop_trigger)
  end
  else if d >= t.cfg.Config.write_slowdown_trigger then begin
    t.db_stats.Stats.write_slowdowns <- t.db_stats.Stats.write_slowdowns + 1;
    (* Proportional delay (the shape of RocksDB's delayed-write-rate):
       ramps linearly from ~50µs just past the slowdown trigger to ~1ms
       as debt approaches the stop threshold, so backpressure tightens
       smoothly instead of jumping from a fixed nap straight to a full
       stop. The injected delay is recorded so benches can see it. *)
    let span =
      max 1 (t.cfg.Config.write_stop_trigger - t.cfg.Config.write_slowdown_trigger)
    in
    let excess = min span (1 + d - t.cfg.Config.write_slowdown_trigger) in
    let frac = float_of_int excess /. float_of_int span in
    let delay = 0.00005 +. ((0.001 -. 0.00005) *. frac) in
    Lsm_util.Histogram.add t.db_stats.Stats.slowdown_delay_ns
      (int_of_float (delay *. 1e9));
    Unix.sleepf delay
  end

(* After a rotation: submit the flush the stack now owes. On a zero-width
   lane it has run, cascade included, by the time the submit returns, so
   the write is charged a stall instead of backpressure: there is no
   lane left to wait for. *)
let after_rotate t =
  let claim = claim_flush t in
  if Scheduler.workers t.sched = 0 then
    Option.iter
      (fun buffer ->
        let before = Io_stats.copy (Device.stats t.dev) in
        submit_buffer_flush t buffer;
        let d = Io_stats.diff (Device.stats t.dev) before in
        t.db_stats.Stats.write_stalls <- t.db_stats.Stats.write_stalls + 1;
        Lsm_util.Histogram.add t.db_stats.Stats.stall_burst_bytes
          (Io_stats.bytes_written ~cls:Io_stats.C_flush d
          + Io_stats.bytes_written ~cls:Io_stats.C_compaction_write d))
      claim
  else begin
    Option.iter (submit_buffer_flush t) claim;
    backpressure t
  end

let compact_once t =
  Scheduler.quiesce t.sched;
  match plan t with
  | None -> false
  | Some _ ->
    new_round t;
    Scheduler.quiesce t.sched;
    true

(* ------------------------------------------------------------------ *)
(* Write path                                                          *)
(* ------------------------------------------------------------------ *)

let check_open t = if t.closed then invalid_arg "Db: closed"

(* Fail-safe mode rejects mutations with a typed error; reads stay up
   and [try_resume] re-arms the engine. *)
let check_writable t =
  check_open t;
  if Atomic.get t.health = Failsafe_read_only then
    raise
      (Lsm_error.read_only
         "fail-safe mode after a maintenance failure (Db.try_resume to re-arm)")

(* The tail of {!write}: rotation trigger plus the follow-up lane work;
   [throttle] adds the throttled-mode slice. *)
let after_memtable_add t ~throttle =
  if Memtable.footprint t.active.mt >= t.dyn_buffer_size then begin
    rotate t;
    after_rotate t;
    if t.cfg.Config.scrub_interval > 0. then t.scrub_tick ()
  end
  else if throttle && t.cfg.Config.compaction_bytes_per_round <> None then
    (* Throttled mode: pay down deferred compaction debt a budget round
       at a time on ordinary writes instead of in bursts at flush points. *)
    new_round t

let next_seqno t =
  t.seqno <- t.seqno + 1;
  t.seqno

(* The one write path: every mutation, single or batched, enters here
   as a list of [(kind, key, value)]. Nothing is charged before the
   checks — a rejected write allocates no seqno, counts as no ingest,
   and writes no WAL byte. One WAL record, one sequence-number range,
   one durability point: a batch recovers all-or-nothing after a crash.
   [throttle] is true only for single writes — batches never paid the
   throttled-mode slice, and keeping that exact shape keeps the
   cost-model experiments bit-stable. *)
let write t ~throttle ops =
  check_writable t;
  List.iter
    (function
      | Entry.Range_delete, lo, hi when (cmp_of t).Comparator.compare lo hi >= 0 ->
        invalid_arg "Db.range_delete: lo must be < hi"
      | _ -> ())
    ops;
  if ops <> [] then begin
    let t0 = now_ns () in
    let entries =
      List.map
        (fun (kind, key, value) ->
          let seqno = next_seqno t in
          ignore (Atomic.fetch_and_add t.clock 1);
          (match kind with
          | Entry.Put | Entry.Merge ->
            t.db_stats.Stats.user_puts <- t.db_stats.Stats.user_puts + 1
          | Entry.Delete | Entry.Single_delete | Entry.Range_delete ->
            t.db_stats.Stats.user_deletes <- t.db_stats.Stats.user_deletes + 1);
          t.db_stats.Stats.user_bytes_ingested <-
            t.db_stats.Stats.user_bytes_ingested + String.length key + String.length value;
          { Entry.key; seqno; kind; value })
        ops
    in
    (match t.active.wal with
    | Some w -> Wal.append w ~sync:t.cfg.Config.wal_sync_every_write entries
    | None -> ());
    List.iter (Memtable.add t.active.mt) entries;
    (* Publish only after the last insert: readers that observe this
       ceiling find every entry of the write, so none can resolve part of
       a batch without the rest (multi_get atomicity). SC atomics order
       the plain inserts before the store, and the reader's load before
       its traversal. *)
    Atomic.set t.visible_seqno t.seqno;
    after_memtable_add t ~throttle;
    Lsm_util.Histogram.add t.db_stats.Stats.write_latency_ns (now_ns () - t0)
  end

let put t ~key value = write t ~throttle:true [ (Entry.Put, key, value) ]
let delete t key = write t ~throttle:true [ (Entry.Delete, key, "") ]
let single_delete t key = write t ~throttle:true [ (Entry.Single_delete, key, "") ]
let range_delete t ~lo ~hi = write t ~throttle:true [ (Entry.Range_delete, lo, hi) ]
let merge t ~key operand = write t ~throttle:true [ (Entry.Merge, key, operand) ]
let apply_batch t batch = write t ~throttle:false (Write_batch.operations batch)

(* ------------------------------------------------------------------ *)
(* Reads                                                               *)
(* ------------------------------------------------------------------ *)

(* Every read resolves {e all} of its keys against one captured
   [Read_path.ctx]: the snapshot ceiling, the memtable stack, and the
   read view. This is what makes a {!multi_get} (either path) atomic
   with respect to a concurrent {!apply_batch}: a per-key re-capture
   could observe the batch half-applied across the returned list.

   Capture order is load-bearing twice over.

   Ceiling and buffers together, under the buffer lock: [visible_seqno]
   is published only after the whole write/batch is in the memtable, so
   every entry at or below the ceiling is already fully inserted —
   reading both in one critical section, a reader can never select a
   seqno whose entry it cannot find, and can never see a batch's tail
   without its head. The lock matters for the ceiling too, not just the
   stack copy: flush-time GC keeps only each key's newest version (plus
   registered-snapshot pins), so an implicit read point — which is
   registered nowhere — is only safe while the buffers that resolve it
   are still reachable. Reading the ceiling outside the lock opens a
   stall window in which the buffer holding every entry at or below the
   ceiling is flushed, GC'd down to versions above the ceiling, and
   popped — leaving the context with no resolvable version of any key.
   Pops take this same lock, so inside the critical section the stack
   cannot retire under us; after it, our references keep the captured
   memtables alive no matter what the maintenance lane does.

   Buffers before view: the memtable stack is snapshotted *before*
   [read_view] is read (last, in the same critical section), and the
   flush job installs the new view *before*
   popping the buffer. So if a buffer is already gone from our snapshot,
   the view we then read must contain its flushed table — entries can be
   seen twice during the overlap (probe order dedupes) but never zero
   times. The caller holds a version pin, keeping every file of the
   view on disk.

   An explicit [snapshot] needs none of the ceiling choreography — its
   seqno is protected from GC by the registry ([live_snapshots]) — but
   shares the locked stack copy. *)
let capture_read_ctx t ?snapshot () =
  Ordered_mutex.with_lock t.buf_mutex (fun () ->
      let snap =
        match snapshot with
        | Some s -> Snapshot.seqno s
        | None -> Atomic.get t.visible_seqno
      in
      Read_path.ctx ~snap ~active:t.active.mt ~immutables:(List.map (fun b -> b.mt) t.immutables)
        t.read_view)

let account_lookup t (tally : Read_path.tally) found =
  let st = t.db_stats in
  st.Stats.runs_probed <- st.Stats.runs_probed + tally.probed;
  Lsm_util.Histogram.add st.Stats.get_run_probes tally.probed;
  st.Stats.filter_negatives <- st.Stats.filter_negatives + tally.negatives;
  st.Stats.filter_false_positives <- st.Stats.filter_false_positives + tally.false_positives;
  if Option.is_some found then st.Stats.gets_found <- st.Stats.gets_found + 1

let get t ?snapshot key =
  check_open t;
  ignore (Atomic.fetch_and_add t.clock 1);
  t.db_stats.Stats.user_gets <- t.db_stats.Stats.user_gets + 1;
  let tally = Read_path.tally () in
  (* [with_pin] spelled out: its closure would be the largest allocation
     of a get that hits the memtable. *)
  let pin = Version.Pins.pin t.pins in
  let result =
    match Read_path.lookup t.reads (capture_read_ctx t ?snapshot ()) tally key with
    | v ->
      Version.Pins.unpin t.pins pin;
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Version.Pins.unpin t.pins pin;
      Printexc.raise_with_backtrace e bt
  in
  account_lookup t tally result;
  result

(* Split [xs] into at most [n] contiguous chunks of near-equal length. *)
let chunk_list n xs =
  let len = List.length xs in
  let per = max 1 ((len + n - 1) / n) in
  let rec take k acc = function
    | rest when k = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> take (k - 1) (x :: acc) rest
  in
  let rec split = function
    | [] -> []
    | xs ->
      let c, rest = take per [] xs in
      c :: split rest
  in
  split xs

let lookup_tallied t ctx key =
  let tally = Read_path.tally () in
  (Read_path.lookup t.reads ctx tally key, tally)

let multi_get t ?snapshot keys =
  check_open t;
  ignore (Atomic.fetch_and_add t.clock 1);
  let results =
    (* One pin and ONE captured context cover the whole batch, on either
       path — every key resolves against the same snapshot ceiling,
       memtable stack, and version, so the result list is a point-in-time
       cut (a concurrent [apply_batch] is all-there or all-absent, never
       half). The pin is taken on the calling domain and held until every
       chunk has settled. *)
    with_pin t (fun () ->
        let ctx = capture_read_ctx t ?snapshot () in
        match t.pool with
        | Some pool when Domain_pool.size pool > 1 && List.length keys > 1 ->
          (* One chunk per worker: the per-task overhead (queue lock,
             future wakeup) amortizes over the chunk, and results
             concatenate back in input order. Reads are pure — every
             statistic is accounted below, on the calling domain, from
             the per-key tallies. *)
          let chunks = chunk_list (Domain_pool.size pool) keys in
          List.concat
            (Domain_pool.map_list pool (List.map (lookup_tallied t ctx)) chunks)
        | _ -> List.map (lookup_tallied t ctx) keys)
  in
  let n = List.length keys in
  t.db_stats.Stats.user_gets <- t.db_stats.Stats.user_gets + n;
  List.map
    (fun (r, tally) ->
      account_lookup t tally r;
      r)
    results

(* A scan's tally counts the tables its range filter ruled out. *)
let fold t ?snapshot ?(limit = max_int) ~lo ~hi ~init ~f () =
  check_open t;
  ignore (Atomic.fetch_and_add t.clock 1);
  t.db_stats.Stats.user_scans <- t.db_stats.Stats.user_scans + 1;
  let tally = Read_path.tally () in
  let acc =
    with_pin t (fun () ->
        Read_path.fold t.reads (capture_read_ctx t ?snapshot ()) tally ~limit ~lo ~hi ~init ~f)
  in
  t.db_stats.Stats.range_filter_skips <- t.db_stats.Stats.range_filter_skips + tally.negatives;
  acc

let scan t ?snapshot ?limit ~lo ~hi () =
  List.rev
    (fold t ?snapshot ?limit ~lo ~hi ~init:[] ~f:(fun acc k v -> (k, v) :: acc) ())

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

(* Registration and release are read-modify-writes on the registry list;
   unsynchronized, two concurrent calls lose one of the updates — and a
   lost registration means merge-time GC no longer knows the snapshot
   exists. Both run under [snap_mutex] (rank [db_snapshots]; no other
   lock is ever taken inside).

   The snapshot pins [visible_seqno], not [seqno]: the allocation
   counter may run ahead of the memtable mid-batch, and a snapshot at
   such a seqno would read a half-applied batch. *)
let snapshot t =
  check_open t;
  Ordered_mutex.with_lock t.snap_mutex (fun () ->
      let s = Snapshot.make (Atomic.get t.visible_seqno) in
      t.snapshots <- Snapshot.seqno s :: t.snapshots;
      s)

let release t s =
  let rec remove_one = function
    | [] -> []
    | x :: rest -> if x = Snapshot.seqno s then rest else x :: remove_one rest
  in
  Ordered_mutex.with_lock t.snap_mutex (fun () -> t.snapshots <- remove_one t.snapshots)

(* ------------------------------------------------------------------ *)
(* Maintenance & introspection                                         *)
(* ------------------------------------------------------------------ *)

(* Drain the lane (re-raising any parked failure), then flush the whole
   memtable stack as one lane job and wait for it and its cascade.
   [flush_work] skips the writability check — [close] must be able to
   drain buffers even in fail-safe mode. *)
let flush_work t =
  Scheduler.quiesce t.sched;
  rotate t;
  submit_flush t ~input_bytes:(claim_all t) (fun () () -> flush_stack t);
  Scheduler.quiesce t.sched

let flush t =
  check_writable t;
  flush_work t

(* ------------------------------------------------------------------ *)
(* Integrity scrubbing & fail-safe recovery                            *)
(* ------------------------------------------------------------------ *)

(* Drain the lane, discard any parked failure (and the flush claims of
   tickets it discarded, so their buffers flush again), and leave
   fail-safe mode. Quarantined tables stay fenced (re-arming cannot
   un-corrupt a file), so health lands on [Degraded] when any remain. *)
let try_resume t =
  check_open t;
  Scheduler.shutdown t.sched;
  unclaim_all t;
  let target = if Atomic.get t.quarantined = [] then Healthy else Degraded in
  Atomic.set t.health target;
  t.db_stats.Stats.resumes <- t.db_stats.Stats.resumes + 1;
  target

(* One table's scrub, shared by the synchronous scrubber and the
   lane jobs: every data block re-read and CRC-checked. A defect
   quarantines the table and is returned rather than raised — the
   scrubber reports findings, it does not abort on the first one. *)
let verify_one_table t (f : Table_meta.t) =
  match
    let reader = Table_cache.get t.tables f.Table_meta.file_name in
    Sstable.verify reader ~cls:Io_stats.C_misc;
    (* Content proven sound: also heal any silent rot in the table's ECC
       section / parity pages so the next corruption finds full parity. *)
    ignore (Sstable.scrub_ecc reader ~cls:Io_stats.C_misc)
  with
  | () -> None
  | exception Lsm_error.Error c ->
    add_quarantine t (quarantine_of_meta f (Lsm_error.to_string c));
    Some c
  | exception Not_found ->
    let detail = "referenced table missing" in
    add_quarantine t (quarantine_of_meta f detail);
    Some (Lsm_error.Corruption { file = f.Table_meta.file_name; offset = None; detail })

let verify_integrity t =
  check_open t;
  let findings = ref [] in
  let add c =
    note_corruption t;
    findings := c :: !findings
  in
  (* 1. Manifest: the frame chain must be intact up to the live end
     (edit decodability was proven at recovery). *)
  List.iter add (Manifest.verify t.dev);
  (* 2. Every live table, under a pin so a concurrent compaction cannot
     delete files out from under the walk. *)
  with_pin t (fun () ->
      let v = Read_path.view_version t.read_view in
      List.iter
        (fun (f : Table_meta.t) ->
          if not (is_quarantined t f.Table_meta.file_name) then
            match verify_one_table t f with Some c -> add c | None -> ())
        (Version.all_files v));
  (* 3. WALs: tolerant scan, reporting every mangled byte range. *)
  List.iter add (Wal.verify t.dev);
  t.db_stats.Stats.scrub_runs <- t.db_stats.Stats.scrub_runs + 1;
  t.db_stats.Stats.scrub_errors <-
    t.db_stats.Stats.scrub_errors + List.length !findings;
  List.rev !findings

(* Rate-limited scrub: one lane job per live table, so user
   flushes/compactions interleave between table verifications, plus
   [Config.scrub_delay] seconds of deliberate idle per table. A
   zero-width lane runs the pass on the caller before returning. *)
let scrub t =
  check_open t;
  let v = Read_path.view_version t.read_view in
  List.iter
    (fun (f : Table_meta.t) ->
      Scheduler.enqueue t.sched (fun () ->
          with_pin t (fun () ->
              let live = Read_path.view_version t.read_view in
              let still_live =
                List.exists
                  (fun (g : Table_meta.t) ->
                    String.equal g.Table_meta.file_name f.Table_meta.file_name)
                  (Version.all_files live)
              in
              if still_live && not (is_quarantined t f.Table_meta.file_name) then begin
                (match verify_one_table t f with
                | Some _ ->
                  note_corruption t;
                  t.db_stats.Stats.scrub_errors <- t.db_stats.Stats.scrub_errors + 1
                | None -> ());
                if t.cfg.Config.scrub_delay > 0. then Unix.sleepf t.cfg.Config.scrub_delay
              end)))
    (Version.all_files v);
  Scheduler.enqueue t.sched (fun () ->
      t.db_stats.Stats.scrub_runs <- t.db_stats.Stats.scrub_runs + 1)

(* ------------------------------------------------------------------ *)
(* Open / recover                                                      *)
(* ------------------------------------------------------------------ *)

(* Version [v] as one edit adding every file: how a fresh manifest
   describes it. *)
let full_edit (v : Version.t) ~seqno_watermark =
  let added = ref [] in
  Array.iteri
    (fun li runs ->
      List.iter
        (fun (r : Version.run) ->
          List.iter (fun f -> added := (li, r.Version.group, f) :: !added) r.Version.files)
        runs)
    v.Version.levels;
  { Version.added = !added; removed = []; seqno_watermark }

(* Crash-safety discipline (every step leaves a recoverable state):
   1. read MANIFEST; 2. write the recovered version as one snapshot edit
   to MANIFEST.tmp, synced; 3. atomically rename it over MANIFEST —
   never delete-then-recreate, which has a window holding neither;
   4. delete orphaned tables (referenced by no version); 5. replay the
   surviving WALs and re-log their batches into a fresh WAL, which is
   synced (or, with the WAL disabled, flushed to tables) *before* the
   replayed logs are deleted — acknowledged writes must never have zero
   durable homes. *)
let open_db ?(config = Config.default) ~dev () =
  Config.validate config;
  let recovered = Manifest.recover dev in
  let cache =
    Block_cache.create ~shards:config.Config.block_cache_shards
      ~capacity:config.Config.block_cache_bytes ()
  in
  let db_stats = Stats.create () in
  (* Every ECC repair outcome — from any read path of any cached reader —
     lands in the db's counters through this one closure. *)
  let on_ecc = function
    | Sstable.Ecc_repaired { pages; ns } ->
      db_stats.Stats.ecc_repairs <- db_stats.Stats.ecc_repairs + pages;
      Lsm_util.Histogram.add db_stats.Stats.ecc_repair_ns ns
    | Sstable.Ecc_unrecoverable ->
      db_stats.Stats.ecc_unrecoverable <- db_stats.Stats.ecc_unrecoverable + 1
  in
  let tables =
    Table_cache.create ~capacity:config.Config.max_open_tables ~on_ecc
      ~cmp:config.Config.comparator ~dev ~cache ()
  in
  let pool =
    if config.Config.compaction_parallelism > 1 then
      Some (Domain_pool.create ~size:config.Config.compaction_parallelism)
    else None
  in
  let manifest = Manifest.create ~name:Manifest.tmp_file_name dev in
  (* Recursive only through closures ([scrub_tick], the read
     environment's fence and failure handler), which run after [t]
     exists. *)
  let rec t =
    {
      cfg = config;
      dev;
      cache;
      tables;
      db_stats;
      active =
        { mt =
            Memtable.create ~kind:config.Config.memtable ~budget:config.Config.write_buffer_size
              ~cmp:config.Config.comparator ();
          wal = None;
          wal_name = None };
      immutables = [];
      imm_count = 0;
      imm_bytes = 0;
      flush_claims = 0;
      vers = recovered;
      read_view = Read_path.empty_view;
      manifest;
      seqno = recovered.Version.last_seqno;
      visible_seqno = Atomic.make recovered.Version.last_seqno;
      clock = Atomic.make 0;
      snapshots = [];
      snap_mutex =
        Ordered_mutex.create ~rank:Ordered_mutex.Rank.db_snapshots ~name:"db.snapshots";
      next_file_id = recovered.Version.next_file_id;
      next_group = recovered.Version.next_group;
      wal_counter = 0;
      rr_cursors = Hashtbl.create 8;
      dyn_buffer_size = config.Config.write_buffer_size;
      pool;
      id_mutex = Lsm_util.Ordered_mutex.create ~rank:Lsm_util.Ordered_mutex.Rank.db ~name:"db.id";
      buf_mutex =
        Ordered_mutex.create ~rank:Ordered_mutex.Rank.db_buffers ~name:"db.buffers";
      sched =
        Scheduler.create
          ~workers:
            (match config.Config.compaction_backend with
            | Config.Inline -> 0
            | Config.Background -> config.Config.compaction_workers)
          ~cmp:config.Config.comparator.Comparator.compare ~stats:db_stats ();
      round_start = 0;
      pins = Version.Pins.create_registry ();
      health = Atomic.make Healthy;
      quarantined = Atomic.make [];
      last_scrub = Unix.gettimeofday ();
      (* Scheduled scrubbing: each memtable rotation checks the wall
         clock and, at most once per [scrub_interval], kicks off a scrub
         pass, which trickles per-table jobs through the lane. *)
      scrub_tick =
        (fun () ->
          let now = Unix.gettimeofday () in
          if now -. t.last_scrub >= t.cfg.Config.scrub_interval then begin
            t.last_scrub <- now;
            t.db_stats.Stats.scrub_runs_scheduled <- t.db_stats.Stats.scrub_runs_scheduled + 1;
            scrub t
          end);
      reads =
        {
          Read_path.cmp = config.Config.comparator;
          merge_operator = config.Config.merge_operator;
          tables;
          fence = (fun f -> raise_quarantined_in f (Atomic.get t.quarantined));
          table_failed = (fun f e -> table_read_failed t f e);
        };
      closed = false;
    }
  in
  (* Compaction triggers are evaluated after every committed edit, in
     commit order, by whichever domain holds the committer token. *)
  Scheduler.set_on_commit t.sched (guard_job t (fun () -> pick_compactions t));
  t.vers <- Version.empty;
  install_edit t (full_edit recovered ~seqno_watermark:recovered.Version.last_seqno);
  Manifest.promote t.manifest;
  (* Orphan cleanup: a crash between writing compaction/flush outputs and
     syncing the manifest edit leaves .sst files no version references;
     they are dead weight (and would alias future file ids). *)
  let live =
    List.fold_left
      (fun acc (f : Table_meta.t) -> f.file_name :: acc)
      [] (Version.all_files t.vers)
  in
  List.iter
    (fun name ->
      if Option.is_some (Table_meta.id_of_file_name name) && not (List.mem name live) then
        Device.delete dev name)
    (Device.list_files dev);
  (* Replay surviving WALs (in sequence order) into a fresh buffer. *)
  let old_wals = Wal.files dev in
  let recovered_entries = ref [] in
  List.iter
    (fun (_, name) ->
      ignore (Wal.replay dev ~name (fun batch -> recovered_entries := batch :: !recovered_entries)))
    old_wals;
  let batches = List.rev !recovered_entries in
  t.wal_counter <- 1 + List.fold_left (fun acc (s, _) -> max acc s) (-1) old_wals;
  t.active <- new_buffer t;
  List.iter
    (fun batch ->
      List.iter
        (fun (e : Entry.t) ->
          Memtable.add t.active.mt e;
          if e.seqno > t.seqno then t.seqno <- e.seqno)
        batch;
      match t.active.wal with Some w -> Wal.append w ~sync:false batch | None -> ())
    batches;
  (* The replayed batches were acknowledged in a previous life: they must
     be durable again — synced into the new WAL, or flushed to tables
     when the WAL is disabled — before the logs that held them go away. *)
  (match t.active.wal with
  | Some w when batches <> [] -> Wal.sync w
  | None when batches <> [] -> flush t
  | _ -> ());
  List.iter (fun (_, name) -> Device.delete dev name) old_wals;
  Atomic.set t.visible_seqno t.seqno;
  t

let major_compact t =
  flush t;
  (* A fresh budget round before the full merge, then (at the merge's
     commit) another after it. *)
  new_round t;
  Scheduler.quiesce t.sched;
  (* Rewrite unconditionally (RocksDB CompactRange-with-force semantics):
     even a lone bottom run may hold versions retained for snapshots that
     have since been released, or tombstones to retire. Submitted here,
     on the drained lane's behalf: no other job can be in flight. *)
  Option.iter
    (fun p ->
      submit_pick t ~key:Scheduler.Maintenance ~on_commit:(fun () -> start_round t) p;
      Scheduler.quiesce t.sched)
    (Planner.major t.cfg t.vers)

let wake t = 1 + Atomic.fetch_and_add t.clock 1

(* Wait until every queued lane job has run; re-raises a lane failure on
   this, the foreground, domain. *)
let quiesce t =
  check_open t;
  Scheduler.quiesce t.sched

let close t =
  if not t.closed then begin
    (* Drain the lane without re-raising a parked failure: close must
       tear down even a crashed database. *)
    Scheduler.shutdown t.sched;
    if not t.cfg.Config.wal_enabled then flush_work t;
    (match t.active.wal with Some w -> Wal.close w | None -> ());
    List.iter (fun b -> match b.wal with Some w -> Wal.close w | None -> ()) t.immutables;
    Manifest.close t.manifest;
    (* No reader can start after [closed]; run every deferred deletion. *)
    Version.Pins.drain t.pins;
    (match t.pool with Some p -> Domain_pool.shutdown p | None -> ());
    t.closed <- true
  end

(* Consistent full backup: flush, then copy every live table plus a fresh
   manifest describing exactly this version onto the destination device.
   The copy is crash-consistent by construction (tables are immutable and
   the manifest is written last). *)
let checkpoint t ~dest =
  check_open t;
  flush t;
  if Device.exists dest Manifest.file_name then
    invalid_arg "Db.checkpoint: destination already holds a database";
  List.iter
    (fun (f : Table_meta.t) ->
      let data = Device.read t.dev ~cls:Io_stats.C_misc f.file_name ~off:0 ~len:f.size in
      let w = Device.open_writer dest ~cls:Io_stats.C_misc f.file_name in
      Device.append w data;
      Device.close w)
    (Version.all_files t.vers);
  let m = Manifest.create dest in
  Manifest.log_edit m (full_edit t.vers ~seqno_watermark:t.seqno);
  Manifest.close m

let config t = t.cfg
let device t = t.dev

let write_buffer_size t = t.dyn_buffer_size

let set_write_buffer_size t bytes =
  if bytes < 1024 then invalid_arg "Db.set_write_buffer_size: too small";
  t.dyn_buffer_size <- bytes;
  if Memtable.footprint t.active.mt >= bytes then begin
    rotate t;
    after_rotate t
  end

let set_block_cache_bytes t bytes = Block_cache.set_capacity t.cache bytes
let stats t = t.db_stats
let io_stats t = Device.stats t.dev
let version t = t.vers
let block_cache t = t.cache
let table_cache t = t.tables
let tick t = Atomic.get t.clock
let last_seqno t = t.seqno

(* Every on-disk entry with its level, in probe order (level ascending,
   newest run first, files in key order). Verification hook: two
   databases that executed the same logical merges — serially or as
   parallel subcompactions — dump identical lists (same keys, seqnos,
   kinds, and values), whatever the file boundaries. *)
let dump_entries t =
  with_pin t @@ fun () ->
  let v = Read_path.view_version t.read_view in
  List.concat_map
    (fun l ->
      List.concat_map
        (fun (r : Version.run) ->
          List.concat_map
            (fun (f : Table_meta.t) ->
              let reader = Table_cache.get t.tables f.file_name in
              Iter.to_list (Sstable.iterator reader ~cls:Io_stats.C_misc ~use_cache:false ())
              |> List.map (fun e -> (l, e)))
            r.Version.files)
        (Version.level_runs v l))
    (List.init Version.max_levels Fun.id)

let write_amplification t =
  let st = Device.stats t.dev in
  let written =
    Io_stats.bytes_written ~cls:Io_stats.C_flush st
    + Io_stats.bytes_written ~cls:Io_stats.C_compaction_write st
    + Io_stats.bytes_written ~cls:Io_stats.C_user_write st
  in
  if t.db_stats.Stats.user_bytes_ingested = 0 then 0.0
  else float_of_int written /. float_of_int t.db_stats.Stats.user_bytes_ingested

let space_amplification t =
  let live =
    fold t ~lo:"" ~hi:None ~init:0
      ~f:(fun acc k v -> acc + String.length k + String.length v)
      ()
  in
  (* The stack under its lock, then the view: the capture order of a
     read, so a flushed buffer is counted at least once. *)
  let buffered =
    Ordered_mutex.with_lock t.buf_mutex (fun () ->
        List.fold_left
          (fun a b -> a + Memtable.footprint b.mt)
          (Memtable.footprint t.active.mt) t.immutables)
  in
  let physical = buffered + Version.total_bytes (Read_path.view_version t.read_view) in
  if live = 0 then 0.0 else float_of_int physical /. float_of_int live

let check_invariants t = Version.check_invariants ~cmp:(cmp_of t) t.vers

let pp_tree ppf t =
  Format.fprintf ppf "@[<v>buffer: %d entries (%d immutable buffers)@,%a@]"
    (Memtable.count t.active.mt) t.imm_count Version.pp t.vers
