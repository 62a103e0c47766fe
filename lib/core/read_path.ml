module Comparator = Lsm_util.Comparator
module Entry = Lsm_record.Entry
module Iter = Lsm_record.Iter
module Io_stats = Lsm_storage.Io_stats
module Memtable = Lsm_memtable.Memtable
module Sstable = Lsm_sstable.Sstable
module Table_meta = Lsm_sstable.Table_meta
module Table_cache = Lsm_sstable.Table_cache
module Lsm_error = Lsm_util.Lsm_error

type env = {
  cmp : Comparator.t;
  merge_operator : (string -> string option -> string list -> string) option;
  tables : Table_cache.t;
  fence : Table_meta.t -> unit;
  table_failed : 'a. Table_meta.t -> exn -> 'a;
}

(* ------------------------------------------------------------------ *)
(* Read view                                                           *)
(* ------------------------------------------------------------------ *)

type view = { version : Version.t; rds : Entry.t list; runs : Table_meta.t array array }

let empty_view = { version = Version.empty; rds = []; runs = [||] }
let view_version v = v.version

let rds_of_files env files =
  List.concat_map
    (fun (f : Table_meta.t) ->
      if f.range_tombstones = 0 then []
      else
        (Sstable.props (Table_cache.get env.tables f.file_name)).Sstable.Props.range_tombstones)
    files

let view_of env version =
  let runs =
    List.concat_map
      (fun l ->
        List.map (fun (r : Version.run) -> Array.of_list r.Version.files) (Version.level_runs version l))
      (List.init Version.max_levels Fun.id)
  in
  { version; rds = rds_of_files env (Version.all_files version); runs = Array.of_list runs }

(* ------------------------------------------------------------------ *)
(* File selection                                                      *)
(* ------------------------------------------------------------------ *)

(* The one file selection: binary search a run's files (sorted,
   disjoint, so their max keys ascend too) for the first whose
   [max_key >= lo]; [Array.length files] when there is none. *)
let seek_run (cmp : Comparator.t) (files : Table_meta.t array) lo =
  let l = ref 0 and h = ref (Array.length files) in
  while !l < !h do
    let mid = (!l + !h) / 2 in
    if cmp.compare files.(mid).Table_meta.max_key lo < 0 then l := mid + 1 else h := mid
  done;
  !l

let run_file (cmp : Comparator.t) files key =
  let j = seek_run cmp files key in
  if j < Array.length files && cmp.compare files.(j).Table_meta.min_key key <= 0 then j else -1

(* ------------------------------------------------------------------ *)
(* Point lookups                                                       *)
(* ------------------------------------------------------------------ *)

type ctx = {
  snap : int;  (** highest visible seqno *)
  active : Memtable.t;
  immutables : Memtable.t list;  (** newest first *)
  view : view;
}

let ctx ~snap ~active ~immutables view = { snap; active; immutables; view }

(* Highest-seqno visible range tombstone covering [key]. Top-level
   recursions, like the rest of the point-lookup path: a nested closure
   would cost every get an allocation even with no tombstone
   anywhere. *)
let covers (cmp : Comparator.t) ~snap ~best key lo hi seqno =
  seqno <= snap && seqno > best && cmp.compare lo key <= 0 && cmp.compare key hi < 0

let rec entry_rd_seqno cmp ~snap key best = function
  | [] -> best
  | (e : Entry.t) :: rest ->
    let best = if covers cmp ~snap ~best key e.key e.value e.seqno then e.seqno else best in
    entry_rd_seqno cmp ~snap key best rest

let rec buffer_rd_seqno cmp ~snap key best = function
  | [] -> best
  | mt :: rest ->
    let best = entry_rd_seqno cmp ~snap key best (Memtable.range_tombstones mt) in
    buffer_rd_seqno cmp ~snap key best rest

let covering_rd_seqno cmp ctx key =
  let snap = ctx.snap in
  let best = entry_rd_seqno cmp ~snap key 0 (Memtable.range_tombstones ctx.active) in
  entry_rd_seqno cmp ~snap key (buffer_rd_seqno cmp ~snap key best ctx.immutables) ctx.view.rds

type tally = {
  mutable probed : int;
  mutable negatives : int;
  mutable false_positives : int;
}

let tally () = { probed = 0; negatives = 0; false_positives = 0 }

(* What a table read fails with: a decode failure, or [Not_found] for
   a referenced file that has vanished. *)
let table_failure = function
  | Lsm_error.Error (Lsm_error.Corruption _) | Lsm_util.Codec.Corrupt _ | Not_found -> true
  | _ -> false

(* Newest visible point entry for [key] in table [f]. The filter is
   probed exactly once: [Sstable.get_unfiltered] trusts this outcome
   rather than hashing the key and probing again. *)
let probe_table env (f : Table_meta.t) ~snap tally key =
  (* [run_file] selected [f] by key range, so a quarantined hit means
     the key lives in the fenced range. *)
  env.fence f;
  match
    let reader = Table_cache.get env.tables f.Table_meta.file_name in
    if not (Sstable.may_contain_key reader key) then begin
      tally.negatives <- tally.negatives + 1;
      None
    end
    else begin
      tally.probed <- tally.probed + 1;
      let found = Sstable.get_unfiltered reader ~cls:Io_stats.C_user_read ~max_seqno:snap key in
      if Option.is_none found then tally.false_positives <- tally.false_positives + 1;
      found
    end
  with
  | found -> found
  | exception e when table_failure e -> env.table_failed f e

(* Probe disk runs [i..] in recency order, returning the newest visible
   point entry. *)
let rec probe_runs env (runs : Table_meta.t array array) i ~snap tally key =
  if i >= Array.length runs then None
  else
    let files = runs.(i) in
    let j = run_file env.cmp files key in
    let found = if j < 0 then None else probe_table env files.(j) ~snap tally key in
    if Option.is_some found then found else probe_runs env runs (i + 1) ~snap tally key

(* The one visibility rule: [key]'s value as of ceiling [snap], given
   [it] positioned at the key's versions, newest first, and [rd_seq],
   the newest visible range tombstone covering the key. The first
   visible point version at or below [rd_seq], or a put or point delete,
   decides; merge operands on the way accumulate and fold over the base
   with the merge operator (without one, the newest operand wins).
   Stops at the deciding version, so [it] may still hold older versions
   of [key]. A top-level recursion, so a scan allocates no closure per
   row. *)
let rec resolve_key env ~snap ~rd_seq key (it : Iter.t) operands =
  if not (it.Iter.valid ()) then resolved env key operands None
  else
    let v = it.Iter.view () in
    if not (String.equal v.Iter.key key) then resolved env key operands None
    else if v.Iter.seqno > snap || v.Iter.kind = Entry.Range_delete then begin
      it.Iter.next ();
      resolve_key env ~snap ~rd_seq key it operands
    end
    else if v.Iter.seqno <= rd_seq then resolved env key operands None
    else
      match v.Iter.kind with
      | Entry.Put -> resolved env key operands (Some (Iter.view_value v))
      | Entry.Delete | Entry.Single_delete | Entry.Range_delete -> resolved env key operands None
      | Entry.Merge ->
        let operand = Iter.view_value v in
        it.Iter.next ();
        resolve_key env ~snap ~rd_seq key it (operand :: operands)

(* Consing along a newest-to-oldest walk leaves [operands] oldest-first
   — the operator's expected order. *)
and resolved env key operands base =
  match (operands, env.merge_operator) with
  | [], _ -> base
  | oldest_first, Some f -> Some (f key base oldest_first)
  | oldest_first, None -> Some (List.hd (List.rev oldest_first))

(* Every table a read opens for iteration goes through here: the
   quarantine fence, then the failure handler around [fn] — a decode
   failure, or a referenced file that has vanished, quarantines the
   table and surfaces as a typed error. The point probe calls the
   handler from its own [match] instead, to spare a closure per
   table. *)
let with_table env (f : Table_meta.t) fn =
  env.fence f;
  try fn (Table_cache.get env.tables f.Table_meta.file_name)
  with e when table_failure e -> env.table_failed f e

let mem_iters ctx =
  Memtable.iterator ctx.active :: List.map Memtable.iterator ctx.immutables

(* A point read whose newest visible entry is a merge: every version of
   [key] in the memtable stack and in the one file per run that may hold
   it, merged newest first and resolved by {!resolve_key}. *)
let resolve_merge_chain env ctx ~rd_seq key =
  let table_sources =
    Array.to_list ctx.view.runs
    |> List.filter_map (fun files ->
           match run_file env.cmp files key with
           | -1 -> None
           | j ->
             Some
               (with_table env files.(j) (fun reader ->
                    Sstable.iterator reader ~cls:Io_stats.C_user_read ())))
  in
  let it = Iter.merge env.cmp (mem_iters ctx @ table_sources) in
  it.Iter.seek key;
  resolve_key env ~snap:ctx.snap ~rd_seq key it []

(* Newest visible entry of [key] in the immutable buffers, newest
   first. *)
let rec find_in_buffers buffers ~snap key =
  match buffers with
  | [] -> None
  | mt :: older -> (
    match Memtable.find mt ~max_seqno:snap key with
    | Some _ as found -> found
    | None -> find_in_buffers older ~snap key)

let lookup env ctx tally key =
  let snap = ctx.snap in
  let rd_seq = covering_rd_seqno env.cmp ctx key in
  let newest =
    match Memtable.find ctx.active ~max_seqno:snap key with
    | Some _ as found -> found
    | None -> (
      match find_in_buffers ctx.immutables ~snap key with
      | Some _ as found -> found
      | None -> probe_runs env ctx.view.runs 0 ~snap tally key)
  in
  match newest with
  | Some e when e.Entry.seqno > rd_seq -> (
    match e.Entry.kind with
    | Entry.Put -> Some e.Entry.value
    | Entry.Delete | Entry.Single_delete | Entry.Range_delete -> None
    | Entry.Merge -> resolve_merge_chain env ctx ~rd_seq key)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Scans                                                               *)
(* ------------------------------------------------------------------ *)

(* One sorted run as one iterator over [\[lo, hi)] (an absent bound is
   open). A file is opened only when the merge reaches it: a seek opens
   the one file {!seek_run} selects, and stepping off a file's end opens
   the next, unless its [min_key >= hi]. [open_file] returns a file's
   unpositioned iterator, or [None] to pass over the file; a failure
   positioning or stepping a file goes to [failed], which raises. The
   bound costs one compare per step. *)
type run = {
  rcmp : Comparator.t;
  files : Table_meta.t array;
  lo : string option;
  hi : string option;
  open_file : Table_meta.t -> Iter.t option;
  failed : Table_meta.t -> exn -> unit;
  mutable idx : int;  (** the open file; [Array.length files] once exhausted *)
  mutable cur : Iter.t;
  mutable live : bool;  (** on an entry below [hi] *)
}

let below_hi r key =
  match r.hi with None -> true | Some h -> r.rcmp.Comparator.compare key h < 0

(* Position the open file's iterator: at [target], or at its first
   entry. *)
let position (it : Iter.t) = function None -> it.Iter.seek_to_first () | Some t -> it.Iter.seek t

(* Open files from [j] on until one yields an entry (at or after
   [target] in file [j]); the run ends at a file starting at or past
   [hi]. *)
let rec open_from r j target =
  if j >= Array.length r.files || not (below_hi r r.files.(j).Table_meta.min_key) then begin
    r.idx <- Array.length r.files;
    r.live <- false
  end
  else begin
    let f = r.files.(j) in
    r.idx <- j;
    match r.open_file f with
    | None -> open_from r (j + 1) None
    | Some it -> (
      r.cur <- it;
      match position it target with
      | () -> settle r
      | exception e when table_failure e -> r.failed f e)
  end

and settle r =
  if r.cur.Iter.valid () then r.live <- below_hi r (r.cur.Iter.view ()).Iter.key
  else open_from r (r.idx + 1) None

let run_next r =
  if r.live then begin
    match r.cur.Iter.next () with
    | () -> settle r
    | exception e when table_failure e -> r.failed r.files.(r.idx) e
  end

let run_seek r target =
  let target =
    match r.lo with Some lo when r.rcmp.Comparator.compare lo target > 0 -> lo | _ -> target
  in
  open_from r (seek_run r.rcmp r.files target) (Some target)

let run_iter cmp ~open_file ~failed ~lo ~hi files =
  let r =
    { rcmp = cmp; files; lo; hi; open_file; failed; idx = 0; cur = Iter.empty; live = false }
  in
  {
    Iter.valid = (fun () -> r.live);
    entry = (fun () -> r.cur.Iter.entry ());
    view = (fun () -> r.cur.Iter.view ());
    next = (fun () -> run_next r);
    seek = (fun target -> run_seek r target);
    seek_to_first =
      (fun () -> match lo with None -> open_from r 0 None | Some lo -> run_seek r lo);
  }

(* A scan opens a file through the quarantine fence and passes over one
   its range filter rules out, counting it in [tally.negatives]. *)
let scan_open env tally ~lo ~hi f =
  with_table env f @@ fun reader ->
  if Sstable.may_overlap_range reader ~lo ~hi then
    Some (Sstable.iterator reader ~cls:Io_stats.C_user_read ())
  else begin
    tally.negatives <- tally.negatives + 1;
    None
  end

(* Step past the versions of [key] older than the deciding one. *)
let rec skip_key (it : Iter.t) key =
  if it.Iter.valid () && String.equal (it.Iter.view ()).Iter.key key then begin
    it.Iter.next ();
    skip_key it key
  end

let fold env ctx tally ~limit ~lo ~hi ~init ~f =
  let cmp = env.cmp and snap = ctx.snap in
  let in_range key =
    match hi with None -> true | Some h -> cmp.Comparator.compare key h < 0
  in
  (* The visible range tombstones overlapping [lo, hi), gathered once;
     each key's covering seqno is then the point read's rule over them. *)
  let rds =
    List.filter
      (fun (e : Entry.t) ->
        e.seqno <= snap && cmp.Comparator.compare lo e.value < 0 && in_range e.key)
      (List.concat_map Memtable.range_tombstones (ctx.active :: ctx.immutables)
      @ ctx.view.rds)
  in
  let open_file = scan_open env tally ~lo ~hi and lo_bound = Some lo in
  let table_sources =
    Array.fold_right
      (fun files acc ->
        run_iter cmp ~open_file ~failed:env.table_failed ~lo:lo_bound ~hi files :: acc)
      ctx.view.runs []
  in
  let it = Iter.merge cmp (mem_iters ctx @ table_sources) in
  it.Iter.seek lo;
  (* One head fetch per row; each row steps past its older versions
     before the limit is checked, so a scan reads the blocks it always
     read. *)
  let rec loop acc count =
    if count >= limit || not (it.Iter.valid ()) then acc
    else
      let key = (it.Iter.view ()).Iter.key in
      if not (in_range key) then acc
      else
        let rd_seq = entry_rd_seqno cmp ~snap key 0 rds in
        match resolve_key env ~snap ~rd_seq key it [] with
        | Some v ->
          let acc = f acc key v in
          skip_key it key;
          loop acc (count + 1)
        | None ->
          skip_key it key;
          loop acc count
  in
  loop init 0
