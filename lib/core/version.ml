module Table_meta = Lsm_sstable.Table_meta
module Codec = Lsm_util.Codec
module Comparator = Lsm_util.Comparator

type run = { group : int; files : Table_meta.t list }
type level = run list

type t = {
  levels : level array;
  next_file_id : int;
  next_group : int;
  last_seqno : int;
}

let max_levels = 12

let empty = { levels = Array.make max_levels []; next_file_id = 1; next_group = 1; last_seqno = 0 }

type edit = {
  added : (int * int * Table_meta.t) list;
  removed : int list;
  seqno_watermark : int;
}

let apply t edit =
  let levels = Array.map (fun l -> l) t.levels in
  (* Removals. *)
  List.iter
    (fun fid ->
      let found = ref false in
      Array.iteri
        (fun li runs ->
          let runs' =
            List.filter_map
              (fun r ->
                let files =
                  List.filter
                    (fun (f : Table_meta.t) ->
                      if f.file_id = fid then begin
                        found := true;
                        false
                      end
                      else true)
                    r.files
                in
                if files = [] then None else Some { r with files })
              runs
          in
          levels.(li) <- runs')
        levels;
      if not !found then invalid_arg (Printf.sprintf "Version.apply: unknown file id %d" fid))
    edit.removed;
  (* Additions, grouped into runs. *)
  List.iter
    (fun (li, group, meta) ->
      if li < 0 || li >= max_levels then invalid_arg "Version.apply: level out of range";
      let runs = levels.(li) in
      let rec insert = function
        | [] -> [ { group; files = [ meta ] } ]
        | r :: rest when r.group = group ->
          let files =
            List.sort
              (fun (a : Table_meta.t) (b : Table_meta.t) -> String.compare a.min_key b.min_key)
              (meta :: r.files)
          in
          { r with files } :: rest
        | r :: rest when r.group < group -> { group; files = [ meta ] } :: r :: rest
        | r :: rest -> r :: insert rest
      in
      levels.(li) <- insert runs)
    edit.added;
  let max_added_id =
    List.fold_left (fun acc (_, _, (m : Table_meta.t)) -> max acc m.file_id) 0 edit.added
  in
  let max_added_group = List.fold_left (fun acc (_, g, _) -> max acc g) 0 edit.added in
  {
    levels;
    next_file_id = max t.next_file_id (max_added_id + 1);
    next_group = max t.next_group (max_added_group + 1);
    last_seqno = max t.last_seqno edit.seqno_watermark;
  }

let level_runs t l = if l < 0 || l >= max_levels then [] else t.levels.(l)
let run_count t l = List.length (level_runs t l)
let level_files t l = List.concat_map (fun r -> r.files) (level_runs t l)

let level_bytes t l =
  List.fold_left
    (fun acc r -> List.fold_left (fun a (f : Table_meta.t) -> a + f.size) acc r.files)
    0 (level_runs t l)

(* Inclusive key span of a set of runs — the scheduler's conflict
   relation keys compaction jobs by the span of their captured inputs.
   [None] when the runs hold no files. *)
let runs_key_range ~cmp runs =
  List.fold_left
    (fun acc r ->
      List.fold_left
        (fun acc (f : Table_meta.t) ->
          match acc with
          | None -> Some (f.min_key, f.max_key)
          | Some (lo, hi) ->
            Some (Comparator.min_key cmp lo f.min_key, Comparator.max_key cmp hi f.max_key))
        acc r.files)
    None runs

let level_entries t l =
  List.fold_left
    (fun acc r -> List.fold_left (fun a (f : Table_meta.t) -> a + f.entries) acc r.files)
    0 (level_runs t l)

let last_level t =
  let rec loop l = if l <= 0 then 0 else if t.levels.(l) <> [] then l else loop (l - 1) in
  loop (max_levels - 1)

let all_files t =
  Array.to_list t.levels
  |> List.concat_map (fun runs -> List.concat_map (fun r -> r.files) runs)

let file_count t = List.length (all_files t)
let total_bytes t = List.fold_left (fun acc (f : Table_meta.t) -> acc + f.size) 0 (all_files t)

let check_invariants ~cmp t =
  let seen = Hashtbl.create 64 in
  let err = ref None in
  let fail fmt = Format.kasprintf (fun s -> if !err = None then err := Some s) fmt in
  Array.iteri
    (fun li runs ->
      let last_group = ref max_int in
      List.iter
        (fun r ->
          if r.group >= !last_group then fail "level %d: run groups not newest-first" li;
          last_group := r.group;
          let rec check_sorted = function
            | (a : Table_meta.t) :: (b : Table_meta.t) :: rest ->
              if cmp.Comparator.compare a.max_key b.min_key >= 0 then
                fail "level %d group %d: files %d and %d overlap or misordered" li r.group
                  a.file_id b.file_id;
              check_sorted (b :: rest)
            | _ -> ()
          in
          check_sorted r.files;
          List.iter
            (fun (f : Table_meta.t) ->
              if Hashtbl.mem seen f.file_id then fail "duplicate file id %d" f.file_id;
              Hashtbl.replace seen f.file_id ();
              if cmp.Comparator.compare f.min_key f.max_key > 0 then
                fail "file %d: min_key > max_key" f.file_id)
            r.files)
        runs)
    t.levels;
  match !err with None -> Ok () | Some e -> Error e

let encode_edit b e =
  Codec.put_varint b (List.length e.added);
  List.iter
    (fun (l, g, m) ->
      Codec.put_varint b l;
      Codec.put_varint b g;
      Table_meta.encode b m)
    e.added;
  Codec.put_varint b (List.length e.removed);
  List.iter (Codec.put_varint b) e.removed;
  Codec.put_varint b e.seqno_watermark

let decode_edit r =
  let nadd = Codec.get_varint r in
  let added =
    List.init nadd (fun _ ->
        let l = Codec.get_varint r in
        let g = Codec.get_varint r in
        let m = Table_meta.decode r in
        (l, g, m))
  in
  let nrem = Codec.get_varint r in
  let removed = List.init nrem (fun _ -> Codec.get_varint r) in
  let seqno_watermark = Codec.get_varint r in
  { added; removed; seqno_watermark }

(* Version lifetime pinning.

   A version value itself is persistent, but the [.sst] files it points
   at are not: compaction installs a new version and then wants the
   replaced files gone. A reader that grabbed [t.vers] just before the
   install may still be iterating those files, so deletion must wait
   for it. The registry numbers installed versions with a sequence; a
   pin taken while version [s] is current records [s], and a deletion
   deferred after installing version [d] runs once no pin with sequence
   [< d] remains ([min_pinned >= d]).

   Every read pins, so pinning is lock-free (RocksDB's SuperVersion
   refcount): each install gets a slot, [pin] increments the current
   slot's [refs] and re-checks that it is still current (retrying if
   not), so a pin that stands was counted before its slot retired, and
   the deferral scan after that install sees it (atomics are
   sequentially consistent). [unpin] takes the lock only when a
   deletion is [waiting], which [defer] publishes before it scans.

   Lock rank: [version_pins] (12) — above [db]'s id lock, below every
   I/O lock, so the deferred closures (device delete + cache evict)
   always run *outside* the registry lock. *)
module Pins = struct
  module Ordered_mutex = Lsm_util.Ordered_mutex

  type slot = { seq : int; refs : int Atomic.t }

  type registry = {
    m : Ordered_mutex.t;
    current : slot Atomic.t;
    mutable seq : int; (* seq of [current]; guarded by [m] *)
    mutable retired : slot list; (* replaced slots that may hold pins; guarded by [m] *)
    mutable deferred : (int * (unit -> unit)) list; (* (needed seq, deletion); guarded by [m] *)
    waiting : int Atomic.t; (* [List.length deferred], written only under [m] *)
  }

  type pin = slot

  let create_registry () =
    {
      m = Ordered_mutex.create ~rank:Ordered_mutex.Rank.version_pins ~name:"version.pins";
      current = Atomic.make { seq = 0; refs = Atomic.make 0 };
      seq = 0;
      retired = [];
      deferred = [];
      waiting = Atomic.make 0;
    }

  (* A retired slot at 0 can only be incremented again by a pinner whose
     re-check fails, so dropping it loses no pin. *)
  let live slots = List.filter (fun s -> Atomic.get s.refs > 0) slots

  let advance reg =
    Ordered_mutex.with_lock reg.m (fun () ->
        reg.seq <- reg.seq + 1;
        let prev = Atomic.exchange reg.current { seq = reg.seq; refs = Atomic.make 0 } in
        reg.retired <- prev :: live reg.retired)

  (* [deferred] is newest-first; run oldest deletions first. *)
  let runnable_locked reg =
    reg.retired <- live reg.retired;
    let min_pinned = List.fold_left (fun acc (s : slot) -> min s.seq acc) max_int reg.retired in
    let run, keep = List.partition (fun (d, _) -> min_pinned >= d) reg.deferred in
    reg.deferred <- keep;
    Atomic.set reg.waiting (List.length keep);
    List.rev_map snd run

  let run_all fs = List.iter (fun f -> f ()) fs

  let release reg slot =
    Atomic.decr slot.refs;
    if Atomic.get reg.waiting > 0 then
      run_all (Ordered_mutex.with_lock reg.m (fun () -> runnable_locked reg))

  let rec pin_slot reg =
    let slot = Atomic.get reg.current in
    Atomic.incr slot.refs;
    if Atomic.get reg.current == slot then slot
    else begin
      release reg slot;
      pin_slot reg
    end

  let pin = pin_slot
  let unpin = release

  let defer reg f =
    run_all
      (Ordered_mutex.with_lock reg.m (fun () ->
           reg.deferred <- (reg.seq, f) :: reg.deferred;
           Atomic.set reg.waiting (List.length reg.deferred);
           runnable_locked reg))

  let drain reg =
    run_all
      (Ordered_mutex.with_lock reg.m (fun () ->
           let fs = List.rev_map snd reg.deferred in
           reg.deferred <- [];
           Atomic.set reg.waiting 0;
           fs))

  (* Every read takes a pin: hold the bare slot and release it without
     [Fun.protect]'s per-call closure and exception wrapper. *)
  let with_pin reg f =
    let slot = pin_slot reg in
    match f () with
    | v ->
      release reg slot;
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      release reg slot;
      Printexc.raise_with_backtrace e bt
end

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun li runs ->
      if runs <> [] then begin
        Format.fprintf ppf "L%d: %d runs, %d files, %d bytes@," li (List.length runs)
          (List.fold_left (fun a r -> a + List.length r.files) 0 runs)
          (level_bytes t li)
      end)
    t.levels;
  Format.fprintf ppf "@]"
