(* Offline repair for a closed store: the engine behind the [lsm-doctor]
   CLI. Works directly on a device — no [Db.t] is opened, so it can
   operate on stores too damaged to recover.

   Repair strategy (point-in-time salvage):
   - every [.sst] file is opened and scrubbed block by block; intact
     blocks are salvaged into a replacement table (index-order
     concatenation of sorted blocks stays sorted), rotten blocks become
     reported lost ranges, and a table whose footer or meta region is
     gone is dropped wholesale;
   - the manifest is rebuilt from scratch out of the surviving table
     footers: every table lands in level 0 as its own single-file run,
     ordered newest-first by max sequence number, so probe order still
     resolves key versions correctly whatever levels the tables came
     from;
   - WALs are salvaged tolerantly: the scan re-synchronizes past every
     undecodable frame to the next intact frame boundary, so batches on
     both sides of mid-log damage survive (each batch carries its own
     sequence numbers, so replay order is unharmed); every skipped byte
     range is disclosed as a lost gap. The surviving batches are
     re-logged into one fresh sealed WAL. *)

module Device = Lsm_storage.Device
module Io_stats = Lsm_storage.Io_stats
module Block_cache = Lsm_storage.Block_cache
module Wal = Lsm_storage.Wal
module Framed_log = Lsm_storage.Framed_log
module Sstable = Lsm_sstable.Sstable
module Table_meta = Lsm_sstable.Table_meta
module Iter = Lsm_record.Iter
module Comparator = Lsm_util.Comparator
module Lsm_error = Lsm_util.Lsm_error

type table_report = {
  tr_file : string;
  tr_blocks : int;  (** data blocks in the index *)
  tr_bad_blocks : int;
  tr_entries_salvaged : int;
  tr_lost_ranges : (string * string) list;
      (** inclusive key spans of the rotten blocks *)
  tr_output : string option;
      (** live file after repair: the original when intact, a rewritten
          salvage table, or [None] when nothing survived *)
}

type wal_report = {
  wr_file : string;
  wr_batches : int;  (** batches salvaged from this log *)
  wr_gaps : (int * int) list;
      (** disclosed byte ranges skipped as lost (mid-log rot; a benign
          crash-torn tail is truncated silently and not listed) *)
}

type report = {
  tables : table_report list;
  wals : wal_report list;
  manifest_rebuilt : bool;
  findings : Lsm_error.t list;  (** every defect encountered *)
}

let is_sst name = Option.is_some (Table_meta.id_of_file_name name)

(* A throwaway cache: doctor reads every block exactly once. *)
let scratch_cache () = Block_cache.create ~shards:1 ~capacity:0 ()

(* ------------------------------------------------------------------ *)
(* Read-only verification                                              *)
(* ------------------------------------------------------------------ *)

(* Scrub a closed store without modifying anything: manifest recovery,
   every table referenced by it (or every [.sst] on the device when the
   manifest itself is unreadable), and the WAL chain. *)
let verify ?(cmp = Comparator.bytewise) dev =
  let findings = ref [] in
  let add c = findings := c :: !findings in
  let cache = scratch_cache () in
  let tables_to_check =
    match Manifest.recover dev with
    | v -> List.map (fun (f : Table_meta.t) -> f.file_name) (Version.all_files v)
    | exception Lsm_error.Error c ->
      add c;
      List.filter is_sst (Device.list_files dev)
    | exception Lsm_util.Codec.Corrupt msg ->
      add (Lsm_error.Corruption { file = Manifest.file_name; offset = None; detail = msg });
      List.filter is_sst (Device.list_files dev)
  in
  List.iter
    (fun name ->
      match
        let reader = Sstable.open_reader ~cmp ~dev ~cache name in
        Sstable.verify reader ~cls:Io_stats.C_misc
      with
      | () -> ()
      | exception Lsm_error.Error c -> add c
      | exception Not_found ->
        add (Lsm_error.Corruption { file = name; offset = None; detail = "referenced table missing" }))
    tables_to_check;
  List.iter add (Wal.verify dev);
  List.rev !findings

(* ------------------------------------------------------------------ *)
(* Salvage                                                             *)
(* ------------------------------------------------------------------ *)

(* Walk one table block by block. Returns the report plus the salvaged
   entries (in order) when a rewrite is needed, or [None] when the file
   is intact as-is. *)
let salvage_table ~cmp dev name =
  let cache = scratch_cache () in
  match Sstable.open_reader ~cmp ~dev ~cache name with
  | exception (Lsm_error.Error c) ->
    (* Footer or meta region gone: no index, nothing salvageable. *)
    ( { tr_file = name; tr_blocks = 0; tr_bad_blocks = 0; tr_entries_salvaged = 0;
        tr_lost_ranges = [ ("", "") ]; tr_output = None },
      [ c ], `Drop )
  | reader ->
    let index = Sstable.index_entries reader in
    let bad = ref [] and intact = ref [] and findings = ref [] in
    Array.iter
      (fun (ie : Sstable.index_entry) ->
        match Sstable.block_entries reader ~cls:Io_stats.C_misc ie with
        | entries -> intact := entries :: !intact
        | exception (Lsm_error.Error c) ->
          findings := c :: !findings;
          bad := (ie.Sstable.first_key, ie.Sstable.fence) :: !bad)
      index;
    let lost = List.rev !bad in
    let entries = List.concat (List.rev !intact) in
    let report kept output =
      { tr_file = name;
        tr_blocks = Array.length index;
        tr_bad_blocks = List.length lost;
        tr_entries_salvaged = kept;
        tr_lost_ranges = lost;
        tr_output = output }
    in
    if lost = [] then (report (List.length entries) (Some name), [], `Intact)
    else if entries = [] then (report 0 None, List.rev !findings, `Drop)
    else (report (List.length entries) None, List.rev !findings, `Rewrite entries)

(* Rebuild the manifest from scratch out of the given tables' footers:
   L0, one run per table, newest (highest max seqno) probed first, the
   seqno watermark re-derived as the max over all tables. Returns the
   number of tables referenced by the new manifest. *)
let rebuild_manifest ~cmp dev names =
  let cache = scratch_cache () in
  let metas =
    List.filter_map
      (fun name ->
        match Table_meta.id_of_file_name name with
        | None -> None
        | Some id ->
          let reader = Sstable.open_reader ~cmp ~dev ~cache name in
          let props = Sstable.props reader in
          Some (Table_meta.of_props ~file_id:id ~file_name:name
                  ~size:(Device.size dev name) props))
      names
  in
  let by_recency =
    List.sort
      (fun (a : Table_meta.t) (b : Table_meta.t) -> compare a.max_seqno b.max_seqno)
      metas
  in
  let added = List.mapi (fun i m -> (0, i + 1, m)) by_recency in
  let watermark =
    List.fold_left (fun acc (m : Table_meta.t) -> max acc m.max_seqno) 0 metas
  in
  Device.delete dev Manifest.tmp_file_name;
  Device.delete dev Manifest.file_name;
  let m = Manifest.create ~name:Manifest.tmp_file_name dev in
  Manifest.log_edit m { Version.added; removed = []; seqno_watermark = watermark };
  Manifest.promote m;
  Manifest.close m;
  List.length metas

(* Manifest-only repair: re-derive the version edits from whatever table
   footers still parse, leaving table files and WALs untouched. The cure
   for a rotted MANIFEST on an otherwise healthy store — recovery was
   typed-error fatal, yet every byte of data is still there. Unopenable
   tables are reported (and excluded) but not deleted; a full [repair]
   can still salvage their intact blocks later. *)
let repair_manifest ?(cmp = Comparator.bytewise) dev =
  let findings = ref [] in
  let cache = scratch_cache () in
  let names =
    Device.list_files dev |> List.filter is_sst |> List.sort compare
    |> List.filter (fun name ->
           match Sstable.open_reader ~cmp ~dev ~cache name with
           | _ -> true
           | exception Lsm_error.Error c ->
             findings := c :: !findings;
             false)
  in
  let n = rebuild_manifest ~cmp dev names in
  (n, List.rev !findings)

let repair ?(cmp = Comparator.bytewise) dev =
  let findings = ref [] in
  let ssts =
    Device.list_files dev |> List.filter is_sst |> List.sort compare
  in
  let max_id =
    List.fold_left
      (fun acc n ->
        match Table_meta.id_of_file_name n with Some i -> max acc i | None -> acc)
      0 ssts
  in
  let next_id = ref (max_id + 1) in
  (* 1. Per-table salvage. *)
  let table_reports = ref [] in
  let survivors = ref [] in
  List.iter
    (fun name ->
      let tr, fnds, action = salvage_table ~cmp dev name in
      findings := List.rev_append fnds !findings;
      match action with
      | `Intact -> table_reports := tr :: !table_reports; survivors := name :: !survivors
      | `Drop ->
        Device.delete dev name;
        table_reports := tr :: !table_reports
      | `Rewrite entries ->
        let id = !next_id in
        incr next_id;
        let out = Table_meta.file_name_of_id id in
        let props =
          Sstable.build ~cmp ~dev ~cls:Io_stats.C_misc ~name:out ~created_at:0
            (Iter.of_sorted_list cmp entries)
        in
        ignore props;
        Device.delete dev name;
        table_reports := { tr with tr_output = Some out } :: !table_reports;
        survivors := out :: !survivors)
    ssts;
  (* 2. Rebuild the manifest from the surviving footers. *)
  ignore (rebuild_manifest ~cmp dev (List.rev !survivors));
  (* 3. WAL chain: tolerant salvage of every log — batches on both sides
     of mid-log damage survive, every skipped byte range is disclosed —
     then re-log the survivors into one fresh sealed WAL. *)
  let wal_files = Wal.files dev in
  let batches = ref [] in
  let wal_reports =
    List.map
      (fun (_, name) ->
        let n, gaps = Wal.salvage dev ~name (fun b -> batches := b :: !batches) in
        findings := List.rev_append (Framed_log.findings ~name gaps) !findings;
        { wr_file = name; wr_batches = n; wr_gaps = gaps })
      wal_files
  in
  List.iter (fun (_, name) -> Device.delete dev name) wal_files;
  (match List.rev !batches with
  | [] -> ()
  | salvaged ->
    let w = Wal.create dev ~name:(Wal.file_name_of_seq 0) in
    List.iter (fun b -> Wal.append w ~sync:false b) salvaged;
    Wal.sync w;
    Wal.close w);
  {
    tables = List.rev !table_reports;
    wals = wal_reports;
    manifest_rebuilt = true;
    findings = List.rev !findings;
  }

(* Did the repair disclose any data loss — rotten blocks, a dropped
   table, or skipped WAL ranges? Distinguishes "store was damaged and
   something is gone" from "store repaired with everything salvaged". *)
let disclosed_losses r =
  List.exists (fun tr -> tr.tr_lost_ranges <> []) r.tables
  || List.exists (fun wr -> wr.wr_gaps <> []) r.wals

let pp_report ppf r =
  let pp_table ppf tr =
    Format.fprintf ppf "%s: %d/%d blocks bad, %d entries salvaged -> %s" tr.tr_file
      tr.tr_bad_blocks tr.tr_blocks tr.tr_entries_salvaged
      (match tr.tr_output with Some f -> f | None -> "(dropped)");
    List.iter
      (fun (lo, hi) -> Format.fprintf ppf "@,  lost range [%S .. %S]" lo hi)
      tr.tr_lost_ranges
  in
  let pp_wal ppf wr =
    Format.fprintf ppf "%s: %d batches%s" wr.wr_file wr.wr_batches
      (String.concat ""
         (List.map (fun (g0, g1) -> Printf.sprintf ", gap [%d,%d)" g0 g1) wr.wr_gaps))
  in
  Format.fprintf ppf "@[<v>manifest: %s@,%a@,%a@,%d findings@]"
    (if r.manifest_rebuilt then "rebuilt" else "intact")
    (Format.pp_print_list pp_table) r.tables (Format.pp_print_list pp_wal) r.wals
    (List.length r.findings)
