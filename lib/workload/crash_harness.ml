module Device = Lsm_storage.Device
module Io_stats = Lsm_storage.Io_stats
module Db = Lsm_core.Db
module Config = Lsm_core.Config
module Write_batch = Lsm_core.Write_batch
module Rng = Lsm_util.Rng
module SMap = Map.Make (String)

type op =
  | Put of string * string
  | Delete of string
  | Range_delete of string * string
  | Batch of (bool * string * string) list  (** (is_delete, key, value) *)
  | Flush

type report = { runs : int; points : int; failures : string list }

let merge_reports a b =
  { runs = a.runs + b.runs; points = a.points + b.points; failures = a.failures @ b.failures }

(* Per-write syncs so every completed op is acknowledged-durable (the
   precondition for the exact-prefix invariant); a tiny buffer so the
   workload crosses many flush and compaction boundaries. *)
let default_config () =
  {
    Config.default with
    Config.write_buffer_size = 4096;
    wal_sync_every_write = true;
  }

let key_of i = Printf.sprintf "key-%02d" i

(* A crashed process runs nothing more, but a crashed [Db.t] still owns
   a maintenance lane: on a background backend its jobs keep running
   until they hit the dead device, and after [Device.revive] they would
   write into the store being recovered. Wait for the lane to go idle;
   its failure (the crash itself) is expected and dropped. *)
let drain_crashed db = try Db.quiesce db with _ -> ()

(* Values embed the op index: a torn batch that half-applied would match
   no per-op model state, so prefix checking doubles as an atomicity
   check. *)
let gen_ops ~seed ~count =
  let rng = Rng.create seed in
  let value idx = Printf.sprintf "v%04d-%s" idx (String.make (8 + Rng.int rng 40) 'x') in
  Array.init count (fun idx ->
      let r = Rng.int rng 100 in
      if r < 55 then Put (key_of (Rng.int rng 40), value idx)
      else if r < 70 then Delete (key_of (Rng.int rng 40))
      else if r < 84 then begin
        let n = 2 + Rng.int rng 4 in
        Batch
          (List.init n (fun j ->
               let k = key_of (Rng.int rng 40) in
               if Rng.bernoulli rng 0.25 then (true, k, "")
               else (false, k, value ((idx * 8) + j))))
      end
      else if r < 92 then begin
        let a = Rng.int rng 39 in
        let b = a + 1 + Rng.int rng (40 - a - 1 + 1) in
        Range_delete (key_of a, key_of (min 40 b))
      end
      else Flush)

let apply_model m = function
  | Put (k, v) -> SMap.add k v m
  | Delete k -> SMap.remove k m
  | Range_delete (lo, hi) -> SMap.filter (fun k _ -> not (lo <= k && k < hi)) m
  | Batch ops ->
    List.fold_left
      (fun m (is_del, k, v) -> if is_del then SMap.remove k m else SMap.add k v m)
      m ops
  | Flush -> m

let apply_db db = function
  | Put (k, v) -> Db.put db ~key:k v
  | Delete k -> Db.delete db k
  | Range_delete (lo, hi) -> Db.range_delete db ~lo ~hi
  | Batch ops ->
    let b = Write_batch.create () in
    List.iter
      (fun (is_del, k, v) ->
        if is_del then Write_batch.delete b k else Write_batch.put b ~key:k v)
      ops;
    Db.apply_batch db b
  | Flush -> Db.flush db

(* models.(i) = logical store contents after the first [i] ops. *)
let models_of ops =
  let n = Array.length ops in
  let models = Array.make (n + 1) SMap.empty in
  for i = 0 to n - 1 do
    models.(i + 1) <- apply_model models.(i) ops.(i)
  done;
  models

let tear_name = function
  | Device.Tear_none -> "none"
  | Device.Tear_keep n -> Printf.sprintf "keep:%d" n
  | Device.Tear_corrupt n -> Printf.sprintf "corrupt:%d" n

let point_name = function
  | Device.After_syncs n -> Printf.sprintf "sync#%d" n
  | Device.After_ops n -> Printf.sprintf "op#%d" n
  | Device.After_bytes n -> Printf.sprintf "byte#%d" n

(* Run the workload once with no crash armed; returns the sync / mutating
   op / byte extents of the run — the coordinate space of crash points. *)
let dry_run ?(config = default_config ()) ~ops () =
  let dev = Device.in_memory () in
  let db = Db.open_db ~config ~dev () in
  let s0 = Device.sync_count dev in
  let m0 = Device.mutation_count dev in
  let b0 = Io_stats.bytes_written (Device.stats dev) in
  Array.iter (apply_db db) ops;
  ( Device.sync_count dev - s0,
    Device.mutation_count dev - m0,
    Io_stats.bytes_written (Device.stats dev) - b0 )

let bindings db = Db.scan db ~lo:"" ~hi:None ()

(* The recovery invariant, checked after one injected crash (and an
   optional second crash injected into recovery itself):

   - the recovered store equals the model after exactly [k] ops, where
     [acked] <= [k] <= [acked]+1: no acknowledged write may be lost, and
     only the single in-flight op may additionally survive;
   - batches are all-or-nothing (a half-applied batch matches no model);
   - a second power loss immediately after recovery loses nothing (the
     re-logged WAL must already be durable). *)
let check_crash ?(tear = Device.Tear_none) ?recovery ?(config = default_config ()) ~ops point =
  let models = models_of ops in
  let dev = Device.in_memory () in
  let fail fmt =
    Printf.ksprintf
      (fun s -> Error (Printf.sprintf "[%s %s] %s" (point_name point) (tear_name tear) s))
      fmt
  in
  match
    let db = Db.open_db ~config ~dev () in
    let acked = ref 0 in
    Device.plan_crash dev ~tear point;
    (try
       Array.iter
         (fun op ->
           apply_db db op;
           incr acked)
         ops;
       (* The armed point lies past the workload: power off at the end. *)
       Device.cancel_crash_plan dev;
       Device.crash ~tear dev
     with Device.Crashed -> ());
    drain_crashed db;
    Device.revive dev;
    (* Optionally kill the recovery itself partway through. *)
    (match recovery with
    | Some (rtear, rpoint) ->
      Device.plan_crash dev ~tear:rtear rpoint;
      (try
         let rdb = Db.open_db ~config ~dev () in
         Device.cancel_crash_plan dev;
         drain_crashed rdb
       with Device.Crashed -> ());
      Device.revive dev
    | None -> ());
    let db2 = Db.open_db ~config ~dev () in
    let got = bindings db2 in
    Ok (!acked, got, db2)
  with
  | exception e -> fail "exception during crash cycle: %s" (Printexc.to_string e)
  | Error e -> Error e
  | Ok (acked, got, db2) ->
    let n = Array.length ops in
    let matches k = SMap.bindings models.(k) = got in
    if not (matches acked || (acked < n && matches (acked + 1))) then
      fail "recovered state matches no acknowledged prefix (acked=%d/%d, got %d keys)"
        acked n (List.length got)
    else begin
      (* Second power loss, immediately: recovery must already be durable. *)
      match
        (* Settle the recovered store's lane first, as an inline lane
           already has by the time [open_db] returns; a job failure
           here is a real one and fails the check. *)
        Db.quiesce db2;
        Device.crash dev;
        let db3 = Db.open_db ~config ~dev () in
        bindings db3
      with
      | exception e -> fail "exception reopening after second crash: %s" (Printexc.to_string e)
      | got2 ->
        if got2 <> got then
          fail "second crash right after recovery lost data (%d keys -> %d)"
            (List.length got) (List.length got2)
        else Ok ()
    end

let run_points ?config ~ops ~tears points =
  let runs = ref 0 and failures = ref [] in
  List.iter
    (fun point ->
      List.iter
        (fun tear ->
          incr runs;
          match check_crash ~tear ?config ~ops point with
          | Ok () -> ()
          | Error e -> failures := e :: !failures)
        tears)
    points;
  { runs = !runs; points = List.length points; failures = List.rev !failures }

let stride_range ~stride n = List.init ((n + stride - 1) / stride) (fun i -> 1 + (i * stride))

let default_tears = [ Device.Tear_none; Device.Tear_keep 7; Device.Tear_corrupt 23 ]

(* Crash at every sync boundary of the workload (strided if asked). *)
let sweep_sync_points ?config ?(tears = default_tears) ?(stride = 1) ~ops () =
  let syncs, _, _ = dry_run ?config ~ops () in
  run_points ?config ~ops ~tears
    (List.map (fun n -> Device.After_syncs n) (stride_range ~stride syncs))

(* Crash at every mutating device-op boundary — finer than syncs: windows
   between an unsynced append/delete/rename and the next sync are only
   reachable here. *)
let sweep_op_points ?(tears = default_tears) ?(stride = 1) ~ops () =
  let _, muts, _ = dry_run ~ops () in
  run_points ~ops ~tears
    (List.map (fun n -> Device.After_ops n) (stride_range ~stride muts))

(* Crash mid-append at [samples] byte offsets, with torn tails retained
   or scrambled: partial frames must be rejected by the CRC framing. *)
let sweep_mid_append ?(tears = default_tears) ~samples ~ops () =
  let _, _, bytes = dry_run ~ops () in
  let points =
    List.init samples (fun i ->
        Device.After_bytes (max 1 ((i + 1) * bytes / (samples + 1))))
  in
  run_points ~ops ~tears points

(* Crash the workload once mid-way, then crash the *recovery* at every
   mutating device-op boundary it performs — the sweep that catches
   open-path bugs (manifest rewrite windows, WAL re-log windows). *)
let sweep_recovery_crashes ?(tears = default_tears) ~ops () =
  let config = default_config () in
  let syncs, _, _ = dry_run ~ops () in
  let first_point = Device.After_syncs (max 1 (syncs / 2)) in
  (* How many mutating ops does one recovery perform? *)
  let recovery_extent tear =
    let dev = Device.in_memory () in
    let db = Db.open_db ~config ~dev () in
    Device.plan_crash dev ~tear first_point;
    (try
       Array.iter (apply_db db) ops;
       Device.cancel_crash_plan dev;
       Device.crash ~tear dev
     with Device.Crashed -> ());
    Device.revive dev;
    let m0 = Device.mutation_count dev in
    ignore (Db.open_db ~config ~dev ());
    Device.mutation_count dev - m0
  in
  let runs = ref 0 and failures = ref [] and points = ref 0 in
  List.iter
    (fun tear ->
      let extent = recovery_extent tear in
      points := !points + extent;
      for j = 1 to extent do
        incr runs;
        match check_crash ~tear ~recovery:(tear, Device.After_ops j) ~ops first_point with
        | Ok () -> ()
        | Error e ->
          failures :=
            Printf.sprintf "recovery-crash op#%d %s: %s" j (tear_name tear) e :: !failures
      done)
    tears;
  { runs = !runs; points = !points; failures = List.rev !failures }
