(* Runner for the workloads where one client calls one engine directly
   (hot-get and cold-mixed): build the store, warm it, run a fixed
   number of operations, check every result, and report. *)

open Common
module Device = Lsm_storage.Device

type spec = {
  name : string;
  slots : int;  (** key indexes of the model, [0, slots) *)
  preloaded : int -> bool;  (** is key index [i] written at load time *)
  vmin : int;
  vspan : int;
  config : Config.t;
  compact_after_load : bool;  (** major-compact the loaded store *)
  ops_per_s : int;
      (** nominal rate on the reference host: a run executes
          [seconds * ops_per_s] operations, so its counts repeat exactly *)
  warmup : Engine_loop.t -> Random.State.t -> unit;
  op : Engine_loop.t -> Random.State.t -> unit;
  notes : (string * string) list;
}

(* Random streams: one for warm-up, one for the measured phase. *)
let warmup_stream = 1
let measured_stream = 2

let build spec ~seed ~vs ~rounds ~probe =
  let db = Db.open_db ~config:spec.config ~dev:(Device.in_memory ()) () in
  let versions = Array.init spec.slots (fun i -> if spec.preloaded i then 0 else -1) in
  Array.iteri (fun i v -> if v >= 0 then Db.put db ~key:(key i) (value vs (key i) v)) versions;
  if spec.compact_after_load then Db.major_compact db else Db.flush db;
  let t = Engine_loop.create ~db ~vs ~versions ~rounds ~probe in
  spec.warmup t (rng seed warmup_stream);
  t

let measure spec t ~seed ~ops_per_round =
  let st = rng seed measured_stream in
  Engine_loop.measure t ~ops_per_round (fun () -> spec.op t st)

let info spec (t : Engine_loop.t) ~ops =
  let keys = Array.fold_left (fun a v -> if v >= 0 then a + 1 else a) 0 t.versions in
  [
    ("workload", spec.name);
    ("ops", string_of_int ops);
    ("keys", string_of_int keys);
    ("value_bytes", Printf.sprintf "%d..%d" spec.vmin (spec.vmin + spec.vspan - 1));
    ("block_cache_mib", Printf.sprintf "%.1f" (mib spec.config.Config.block_cache_bytes));
    ("store_mib", Printf.sprintf "%.1f" (mib (Device.total_bytes (Db.device t.db))));
    ("config", describe_config spec.config);
  ]
  @ spec.notes

let close (t : Engine_loop.t) = Db.close t.db

let corrupt_model (t : Engine_loop.t) =
  Array.iteri (fun i v -> if v >= 0 then t.versions.(i) <- v + 1) t.versions

let run spec ~seed ~seconds ~trace ~corrupt =
  let ops_per_round = seconds * spec.ops_per_s / n_rounds in
  let ops = ops_per_round * n_rounds in
  let vs = values ~seed ~vmin:spec.vmin ~vspan:spec.vspan in
  let rounds = Common.rounds ~capacity:ops_per_round in
  if not trace then begin
    let setup_s, t =
      timed_setup ~discard:close (fun () -> build spec ~seed ~vs ~rounds ~probe:None)
    in
    if corrupt then corrupt_model t;
    let d = measure spec t ~seed ~ops_per_round in
    let peak = peak_heap_mb () in
    let e2e =
      round_metrics rounds
      @ (if d.user_bytes > 0 then
           [ m "write_amp" "ratio" (ratio d.device_bytes_written d.user_bytes) ]
         else [])
      @ [
          m "space_amp" "ratio" (Db.space_amplification t.db);
          m ~samples:setup_reps "setup_s" "s" setup_s;
          m "peak_heap_mb" "MB" peak;
          m ~samples:ops "failed_frac" "ratio" (ratio t.failed t.ops);
        ]
    in
    let info = info spec t ~ops in
    close t;
    { attempted = t.ops; failed = t.failed; e2e; layers = []; info; spans = None }
  end
  else begin
    (* Untraced first, for the overhead ratio, then the traced run on an
       identically built store. *)
    let t = build spec ~seed ~vs ~rounds ~probe:None in
    ignore (measure spec t ~seed ~ops_per_round);
    let untraced_ops_s = median_rate rounds in
    close t;
    reset_rounds rounds;
    let probe = Engine_loop.probe ~capacity:(min ops 200_000) in
    let t = build spec ~seed ~vs ~rounds ~probe:(Some probe) in
    if corrupt then corrupt_model t;
    let d = measure spec t ~seed ~ops_per_round in
    let layers =
      Layers.metrics
        {
          Layers.ops;
          gets = rounds.totals.(cls_get);
          absent_gets = probe.absent_gets;
          puts = rounds.totals.(cls_put);
          scans = rounds.totals.(cls_scan);
          get_pages = probe.get_pages;
          scan_pages = probe.scan_pages;
          stalled_puts = probe.stalled_puts;
          stall_ns = probe.stall_ns;
          minor_words = probe.minor_words;
          d;
          server = None;
          traced_ops_s = median_rate rounds;
          untraced_ops_s;
        }
    in
    let info = info spec t ~ops in
    close t;
    { attempted = t.ops; failed = t.failed; e2e = []; layers; info; spans = Some probe.tracer }
  end
