(* YCSB core workloads A-F against four data layouts (leveled, tiered,
   lazy-leveled, PebblesDB-style fragmented guards) and WiscKey-style
   key-value separation.

   This is the "which design for which workload" exercise of the
   tutorial's Module III, run end to end.

   Run with: dune exec examples/ycsb.exe *)

module Policy = Lsm_compaction.Policy
module Device = Lsm_storage.Device
open Lsm_workload

let small_config compaction =
  {
    Lsm_core.Config.default with
    write_buffer_size = 64 * 1024;
    level1_capacity = 256 * 1024;
    target_file_size = 128 * 1024;
    compaction;
    wal_sync_every_write = false;
  }

let engines =
  [
    ( "leveled",
      fun dev -> Kv_store.of_db (Lsm_core.Db.open_db ~config:(small_config (Policy.leveled ~size_ratio:4 ())) ~dev ()) );
    ( "tiered",
      fun dev -> Kv_store.of_db (Lsm_core.Db.open_db ~config:(small_config (Policy.tiered ~size_ratio:4 ())) ~dev ()) );
    ( "lazy-leveled",
      fun dev ->
        Kv_store.of_db
          (Lsm_core.Db.open_db ~config:(small_config (Policy.lazy_leveled ~size_ratio:4 ())) ~dev ()) );
    ( "wisckey",
      fun dev ->
        Lsm_kvsep.Kv_db.to_kv_store
          (Lsm_kvsep.Kv_db.open_db
             ~config:(small_config (Policy.leveled ~size_ratio:4 ()))
             ~value_threshold:64 ~dev ()) );
    ( "pebbles",
      fun dev ->
        Kv_store.of_db
          (Lsm_core.Db.open_db
             ~config:
               (small_config
                  {
                    (Policy.leveled ~size_ratio:4 ()) with
                    Policy.layout = Policy.Guarded { stride_base = 4096 };
                  })
             ~dev ()) );
  ]

let () =
  let records = 20_000 and operations = 20_000 in
  Printf.printf "YCSB core workloads: %d records, %d ops, zipfian skew\n\n" records operations;
  print_endline Runner.header;
  List.iter
    (fun (wname, mk_spec) ->
      List.iter
        (fun (ename, mk_engine) ->
          let dev = Device.in_memory () in
          let store = { (mk_engine dev) with Kv_store.store_name = ename } in
          let spec = { (mk_spec ()) with Spec.name = "ycsb-" ^ wname } in
          let result = Runner.run store spec in
          print_endline (Runner.row result))
        engines;
      print_newline ())
    [
      ("A", fun () -> Spec.ycsb_a ~records ~operations ());
      ("B", fun () -> Spec.ycsb_b ~records ~operations ());
      ("C", fun () -> Spec.ycsb_c ~records ~operations ());
      ("D", fun () -> Spec.ycsb_d ~records ~operations ());
      ("E", fun () -> Spec.ycsb_e ~records ~operations:(operations / 5) ());
      ("F", fun () -> Spec.ycsb_f ~records ~operations ());
    ];
  print_endline "done. Lower WA favors write paths; ops/s is the headline.";
  print_endline
    "Expected shape: tiered wins WA on update-heavy (A), leveled wins scans (E),\n\
     wisckey wins WA at this value size, pebbles sits between tiered and leveled."
