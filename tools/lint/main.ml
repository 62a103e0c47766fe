(* lsm-lint CLI. Default: check lib/ (relative to the cwd, i.e. the
   project root under `dune exec tools/lint/main.exe`) with the
   Parsetree rules. `--typed DIR` additionally loads .cmt files from
   DIR (normally _build/default/lib after a `dune build`) and runs the
   whole-program Typedtree passes. *)

let usage =
  "lsm-lint [--rules R1,R2,...] [--format text|json] [--typed DIR]\n\
  \         [--lock-order] [--lockdep-graph FILE] [path ...]\n\n\
   Parsetree rules (sources, no build needed):\n\
  \  R1  raw Mutex.lock/unlock outside Ordered_mutex.with_lock\n\
  \  R2  Device/Wal/Sstable I/O inside a lock body in cache modules\n\
  \  R3  module without an .mli\n\
  \  R4  Obj.magic / module-level mutable state\n\
  \  R5  Atomic.get+set pair without a CAS loop\n\
  \  R6  raw Domain.spawn/Thread.create outside Domain_pool\n\
  \  R7  failwith / raise (Failure _) in library code (use typed Lsm_error)\n\
  \  R8  unbounded busy-wait loop without backoff\n\
  \  R12 allocation-heavy idioms (String.sub ^, String.concat, Bytes.to_string\n\
  \      in loops, String.iter/Bytes.iter closures) in the get-path hot modules\n\
  \      (block.ml, hashing.ml, bloom.ml, blocked_bloom.ml), the caches' LRU\n\
  \      (lru.ml), the write buffer (skiplist.ml, memtable.ml), the checksum\n\
  \      paths (crc32c.ml, sstable.ml, framed_log.ml), the WAL codec (wal.ml),\n\
  \      the server's per-command path (resp.ml, server.ml), the per-record\n\
  \      merge path (iter.ml, merge_filter.ml) and compaction's per-page paths\n\
  \      (device.ml, lz.ml)\n\
  \  R13 external bound to a C symbol outside crc32c.ml (the one stub module)\n\n\
   Typedtree rules (need --typed DIR with built .cmt files):\n\
  \  R9  static lockdep: whole-program acquired-before relation vs the Rank table\n\
  \  R10 iterator/read-view escape past its pin combinator\n\n\
   R11 (cycles in the merged runtime lockdep graph) is produced by\n\
   --lockdep-graph FILE; see Ordered_mutex.Graph / LSM_LOCKDEP_GRAPH.\n"

let () =
  let open Lsm_lint in
  let rules = ref Driver.all_rules in
  let format = ref Driver.Text in
  let typed_roots = ref [] in
  let lock_order = ref false in
  let lockdep_graph = ref None in
  let paths = ref [] in
  let spec =
    [
      ( "--rules",
        Arg.String
          (fun s ->
            rules :=
              String.split_on_char ',' s |> List.map String.trim
              |> List.filter (fun r -> r <> "")),
        "R1,R2,... comma-separated subset of rules to run (default: all)" );
      ( "--format",
        Arg.String
          (function
          | "text" -> format := Driver.Text
          | "json" -> format := Driver.Json
          | other -> raise (Arg.Bad ("unknown format: " ^ other))),
        "text|json findings output format (default: text)" );
      ( "--typed",
        Arg.String (fun d -> typed_roots := !typed_roots @ [ d ]),
        "DIR load .cmt files under DIR and run the Typedtree passes (repeatable)" );
      ( "--lock-order",
        Arg.Set lock_order,
        " print the statically derived lock classes and acquired-before edges" );
      ( "--lockdep-graph",
        Arg.String (fun f -> lockdep_graph := Some f),
        "FILE check the persisted runtime lockdep graph for cycles; cross-check vs static"
      );
    ]
  in
  Arg.parse spec (fun p -> paths := p :: !paths) usage;
  let paths = match List.rev !paths with [] -> [ "lib" ] | ps -> ps in
  let opts =
    {
      Driver.rules = !rules;
      format = !format;
      typed_roots = !typed_roots;
      show_lock_order = !lock_order;
      lockdep_graph = !lockdep_graph;
    }
  in
  match Driver.run ~opts paths with
  | code -> exit code
  | exception Sys_error e ->
    prerr_endline ("lsm-lint: " ^ e);
    exit 2
