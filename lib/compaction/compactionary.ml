let all =
  [
    ( "leveldb",
      "LevelDB: leveled, one file at a time, round-robin cursor over the level",
      {
        (Policy.leveled ~size_ratio:10 ()) with
        Policy.granularity = Policy.Single_file;
        movement = Policy.Round_robin;
      } );
    ( "rocksdb-leveled",
      "RocksDB leveled default: partial compaction picking least next-level overlap",
      {
        (Policy.leveled ~size_ratio:10 ()) with
        Policy.granularity = Policy.Single_file;
        movement = Policy.Least_overlap;
      } );
    ( "rocksdb-universal",
      "RocksDB universal: tiered, whole sorted runs merged on run-count pressure",
      Policy.tiered ~size_ratio:4 () );
    ( "cassandra-stcs",
      "Cassandra size-tiered: merge similar-sized runs once four accumulate",
      Policy.tiered ~size_ratio:4 () );
    ( "hbase-exploring",
      "HBase exploring: tiered selection bounded by run count",
      Policy.tiered ~size_ratio:3 () );
    ( "asterixdb",
      "AsterixDB prefix policy lineage: full-level merges (no partial compaction)",
      {
        (Policy.leveled ~size_ratio:10 ()) with
        Policy.granularity = Policy.Whole_level;
      } );
    ( "dostoevsky",
      "Dostoevsky lazy leveling: tiered intermediates, leveled last level",
      Policy.lazy_leveled ~size_ratio:10 () );
    ( "rocksdb-hybrid",
      "RocksDB-style burst absorption: tiered level 1, leveled below",
      {
        (Policy.leveled ~size_ratio:10 ()) with
        Policy.layout = Policy.Hybrid { tiered_levels = 1; runs = 10 };
      } );
    ( "lethe-fade",
      "Lethe FADE: leveled with tombstone-TTL-driven file picking",
      {
        (Policy.leveled ~size_ratio:10 ()) with
        Policy.granularity = Policy.Single_file;
        movement = Policy.Expired_ttl { ttl = 10_000 };
      } );
    ( "coldest-first",
      "Age-based movement: always push the coldest (oldest) file down",
      {
        (Policy.leveled ~size_ratio:10 ()) with
        Policy.granularity = Policy.Single_file;
        movement = Policy.Oldest_file;
      } );
    ( "pebblesdb",
      "PebblesDB: guard-partitioned levels, guard compactions append fragments downward",
      {
        (Policy.leveled ~size_ratio:4 ()) with
        Policy.layout = Policy.Guarded { stride_base = 4096 };
      } );
  ]

let find name =
  let name = String.lowercase_ascii name in
  List.find_map (fun (n, _, p) -> if String.equal n name then Some p else None) all

let names = List.map (fun (n, _, _) -> n) all

let describe_all () =
  all
  |> List.map (fun (n, what, p) -> Printf.sprintf "%-18s %s\n%-18s -> %s" n what "" (Policy.describe p))
  |> String.concat "\n"
