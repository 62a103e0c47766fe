module Io_stats = Lsm_storage.Io_stats

type t = {
  db : Db.t;
  total : int;
  step : int;
  floor : int;
  mutable buffer : int;
  mutable last_io : Io_stats.t;
  mutable n_epochs : int;
  mutable to_buffer : int;
  mutable to_cache : int;
}

let apply t =
  Db.set_write_buffer_size t.db t.buffer;
  Db.set_block_cache_bytes t.db (t.total - t.buffer)

let create ?(step_fraction = 0.10) ?(min_fraction = 0.10) ~db ~total_bytes () =
  if total_bytes < 8192 then invalid_arg "Adaptive_memory.create: budget too small";
  if step_fraction <= 0.0 || step_fraction >= 1.0 then
    invalid_arg "Adaptive_memory.create: bad step_fraction";
  let t =
    {
      db;
      total = total_bytes;
      step = max 1024 (int_of_float (float_of_int total_bytes *. step_fraction));
      floor = max 1024 (int_of_float (float_of_int total_bytes *. min_fraction));
      buffer = total_bytes / 2;
      last_io = Io_stats.copy (Db.io_stats db);
      n_epochs = 0;
      to_buffer = 0;
      to_cache = 0;
    }
  in
  apply t;
  t

let epoch t =
  let now = Db.io_stats t.db in
  let d = Io_stats.diff now t.last_io in
  t.last_io <- Io_stats.copy now;
  t.n_epochs <- t.n_epochs + 1;
  (* Write pain: device bytes the write path generated (a bigger buffer
     would have flushed less and compacted less). Read pain: data-block
     bytes fetched for reads (a bigger cache would have absorbed them). *)
  let write_pain =
    Io_stats.bytes_written ~cls:Io_stats.C_flush d
    + Io_stats.bytes_written ~cls:Io_stats.C_compaction_write d
    + Io_stats.bytes_read ~cls:Io_stats.C_compaction_read d
  in
  let read_pain = Io_stats.bytes_read ~cls:Io_stats.C_user_read d in
  if write_pain > read_pain && t.buffer + t.step <= t.total - t.floor then begin
    t.buffer <- t.buffer + t.step;
    t.to_buffer <- t.to_buffer + 1;
    apply t
  end
  else if read_pain > write_pain && t.buffer - t.step >= t.floor then begin
    t.buffer <- t.buffer - t.step;
    t.to_cache <- t.to_cache + 1;
    apply t
  end

let buffer_bytes t = t.buffer
let cache_bytes t = t.total - t.buffer
let moves_to_buffer t = t.to_buffer
let moves_to_cache t = t.to_cache
