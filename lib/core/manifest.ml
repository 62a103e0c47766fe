module Device = Lsm_storage.Device
module Framed_log = Lsm_storage.Framed_log
module Io_stats = Lsm_storage.Io_stats
module Lsm_error = Lsm_util.Lsm_error

type t = { dev : Device.t; log : Framed_log.writer; mutable name : string }

let file_name = "MANIFEST"
let tmp_file_name = "MANIFEST.tmp"

let create ?(name = file_name) dev =
  { dev; log = Framed_log.create dev ~cls:Io_stats.C_misc name; name }

let log_edit t edit =
  Framed_log.append t.log Version.encode_edit edit;
  Framed_log.sync t.log

let promote t =
  if t.name <> file_name then begin
    Device.rename t.dev t.name file_name;
    t.name <- file_name
  end

let close t = Framed_log.close t.log

let recover dev =
  let version = ref Version.empty in
  let edits =
    Framed_log.replay dev ~name:file_name (fun data ~off ~len ->
        let payload = Lsm_util.Codec.reader (String.sub data off len) in
        version := Version.apply !version (Version.decode_edit payload))
  in
  (* The tmp+promote protocol syncs at least one edit frame before
     MANIFEST ever carries the name, so a nonempty manifest recovering
     no edit is not a crash artifact: its head frame rotted. *)
  if edits = 0 && Device.exists dev file_name && Device.size dev file_name > 0 then
    raise
      (Lsm_error.corruption ~file:file_name ~offset:0 "no valid edit frame in nonempty manifest");
  !version

let verify dev =
  match Framed_log.damage dev ~name:file_name with
  | gaps -> Framed_log.findings ~name:file_name gaps
  | exception Not_found ->
    [ Lsm_error.Corruption { file = file_name; offset = None; detail = "manifest missing" } ]
