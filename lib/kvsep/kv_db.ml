module Db = Lsm_core.Db
module Io_stats = Lsm_storage.Io_stats

type t = {
  tree : Db.t;
  vlog : Value_log.t;
  value_threshold : int;
  dev : Lsm_storage.Device.t;
  mutable logical_bytes : int;
      (* key+value bytes as the user wrote them; the tree's own counter
         only sees pointers, which would overstate the WA win *)
}

(* Stored-value encoding: '\x00' inline-value | '\x01' pointer. *)
let tag_inline = '\x00'
let tag_pointer = '\x01'

let open_db ?(config = Lsm_core.Config.default) ?(value_threshold = 128)
    ?(segment_bytes = 1 lsl 20) ~dev () =
  {
    tree = Db.open_db ~config ~dev ();
    vlog = Value_log.open_log ~segment_bytes dev;
    value_threshold;
    dev;
    logical_bytes = 0;
  }

let put t ~key value =
  t.logical_bytes <- t.logical_bytes + String.length key + String.length value;
  if String.length value >= t.value_threshold then begin
    let p = Value_log.append t.vlog ~key ~value in
    Db.put t.tree ~key (Printf.sprintf "%c%s" tag_pointer (Value_log.encode_pointer p))
  end
  else Db.put t.tree ~key (Printf.sprintf "%c%s" tag_inline value)

let resolve t stored =
  if String.length stored = 0 then ""
  else
    match stored.[0] with
    | c when c = tag_inline -> String.sub stored 1 (String.length stored - 1)
    | c when c = tag_pointer ->
      let p = Value_log.decode_pointer (String.sub stored 1 (String.length stored - 1)) in
      snd (Value_log.read t.vlog ~cls:Io_stats.C_user_read p)
    | _ -> stored

let get t key = Option.map (resolve t) (Db.get t.tree key)
let delete t key = Db.delete t.tree key

let scan t ?limit ~lo ~hi () =
  Db.scan t.tree ?limit ~lo ~hi () |> List.map (fun (k, v) -> (k, resolve t v))

let flush t = Db.flush t.tree
let close t =
  Db.close t.tree;
  Value_log.close t.vlog

type gc_result = { segments_dropped : int; live_moved : int; dead_dropped : int }

let gc t ?(max_segments = 1) () =
  let victims =
    List.filteri (fun i _ -> i < max_segments) (Value_log.segments t.vlog)
  in
  let live_moved = ref 0 and dead_dropped = ref 0 in
  List.iter
    (fun seg ->
      Value_log.fold_segment t.vlog ~cls:Io_stats.C_gc seg ~init:()
        ~f:(fun () p key value ->
          let live =
            match Db.get t.tree key with
            | Some stored
              when String.length stored > 0 && stored.[0] = tag_pointer ->
              Value_log.decode_pointer (String.sub stored 1 (String.length stored - 1)) = p
            | _ -> false
          in
          if live then begin
            (* Re-append at the head and re-point the tree. *)
            let p' = Value_log.append t.vlog ~key ~value in
            Db.put t.tree ~key (Printf.sprintf "%c%s" tag_pointer (Value_log.encode_pointer p'));
            incr live_moved
          end
          else incr dead_dropped);
      Value_log.drop_segment t.vlog seg)
    victims;
  { segments_dropped = List.length victims; live_moved = !live_moved; dead_dropped = !dead_dropped }

let value_log t = t.vlog

let to_kv_store t =
  {
    Lsm_workload.Kv_store.store_name = "wisckey";
    put = (fun ~key value -> put t ~key value);
    get = (fun key -> get t key);
    scan = (fun ~lo ~hi ~limit -> scan t ~limit ~lo ~hi ());
    delete = (fun key -> delete t key);
    rmw =
      (fun ~key operand ->
        let base = Option.value ~default:"" (get t key) in
        put t ~key (base ^ operand));
    flush = (fun () -> flush t);
    quiesce = (fun () -> Db.quiesce t.tree);
    io_stats = (fun () -> Db.io_stats t.tree);
    user_bytes = (fun () -> t.logical_bytes);
    space_bytes = (fun () -> Lsm_storage.Device.total_bytes t.dev);
  }
