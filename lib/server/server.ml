(* Single-threaded RESP reactor over Unix-domain sockets.

   Shape: [select] for readiness; per-connection input bytes accumulate
   in the connection's input buffer until {!Resp.next_command} yields
   complete frames; every complete command executes immediately and its
   reply is encoded straight into the connection's one output buffer.
   Both are {!Resp.buf}s, so both drop a store grown past 64 KiB once
   they drain. When the socket is
   writable, one [Unix.write] per step hands it every pending byte
   (pipelining: a client that wrote ten requests back-to-back gets ten
   replies in one write); a partial write leaves the rest, offset kept,
   for the next writable step. No threads and no locks at this layer —
   the engine's own machinery (shard fan-out pool, background
   compaction lanes) provides the parallelism, which keeps the protocol
   state machine trivially race-free and the whole module exempt from
   lock-ranking concerns.

   A connection marked close-after-flush (a protocol error, or the one
   that sent SHUTDOWN) executes nothing past that command and is never
   read again: its reply flushes, then it closes.

   Drain discipline on SHUTDOWN (ISSUE order): (1) acknowledge, stop
   accepting; (2) flush every connection's pending replies and close
   them; (3) quiesce every shard's background lane — all queued
   flush/compaction work completes or fails deterministically; (4) the
   loop reports drained and the listener exits. Acknowledged writes are
   thus WAL-durable *and* lane-quiet before the process goes away. *)

module Db = Lsm_core.Db
module Stats_core = Lsm_core.Stats
module Write_batch = Lsm_core.Write_batch

type conn = {
  fd : Unix.file_descr;
  inbuf : Resp.buf;  (** bytes read and not yet parsed *)
  out : Resp.buf;  (** encoded replies awaiting the socket *)
  mutable tenant : string option;
  mutable close_after_flush : bool;
}

type stats = {
  accepted : int;
  active : int;
  commands : int;
  quota_denials : int;
  protocol_errors : int;
  bytes_in : int;
  bytes_out : int;
  writes : int;
  buffer_bytes : int;
}

type t = {
  listen_fd : Unix.file_descr;
  path : string;
  shards : Shard_map.t;
  quota : Quota.t;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  mutable draining : bool;
  mutable stopped : bool;
  mutable accepted : int;
  mutable commands : int;
  mutable quota_denials : int;
  mutable protocol_errors : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable writes : int;
}

let create ?quota ?(backlog = 128) ~shards ~sock_path () =
  let quota = match quota with Some q -> q | None -> Quota.create () in
  (* A write to a connection whose peer has hung up must fail with
     EPIPE and close that connection, not kill the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Unix.unlink sock_path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock fd;
  Unix.bind fd (Unix.ADDR_UNIX sock_path);
  Unix.listen fd backlog;
  {
    listen_fd = fd;
    path = sock_path;
    shards;
    quota;
    conns = Hashtbl.create 64;
    draining = false;
    stopped = false;
    accepted = 0;
    commands = 0;
    quota_denials = 0;
    protocol_errors = 0;
    bytes_in = 0;
    bytes_out = 0;
    writes = 0;
  }

let sock_path t = t.path
let draining t = t.draining

let stats t =
  {
    accepted = t.accepted;
    active = Hashtbl.length t.conns;
    commands = t.commands;
    quota_denials = t.quota_denials;
    protocol_errors = t.protocol_errors;
    bytes_in = t.bytes_in;
    bytes_out = t.bytes_out;
    writes = t.writes;
    buffer_bytes =
      Hashtbl.fold (fun _ c a -> a + Resp.capacity c.inbuf + Resp.capacity c.out) t.conns 0;
  }

let has_output conn = Resp.pending conn.out > 0

let close_conn t conn =
  Hashtbl.remove t.conns conn.fd;
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

(* ---------------- command execution ---------------- *)

let reply_ok = Resp.Simple "OK"

let err code msg = Resp.Error (Printf.sprintf "%s %s" code msg)

let with_tenant conn k =
  match conn.tenant with
  | Some tenant -> k tenant
  | None -> err "NOTENANT" "issue TENANT <name> first"

(* Charge the tenant before touching any shard: a denied request
   performs no engine work at all (all-or-nothing, like the batch
   itself). *)
let admitted t ~tenant ~ops ~bytes k =
  match Quota.admit t.quota ~tenant ~now:(Unix.gettimeofday ()) ~ops ~bytes with
  | Ok () -> k ()
  | Error d ->
    t.quota_denials <- t.quota_denials + 1;
    err "QUOTA_EXCEEDED" (Quota.describe d)

let shard_of t stored = Shard_map.db t.shards (Shard_map.shard_of_key t.shards stored)

let put_one t ~tenant key value =
  let stored = Shard_map.encode_key ~tenant key in
  Db.put (shard_of t stored) ~key:stored value

let del_one t ~tenant key =
  let stored = Shard_map.encode_key ~tenant key in
  Db.delete (shard_of t stored) stored

(* A single key reads its own shard directly: [Db.get] takes the same
   one read context and accounts the same stats as a one-key
   [Db.multi_get], without the fan-out's buckets and lists. *)
let get_one t ~tenant key =
  let stored = Shard_map.encode_key ~tenant key in
  Db.get (shard_of t stored) stored

(* MSET: one Write_batch per touched shard, fanned across the map's
   pool. Atomic per shard (one seqno range, one WAL record); cross-shard
   the groups land independently — the documented contract. *)
let mset t ~tenant pairs =
  let batches = Hashtbl.create 8 in
  List.iter
    (fun (key, value) ->
      let stored = Shard_map.encode_key ~tenant key in
      let s = Shard_map.shard_of_key t.shards stored in
      let wb =
        match Hashtbl.find_opt batches s with
        | Some wb -> wb
        | None ->
          let wb = Write_batch.create () in
          Hashtbl.add batches s wb;
          wb
      in
      Write_batch.put wb ~key:stored value)
    pairs;
  Shard_map.apply_grouped t.shards (Hashtbl.fold (fun s wb acc -> (s, wb) :: acc) batches [])

let mget t ~tenant keys =
  Shard_map.multi_get t.shards (List.map (fun k -> Shard_map.encode_key ~tenant k) keys)

let stats_text t =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "shards %d\ncommands %d\nconnections %d\nquota_denials %d\nwrites %d\nbuffer_bytes %d\n"
    (Shard_map.count t.shards) t.commands (Hashtbl.length t.conns) t.quota_denials t.writes
    (stats t).buffer_bytes;
  Shard_map.iter t.shards (fun i db ->
      let s = Db.stats db in
      Printf.bprintf b
        "shard %d: puts %d gets %d debt_bytes %d stalls %d slowdowns %d stops %d \
         ecc_repairs %d ecc_unrecoverable %d scrubs_scheduled %d\n"
        i s.Stats_core.user_puts s.Stats_core.user_gets (Db.backpressure_debt db)
        s.Stats_core.write_stalls s.Stats_core.write_slowdowns s.Stats_core.write_stops
        s.Stats_core.ecc_repairs s.Stats_core.ecc_unrecoverable
        s.Stats_core.scrub_runs_scheduled);
  Buffer.contents b

let parse_limit code v =
  if v = "-" then Ok None
  else
    match int_of_string_opt v with
    | Some n when n >= 0 -> Ok (Some n)
    | _ -> Error (err "BADARG" (Printf.sprintf "bad %s limit %S" code v))

(* Byte cost of a data command: keys always, values for writes — the
   quantity a tenant's ingestion actually costs the engine. *)
let rec sum_pair_bytes = function
  | k :: v :: rest -> String.length k + String.length v + sum_pair_bytes rest
  | [ k ] -> String.length k
  | [] -> 0

let execute t conn args =
  t.commands <- t.commands + 1;
  match args with
  | [] -> err "ERR" "empty command"
  | cmd :: rest -> (
    match (String.uppercase_ascii cmd, rest) with
    | "PING", [] -> Resp.Simple "PONG"
    | "TENANT", [ name ] ->
      if Shard_map.valid_tenant name then begin
        conn.tenant <- Some name;
        reply_ok
      end
      else err "BADARG" "tenant must be non-empty and NUL-free"
    | "PUT", [ key; value ] ->
      with_tenant conn (fun tenant ->
          admitted t ~tenant ~ops:1 ~bytes:(String.length key + String.length value)
            (fun () ->
              put_one t ~tenant key value;
              reply_ok))
    | "DEL", [ key ] ->
      with_tenant conn (fun tenant ->
          admitted t ~tenant ~ops:1 ~bytes:(String.length key) (fun () ->
              del_one t ~tenant key;
              reply_ok))
    | "GET", [ key ] ->
      with_tenant conn (fun tenant ->
          admitted t ~tenant ~ops:1 ~bytes:(String.length key) (fun () ->
              match get_one t ~tenant key with
              | Some v -> Resp.Bulk v
              | None -> Resp.Nil))
    | "MGET", (_ :: _ as keys) ->
      with_tenant conn (fun tenant ->
          admitted t ~tenant ~ops:(List.length keys)
            ~bytes:(List.fold_left (fun a k -> a + String.length k) 0 keys) (fun () ->
              Resp.Array
                (List.map
                   (function Some v -> Resp.Bulk v | None -> Resp.Nil)
                   (mget t ~tenant keys))))
    | "MSET", (_ :: _ as kvs) when List.length kvs mod 2 = 0 ->
      with_tenant conn (fun tenant ->
          let rec pairs = function
            | k :: v :: rest -> (k, v) :: pairs rest
            | _ -> []
          in
          admitted t ~tenant ~ops:(List.length kvs / 2) ~bytes:(sum_pair_bytes kvs)
            (fun () ->
              mset t ~tenant (pairs kvs);
              reply_ok))
    | "MSET", _ -> err "BADARG" "MSET needs key value pairs"
    | "QUOTA", [ tenant; ops; bytes ] -> (
      match (parse_limit "ops" ops, parse_limit "bytes" bytes) with
      | Ok max_ops, Ok max_bytes ->
        Quota.set_limits t.quota ~tenant { Quota.max_ops; max_bytes };
        reply_ok
      | Error e, _ | _, Error e -> e)
    | "STATS", [] -> Resp.Bulk (stats_text t)
    | "FLUSH", [] ->
      Shard_map.flush_all t.shards;
      reply_ok
    | "SHUTDOWN", [] ->
      t.draining <- true;
      conn.close_after_flush <- true;
      reply_ok
    | op, _ -> err "ERR" (Printf.sprintf "unknown command or arity: %s/%d" op (List.length rest)))

(* ---------------- reactor ---------------- *)

(* Parse-and-execute every complete frame in the connection's input,
   up to the first command that marks the connection close-after-flush. *)
let drain_input t conn =
  let continue = ref true in
  try
    while !continue && not conn.close_after_flush do
      match Resp.next_command conn.inbuf with
      | Some args ->
        let reply =
          try execute t conn args
          with e -> err "ERR" (Printexc.to_string e)
        in
        Resp.add_reply conn.out reply
      | None -> continue := false
    done
  with Resp.Malformed m ->
    t.protocol_errors <- t.protocol_errors + 1;
    Resp.add_reply conn.out (err "ERR" ("protocol: " ^ m));
    conn.close_after_flush <- true

let handle_readable t conn =
  match Resp.fill conn.inbuf (Unix.read conn.fd) with
  | 0 -> close_conn t conn
  | n ->
    t.bytes_in <- t.bytes_in + n;
    drain_input t conn
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> close_conn t conn

(* A stream socket closed with unread input resets its peer, whose read
   then fails instead of ending after the reply just flushed: drop what
   a close-after-flush connection sent since, unparsed. Bounded, since a
   peer can keep writing. *)
let discard_input conn =
  let rec go left =
    Resp.consume conn.inbuf (Resp.pending conn.inbuf);
    if left > 0 then
      match Resp.fill conn.inbuf (Unix.read conn.fd) with
      | 0 -> ()
      | n -> go (left - n)
      | exception Unix.Unix_error _ -> ()
  in
  go (256 * 1024)

(* One write call per writable step takes every pending byte the socket
   accepts; whatever it leaves stays in the buffer for the next step. *)
let handle_writable t conn =
  let out = conn.out in
  t.writes <- t.writes + 1;
  (match Unix.write conn.fd (Resp.buf_bytes out) (Resp.buf_pos out) (Resp.pending out) with
  | n ->
    t.bytes_out <- t.bytes_out + n;
    Resp.consume out n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> close_conn t conn);
  if Hashtbl.mem t.conns conn.fd && conn.close_after_flush && not (has_output conn) then begin
    discard_input conn;
    close_conn t conn
  end

let accept_ready t =
  let continue = ref true in
  while !continue do
    match Unix.accept t.listen_fd with
    | fd, _ ->
      Unix.set_nonblock fd;
      t.accepted <- t.accepted + 1;
      Hashtbl.replace t.conns fd
        {
          fd;
          inbuf = Resp.buf_create ();
          out = Resp.buf_create ();
          tenant = None;
          close_after_flush = false;
        }
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      continue := false
    | exception Unix.Unix_error _ -> continue := false
  done

let finish_drain t =
  (* Step 2 of the drain: anything still pending is force-flushed best
     effort by the writable handler above; what remains now just closes. *)
  Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns;
  Hashtbl.reset t.conns;
  (* Step 3: every shard's lane runs dry before the listener goes away —
     acknowledged writes have no background work pending behind them. *)
  Shard_map.quiesce_all t.shards;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink t.path with Unix.Unix_error _ -> ());
  t.stopped <- true

let step t ~timeout =
  if t.stopped then false
  else begin
    let conns = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
    let rds =
      (if t.draining then [] else [ t.listen_fd ])
      @ List.filter_map (fun c -> if c.close_after_flush then None else Some c.fd) conns
    in
    let wrs = List.filter_map (fun c -> if has_output c then Some c.fd else None) conns in
    let r, w, _ =
      match Unix.select rds wrs [] timeout with
      | r -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if (not t.draining) && List.memq t.listen_fd r then accept_ready t;
    List.iter
      (fun fd ->
        if fd != t.listen_fd then
          match Hashtbl.find_opt t.conns fd with
          | Some c -> handle_readable t c
          | None -> ())
      r;
    List.iter
      (fun fd ->
        match Hashtbl.find_opt t.conns fd with
        | Some c -> handle_writable t c
        | None -> ())
      w;
    if t.draining then begin
      (* Give laggards one pass to take their final bytes; connections
         with nothing pending close immediately. *)
      Hashtbl.iter (fun _ c -> if not (has_output c) then c.close_after_flush <- true) t.conns;
      let still_flushing =
        Hashtbl.fold (fun _ c acc -> acc || has_output c) t.conns false
      in
      if not still_flushing then finish_drain t
      else
        Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []
        |> List.iter (fun c -> if not (has_output c) then close_conn t c)
    end;
    not t.stopped
  end

let run t =
  let continue = ref true in
  while !continue do
    continue := step t ~timeout:0.5
  done

let request_shutdown t = t.draining <- true

let close t =
  if not t.stopped then begin
    Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns;
    Hashtbl.reset t.conns;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (try Unix.unlink t.path with Unix.Unix_error _ -> ());
    t.stopped <- true
  end
