(* Serving front door: RESP framing units, quota windows, shard
   routing, and in-process end-to-end runs — the closed-loop simulator
   against a live server on an ephemeral Unix socket, with exact
   acked-write model checking, plus the graceful SHUTDOWN drain. *)

module Resp = Lsm_server.Resp
module Quota = Lsm_server.Quota
module Shard_map = Lsm_server.Shard_map
module Server = Lsm_server.Server
module Server_harness = Lsm_workload.Server_harness
module Config = Lsm_core.Config
module Policy = Lsm_compaction.Policy
module Db = Lsm_core.Db

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* ---------- RESP framing ---------- *)

(* A connection buffer holding the bytes [s], as the server's socket
   reads would leave it. *)
let buf_of s =
  let b = Resp.buf_create () in
  let off = ref 0 in
  while !off < String.length s do
    ignore
      (Resp.fill b (fun dst pos n ->
           let k = min n (String.length s - !off) in
           Bytes.blit_string s !off dst pos k;
           off := !off + k;
           k))
  done;
  b

let test_resp_command_roundtrip () =
  let cmd = [ "MSET"; "k1"; "v\r\nwith crlf"; "k2"; String.make 300 'x' ] in
  let s = Resp.encode_command cmd in
  let b = buf_of s in
  (match Resp.next_command b with
  | Some got ->
    Alcotest.(check (list string)) "args" cmd got;
    check_int "consumed all" 0 (Resp.pending b)
  | None -> Alcotest.fail "complete frame did not parse");
  (* Every strict prefix is Incomplete, never Malformed. *)
  for cut = 0 to String.length s - 1 do
    match Resp.next_command (buf_of (String.sub s 0 cut)) with
    | None -> ()
    | Some _ -> Alcotest.fail (Printf.sprintf "prefix of %d bytes parsed" cut)
  done

let test_resp_reply_roundtrip () =
  let replies =
    [
      Resp.Simple "OK";
      Resp.Error "ERR boom";
      Resp.Int (-42);
      Resp.Bulk "payload";
      Resp.Nil;
      Resp.Array [ Resp.Bulk "a"; Resp.Nil; Resp.Int 7 ];
    ]
  in
  List.iter
    (fun r ->
      let s = Resp.encode_reply r in
      let b = Bytes.of_string s in
      match Resp.parse_reply b ~pos:0 ~len:(Bytes.length b) with
      | Some (got, consumed) ->
        check_bool "roundtrip" true (got = r);
        check_int "consumed" (Bytes.length b) consumed
      | None -> Alcotest.fail "reply did not parse")
    replies;
  (* Integers are written digit by digit; the extremes too. *)
  List.iter
    (fun n ->
      check_str (string_of_int n) (":" ^ string_of_int n ^ "\r\n") (Resp.encode_reply (Resp.Int n)))
    [ 0; 9; 10; -10; 1_000_000_007; max_int; min_int; min_int + 1 ]

(* Replies appended into one reused output buffer, consumed from the
   front in arbitrary cuts the way partial socket writes consume them,
   are exactly the concatenated [encode_reply] bytes, and those bytes
   parse back to the replies. *)
let gen_line = QCheck.Gen.(string_size ~gen:(map Char.chr (32 -- 126)) (0 -- 12))

let gen_bulk =
  QCheck.Gen.(
    frequency
      [
        (1, return "");
        (8, string_size ~gen:char (0 -- 40));
        (* Past the buffer's 64 KiB shrink threshold. *)
        (1, string_size ~gen:char (return 70_000));
      ])

let gen_reply =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             frequency
               [
                 (2, map (fun s -> Resp.Simple s) gen_line);
                 (2, map (fun s -> Resp.Error s) gen_line);
                 ( 2,
                   map
                     (fun i -> Resp.Int i)
                     (int_range (-(64 * 1024 * 1024)) (64 * 1024 * 1024)) );
                 (3, map (fun s -> Resp.Bulk s) gen_bulk);
                 (1, return Resp.Nil);
               ]
           in
           if n <= 1 then leaf
           else
             frequency
               [ (3, leaf); (1, map (fun rs -> Resp.Array rs) (list_size (0 -- 4) (self (n / 4)))) ]))

let unsent o = Bytes.sub_string (Resp.buf_bytes o) (Resp.buf_pos o) (Resp.pending o)

let decode_all s =
  let b = Bytes.of_string s in
  let rec go pos acc =
    if pos = Bytes.length b then Some (List.rev acc)
    else
      match Resp.parse_reply b ~pos ~len:(Bytes.length b) with
      | Some (r, pos') -> go pos' (r :: acc)
      | None -> None
  in
  go 0 []

let prop_reply_buffer =
  let print batches =
    String.concat " | "
      (List.map
         (fun (rs, cut) ->
           let enc = String.escaped (String.concat "" (List.map Resp.encode_reply rs)) in
           let enc = if String.length enc > 200 then String.sub enc 0 200 ^ "..." else enc in
           Printf.sprintf "%s (cut %d)" enc cut)
         batches)
  in
  QCheck.Test.make ~name:"resp: add_reply into one reused buffer = encode_reply bytes" ~count:200
    (QCheck.make ~print QCheck.Gen.(list_size (1 -- 12) (pair (list_size (0 -- 8) gen_reply) nat)))
    (fun batches ->
      let o = Resp.buf_create () in
      let expect = ref "" in
      List.for_all
        (fun (replies, cut) ->
          List.iter (Resp.add_reply o) replies;
          let enc = String.concat "" (List.map Resp.encode_reply replies) in
          expect := !expect ^ enc;
          let same = unsent o = !expect in
          let decoded = decode_all enc = Some replies in
          (* A write takes [cut] bytes, or everything when that is more. *)
          let k = min cut (Resp.pending o) in
          Resp.consume o k;
          expect := String.sub !expect k (String.length !expect - k);
          let shrunk = Resp.pending o > 0 || Bytes.length (Resp.buf_bytes o) <= 64 * 1024 in
          same && decoded && shrunk)
        batches)

let test_resp_pipelined () =
  let s = Resp.encode_command [ "PING" ] ^ Resp.encode_command [ "GET"; "k" ] in
  let b = buf_of s in
  match Resp.next_command b with
  | Some [ "PING" ] -> (
    match Resp.next_command b with
    | Some [ "GET"; "k" ] -> check_int "both consumed" 0 (Resp.pending b)
    | _ -> Alcotest.fail "second frame")
  | _ -> Alcotest.fail "first frame"

let test_resp_malformed () =
  let raises s =
    match Resp.next_command (buf_of s) with
    | exception Resp.Malformed _ -> true
    | _ -> false
  in
  check_bool "bad type byte" true (raises "&3\r\n");
  check_bool "non-numeric arity" true (raises "*x\r\n");
  check_bool "hostile length" true (raises "*1\r\n$99999999999\r\n");
  check_bool "zero arity" true (raises "*0\r\n")

(* ---------- quota windows ---------- *)

let test_quota_window () =
  let q = Quota.create ~window_s:1.0 () in
  Quota.set_limits q ~tenant:"t" { Quota.max_ops = Some 3; max_bytes = Some 100 };
  let admit ~now ~ops ~bytes = Quota.admit q ~tenant:"t" ~now ~ops ~bytes in
  check_bool "under" true (Result.is_ok (admit ~now:0.0 ~ops:2 ~bytes:10));
  check_bool "exact" true (Result.is_ok (admit ~now:0.1 ~ops:1 ~bytes:10));
  (match admit ~now:0.2 ~ops:1 ~bytes:1 with
  | Error d ->
    check_bool "ops dimension" true (d.Quota.dimension = `Ops);
    check_int "denial charges nothing: used stays" 3 d.Quota.used
  | Ok () -> Alcotest.fail "fourth op admitted");
  (* Window rolls: usage resets. *)
  check_bool "next window" true (Result.is_ok (admit ~now:1.5 ~ops:3 ~bytes:99));
  (match admit ~now:1.6 ~ops:0 ~bytes:5 with
  | Error d -> check_bool "bytes dimension" true (d.Quota.dimension = `Bytes)
  | Ok () -> Alcotest.fail "byte overflow admitted");
  (* Unknown tenants are unlimited by default. *)
  check_bool "stranger" true
    (Result.is_ok (Quota.admit q ~tenant:"other" ~now:0.0 ~ops:1_000_000 ~bytes:max_int))

(* ---------- shard routing ---------- *)

let test_shard_routing () =
  let map = Shard_map.open_shards ~count:4 ~mode:`Memory () in
  Fun.protect ~finally:(fun () -> Shard_map.close_all map) @@ fun () ->
  check_bool "tenant with NUL rejected" true
    (match Shard_map.encode_key ~tenant:"a\x00b" "k" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_bool "NUL tenant invalid" false (Shard_map.valid_tenant "a\x00b");
  check_bool "empty tenant invalid" false (Shard_map.valid_tenant "");
  (* Routing is deterministic and spreads: 256 keys must touch every
     shard (probability of a miss is ~1e-28 for a uniform hash). *)
  let hit = Array.make 4 0 in
  for i = 0 to 255 do
    let stored = Shard_map.encode_key ~tenant:"t" (string_of_int i) in
    let s = Shard_map.shard_of_key map stored in
    check_int "stable" s (Shard_map.shard_of_key map stored);
    hit.(s) <- hit.(s) + 1
  done;
  Array.iteri (fun i n -> check_bool (Printf.sprintf "shard %d hit" i) true (n > 0)) hit;
  (* multi_get crosses shards and preserves input order. *)
  let keys = List.init 64 (fun i -> Shard_map.encode_key ~tenant:"t" (string_of_int i)) in
  List.iteri
    (fun i k -> Db.put (Shard_map.db map (Shard_map.shard_of_key map k)) ~key:k (string_of_int i))
    keys;
  let got = Shard_map.multi_get map keys in
  List.iteri
    (fun i r -> Alcotest.(check (option string)) "order kept" (Some (string_of_int i)) r)
    got

(* ---------- raw in-process client ---------- *)

let sock_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "lsm-%s-%d.sock" name (Unix.getpid ()))

let pump server () = ignore (Server.step server ~timeout:0.0)

type raw = { fd : Unix.file_descr; mutable buf : Bytes.t; mutable len : int }

let raw_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock fd;
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with Unix.Unix_error ((Unix.EINPROGRESS | Unix.EAGAIN), _, _) -> ());
  { fd; buf = Bytes.create 4096; len = 0 }

let raw_close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Send a command and pump the single-threaded server until its reply
   arrives (both sides share this domain, so every blocking wait must
   interleave server steps). *)
let rpc server c args =
  let s = Resp.encode_command args in
  let off = ref 0 in
  while !off < String.length s do
    pump server ();
    match Unix.write_substring c.fd s !off (String.length s - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  done;
  let deadline = Unix.gettimeofday () +. 10.0 in
  let result = ref None in
  while !result = None do
    if Unix.gettimeofday () > deadline then Alcotest.fail "rpc timeout";
    pump server ();
    (match Resp.parse_reply c.buf ~pos:0 ~len:c.len with
    | Some (r, consumed) ->
      Bytes.blit c.buf consumed c.buf 0 (c.len - consumed);
      c.len <- c.len - consumed;
      result := Some r
    | None -> (
      if c.len + 4096 > Bytes.length c.buf then begin
        let nb = Bytes.create (Bytes.length c.buf * 2) in
        Bytes.blit c.buf 0 nb 0 c.len;
        c.buf <- nb
      end;
      match Unix.read c.fd c.buf c.len 4096 with
      | n -> c.len <- c.len + n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        ()))
  done;
  Option.get !result

let small_shard_config =
  {
    Config.default with
    write_buffer_size = 16 * 1024;
    level1_capacity = 64 * 1024;
    compaction_backend = Config.Background;
    compaction_workers = 2;
    wal_enabled = false;
  }

(* The socket path each server [open_server] made listens on. *)
let listening = ref []
let server_path server = List.assq server !listening

let open_server ?quota ?backlog ?(config = small_shard_config) ~name ~shards ~fanout () =
  let map = Shard_map.open_shards ~config ~fanout_workers:fanout ~count:shards ~mode:`Memory () in
  let path = sock_path name in
  let server = Server.create ?quota ?backlog ~shards:map ~sock_path:path () in
  listening := (server, path) :: !listening;
  (map, server)

(* ---------- wire-level behavior ---------- *)

let test_server_basic_commands () =
  let map, server = open_server ~name:"basic" ~shards:4 ~fanout:0 () in
  Fun.protect ~finally:(fun () ->
      Server.close server;
      Shard_map.close_all map)
  @@ fun () ->
  let c = raw_connect (server_path server) in
  Fun.protect ~finally:(fun () -> raw_close c) @@ fun () ->
  check_bool "ping" true (rpc server c [ "PING" ] = Resp.Simple "PONG");
  (* Data commands demand a tenant binding. *)
  (match rpc server c [ "GET"; "k" ] with
  | Resp.Error e -> check_str "notenant" "NOTENANT" (Option.get (Resp.error_code (Resp.Error e)))
  | _ -> Alcotest.fail "unbound GET accepted");
  check_bool "bind" true (rpc server c [ "TENANT"; "acme" ] = Resp.Simple "OK");
  check_bool "put" true (rpc server c [ "PUT"; "k"; "v1" ] = Resp.Simple "OK");
  check_bool "get" true (rpc server c [ "GET"; "k" ] = Resp.Bulk "v1");
  check_bool "del" true (rpc server c [ "DEL"; "k" ] = Resp.Simple "OK");
  check_bool "get after del" true (rpc server c [ "GET"; "k" ] = Resp.Nil);
  check_bool "mset" true
    (rpc server c [ "MSET"; "a"; "1"; "b"; "2"; "c"; "3" ] = Resp.Simple "OK");
  check_bool "mget" true
    (rpc server c [ "MGET"; "a"; "missing"; "c" ]
    = Resp.Array [ Resp.Bulk "1"; Resp.Nil; Resp.Bulk "3" ]);
  (match rpc server c [ "STATS" ] with
  | Resp.Bulk s -> check_bool "stats mentions shards" true (String.length s > 0)
  | _ -> Alcotest.fail "STATS");
  check_bool "flush" true (rpc server c [ "FLUSH" ] = Resp.Simple "OK");
  check_bool "get after flush" true (rpc server c [ "GET"; "a" ] = Resp.Bulk "1")

let test_server_tenant_isolation () =
  let map, server = open_server ~name:"iso" ~shards:4 ~fanout:0 () in
  Fun.protect ~finally:(fun () ->
      Server.close server;
      Shard_map.close_all map)
  @@ fun () ->
  let a = raw_connect (server_path server) in
  let b = raw_connect (server_path server) in
  Fun.protect ~finally:(fun () ->
      raw_close a;
      raw_close b)
  @@ fun () ->
  ignore (rpc server a [ "TENANT"; "alpha" ]);
  ignore (rpc server b [ "TENANT"; "beta" ]);
  ignore (rpc server a [ "PUT"; "shared-key"; "alpha-value" ]);
  check_bool "other tenant blind" true (rpc server b [ "GET"; "shared-key" ] = Resp.Nil);
  check_bool "owner sees it" true
    (rpc server a [ "GET"; "shared-key" ] = Resp.Bulk "alpha-value")

let test_server_quota_denial () =
  let quota = Quota.create ~window_s:3600.0 () in
  let map, server = open_server ~quota ~name:"quota" ~shards:2 ~fanout:0 () in
  Fun.protect ~finally:(fun () ->
      Server.close server;
      Shard_map.close_all map)
  @@ fun () ->
  let c = raw_connect (server_path server) in
  Fun.protect ~finally:(fun () -> raw_close c) @@ fun () ->
  ignore (rpc server c [ "TENANT"; "capped" ]);
  check_bool "set quota" true (rpc server c [ "QUOTA"; "capped"; "3"; "-" ] = Resp.Simple "OK");
  let denied = ref 0 and ok = ref 0 in
  for i = 1 to 6 do
    match rpc server c [ "PUT"; Printf.sprintf "k%d" i; "v" ] with
    | Resp.Simple _ -> incr ok
    | Resp.Error e when Resp.error_code (Resp.Error e) = Some "QUOTA_EXCEEDED" ->
      incr denied
    | _ -> Alcotest.fail "unexpected reply"
  done;
  check_int "admitted to the limit" 3 !ok;
  check_int "denied past the limit" 3 !denied;
  (* Another tenant on the same server is unaffected. *)
  let c2 = raw_connect (server_path server) in
  Fun.protect ~finally:(fun () -> raw_close c2) @@ fun () ->
  ignore (rpc server c2 [ "TENANT"; "free" ]);
  check_bool "other tenant unaffected" true
    (rpc server c2 [ "PUT"; "k"; "v" ] = Resp.Simple "OK");
  check_int "denials counted" 3 (Server.stats server).Server.quota_denials

(* ---------- the reply path ---------- *)

(* One write of [s] (small enough for the socket to take whole),
   without stepping the server. *)
let write_now c s =
  check_int "client write taken whole" (String.length s)
    (Unix.write_substring c.fd s 0 (String.length s))

(* Pump until [n] bytes have arrived on [c] (and take them), or until
   the server closes it ([n = max_int]). *)
let read_bytes ?(n = max_int) server c =
  let b = Buffer.create 256 and chunk = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    if Buffer.length b >= n then Buffer.contents b
    else begin
      if Unix.gettimeofday () > deadline then Alcotest.fail "read timeout";
      pump server ();
      match Unix.read c.fd chunk 0 (min 4096 (n - Buffer.length b)) with
      | 0 -> Buffer.contents b
      | k ->
        Buffer.add_subbytes b chunk 0 k;
        go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> go ()
    end
  in
  go ()

let with_server ~name f =
  let map, server = open_server ~name ~shards:2 ~fanout:0 () in
  Fun.protect ~finally:(fun () ->
      Server.close server;
      Shard_map.close_all map)
  @@ fun () ->
  let c = raw_connect (server_path server) in
  Fun.protect ~finally:(fun () -> raw_close c) @@ fun () -> f map server c

(* Send a malformed frame and step until the server has parsed it. *)
let send_malformed server c =
  write_now c "xyz\r\n";
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (Server.stats server).Server.protocol_errors = 0 do
    if Unix.gettimeofday () > deadline then Alcotest.fail "frame never parsed";
    pump server ()
  done

(* A malformed frame earns one error reply; bytes sent after it are
   neither parsed nor answered, and the connection then closes. *)
let test_server_protocol_error () =
  with_server ~name:"proto" @@ fun _ server c ->
  send_malformed server c;
  write_now c (Resp.encode_command [ "PING" ]);
  check_str "one error line, then EOF" "-ERR protocol: expected array, got 'x'\r\n"
    (read_bytes server c);
  check_int "one protocol error" 1 (Server.stats server).Server.protocol_errors

(* A client that sends a malformed frame and hangs up at once: the
   error reply then meets a closed peer, which must cost that connection
   only, not the server. *)
let test_server_peer_hangs_up () =
  with_server ~name:"hangup" @@ fun _ server c ->
  send_malformed server c;
  raw_close c;
  for _ = 1 to 3 do
    pump server ()
  done;
  let c2 = raw_connect (server_path server) in
  Fun.protect ~finally:(fun () -> raw_close c2) @@ fun () ->
  check_bool "server still answers" true (rpc server c2 [ "PING" ] = Resp.Simple "PONG");
  check_int "only the new connection is open" 1 (Server.stats server).Server.active

(* SHUTDOWN ends its connection's pipeline: a PUT written behind it in
   the same write is neither applied nor acknowledged. *)
let test_server_shutdown_ends_pipeline () =
  with_server ~name:"shutdown-pipe" @@ fun map server c ->
  check_bool "bind" true (rpc server c [ "TENANT"; "t" ] = Resp.Simple "OK");
  write_now c (Resp.encode_command [ "SHUTDOWN" ] ^ Resp.encode_command [ "PUT"; "late"; "v" ]);
  check_str "only SHUTDOWN acknowledged, then EOF" "+OK\r\n" (read_bytes server c);
  let stored = Shard_map.encode_key ~tenant:"t" "late" in
  Alcotest.(check (option string))
    "late PUT not applied" None
    (Db.get (Shard_map.db map (Shard_map.shard_of_key map stored)) stored);
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Server.step server ~timeout:0.0 do
    if Unix.gettimeofday () > deadline then Alcotest.fail "drain timeout"
  done

(* Sixteen pipelined commands in one client write: their replies leave
   in one server write, byte for byte the encoded replies in order. *)
let test_server_one_write_per_step () =
  with_server ~name:"writes" @@ fun _ server c ->
  check_bool "bind" true (rpc server c [ "TENANT"; "t" ] = Resp.Simple "OK");
  let cmds, replies =
    List.split
      (List.init 16 (fun i ->
           let k = Printf.sprintf "k%d" (i / 2) in
           match i mod 4 with
           | 0 -> ([ "PUT"; k; String.make i 'v' ], Resp.Simple "OK")
           | 1 -> ([ "GET"; k ], Resp.Bulk (String.make (i - 1) 'v'))
           | 2 -> ([ "GET"; "absent" ], Resp.Nil)
           | _ -> ([ "MGET"; k; "absent" ], Resp.Array [ Resp.Nil; Resp.Nil ])))
  in
  let expected = String.concat "" (List.map Resp.encode_reply replies) in
  let w0 = (Server.stats server).Server.writes in
  write_now c (String.concat "" (List.map Resp.encode_command cmds));
  check_str "reply bytes" expected (read_bytes ~n:(String.length expected) server c);
  check_int "one server write" 1 ((Server.stats server).Server.writes - w0)

(* A reply far larger than the socket's send buffer leaves over many
   partial writes, resumed where each stopped, while the client reads
   4 KiB a step. *)
let test_server_large_reply () =
  with_server ~name:"large" @@ fun _ server c ->
  check_bool "bind" true (rpc server c [ "TENANT"; "t" ] = Resp.Simple "OK");
  let big = String.init (1 lsl 20) (fun i -> Char.chr (((i * 7) + (i lsr 12)) land 255)) in
  check_bool "put" true (rpc server c [ "PUT"; "big"; big ] = Resp.Simple "OK");
  let w0 = (Server.stats server).Server.writes in
  check_bool "value intact" true (rpc server c [ "GET"; "big" ] = Resp.Bulk big);
  check_bool "several writes" true ((Server.stats server).Server.writes - w0 > 1)

(* A connection's input store grows to hold a 1 MiB request and drops
   back to its default size once the request is parsed, as its output
   store does after a large reply: after a later PING the connection
   holds what it held after its first one. *)
let test_server_input_store_shrinks () =
  with_server ~name:"instore" @@ fun _ server c ->
  check_bool "ping" true (rpc server c [ "PING" ] = Resp.Simple "PONG");
  let idle = (Server.stats server).Server.buffer_bytes in
  check_bool "bind" true (rpc server c [ "TENANT"; "t" ] = Resp.Simple "OK");
  check_bool "put" true (rpc server c [ "PUT"; "big"; String.make (1 lsl 20) 'v' ] = Resp.Simple "OK");
  check_bool "ping" true (rpc server c [ "PING" ] = Resp.Simple "PONG");
  check_int "buffer bytes back at the default" idle (Server.stats server).Server.buffer_bytes

(* ---------- end-to-end: simulator against a live server ---------- *)

(* One closed-loop run of [harness] ([sock_path] and [pump] are filled
   in here) against [shards] engines opened from [config] (default
   [small_shard_config]), then the graceful SHUTDOWN drain. *)
let run_e2e ~name ?config ~shards ~fanout ?backlog (harness : Server_harness.config) () =
  let map, server = open_server ?backlog ?config ~name ~shards ~fanout () in
  Fun.protect ~finally:(fun () -> Shard_map.close_all map) @@ fun () ->
  let report =
    Server_harness.run
      { harness with sock_path = server_path server; pump = pump server }
  in
  (* In-flight ops finish after the global target is reached, so the
     count can overshoot by up to one op per connection. *)
  check_bool "all ops completed" true (report.Server_harness.ops_done >= harness.total_ops);
  check_int "zero model violations" 0 report.Server_harness.model_violations;
  check_int "zero torn group reads" 0 report.Server_harness.torn_mgets;
  check_int "zero server errors" 0 report.Server_harness.server_errors;
  check_bool "writes acked" true (report.Server_harness.writes_acked > 0);
  check_bool "reconnect verification ran" true (report.Server_harness.verified_keys > 0);
  (* Graceful shutdown: +OK, then the listener drains and exits. *)
  let c = raw_connect (server_path server) in
  check_bool "shutdown acked" true (rpc server c [ "SHUTDOWN" ] = Resp.Simple "OK");
  raw_close c;
  let deadline = Unix.gettimeofday () +. 10.0 in
  let running = ref true in
  while !running do
    if Unix.gettimeofday () > deadline then Alcotest.fail "drain timeout";
    running := Server.step server ~timeout:0.01
  done;
  check_bool "socket file removed" false (Sys.file_exists (server_path server))

let small_harness ~connections ~ops =
  {
    Server_harness.default with
    connections;
    tenants = 6;
    keys_per_client = 32;
    value_size = 64;
    total_ops = ops;
    mget_group = 6;
    seed = 11;
    (* Low enough that every client reconnects at least once within
       its ~ops/connections share of the run. *)
    reconnect_every = 15;
  }

let test_e2e_sequential =
  run_e2e ~name:"e2e-seq" ~shards:4 ~fanout:0
    (small_harness ~connections:40 ~ops:2_500)

let test_e2e_fanout =
  run_e2e ~name:"e2e-fan" ~shards:4 ~fanout:4
    (small_harness ~connections:60 ~ops:3_000)

(* The serving-correctness gate at full scale: 240 connections over
   zipfian tenants and keys against 4 shard engines with 2-worker
   background lanes and parallel subcompactions. The backend is pinned
   so the suite's environment cannot swap it for the inline lane; the
   whole fleet connects at once, so the accept queue holds two
   connections' worth per client. *)
let test_e2e_full_scale =
  let config =
    {
      Config.default with
      write_buffer_size = 64 * 1024;
      level1_capacity = 512 * 1024;
      target_file_size = 32 * 1024;
      block_size = 1024;
      block_cache_bytes = 8 lsl 20;
      compaction = Policy.leveled ~size_ratio:4 ();
      wal_sync_every_write = false;
      compaction_backend = Config.Background;
      compaction_workers = 2;
      compaction_parallelism = 2;
      wal_enabled = false;
    }
  in
  run_e2e ~name:"e2e-full" ~config ~shards:4 ~fanout:2 ~backlog:480
    {
      Server_harness.default with
      connections = 240;
      tenants = 16;
      keys_per_client = 64;
      value_size = 256;
      total_ops = 60_000;
      mget_group = 8;
      theta = 0.99;
      seed = 97;
      reconnect_every = 120;
    }

let suite =
  [
    Alcotest.test_case "resp: command roundtrip + incremental prefixes" `Quick
      test_resp_command_roundtrip;
    Alcotest.test_case "resp: reply roundtrip" `Quick test_resp_reply_roundtrip;
    Alcotest.test_case "resp: pipelined frames" `Quick test_resp_pipelined;
    Alcotest.test_case "resp: malformed input raises" `Quick test_resp_malformed;
    Alcotest.test_case "quota: fixed windows, typed denials" `Quick test_quota_window;
    Alcotest.test_case "shard map: routing, isolation encoding, ordered mget" `Quick
      test_shard_routing;
    Alcotest.test_case "server: command set over the wire" `Quick test_server_basic_commands;
    Alcotest.test_case "server: tenant namespaces are disjoint" `Quick
      test_server_tenant_isolation;
    Alcotest.test_case "server: quota denial is typed and per-tenant" `Quick
      test_server_quota_denial;
    Alcotest.test_case "server: e2e simulator, sequential shards" `Slow test_e2e_sequential;
    Alcotest.test_case "server: e2e simulator, pooled fan-out + shutdown drain" `Slow
      test_e2e_fanout;
    Alcotest.test_case "server: e2e simulator, 240 connections over background shards" `Slow
      test_e2e_full_scale;
    QCheck_alcotest.to_alcotest prop_reply_buffer;
    Alcotest.test_case "server: protocol error answers once, then closes" `Quick
      test_server_protocol_error;
    Alcotest.test_case "server: a peer that hangs up costs only itself" `Quick
      test_server_peer_hangs_up;
    Alcotest.test_case "server: nothing runs behind SHUTDOWN" `Quick
      test_server_shutdown_ends_pipeline;
    Alcotest.test_case "server: 16 pipelined replies, one write" `Quick
      test_server_one_write_per_step;
    Alcotest.test_case "server: 1 MiB reply over partial writes" `Quick test_server_large_reply;
    Alcotest.test_case "server: input store shrinks after a 1 MiB request" `Quick
      test_server_input_store_shrinks;
  ]
