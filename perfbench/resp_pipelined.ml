(* resp-pipelined: an in-process Server over 4 inline shards, stepped by
   the client loop. Two Unix-socket connections, one tenant each, keep
   16 RESP requests in flight: 75% GET, 25% PUT, zipfian over a
   cache-resident keyspace. Loads the RESP codec, the reactor, shard
   routing and socket I/O with the engine work on the same path; the
   window gives the reactor several ready commands per step.

   The client side (request encoding, reply parsing) is the benchmark's
   own code, so only the server's codec is under measurement. *)

open Common
module Server = Lsm_server.Server
module Shard_map = Lsm_server.Shard_map
module Write_batch = Lsm_core.Write_batch

let shards = 4
let tenants = [| "tenant-a"; "tenant-b" |]
let keys_per_tenant = 20_000
let window = 16
let vmin = 96
let vspan = 64

(* Nominal commands per second on the reference host; a run executes
   [seconds * ops_per_s] commands. *)
let ops_per_s = 70_000

(* With a 1 MiB write buffer, requests that wait on an inline flush or
   compaction stay near 0.2%: they show in p99 but not in p50 or p90. *)
let config =
  engine_config ~block_cache_bytes:(8 lsl 20) ~write_buffer_size:(1 lsl 20)
    ~level1_capacity:(4 lsl 20) ~target_file_size:(1 lsl 20) ~max_open_tables:1024

let stored ti i = Shard_map.encode_key ~tenant:tenants.(ti) (key i)

(* The value names tenant, key and version. *)
let value_of vs ti i ver = value vs (tenants.(ti) ^ "/" ^ key i) ver

(* ---------------- client connections ---------------- *)

type conn = {
  fd : Unix.file_descr;
  ti : int;  (** tenant index *)
  versions : int array;  (** the model: this tenant's latest version per key *)
  st : Random.State.t;
  out : Buffer.t;  (** encoded requests not yet handed to the socket *)
  mutable pending : string;  (** handed over, partly written *)
  mutable pending_off : int;
  inbuf : Bytes.t;
  mutable in_len : int;
  (* requests in flight, oldest at [head] *)
  f_put : bool array;
  f_id : int array;
  f_ver : int array;
  f_t0 : int array;
  mutable head : int;
  mutable inflight : int;
}

let encode_command b args =
  Printf.bprintf b "*%d\r\n" (List.length args);
  List.iter (fun a -> Printf.bprintf b "$%d\r\n%s\r\n" (String.length a) a) args

type reply = Simple of string | Err of string | Bulk of string | Nil

exception Bad_reply of string

(* Parse one reply at [pos]: [Some (reply, next)], or [None] while the
   bytes are incomplete. *)
let parse_reply buf ~pos ~len =
  let rec line_end i =
    if i + 1 >= len then None else if Bytes.get buf i = '\r' then Some i else line_end (i + 1)
  in
  if pos >= len then None
  else
    match line_end (pos + 1) with
    | None -> None
    | Some e -> (
      let line = Bytes.sub_string buf (pos + 1) (e - pos - 1) in
      match Bytes.get buf pos with
      | '+' -> Some (Simple line, e + 2)
      | '-' -> Some (Err line, e + 2)
      | '$' -> (
        match int_of_string_opt line with
        | Some -1 -> Some (Nil, e + 2)
        | Some n when n >= 0 ->
          if e + 4 + n > len then None else Some (Bulk (Bytes.sub_string buf (e + 2) n), e + 4 + n)
        | _ -> raise (Bad_reply line))
      | c -> raise (Bad_reply (Printf.sprintf "type byte %C" c)))

let connect ~sock ~ti ~seed =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  Unix.set_nonblock fd;
  {
    fd;
    ti;
    versions = Array.make keys_per_tenant 0;
    st = rng seed (100 + ti);
    out = Buffer.create 8192;
    pending = "";
    pending_off = 0;
    inbuf = Bytes.create (256 * 1024);
    in_len = 0;
    f_put = Array.make window false;
    f_id = Array.make window 0;
    f_ver = Array.make window 0;
    f_t0 = Array.make window 0;
    head = 0;
    inflight = 0;
  }

(* Hand the send buffer to the socket, as far as it takes it. *)
let send c =
  if c.pending = "" && Buffer.length c.out > 0 then begin
    c.pending <- Buffer.contents c.out;
    c.pending_off <- 0;
    Buffer.clear c.out
  end;
  let n = String.length c.pending - c.pending_off in
  if n > 0 then
    match Unix.write_substring c.fd c.pending c.pending_off n with
    | w ->
      c.pending_off <- c.pending_off + w;
      if c.pending_off = String.length c.pending then c.pending <- ""
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

(* Read everything available. *)
let rec fill_in c =
  let room = Bytes.length c.inbuf - c.in_len in
  if room > 0 then
    match Unix.read c.fd c.inbuf c.in_len room with
    | 0 -> raise (Bad_reply "server closed the connection")
    | n ->
      c.in_len <- c.in_len + n;
      fill_in c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

let consume c p =
  Bytes.blit c.inbuf p c.inbuf 0 (c.in_len - p);
  c.in_len <- c.in_len - p

(* Round trip used only during setup: bind the connection's tenant. *)
let bind_tenant server c =
  encode_command c.out [ "TENANT"; tenants.(c.ti) ];
  let rec wait n =
    if n = 0 then failwith "no reply to TENANT";
    send c;
    ignore (Server.step server ~timeout:0.001);
    fill_in c;
    match parse_reply c.inbuf ~pos:0 ~len:c.in_len with
    | Some (Simple "OK", p) -> consume c p
    | Some _ -> failwith "TENANT refused"
    | None -> wait (n - 1)
  in
  wait 10_000

(* ---------------- the store ---------------- *)

type env = { map : Shard_map.t; server : Server.t; conns : conn array }

let open_store ~vs =
  let map = Shard_map.open_shards ~config ~fanout_workers:0 ~count:shards ~mode:`Memory () in
  for ti = 0 to Array.length tenants - 1 do
    for i = 0 to keys_per_tenant - 1 do
      let k = stored ti i in
      Db.put (Shard_map.db map (Shard_map.shard_of_key map k)) ~key:k (value_of vs ti i 0)
    done
  done;
  Shard_map.iter map (fun _ db -> Db.major_compact db);
  (* One read of every key pulls the keyspace into the shards' caches. *)
  for ti = 0 to Array.length tenants - 1 do
    let got = Shard_map.multi_get map (List.init keys_per_tenant (stored ti)) in
    List.iteri (fun i v -> if v <> Some (value_of vs ti i 0) then failwith "warm-up read mismatch") got
  done;
  map

let socks = ref 0

let build ~seed ~vs ~dir =
  let map = open_store ~vs in
  incr socks;
  let sock = Filename.concat dir (Printf.sprintf "perfbench-%d-%d.sock" (Unix.getpid ()) !socks) in
  let server = Server.create ~shards:map ~sock_path:sock () in
  let conns = Array.init (Array.length tenants) (fun ti -> connect ~sock ~ti ~seed) in
  Array.iter (bind_tenant server) conns;
  { map; server; conns }

let close env =
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) env.conns;
  Server.close env.server;
  Shard_map.close_all env.map

let dbs map = List.init shards (Shard_map.db map)

(* Live bytes per shard, from the models. *)
let space_amp env ~vs =
  let live = Array.make shards 0 in
  Array.iter
    (fun c ->
      Array.iteri
        (fun i ver ->
          let k = stored c.ti i in
          let s = Shard_map.shard_of_key env.map k in
          live.(s) <- live.(s) + String.length k + String.length (value_of vs c.ti i ver))
        c.versions)
    env.conns;
  Common.space_amp (List.mapi (fun s db -> (db, live.(s))) (dbs env.map))

(* ---------------- tracing ---------------- *)

let span_names =
  [| "server.step"; "client.send"; "client.recv"; "shard_map.multi_get"; "shard_map.apply_grouped" |]

let sp_step = 0
let sp_send = 1
let sp_recv = 2
let sp_multi_get = 3
let sp_apply = 4

(* The traced run records the command stream as the server read it, to
   replay it straight into the shard map: command [j] is (tenant, put,
   key, version), and the commands read by one step end at
   [batch_end.(b)]. Requests written before a step are all read by it:
   a window is far below the server's per-read chunk. *)
type probe = {
  tracer : Tracer.t;
  s_ti : int array;
  s_put : bool array;
  s_id : int array;
  s_ver : int array;
  mutable sent : int;
  batch_end : int array;
  mutable batches : int;
  mutable steps : int;
  mutable step_ns : int;
  mutable stalled_puts : int;
  mutable stall_ns : int;
  mutable minor_words : float;
}

let probe ~ops =
  {
    tracer = Tracer.create ~names:span_names ~capacity:(min (4 * ops) 100_000);
    s_ti = Array.make ops 0;
    s_put = Array.make ops false;
    s_id = Array.make ops 0;
    s_ver = Array.make ops 0;
    sent = 0;
    batch_end = Array.make ops 0;
    batches = 0;
    steps = 0;
    step_ns = 0;
    stalled_puts = 0;
    stall_ns = 0;
    minor_words = 0.;
  }

let bg_work dbs =
  List.fold_left
    (fun a db ->
      let s = Db.stats db in
      a + s.Stats.flushes + s.Stats.compactions)
    0 dbs

let traced probe sp ~req f =
  match probe with
  | None -> f ()
  | Some p ->
    Tracer.enter p.tracer sp ~req;
    f ();
    Tracer.leave p.tracer

(* One server step; traced, it is also a batch boundary of the stream
   and is checked for inline flush/compaction work. *)
let step env ~dbs probe =
  match probe with
  | None -> ignore (Server.step env.server ~timeout:0.0)
  | Some p ->
    let first = if p.batches = 0 then 0 else p.batch_end.(p.batches - 1) in
    if p.sent > first then begin
      p.batch_end.(p.batches) <- p.sent;
      p.batches <- p.batches + 1
    end;
    let bg0 = bg_work dbs and w0 = Gc.minor_words () in
    Tracer.enter p.tracer sp_step ~req:p.steps;
    let t0 = now_ns () in
    ignore (Server.step env.server ~timeout:0.0);
    let dt = now_ns () - t0 in
    Tracer.leave p.tracer;
    p.steps <- p.steps + 1;
    p.step_ns <- p.step_ns + dt;
    p.minor_words <- p.minor_words +. (Gc.minor_words () -. w0);
    if bg_work dbs <> bg0 then begin
      for j = first to p.sent - 1 do
        if p.s_put.(j) then p.stalled_puts <- p.stalled_puts + 1
      done;
      p.stall_ns <- p.stall_ns + dt
    end

(* ---------------- the measured loop ---------------- *)

type outcome = { d : counters; failed : int; cmds : int; wire_bytes : int }

let run_loop env ~vs ~zipf ~ops ~(rounds : rounds) ~probe =
  let dbs = dbs env.map in
  let failed = ref 0 and issued = ref 0 and completed = ref 0 in
  let issue c =
    let i = Zipf.next zipf c.st in
    let put = Random.State.int c.st 100 < 25 in
    let slot = (c.head + c.inflight) mod window in
    let ver = if put then c.versions.(i) + 1 else c.versions.(i) in
    if put then begin
      (* The connection executes in order, so later GETs must see it. *)
      c.versions.(i) <- ver;
      encode_command c.out [ "PUT"; key i; value_of vs c.ti i ver ]
    end
    else encode_command c.out [ "GET"; key i ];
    c.f_put.(slot) <- put;
    c.f_id.(slot) <- i;
    c.f_ver.(slot) <- ver;
    c.f_t0.(slot) <- now_ns ();
    c.inflight <- c.inflight + 1;
    incr issued;
    match probe with
    | Some p ->
      let j = p.sent in
      p.s_ti.(j) <- c.ti;
      p.s_put.(j) <- put;
      p.s_id.(j) <- i;
      p.s_ver.(j) <- ver;
      p.sent <- j + 1
    | None -> ()
  in
  let on_reply c reply =
    if c.inflight = 0 then raise (Bad_reply "reply without a request");
    let slot = c.head in
    let dt = now_ns () - c.f_t0.(slot) in
    let put = c.f_put.(slot) in
    c.head <- (slot + 1) mod window;
    c.inflight <- c.inflight - 1;
    incr completed;
    Recorder.add rounds.lat ~cls:(if put then cls_put else cls_get) dt;
    let ok =
      match reply with
      | Simple "OK" -> put
      | Bulk v -> (not put) && v = value_of vs c.ti c.f_id.(slot) c.f_ver.(slot)
      | Simple _ | Err _ | Nil -> false
    in
    if not ok then begin
      incr failed;
      report_failure
        (Printf.sprintf "%s %s/%s: unexpected reply" (if put then "PUT" else "GET")
           tenants.(c.ti) (key c.f_id.(slot)))
    end
  in
  let receive c =
    fill_in c;
    let rec go pos =
      match parse_reply c.inbuf ~pos ~len:c.in_len with
      | Some (r, next) ->
        on_reply c r;
        go next
      | None -> consume c pos
    in
    go 0
  in
  let s0 = Server.stats env.server and c0 = snapshot dbs in
  let idle = ref 0 in
  (* A round ends at the first receive that completes its share of the
     commands; the few completions past the share count in it. *)
  let per_round = ops / n_rounds in
  let round_t0 = ref (now_ns ()) and round_base = ref 0 in
  while !completed < ops do
    let before = !completed in
    Array.iteri
      (fun ci c ->
        while c.inflight < window && !issued < ops do
          issue c
        done;
        traced probe sp_send ~req:ci (fun () -> send c))
      env.conns;
    step env ~dbs probe;
    Array.iteri (fun ci c -> traced probe sp_recv ~req:ci (fun () -> receive c)) env.conns;
    if !completed - !round_base >= per_round || !completed = ops then begin
      let t = now_ns () in
      end_round rounds ~ops:(!completed - !round_base) ~elapsed_ns:(t - !round_t0);
      round_base := !completed;
      round_t0 := now_ns ()
    end;
    if !completed = before then begin
      incr idle;
      if !idle > 1_000_000 then failwith "resp-pipelined: the server stopped replying"
    end
    else idle := 0
  done;
  let s1 = Server.stats env.server in
  {
    d = delta (snapshot dbs) c0;
    failed = !failed;
    cmds = s1.Server.commands - s0.Server.commands;
    wire_bytes = s1.Server.bytes_in - s0.Server.bytes_in + (s1.Server.bytes_out - s0.Server.bytes_out);
  }

(* Replay the traced stream, batch by batch, straight into a freshly
   built shard map: the engine's share of the server's step time. *)
let replay ~vs p =
  let map = open_store ~vs in
  let total = ref 0 in
  let first = ref 0 in
  for b = 0 to p.batches - 1 do
    let t0 = now_ns () in
    for j = !first to p.batch_end.(b) - 1 do
      let k = stored p.s_ti.(j) p.s_id.(j) in
      if p.s_put.(j) then begin
        Tracer.enter p.tracer sp_apply ~req:j;
        let wb = Write_batch.create () in
        Write_batch.put wb ~key:k (value_of vs p.s_ti.(j) p.s_id.(j) p.s_ver.(j));
        Shard_map.apply_grouped map [ (Shard_map.shard_of_key map k, wb) ];
        Tracer.leave p.tracer
      end
      else begin
        Tracer.enter p.tracer sp_multi_get ~req:j;
        ignore (Shard_map.multi_get map [ k ]);
        Tracer.leave p.tracer
      end
    done;
    total := !total + (now_ns () - t0);
    first := p.batch_end.(b)
  done;
  Shard_map.close_all map;
  !total

let notes ~ops =
  [
    ("workload", "resp-pipelined");
    ("ops", string_of_int ops);
    ( "preloaded_keys",
      Printf.sprintf "%d (%d tenants x %d)" (Array.length tenants * keys_per_tenant)
        (Array.length tenants) keys_per_tenant );
    ("value_bytes", Printf.sprintf "%d..%d" vmin (vmin + vspan - 1));
    ("shards", string_of_int shards);
    ("block_cache_mib_per_shard", Printf.sprintf "%.1f" (mib config.Config.block_cache_bytes));
    ("mix", "75% GET, 25% PUT, zipf 0.99 per tenant");
    ("clients", Printf.sprintf "%d connections x window %d, closed loop" (Array.length tenants) window);
    ("flush_policy", "WAL on, no sync per write; flush and compaction inline in Server.step");
    ("config", describe_config config);
  ]

let run ~seed ~seconds ~trace ~corrupt ~dir =
  let ops = seconds * ops_per_s / n_rounds * n_rounds in
  let vs = values ~seed ~vmin ~vspan in
  let zipf = Zipf.create ~theta:0.99 ~n:keys_per_tenant ~seed in
  (* A round holds its share plus at most one receive's overshoot. *)
  let rounds = Common.rounds ~capacity:((ops / n_rounds) + (window * Array.length tenants)) in
  let corrupt_models env =
    if corrupt then
      Array.iter (fun c -> Array.iteri (fun i v -> c.versions.(i) <- v + 1) c.versions) env.conns
  in
  if not trace then begin
    let setup_s, env = timed_setup ~discard:close (fun () -> build ~seed ~vs ~dir) in
    corrupt_models env;
    let o = run_loop env ~vs ~zipf ~ops ~rounds ~probe:None in
    let peak = peak_heap_mb () in
    let e2e =
      round_metrics rounds
      @ [
          m "write_amp" "ratio" (ratio o.d.device_bytes_written o.d.user_bytes);
          m "space_amp" "ratio" (space_amp env ~vs);
          m ~samples:setup_reps "setup_s" "s" setup_s;
          m "peak_heap_mb" "MB" peak;
          m ~samples:ops "failed_frac" "ratio" (ratio o.failed ops);
        ]
    in
    close env;
    { attempted = ops; failed = o.failed; e2e; layers = []; info = notes ~ops; spans = None }
  end
  else begin
    (* Untraced first, for the overhead ratio, then the traced run on an
       identically built store, then the replay on a third. *)
    let env = build ~seed ~vs ~dir in
    ignore (run_loop env ~vs ~zipf ~ops ~rounds ~probe:None);
    let untraced_ops_s = median_rate rounds in
    close env;
    reset_rounds rounds;
    let p = probe ~ops in
    let env = build ~seed ~vs ~dir in
    corrupt_models env;
    let o = run_loop env ~vs ~zipf ~ops ~rounds ~probe:(Some p) in
    close env;
    let replay_ns = replay ~vs p in
    let layers =
      Layers.metrics
        {
          Layers.ops;
          gets = rounds.totals.(cls_get);
          absent_gets = 0;
          puts = rounds.totals.(cls_put);
          scans = 0;
          get_pages = o.d.user_pages_read;
          scan_pages = 0;
          stalled_puts = p.stalled_puts;
          stall_ns = p.stall_ns;
          minor_words = p.minor_words;
          d = o.d;
          server =
            Some
              {
                Layers.steps = p.steps;
                cmds = o.cmds;
                step_ns = p.step_ns;
                replay_ns;
                wire_bytes = o.wire_bytes;
              };
          traced_ops_s = median_rate rounds;
          untraced_ops_s;
        }
    in
    { attempted = ops; failed = o.failed; e2e = []; layers; info = notes ~ops; spans = Some p.tracer }
  end
