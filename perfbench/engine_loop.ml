(* One client driving one engine directly: the loop shared by the
   hot-get and cold-mixed workloads. Every call is timed on the
   monotonic clock, every result is checked against the client's model,
   and in the traced run every call is wrapped in a span and attributed
   the counter movement it caused. *)

open Common

(* Span names recorded by this loop. *)
let span_names = [| "core.get"; "core.put"; "core.scan" |]
let sp_get = 0
let sp_put = 1
let sp_scan = 2

(* What the traced run attributes to single calls. *)
type probe = {
  tracer : Tracer.t;
  mutable absent_gets : int;
  mutable get_pages : int;
  mutable scan_pages : int;
  mutable stalled_puts : int;
  mutable stall_ns : int;
  mutable minor_words : float;
}

let probe ~capacity =
  {
    tracer = Tracer.create ~names:span_names ~capacity;
    absent_gets = 0;
    get_pages = 0;
    scan_pages = 0;
    stalled_puts = 0;
    stall_ns = 0;
    minor_words = 0.;
  }

type t = {
  db : Db.t;
  vs : values;
  versions : int array;  (** the model: version per key index, -1 = absent *)
  rounds : rounds;  (** allocated before the store is built *)
  mutable ops : int;
  mutable failed : int;
  mutable recording : bool;  (** false during warm-up *)
  probe : probe option;
}

let user_pages db = Io_stats.pages_read ~cls:Io_stats.C_user_read (Db.io_stats db)

let bg_work db =
  let s = Db.stats db in
  s.Stats.flushes + s.Stats.compactions

(* [call t sp f] runs one engine call: timed, traced when probing, and
   returns [Error] instead of raising so the loop can count it. Warm-up
   calls are never traced. *)
let call t sp f =
  match t.probe with
  | Some p when t.recording ->
    let pages0 = user_pages t.db and bg0 = bg_work t.db and w0 = Gc.minor_words () in
    Tracer.enter p.tracer sp ~req:t.ops;
    let t0 = now_ns () in
    let r = try Ok (f ()) with e -> Error e in
    let dt = now_ns () - t0 in
    Tracer.leave p.tracer;
    p.minor_words <- p.minor_words +. (Gc.minor_words () -. w0);
    let pages = user_pages t.db - pages0 in
    if sp = sp_get then p.get_pages <- p.get_pages + pages
    else if sp = sp_scan then p.scan_pages <- p.scan_pages + pages
    else if bg_work t.db <> bg0 then begin
      p.stalled_puts <- p.stalled_puts + 1;
      p.stall_ns <- p.stall_ns + dt
    end;
    (r, dt)
  | _ ->
    let t0 = now_ns () in
    let r = try Ok (f ()) with e -> Error e in
    (r, now_ns () - t0)

let record t cls dt ~ok ~what =
  if t.recording then begin
    Recorder.add t.rounds.lat ~cls dt;
    t.ops <- t.ops + 1;
    if not ok then begin
      t.failed <- t.failed + 1;
      report_failure (what ())
    end
  end
  else if not ok then failwith ("warm-up operation failed: " ^ what ())

let describe op k = function
  | Ok _ -> Printf.sprintf "%s %s: result disagrees with the model" op k
  | Error e -> Printf.sprintf "%s %s: %s" op k (Printexc.to_string e)

let expected t i = if t.versions.(i) < 0 then None else Some (value t.vs (key i) t.versions.(i))

let get t i =
  let k = key i in
  let r, dt = call t sp_get (fun () -> Db.get t.db k) in
  let ok = match r with Ok got -> got = expected t i | Error _ -> false in
  (match (t.probe, r) with
  | Some p, Ok None when t.recording -> p.absent_gets <- p.absent_gets + 1
  | _ -> ());
  record t cls_get dt ~ok ~what:(fun () -> describe "get" k r)

let put t i =
  let ver = t.versions.(i) + 1 in
  let v = value t.vs (key i) ver in
  let k = key i in
  let r, dt = call t sp_put (fun () -> Db.put t.db ~key:k v) in
  let ok = Result.is_ok r in
  if ok then t.versions.(i) <- ver;
  record t cls_put dt ~ok ~what:(fun () -> describe "put" k r)

(* A scan of [len] rows from key index [i] must return exactly the next
   [len] present keys of the model, in order, with their latest values. *)
let scan t i ~len =
  let lo = key i in
  let r, dt = call t sp_scan (fun () -> Db.scan t.db ~limit:len ~lo ~hi:None ()) in
  let n = Array.length t.versions in
  let rec matches j rows taken =
    if taken = len || j >= n then rows = []
    else if t.versions.(j) < 0 then matches (j + 1) rows taken
    else
      match rows with
      | (k, v) :: rest -> k = key j && Some v = expected t j && matches (j + 1) rest (taken + 1)
      | [] -> false
  in
  let ok = match r with Ok rows -> matches i rows 0 | Error _ -> false in
  record t cls_scan dt ~ok ~what:(fun () -> describe "scan" lo r)

(* Run [n_rounds] rounds of [ops_per_round] operations; returns the
   counter movement over all of them. *)
let measure t ~ops_per_round step =
  t.recording <- true;
  let c0 = snapshot [ t.db ] in
  for _ = 1 to n_rounds do
    let t0 = now_ns () in
    for _ = 1 to ops_per_round do
      step ()
    done;
    end_round t.rounds ~ops:ops_per_round ~elapsed_ns:(now_ns () - t0)
  done;
  delta (snapshot [ t.db ]) c0

let create ~db ~vs ~versions ~rounds ~probe =
  { db; vs; versions; rounds; ops = 0; failed = 0; recording = false; probe }
