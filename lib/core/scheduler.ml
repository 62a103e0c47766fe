(* Background flush/compaction scheduler: a multi-worker lane with a
   commit sequencer.

   One process-wide background lane — a singleton [Domain_pool], grown
   to the largest [workers] any open db asked for — executes background
   jobs for every open db. A single shared pool (rather than domains per
   db) keeps domain count bounded no matter how many dbs a process
   churns through (the crash harness opens hundreds without closing
   them).

   Determinism no longer comes from serial execution; it comes from
   splitting every job into two phases:

     execute : unit -> (unit -> unit)

   The heavy phase (merge I/O, run writing) runs on any pool worker,
   concurrently with other non-conflicting jobs. It returns a *commit
   thunk* — the version-edit installation — which the scheduler applies
   strictly in commit order: a job that finishes out of order parks its
   thunk until every earlier ticket has committed.

   Commit order is an explicit ticket list, not submission time: the
   writer's submissions append, but submissions made from inside the
   post-commit hook insert at the head of the uncommitted queue, right
   after the ticket that just committed. That is what makes the edit
   sequence worker-count-independent *and* identical to the inline
   scheduler: inline runs its compaction cascade synchronously at each
   flush point, before the next flush, so a background pick made at a
   flush's commit must also apply before any flush that happens to be
   queued behind it. Front-insertion is sound because the only tickets
   it overtakes are flushes (and maintenance), whose effect does not
   depend on the version: a flush's edit adds a brand-new L0 run and
   its group id is allocated at commit time, in commit order.

   Two jobs may run concurrently only if their keys do not conflict:
   jobs at the same level always conflict, jobs at adjacent levels
   conflict when their key ranges overlap, and a [Flush] behaves as a
   full-range job at level -1 (so flushes serialize with each other and
   with L0 compactions, but run alongside deeper merges). [Maintenance]
   jobs (scrubs) conflict with everything — they were serialized on the
   old lane and stay that way.

   The commit sequencer is driven by a committer token: the worker that
   completes the ticket at the commit head takes the token, drains every
   consecutively-parked thunk (releasing the scheduler lock around each
   commit — commits acquire engine locks of lower rank), runs the
   owner's post-commit hook (the compaction picker), and drops the token
   when the head is no longer ready.

   Failure semantics: the first exception latches, exactly as on the old
   lane; in addition every ticket behind the failing one in commit order
   is discarded — its parked edit is dropped, not applied over a latched
   failure — while earlier tickets commit normally. Discarded tickets
   still drain through the sequencer, so [quiesce]/[shutdown] cannot
   deadlock on a parked edit.

   With [workers = 0] the lane has zero width: a size-0 pool runs each
   dispatched ticket on the submitting domain, which then takes the
   committer token and applies the commit and every follow-up pick
   before [submit] returns — same tickets, sequencer and hook. So
   dispatch happens with [t.m] released: the ticket takes [t.m].

   Module-level state (the lane) is on the lint R4 allowlist; see the
   rationale above. *)

module Ordered_mutex = Lsm_util.Ordered_mutex
module Domain_pool = Lsm_util.Domain_pool
module Histogram = Lsm_util.Histogram

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* The singleton lane, created on first Background open and grown when a
   db asks for more workers than it has. [lazy] forcing is not
   domain-safe, so creation is guarded by a mutex of scheduler rank
   (nothing else is held when a db is opened). The lane is never shut
   down mid-process — workers idle on a condition — only at exit. *)
let lane_mutex = Ordered_mutex.create ~rank:Ordered_mutex.Rank.scheduler ~name:"scheduler.lane"
let lane = ref None

let get_lane ~min_size () =
  Ordered_mutex.with_lock lane_mutex @@ fun () ->
  match !lane with
  | Some pool ->
    Domain_pool.ensure_size pool min_size;
    pool
  | None ->
    let pool = Domain_pool.create ~size:min_size in
    lane := Some pool;
    at_exit (fun () -> Domain_pool.shutdown pool);
    pool

type key =
  | Flush
  | Compact of { level : int; lo : string; hi : string }
  | Maintenance

type state =
  | Queued
  | Running of int (* worker slot *)
  | Parked of (unit -> unit) (* finished out of order; commit thunk waits its turn *)
  | Discarded (* predecessor failed; the edit must never be applied *)

type ticket = {
  key : key;
  input_bytes : int;
  execute : unit -> unit -> unit;
  mutable state : state;
  mutable doomed : bool; (* set when an earlier ticket failed while this one ran *)
}

type t = {
  m : Ordered_mutex.t;
  idle : Condition.t; (* broadcast on every commit-head advance and token drop *)
  pool : Domain_pool.t;
  workers : int;
  cmp : string -> string -> int;
  stats : Stats.t;
  mutable order : ticket list; (* uncommitted tickets, commit order, head first *)
  mutable running : int;
  slots : bool array; (* per-worker-slot busy flags *)
  mutable committing : bool; (* committer token *)
  mutable unapplied : int; (* input bytes of uncommitted tickets (backpressure debt) *)
  mutable failed : exn option;
  mutable on_commit : unit -> unit;
  mutable hook_domain : Domain.id option; (* committer domain while the hook runs *)
  mutable hook_pos : int; (* insertion cursor for submissions from the hook *)
}

let create ?(workers = 1) ?(cmp = String.compare) ?stats () =
  if workers < 0 then invalid_arg "Scheduler.create: workers < 0";
  let stats = match stats with Some s -> s | None -> Stats.create () in
  Stats.provision_workers stats workers;
  {
    m = Ordered_mutex.create ~rank:Ordered_mutex.Rank.scheduler ~name:"scheduler";
    idle = Condition.create ();
    pool = (if workers = 0 then Domain_pool.create ~size:0 else get_lane ~min_size:workers ());
    workers;
    cmp;
    stats;
    order = [];
    running = 0;
    slots = Array.make (max 1 workers) false; (* width 0 runs one ticket: the submitter's *)
    committing = false;
    unapplied = 0;
    failed = None;
    on_commit = (fun () -> ());
    hook_domain = None;
    hook_pos = 0;
  }

let workers t = t.workers
let set_on_commit t f = t.on_commit <- f

let ranges_overlap cmp (lo1, hi1) (lo2, hi2) = cmp lo1 hi2 <= 0 && cmp lo2 hi1 <= 0

(* Conflict relation: same level always conflicts; adjacent levels
   conflict iff the key ranges overlap (a merge touches its source level
   and the next one, so level-disjointness by >= 2 guarantees disjoint
   file sets). A flush is a full-range job at level -1: it conflicts
   with other flushes and with any L0 compaction. *)
let conflicts cmp a b =
  match (a, b) with
  | Maintenance, _ | _, Maintenance -> true
  | Flush, Flush -> true
  | Flush, Compact { level; _ } | Compact { level; _ }, Flush -> level = 0
  | Compact ca, Compact cb ->
    ca.level = cb.level
    || (abs (ca.level - cb.level) = 1 && ranges_overlap cmp (ca.lo, ca.hi) (cb.lo, cb.hi))

let is_discarded tk = match tk.state with Discarded -> true | _ -> false

let parked_count_locked t =
  List.fold_left
    (fun n tk -> match tk.state with Parked _ -> n + 1 | _ -> n)
    0 t.order

let latch_locked t e = match t.failed with None -> t.failed <- Some e | Some _ -> ()

let doom tk =
  tk.doomed <- true;
  match tk.state with
  | Queued | Parked _ -> tk.state <- Discarded
  | Running _ | Discarded -> ()

(* First failure: latch it, and doom every ticket behind the failing one
   in commit order. Queued and parked successors flip to [Discarded]
   immediately; running ones carry the [doomed] mark and discard
   themselves on completion. *)
let fail_locked t tk e =
  latch_locked t e;
  tk.state <- Discarded;
  let rec after = function
    | [] -> ()
    | x :: rest -> if x == tk then List.iter doom rest else after rest
  in
  after t.order;
  Condition.broadcast t.idle

let retire_locked t tk =
  (match t.order with
  | head :: rest when head == tk -> t.order <- rest
  | _ -> t.order <- List.filter (fun x -> x != tk) t.order);
  t.unapplied <- t.unapplied - tk.input_bytes;
  Condition.broadcast t.idle

let take_slot_locked t =
  let rec go i =
    if t.slots.(i) then go (i + 1)
    else begin
      t.slots.(i) <- true;
      i
    end
  in
  go 0

(* A queued ticket may dispatch only when no earlier undiscarded ticket
   in commit order conflicts with it: its inputs were captured against
   the version as of its submission point, which is valid exactly until
   a conflicting predecessor rewrites the overlapping levels. Returns
   the tickets it marked running, for {!start} once [t.m] is released. *)
let rec dispatch_locked t =
  if t.running >= Array.length t.slots then []
  else begin
    let rec find seen = function
      | [] -> None
      | tk :: rest ->
        if is_discarded tk then find seen rest
        else if
          (match tk.state with Queued -> true | _ -> false)
          && not (List.exists (fun k -> conflicts t.cmp k tk.key) seen)
        then Some tk
        else find (tk.key :: seen) rest
    in
    match find [] t.order with
    | None -> []
    | Some tk ->
      let slot = take_slot_locked t in
      tk.state <- Running slot;
      t.running <- t.running + 1;
      (tk, slot) :: dispatch_locked t
  end

(* Zero width runs each ticket here, cascade included: take the tail
   first, as [List.iter]'s live cons cell would keep the job (a whole
   memtable, for a flush) reachable throughout. *)
let rec start t = function
  | [] -> ()
  | dispatched ->
    let rest = List.tl dispatched in
    (match List.hd dispatched with
    | tk, slot -> ignore (Domain_pool.submit t.pool (fun () -> run_ticket t tk slot)));
    start t rest

and run_ticket t tk slot =
  let t0 = now_ns () in
  let outcome = match tk.execute () with commit -> Ok commit | exception e -> Error e in
  let busy = now_ns () - t0 in
  let dispatched, become_committer =
    Ordered_mutex.with_lock t.m (fun () ->
        t.slots.(slot) <- false;
        t.running <- t.running - 1;
        (if slot < Array.length t.stats.Stats.sched_workers then begin
           let w = t.stats.Stats.sched_workers.(slot) in
           w.Stats.w_jobs <- w.Stats.w_jobs + 1;
           w.Stats.w_busy_ns <- w.Stats.w_busy_ns + busy;
           w.Stats.w_bytes <- w.Stats.w_bytes + tk.input_bytes
         end);
        (match outcome with
        | Ok commit ->
          if tk.doomed then tk.state <- Discarded
          else begin
            tk.state <- Parked commit;
            (match t.order with
            | head :: _ when head != tk ->
              t.stats.Stats.sched_edits_parked <- t.stats.Stats.sched_edits_parked + 1;
              Histogram.add t.stats.Stats.sched_parked_edits (parked_count_locked t)
            | _ -> ())
          end
        | Error e -> fail_locked t tk e);
        let dispatched = dispatch_locked t in
        if (not t.committing) && head_ready_locked t then begin
          t.committing <- true;
          (dispatched, true)
        end
        else (dispatched, false))
  in
  start t dispatched;
  if become_committer then committer_loop t

and head_ready_locked t =
  match t.order with
  | { state = Parked _ | Discarded; _ } :: _ -> true
  | _ -> false

(* The committer drains the head: skip discarded tickets, apply parked
   commit thunks in commit order, run the owner's post-commit hook
   (which picks and front-inserts follow-up compactions), and drop the
   token once the head is queued/running/absent. Commit thunks and the
   hook run with no scheduler lock held — they acquire engine locks of
   lower rank (buffers, version pins, table cache, device). While the
   hook runs, [hook_domain]/[hook_pos] mark the committer so that
   [submit] can recognize hook submissions and sequence them at the
   front; only the token holder runs hooks, so the mark is exclusive. *)
and committer_loop t =
  let action =
    Ordered_mutex.with_lock t.m (fun () ->
        let rec skip () =
          match t.order with
          | ({ state = Discarded; _ } as tk) :: _ ->
            retire_locked t tk;
            skip ()
          | ({ state = Parked commit; _ } as tk) :: _ -> `Commit (tk, commit)
          | _ ->
            t.committing <- false;
            Condition.broadcast t.idle;
            `Stop
        in
        skip ())
  in
  match action with
  | `Stop -> ()
  | `Commit (tk, commit) ->
    (match commit () with
    | () ->
      start t
        (Ordered_mutex.with_lock t.m (fun () ->
             retire_locked t tk;
             t.hook_domain <- Some (Domain.self ());
             t.hook_pos <- 0;
             dispatch_locked t));
      let hook_failure = match t.on_commit () with () -> None | exception e -> Some e in
      Ordered_mutex.with_lock t.m (fun () ->
          t.hook_domain <- None;
          match hook_failure with
          | None -> ()
          | Some e ->
            (* A failing pick hook poisons everything still queued: picks
               made against the pre-failure version may no longer be
               valid. *)
            latch_locked t e;
            List.iter doom t.order;
            Condition.broadcast t.idle)
    | exception e ->
      start t
        (Ordered_mutex.with_lock t.m (fun () ->
             fail_locked t tk e;
             retire_locked t tk;
             dispatch_locked t)));
    committer_loop t

let take_failure t =
  Ordered_mutex.with_lock t.m (fun () ->
      match t.failed with
      | Some e ->
        t.failed <- None;
        Some e
      | None -> None)

let raise_if_failed t = match take_failure t with Some e -> raise e | None -> ()

(* Submissions from the post-commit hook are sequenced at the insertion
   cursor — directly after the commit that triggered the pick, ahead of
   every already-queued ticket — and consecutive hook submissions keep
   their relative order. Everyone else appends. A zero-width lane
   delivers the failure of the job it just ran to this call. *)
let submit t ~key ~input_bytes ~execute =
  raise_if_failed t;
  start t
  @@ Ordered_mutex.with_lock t.m (fun () ->
      let tk = { key; input_bytes; execute; state = Queued; doomed = false } in
      (match t.hook_domain with
      | Some d when d = Domain.self () ->
        let rec ins n l =
          if n <= 0 then tk :: l
          else match l with [] -> [ tk ] | x :: rest -> x :: ins (n - 1) rest
        in
        t.order <- ins t.hook_pos t.order;
        t.hook_pos <- t.hook_pos + 1
      | _ -> t.order <- t.order @ [ tk ]);
      t.unapplied <- t.unapplied + input_bytes;
      Histogram.add t.stats.Stats.sched_queue_depth (List.length t.order);
      dispatch_locked t);
  if t.workers = 0 then raise_if_failed t

let enqueue t job =
  submit t ~key:Maintenance ~input_bytes:0
    ~execute:
      (fun () ->
        job ();
        fun () -> ())

let conflicts_pending t key =
  Ordered_mutex.with_lock t.m (fun () ->
      List.exists
        (fun p -> (not (is_discarded p)) && p.key <> Flush && conflicts t.cmp p.key key)
        t.order)

let pending t = Ordered_mutex.with_lock t.m (fun () -> List.length t.order)
let unapplied_bytes t = Ordered_mutex.with_lock t.m (fun () -> t.unapplied)

(* Backpressure stop: block until [pred] (called with [t.m] held) turns
   true. The loop also exits when the scheduler drains completely or a
   job has failed — in either case nothing further will change the
   predicate's inputs, so waiting on would deadlock. [committing] counts
   as not-drained: the post-commit hook may be about to enqueue. *)
let wait_until t pred =
  Ordered_mutex.with_lock t.m (fun () ->
      while
        (not (pred ~pending:(List.length t.order) ~unapplied_bytes:t.unapplied))
        && (t.order <> [] || t.committing)
        && match t.failed with Some _ -> false | None -> true
      do
        Ordered_mutex.wait t.idle t.m
      done);
  raise_if_failed t

let drain t =
  Ordered_mutex.with_lock t.m (fun () ->
      while t.order <> [] || t.committing do
        Ordered_mutex.wait t.idle t.m
      done)

let quiesce t =
  drain t;
  raise_if_failed t

(* Close path: drain without raising (close must succeed even after a
   planned crash) — the failure latch is cleared, not reported. *)
let shutdown t =
  drain t;
  Ordered_mutex.with_lock t.m (fun () -> t.failed <- None)
