type 'a state = Pending | Done of 'a | Failed of exn

type 'a future = {
  fm : Ordered_mutex.t;
  fc : Condition.t;
  mutable state : 'a state;
}

type t = {
  m : Ordered_mutex.t;
  work_ready : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable stopped : bool;
  mutable workers : unit Domain.t array;
}

let fulfill fut v =
  Ordered_mutex.with_lock fut.fm @@ fun () ->
  fut.state <- v;
  Condition.broadcast fut.fc

(* Take the next task (or None once stopped and drained) under the
   queue lock, then run it outside: tasks acquire engine locks of every
   rank, so nothing may be held while they execute. *)
let rec worker_loop pool () =
  let task =
    Ordered_mutex.with_lock pool.m @@ fun () ->
    while Queue.is_empty pool.queue && not pool.stopped do
      Ordered_mutex.wait pool.work_ready pool.m
    done;
    Queue.take_opt pool.queue
  in
  match task with
  | Some task ->
    task ();
    worker_loop pool ()
  | None -> ()

let create ~size =
  if size < 0 then invalid_arg "Domain_pool.create: negative size";
  let pool =
    {
      m = Ordered_mutex.create ~rank:Ordered_mutex.Rank.domain_pool ~name:"domain_pool.queue";
      work_ready = Condition.create ();
      queue = Queue.create ();
      stopped = false;
      workers = [||];
    }
  in
  pool.workers <- Array.init size (fun _ -> Domain.spawn (worker_loop pool));
  pool

let size t = Array.length t.workers

let ensure_size t n =
  if n < 0 then invalid_arg "Domain_pool.ensure_size: negative size";
  let to_spawn =
    Ordered_mutex.with_lock t.m (fun () ->
        if t.stopped then invalid_arg "Domain_pool.ensure_size: pool is shut down";
        n - Array.length t.workers)
  in
  (* Spawning outside the lock is safe: only the spawner mutates
     [workers], and a concurrent [ensure_size] to a smaller target is a
     no-op. Racing growers are not supported (the engine grows the
     singleton lane from [Scheduler.create] only). *)
  if to_spawn > 0 then
    t.workers <- Array.append t.workers (Array.init to_spawn (fun _ -> Domain.spawn (worker_loop t)))

let run_into fut f =
  let v = match f () with r -> Done r | exception e -> Failed e in
  fulfill fut v

let submit_future t f =
  let fut =
    {
      fm = Ordered_mutex.create ~rank:Ordered_mutex.Rank.future ~name:"domain_pool.future";
      fc = Condition.create ();
      state = Pending;
    }
  in
  if Array.length t.workers = 0 then run_into fut f
  else begin
    Ordered_mutex.with_lock t.m (fun () ->
        if t.stopped then invalid_arg "Domain_pool.submit: pool is shut down";
        Queue.add (fun () -> run_into fut f) t.queue;
        Condition.signal t.work_ready)
  end;
  fut

let await fut =
  let st =
    Ordered_mutex.with_lock fut.fm @@ fun () ->
    while (match fut.state with Pending -> true | Done _ | Failed _ -> false) do
      Ordered_mutex.wait fut.fc fut.fm
    done;
    fut.state
  in
  match st with
  | Done v -> v
  | Failed e -> raise e
  | Pending -> assert false

let submit t f = ignore (submit_future t f)

let map_list t f xs =
  let futs = List.map (fun x -> submit_future t (fun () -> f x)) xs in
  (* Settle every future before re-raising, so an early failure does not
     leave workers racing tasks the caller has abandoned. *)
  let results =
    List.map (fun fut -> match await fut with v -> Ok v | exception e -> Error e) futs
  in
  List.map (function Ok v -> v | Error e -> raise e) results

let shutdown t =
  let already_stopped =
    Ordered_mutex.with_lock t.m (fun () ->
        if t.stopped then true
        else begin
          t.stopped <- true;
          Condition.broadcast t.work_ready;
          false
        end)
  in
  if not already_stopped then Array.iter Domain.join t.workers
