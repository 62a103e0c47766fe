(* Ranked mutex with optional runtime lock-order checking ("lockdep").

   Every lock in the engine belongs to a lock class with an explicit
   integer rank; the discipline is that a domain may only acquire locks
   in strictly increasing rank order. Violations — acquiring downward,
   acquiring a second lock of the same rank, or re-entering a held
   mutex — are exactly the shapes that deadlock once two domains
   interleave, so when checking is enabled ([LSM_LOCKDEP=1] in the
   environment, or {!set_enforce}) they raise {!Violation} at the
   acquisition site, turning a potential hang into a deterministic
   test failure. With checking off the wrapper costs one load per
   acquisition.

   This module is the one blessed home of raw [Mutex.lock]/[unlock] in
   the tree — everything else goes through {!with_lock} or {!protect}
   (enforced by lint rule R1) — and its module-level state (the
   enforcement flag) is the documented R4 allowlist entry. *)

module Rank = struct
  let db_buffers = 8
  let db_snapshots = 9
  let db = 10
  let version_pins = 12
  let table_cache = 20
  let block_cache_shard = 30
  let device = 40
  let stats = 50
  let scheduler = 55
  let domain_pool = 60
  let future = 70
end

type t = { m : Mutex.t; rank : int; name : string }

exception Violation of string

(* Read on every acquisition from any domain, written only by tests and
   startup: a relaxed atomic, never part of a get/set cycle. *)
let enforce =
  Atomic.make
    (match Sys.getenv_opt "LSM_LOCKDEP" with
    | Some ("1" | "true" | "on" | "yes") -> true
    | Some _ | None -> false)

let set_enforce b = Atomic.set enforce b
let enabled () = Atomic.get enforce

(* Graph recording is independent of enforcement: with enforcement off
   (production-shaped runs) the held stack is still maintained and every
   observed held->acquired pair lands in the per-run edge table, so two
   acquisition orders that are each acyclic in isolation — and that
   rank checking would only catch if both interleaved in one run under
   [enforce] — still meet in the merged on-disk graph. *)
let recording = Atomic.make false

(* Per-domain stack of currently held locks, innermost first. Only the
   owning domain reads or writes its own stack, so no synchronization
   is needed beyond DLS itself. *)
let held_key : t list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let create ~rank ~name =
  if rank < 0 then invalid_arg "Ordered_mutex.create: negative rank";
  { m = Mutex.create (); rank; name }

let violation fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt

(* Runs before [Mutex.lock], so a raise leaves nothing held. *)
let check_acquire t held =
  if List.exists (fun h -> h == t) !held then
    violation "lockdep: re-entrant acquisition of %s (rank %d)" t.name t.rank;
  match !held with
  | [] -> ()
  | top :: _ ->
    if t.rank <= top.rank then
      violation "lockdep: acquired %s (rank %d) while holding %s (rank %d); ranks must increase"
        t.name t.rank top.name top.rank

(* ---------------- acquired-before graph recorder ---------------- *)

(* RocksDB-style lockdep graph: while recording, every acquisition with
   a non-empty held stack appends (held.name -> acquired.name) edges —
   all held locks, not just the top, so the relation matches the static
   one lsm-lint infers — each with one sample stack from its first
   sighting. At process exit the per-run edges are merged into a
   persisted graph file (read-union-write, atomic tmp+rename), and any
   cycle in the *merged* graph is reported on stderr: two runs that
   each witnessed only one side of an inversion still produce a
   deterministic report. `lsm-lint --lockdep-graph FILE` turns the same
   cycles into a failing exit code for CI. *)
module Graph = struct
  type edge = { src : string; dst : string; stack : string list }

  (* The recorder's own state is guarded by a raw mutex: this file is
     the blessed R1 exemption, and an Ordered_mutex here would recurse
     into the recorder. *)
  let g_m = Mutex.create ()
  let run_edges : (string * string, string list) Hashtbl.t = Hashtbl.create 64
  let path = ref None
  let exit_hook_installed = ref false

  let record held t =
    let stack = List.rev_map (fun h -> h.name) held @ [ t.name ] in
    Mutex.lock g_m;
    List.iter
      (fun h ->
        let key = (h.name, t.name) in
        if not (Hashtbl.mem run_edges key) then Hashtbl.add run_edges key stack)
      held;
    Mutex.unlock g_m

  let edges () =
    Mutex.lock g_m;
    let es =
      Hashtbl.fold (fun (src, dst) stack acc -> { src; dst; stack } :: acc) run_edges []
    in
    Mutex.unlock g_m;
    List.sort compare es

  let reset_run () =
    Mutex.lock g_m;
    Hashtbl.reset run_edges;
    Mutex.unlock g_m

  let header = "# lsm-lockdep-graph v1"

  let load file =
    match open_in_bin file with
    | exception Sys_error _ -> []
    | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let es = ref [] in
          (try
             while true do
               match String.split_on_char '\t' (input_line ic) with
               | [ "edge"; src; dst; stack ] ->
                 es := { src; dst; stack = String.split_on_char ',' stack } :: !es
               | _ -> ()
             done
           with End_of_file -> ());
          List.rev !es)

  let save file es =
    let tmp = file ^ ".tmp" in
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (header ^ "\n");
        List.iter
          (fun e ->
            Printf.fprintf oc "edge\t%s\t%s\t%s\n" e.src e.dst (String.concat "," e.stack))
          es);
    Sys.rename tmp file

  (* Union this run's edges into [file] (first-seen sample stacks win)
     and return the merged graph. *)
  let merge_to_file () =
    match !path with
    | None -> []
    | Some file ->
      let merged = Hashtbl.create 64 in
      List.iter (fun e -> Hashtbl.replace merged (e.src, e.dst) e.stack) (edges ());
      List.iter
        (fun e ->
          if not (Hashtbl.mem merged (e.src, e.dst)) then
            Hashtbl.add merged (e.src, e.dst) e.stack)
        (load file);
      let es =
        Hashtbl.fold (fun (src, dst) stack acc -> { src; dst; stack } :: acc) merged []
        |> List.sort compare
      in
      save file es;
      es

  (* One representative cycle per strongly-connected knot, by DFS with
     an explicit color map; self-loops count. Deterministic: nodes are
     visited in sorted order. *)
  let cycles es =
    let adj = Hashtbl.create 64 in
    let nodes = Hashtbl.create 64 in
    List.iter
      (fun e ->
        Hashtbl.replace nodes e.src ();
        Hashtbl.replace nodes e.dst ();
        Hashtbl.add adj e.src e.dst)
      es;
    let node_list = Hashtbl.fold (fun n () acc -> n :: acc) nodes [] |> List.sort compare in
    let color = Hashtbl.create 64 in
    (* 1 = on current DFS path, 2 = done *)
    let found = ref [] in
    let seen_sets = ref [] in
    let rec dfs path n =
      Hashtbl.replace color n 1;
      List.iter
        (fun m ->
          match Hashtbl.find_opt color m with
          | Some 1 ->
            (* back edge: the cycle is the path suffix from m, plus m. *)
            let rec suffix = function
              | x :: tl -> if x = m then x :: List.rev tl else suffix tl
              | [] -> [ m ]
            in
            let cyc = suffix (List.rev (n :: path)) @ [ m ] in
            let key = List.sort_uniq compare cyc in
            if not (List.mem key !seen_sets) then begin
              seen_sets := key :: !seen_sets;
              found := cyc :: !found
            end
          | Some _ -> ()
          | None -> dfs (n :: path) m)
        (Hashtbl.find_all adj n);
      Hashtbl.replace color n 2
    in
    List.iter (fun n -> if not (Hashtbl.mem color n) then dfs [] n) node_list;
    List.rev !found

  let set_path p =
    path := p;
    Atomic.set recording (p <> None);
    if p <> None && not !exit_hook_installed then begin
      exit_hook_installed := true;
      at_exit (fun () ->
          match !path with
          | None -> ()
          | Some file -> (
            let merged = merge_to_file () in
            match cycles merged with
            | [] -> ()
            | cys ->
              Printf.eprintf
                "lockdep: %d cycle(s) in merged acquired-before graph %s (orders from separate runs \
                 can deadlock when interleaved):\n"
                (List.length cys) file;
              List.iter
                (fun cyc -> Printf.eprintf "lockdep:   %s\n" (String.concat " -> " cyc))
                cys))
    end

  let path () = !path
end

let () =
  match Sys.getenv_opt "LSM_LOCKDEP_GRAPH" with
  | Some p when p <> "" -> Graph.set_path (Some p)
  | Some _ | None -> ()

let lock t =
  let enf = Atomic.get enforce and rec_ = Atomic.get recording in
  if enf || rec_ then begin
    let held = Domain.DLS.get held_key in
    if enf then check_acquire t held;
    Mutex.lock t.m;
    if rec_ && !held <> [] then Graph.record !held t;
    held := t :: !held
  end
  else Mutex.lock t.m

(* Tolerates out-of-LIFO and untracked unlocks (tracking may have been
   toggled mid-hold by a test): drop exactly the first matching entry.
   Dropping *all* matches would silently empty the stack under legal
   nested holds of the same instance taken while tracking was off. *)
let rec remove_first t = function
  | [] -> []
  | h :: tl -> if h == t then tl else h :: remove_first t tl

let unlock t =
  if Atomic.get enforce || Atomic.get recording then begin
    let held = Domain.DLS.get held_key in
    held := remove_first t !held
  end;
  Mutex.unlock t.m

(* [match ... with exception] rather than [Fun.protect]: the guard sits
   on every cache probe of every read, and [Fun.protect] allocates its
   [finally] closure and exception wrapper on each call. [f a b] rather
   than a closure: a per-read or per-append section passes a top-level
   [f] and its arguments, so nothing is allocated. *)
let protect t f a b =
  lock t;
  match f a b with
  | v ->
    unlock t;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    unlock t;
    Printexc.raise_with_backtrace e bt

let run f () = f ()
let with_lock t f = protect t run f ()

(* [Condition.wait] atomically releases and re-acquires [t.m]. The held
   stack deliberately keeps [t] on it for the duration: the domain is
   blocked and acquires nothing else, and on return the mutex is held
   again, so the stack is accurate at every point the domain runs. *)
let wait cond t = Condition.wait cond t.m

let held_names () =
  List.rev_map (fun t -> t.name) !(Domain.DLS.get held_key)
