(* The Parsetree frontend: per-file syntactic rules R1-R8.

   These rules deliberately require no typing — each file is parsed
   with the compiler's own frontend (compiler-libs, parsing only), so
   test fixtures need not compile and the pass runs on any tree state.
   Cross-module, resolution-dependent analyses (R9 static lockdep, R10
   iterator escape) live in the Typedtree frontend (typed_rules.ml).

   Rules:
     R1  raw [Mutex.lock]/[unlock]/[try_lock] call sites — everything
         must go through [Ordered_mutex.with_lock] (exception safety +
         lockdep); only ordered_mutex.ml itself is exempt.
     R2  Device/Wal/Sstable calls syntactically inside a
         [with_lock]/[locked] body in the cache modules: I/O under a
         cache lock serializes every other domain behind the device.
     R3  every module has an .mli sealing its internals.
     R4  [Obj.magic] anywhere; module-level mutable state
         ([ref]/[Hashtbl.create]/[Atomic.make] in a top-level binding)
         outside the allowlist — hidden shared state is a data race
         waiting for a second domain.
     R5  [Atomic.get] and [Atomic.set] of the same location within one
         top-level binding, with no CAS in sight: a lost-update
         read-modify-write split across two atomic ops.
     R6  raw [Domain.spawn] / [Thread.create] outside domain_pool.ml —
         ad-hoc domains escape the pool's bounded-width and
         future-join discipline (and the ~128-domain runtime cap).
     R7  [failwith] / [raise (Failure _)] in library code — untyped
         stringly errors cross the API boundary where callers can only
         catch-all; raise a typed [Lsm_util.Lsm_error] (or a documented
         module exception) instead. Catching [Failure] is fine.
     R8  [Condition.wait] (or [Ordered_mutex.wait]) not syntactically
         inside a [while]-predicate loop body: condition variables have
         spurious wakeups and stolen signals, so a wait guarded by a
         single [if] — or by nothing — proceeds on a predicate that may
         no longer hold. Only ordered_mutex.ml itself is exempt (it
         defines the delegating wrapper).
     R12 allocation-heavy idioms in the point-lookup hot modules (the
         per-record block decoder block.ml, the per-probe hashing
         and bloom filters, and the checksum paths crc32c.ml,
         sstable.ml and framed_log.ml, which hash bytes in place):
         [String.sub ... ^ ...] (two copies per
         record — blit into a reusable arena), [String.concat] (a list
         plus a fresh string per record), [Bytes.to_string] inside a
         [while]/[for] loop (a copy per iteration — hoist it or compare
         in place), and a [String.iter]/[Bytes.iter] closure (a closure
         per call, and a boxed accumulator when it folds into an
         [int64] ref — use a [for] loop over a local ref). Scoped by
         file name because these idioms are fine in cold code; on the
         get path they are exactly the allocations the read path
         exists to avoid. *)

let all_rules = [ "R1"; "R2"; "R3"; "R4"; "R5"; "R6"; "R7"; "R8"; "R12" ]

(* Files allowed to touch raw mutexes: the blessed combinator itself. *)
let r1_exempt = [ "ordered_mutex.ml" ]

(* Modules whose locks sit on fan-out hot paths; R2 applies here. *)
let r2_cache_modules = [ "block_cache.ml"; "table_cache.ml" ]
let r2_io_modules = [ "Device"; "Wal"; "Sstable" ]
let lock_combinators = [ "with_lock"; "locked" ]

(* Modules allowed module-level mutable state (documented, reviewed:
   the lockdep enforcement flag and graph recorder; the scheduler's
   process-wide background lane singleton). *)
let r4_state_allowlist = [ "ordered_mutex.ml"; "scheduler.ml" ]

(* The one module allowed to create domains/threads: the pool. *)
let r6_exempt = [ "domain_pool.ml" ]

(* Modules allowed [failwith]: the xor filter's peeling loop, whose
   failure is an internal algorithmic invariant (can't happen on any
   input), not an error condition a caller could meaningfully type. *)
let r7_exempt = [ "xor_filter.ml" ]

(* The module defining the blessed wait wrapper: its own
   [Condition.wait] is a one-line delegation, not a wait site. *)
let r8_exempt = [ "ordered_mutex.ml" ]

(* Files on the per-record block decode and per-probe filter paths,
   and the checksum paths (the CRC kernel, the table meta CRC, the
   framed log), which hash bytes where they lie; R12 applies here. *)
let r12_hot_modules =
  [
    "block.ml";
    "hashing.ml";
    "bloom.ml";
    "blocked_bloom.ml";
    "crc32c.ml";
    "sstable.ml";
    "framed_log.ml";
  ]

(* ---------------- AST helpers ---------------- *)

open Parsetree

let flatten_lid lid = try Longident.flatten lid with _ -> []
let line_of (e : expression) = e.pexp_loc.Location.loc_start.Lexing.pos_lnum
let last_comp = function [] -> "" | l -> List.nth l (List.length l - 1)
let head_ident e = match e.pexp_desc with Pexp_ident { txt; _ } -> flatten_lid txt | _ -> []

(* Normalize [f @@ x] and [x |> f] into a direct application so the
   idiomatic [locked t @@ fun () -> ...] is recognized as a lock body. *)
let rec normalize_apply f args =
  match (f.pexp_desc, args) with
  | Pexp_ident { txt = Longident.Lident "@@"; _ }, [ (_, lhs); (_, rhs) ] -> (
    match lhs.pexp_desc with
    | Pexp_apply (f', args') -> normalize_apply f' (args' @ [ (Asttypes.Nolabel, rhs) ])
    | _ -> (lhs, [ (Asttypes.Nolabel, rhs) ]))
  | Pexp_ident { txt = Longident.Lident "|>"; _ }, [ (_, lhs); (_, rhs) ] -> (
    match rhs.pexp_desc with
    | Pexp_apply (f', args') -> normalize_apply f' (args' @ [ (Asttypes.Nolabel, lhs) ])
    | _ -> (rhs, [ (Asttypes.Nolabel, lhs) ]))
  | _ -> (f, args)

(* Canonical string for an atomic location: [Atomic.get t.field] and
   [Atomic.set t.field v] must key identically. *)
let rec path_repr e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> String.concat "." (flatten_lid txt)
  | Pexp_field (b, { txt; _ }) -> path_repr b ^ "." ^ last_comp (flatten_lid txt)
  | _ -> "?"

(* ---------------- per-file rule pass ---------------- *)

type ctx = {
  file : string;
  base : string;
  active : string -> bool;
  mutable out : Finding.t list;
}

let emit ctx rule line msg = ctx.out <- Finding.v ~file:ctx.file ~line ~rule msg :: ctx.out

let check_r1 ctx e =
  if ctx.active "R1" && not (List.mem ctx.base r1_exempt) then begin
    let path = head_ident e in
    let len = List.length path in
    if len >= 2 && List.nth path (len - 2) = "Mutex" then
      match last_comp path with
      | ("lock" | "unlock" | "try_lock") as fn ->
        emit ctx "R1" (line_of e)
          (Printf.sprintf
             "raw Mutex.%s; use Lsm_util.Ordered_mutex.with_lock (exception-safe, lockdep-checked)" fn)
      | _ -> ()
  end

let check_r6 ctx e =
  if ctx.active "R6" && not (List.mem ctx.base r6_exempt) then
    match head_ident e with
    | ([ "Domain"; "spawn" ] | [ "Thread"; "create" ]) as path ->
      emit ctx "R6" (line_of e)
        (Printf.sprintf
           "raw %s; go through Lsm_util.Domain_pool (bounded width, future joins, single shutdown path)"
           (String.concat "." path))
    | _ -> ()

let check_r7 ctx e =
  if ctx.active "R7" && not (List.mem ctx.base r7_exempt) then
    match e.pexp_desc with
    | Pexp_ident _
      when head_ident e = [ "failwith" ] || head_ident e = [ "Stdlib"; "failwith" ] ->
      emit ctx "R7" (line_of e)
        "failwith raises an untyped Failure; raise a typed Lsm_util.Lsm_error (or a documented module exception)"
    | Pexp_apply (f, args) -> (
      let f, args = normalize_apply f args in
      match (head_ident f, args) with
      | [ ("raise" | "raise_notrace") ], (_, arg) :: _ -> (
        match arg.pexp_desc with
        | Pexp_construct ({ txt; _ }, _) when last_comp (flatten_lid txt) = "Failure" ->
          emit ctx "R7" (line_of e)
            "raise (Failure _) is untyped; raise a typed Lsm_util.Lsm_error (or a documented module exception)"
        | _ -> ())
      | _ -> ())
    | _ -> ()

(* R8: a condition wait whose enclosing syntax is not a while-loop body.
   [in_while] counts enclosing [Pexp_while] bodies (maintained by
   [lint_structure]); waits in the loop *condition* do not count —
   `while Condition.wait ... do () done` re-checks nothing. *)
let check_r8 ctx ~in_while e =
  if ctx.active "R8" && not (List.mem ctx.base r8_exempt) && in_while = 0 then begin
    let path = head_ident e in
    let len = List.length path in
    if
      len >= 2
      && last_comp path = "wait"
      && List.mem (List.nth path (len - 2)) [ "Condition"; "Ordered_mutex" ]
    then
      emit ctx "R8" (line_of e)
        (Printf.sprintf
           "%s outside a while-predicate loop: spurious wakeups and stolen signals require re-checking the predicate (while not (pred) do wait done)"
           (String.concat "." path))
  end

(* R12: allocation-heavy per-record idioms, scoped to the hot
   modules. [in_loop] counts enclosing [while]/[for] bodies (maintained
   by [lint_structure]); the [Bytes.to_string] pattern only fires inside
   one — a single post-loop materialization is the blessed idiom. *)
let check_r12 ctx ~in_loop e =
  if ctx.active "R12" && List.mem ctx.base r12_hot_modules then
    match e.pexp_desc with
    | Pexp_apply (f, args) -> (
      let f, args = normalize_apply f args in
      match head_ident f with
      | [ "^" ] | [ "Stdlib"; "^" ] ->
        let is_string_sub (_, (a : expression)) =
          match a.pexp_desc with
          | Pexp_apply (g, _) -> head_ident g = [ "String"; "sub" ]
          | _ -> false
        in
        if List.exists is_string_sub args then
          emit ctx "R12" (line_of e)
            "String.sub ... ^ ... copies the key twice per record on the block hot path; blit into a reusable Bytes arena"
      | [ "String"; "concat" ] ->
        emit ctx "R12" (line_of e)
          "String.concat allocates a list and a fresh string per record on the block hot path; build into a reusable buffer"
      | [ "Bytes"; "to_string" ] when in_loop > 0 ->
        emit ctx "R12" (line_of e)
          "Bytes.to_string inside a loop copies every iteration on the block hot path; hoist the materialization or compare in place"
      | [ ("String" | "Bytes"); ("iter" | "iteri") ]
        when List.exists
               (fun (_, (a : expression)) ->
                 match a.pexp_desc with Pexp_fun _ | Pexp_function _ -> true | _ -> false)
               args ->
        emit ctx "R12" (line_of e)
          "String.iter/Bytes.iter closure on the get path allocates per call and boxes an int64 accumulator; use a for loop over a local ref"
      | _ -> ())
    | _ -> ()

let check_r2_ident ctx e =
  let path = head_ident e in
  if path <> [] then begin
    let value = last_comp path in
    let modules = List.filteri (fun i _ -> i < List.length path - 1) path in
    match List.find_opt (fun m -> List.mem m r2_io_modules) modules with
    | Some m ->
      emit ctx "R2" (line_of e)
        (Printf.sprintf
           "I/O call %s.%s inside a lock body; load outside the critical section (it serializes every domain behind the device)"
           m value)
    | None -> ()
  end

let check_r4_magic ctx e =
  if ctx.active "R4" then
    match head_ident e with
    | [ "Obj"; "magic" ] ->
      emit ctx "R4" (line_of e) "Obj.magic defeats the type system and the memory model"
    | _ -> ()

(* R4 state scan: walk a top-level binding's expression but do not
   descend into functions — state allocated per call is private. *)
let rec r4_state_scan ctx name e =
  let flag kind =
    emit ctx "R4" (line_of e)
      (Printf.sprintf
         "module-level mutable state: 'let %s = %s ...' is shared by every domain; move it into a value or allowlist the module"
         name kind)
  in
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ | Pexp_lazy _ -> ()
  | Pexp_apply (f, args) ->
    let f, args = normalize_apply f args in
    (match head_ident f with
    | [ "ref" ] -> flag "ref"
    | [ "Hashtbl"; "create" ] -> flag "Hashtbl.create"
    | [ "Atomic"; "make" ] -> flag "Atomic.make"
    | _ -> ());
    List.iter (fun (_, a) -> r4_state_scan ctx name a) args
  | Pexp_tuple es -> List.iter (r4_state_scan ctx name) es
  | Pexp_array es -> List.iter (r4_state_scan ctx name) es
  | Pexp_record (fields, base) ->
    List.iter (fun (_, v) -> r4_state_scan ctx name v) fields;
    Option.iter (r4_state_scan ctx name) base
  | Pexp_let (_, vbs, body) ->
    List.iter (fun vb -> r4_state_scan ctx name vb.pvb_expr) vbs;
    r4_state_scan ctx name body
  | Pexp_sequence (a, b) ->
    r4_state_scan ctx name a;
    r4_state_scan ctx name b
  | Pexp_constraint (inner, _) -> r4_state_scan ctx name inner
  | Pexp_construct (_, Some inner) -> r4_state_scan ctx name inner
  | _ -> ()

(* ---- R5: Atomic.get/set pairing within one top-level binding ---- *)

type r5_acc = {
  mutable gets : (string * int) list;
  mutable sets : (string * int) list;
  mutable has_cas : bool;
}

let r5_collect acc e0 =
  let expr it e =
    (match e.pexp_desc with
    | Pexp_apply (f, args) -> (
      let f, args = normalize_apply f args in
      match (head_ident f, args) with
      | [ "Atomic"; "get" ], (_, target) :: _ -> acc.gets <- (path_repr target, line_of e) :: acc.gets
      | [ "Atomic"; "set" ], (_, target) :: _ -> acc.sets <- (path_repr target, line_of e) :: acc.sets
      | [ "Atomic"; ("compare_and_set" | "exchange" | "fetch_and_add" | "incr" | "decr") ], _ ->
        acc.has_cas <- true
      | _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it e0

let check_r5_binding ctx vb =
  let acc = { gets = []; sets = []; has_cas = false } in
  r5_collect acc vb.pvb_expr;
  if not acc.has_cas then
    List.iter
      (fun (path, line) ->
        if path <> "?" && List.mem_assoc path acc.gets then
          emit ctx "R5" line
            (Printf.sprintf
               "Atomic.get/Atomic.set pair on %s in one binding: a torn read-modify-write; use Atomic.compare_and_set in a documented CAS loop"
               path))
      (List.sort_uniq compare acc.sets)

let lint_structure ctx (str : structure) =
  let in_lock = ref 0 in
  let in_while = ref 0 in
  let in_loop = ref 0 in
  let expr it e =
    check_r1 ctx e;
    check_r4_magic ctx e;
    check_r6 ctx e;
    check_r7 ctx e;
    check_r8 ctx ~in_while:!in_while e;
    check_r12 ctx ~in_loop:!in_loop e;
    if ctx.active "R2" && List.mem ctx.base r2_cache_modules && !in_lock > 0 then
      check_r2_ident ctx e;
    match e.pexp_desc with
    | Pexp_apply (f0, args0) ->
      let f, args = normalize_apply f0 args0 in
      it.Ast_iterator.expr it f;
      if List.mem (last_comp (head_ident f)) lock_combinators then begin
        incr in_lock;
        List.iter (fun (_, a) -> it.Ast_iterator.expr it a) args;
        decr in_lock
      end
      else List.iter (fun (_, a) -> it.Ast_iterator.expr it a) args
    | Pexp_while (cond, body) ->
      it.Ast_iterator.expr it cond;
      incr in_while;
      incr in_loop;
      it.Ast_iterator.expr it body;
      decr in_loop;
      decr in_while
    | Pexp_for (_, lo, hi, _, body) ->
      it.Ast_iterator.expr it lo;
      it.Ast_iterator.expr it hi;
      incr in_loop;
      it.Ast_iterator.expr it body;
      decr in_loop
    | _ -> Ast_iterator.default_iterator.expr it e
  in
  let structure_item it si =
    (match si.pstr_desc with
    | Pstr_value (_, vbs) ->
      List.iter
        (fun vb ->
          if ctx.active "R4" && not (List.mem ctx.base r4_state_allowlist) then begin
            let name = match vb.pvb_pat.ppat_desc with Ppat_var { txt; _ } -> txt | _ -> "_" in
            r4_state_scan ctx name vb.pvb_expr
          end;
          if ctx.active "R5" then check_r5_binding ctx vb)
        vbs
    | _ -> ());
    Ast_iterator.default_iterator.structure_item it si
  in
  let iter = { Ast_iterator.default_iterator with expr; structure_item } in
  iter.structure iter str

(* ---------------- per-file entry point ---------------- *)

let parse_impl path src =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf path;
  Parse.implementation lexbuf

(* Raw findings for one file; suppression filtering is the driver's
   job (it also owns unused-suppression reporting). *)
let lint_file ~active path =
  let base = Filename.basename path in
  let src = Finding.read_file path in
  let ctx = { file = path; base; active; out = [] } in
  (match parse_impl path src with
  | str -> lint_structure ctx str
  | exception exn -> emit ctx "R0" 1 (Printf.sprintf "parse error: %s" (Printexc.to_string exn)));
  if active "R3" && not (Sys.file_exists (Filename.remove_extension path ^ ".mli")) then
    emit ctx "R3" 1
      (Printf.sprintf "module %s has no .mli: internal mutable state is unsealed"
         (Filename.remove_extension base));
  ctx.out

let rec collect_ml path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun entry -> collect_ml (Filename.concat path entry))
  else if Filename.check_suffix path ".ml" then [ path ]
  else []
