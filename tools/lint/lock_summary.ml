(* R9: whole-program static lockdep over the Typedtree.

   The runtime checker (Ordered_mutex + LSM_LOCKDEP=1) only sees orders
   that actually interleave in one run; the Parsetree linter cannot see
   that a callee acquires a lower-ranked lock. This pass closes both
   gaps: it reconstructs the engine's lock classes from the
   [Ordered_mutex.create ~rank ~name] sites, summarizes every
   function's acquisitions, propagates summaries through the resolved
   call graph to a fixed point, and derives the global acquired-before
   relation. Any edge that descends or ties in rank — even across
   modules, even on paths no test schedules — is a finding carrying the
   full call chain.

   Three deliberate approximations, all chosen to avoid false
   positives on the clean tree (the gate is zero findings with zero
   suppressions):

   - MAY-analysis: branches union; an acquisition behind a conditional
     counts on every path through its function.
   - Closures handed to deferred executors (Domain_pool.submit,
     Scheduler.submit/enqueue, Domain.spawn, at_exit, ...) run with an
     empty held stack on another domain; they are analyzed as separate
     roots, not inlined into the submitting context. Closures handed to
     *unknown* functions are treated the same way (a Queue.add stores,
     it does not invoke) — strictly weaker than the truth for an
     unknown higher-order invoker, and exactly what the runtime graph
     recorder cross-check (lsm-lint --lockdep-graph) is for.
   - Closures handed to known inline combinators (List/Array/Option/
     Hashtbl/Fun.protect/...) and to project functions are propagated:
     project callees' parameter invocations splice the caller's closure
     events under whatever the callee holds at the invocation point. *)

open Typedtree

(* Where a lock lives: a record field keyed by the record's canonical
   type path (all instances of a field share a class — exactly the
   granularity of the Rank table), or a module-level value. *)
type slot = Field of string * string | Global of string

let slot_repr = function Field (ty, f) -> ty ^ "." ^ f | Global g -> g

type cls = { c_rank : int option; c_name : string }

type site = { s_file : string; s_line : int }

type ev =
  | Acquire of slot option * site * ev list  (* with_lock body *)
  | Bare of slot option * site  (* Ordered_mutex.lock *)
  | Wait of slot option * site  (* Ordered_mutex.wait; self-wait on the innermost held lock is the blessed pattern *)
  | Call of { key : string; c_site : site; fargs : ev list array }
  | ParamI of Ident.t  (* invocation of an enclosing function's parameter *)
  | Spawn of ev list  (* closure that runs later with an empty held stack *)

type summary = { params : Ident.t list; evs : ev list }

type edge = {
  e_src : string;  (* class name, as in Ordered_mutex.create ~name *)
  e_dst : string;
  e_src_rank : int option;
  e_dst_rank : int option;
  e_site : site;
  e_chain : string list;
}

type result = {
  classes : (string * int option) list;  (* class name -> rank, rank-sorted *)
  edges : edge list;
  findings : Finding.t list;
}

(* Functions whose function-arguments are executed later, elsewhere,
   with nothing held. *)
let deferral_keys =
  [
    "Domain_pool.submit";
    "Domain_pool.map_list";
    "Scheduler.submit";
    "Scheduler.enqueue";
    "Scheduler.set_on_commit";
    "Domain.spawn";
    "Thread.create";
    "at_exit";
    "Stdlib.at_exit";
  ]

(* Stdlib modules whose higher-order functions invoke their closure
   arguments inline, in the caller's context. Queue and the containers
   used to *store* closures are deliberately absent. *)
let inline_modules =
  [ "List"; "Array"; "Option"; "Result"; "Either"; "Fun"; "Hashtbl"; "Seq"; "Float" ]

(* ---------------- shared helpers ---------------- *)

let line_of_exp e = e.exp_loc.Location.loc_start.Lexing.pos_lnum

let rec is_arrow ty =
  match Types.get_desc ty with
  | Types.Tarrow _ -> true
  | Types.Tlink t | Types.Tsubst (t, _) -> is_arrow t
  | Types.Tpoly (t, _) -> is_arrow t
  | _ -> false

let head_type_path ty =
  match Types.get_desc ty with Types.Tconstr (p, _, _) -> Some p | _ -> None

(* ---------------- analysis state ---------------- *)

type state = {
  rank_table : (string, int) Hashtbl.t;  (* Rank.db_buffers -> 8 *)
  classes : (slot, cls) Hashtbl.t;
  returns_class : (string, cls) Hashtbl.t;  (* fn key -> class it creates *)
  summaries : (string, summary) Hashtbl.t;
  mutable diagnostics : Finding.t list;
}

let create_state () =
  {
    rank_table = Hashtbl.create 16;
    classes = Hashtbl.create 32;
    returns_class = Hashtbl.create 8;
    summaries = Hashtbl.create 256;
    diagnostics = [];
  }

(* ---------------- per-module walk context ---------------- *)

type mctx = {
  st : state;
  file : string;
  modpath : string list;  (* enclosing module path, e.g. ["Version"; "Pins"] *)
  aliases : (string, string list) Hashtbl.t;  (* module alias -> target components *)
  toplevels : (string, unit) Hashtbl.t;  (* module-level value idents seen so far *)
}

let canon_comps_in mctx comps =
  let comps =
    match comps with
    | first :: rest -> (
      match Hashtbl.find_opt mctx.aliases first with
      | Some target -> target @ rest
      | None -> comps)
    | [] -> []
  in
  Cmts.canon_components comps

let canon_path_in mctx p = String.concat "." (canon_comps_in mctx (Cmts.flatten_path p))

let in_module mctx name = String.concat "." (mctx.modpath @ [ name ])

(* Canonical key for an applied identifier: qualified paths as-is,
   bare siblings qualified with the enclosing module path. *)
let key_of_fn_path mctx p =
  match p with
  | Path.Pident id ->
    let n = Ident.name id in
    if Hashtbl.mem mctx.toplevels n then Some (in_module mctx n) else None
  | _ ->
    let c = canon_path_in mctx p in
    if c = "" then None else Some c

(* ---------------- lock-class inference ---------------- *)

(* [Ordered_mutex.create ~rank ~name] recognition; resolves the rank
   argument against the Rank table (or an integer literal, which is
   what compiled fixtures use) and the name against a string literal. *)
let as_create mctx e =
  match e.exp_desc with
  | Texp_apply (fn, args) -> (
    match fn.exp_desc with
    | Texp_ident (p, _, _) when canon_path_in mctx p = "Ordered_mutex.create" ->
      let rank = ref None and name = ref None in
      List.iter
        (fun (lbl, arg) ->
          match (lbl, arg) with
          | Asttypes.Labelled "rank", Some a -> (
            match a.exp_desc with
            | Texp_constant (Asttypes.Const_int n) -> rank := Some n
            | Texp_ident (rp, _, _) -> (
              match List.rev (canon_comps_in mctx (Cmts.flatten_path rp)) with
              | leaf :: "Rank" :: _ -> rank := Hashtbl.find_opt mctx.st.rank_table leaf
              | _ -> ())
            | _ -> ())
          | Asttypes.Labelled "name", Some a -> (
            match a.exp_desc with
            | Texp_constant (Asttypes.Const_string (s, _, _)) -> name := Some s
            | _ -> ())
          | _ -> ())
        args;
      Some (!rank, !name)
    | _ -> None)
  | _ -> None

(* A record-field value that produces a fresh mutex: a direct create, a
   local variable let-bound to one (tracked in [local_creates]), or a
   call to a function inferred to return one (io_stats' mk_mutex). *)
let class_of_field_value mctx local_creates e =
  match as_create mctx e with
  | Some (rank, name) -> Some (rank, name)
  | None -> (
    match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) -> (
      match Hashtbl.find_opt local_creates (Ident.name id) with
      | Some (rank, name) -> Some (rank, name)
      | None -> None)
    | Texp_apply (fn, _) -> (
      match fn.exp_desc with
      | Texp_ident (p, _, _) -> (
        match key_of_fn_path mctx p with
        | Some k -> (
          match Hashtbl.find_opt mctx.st.returns_class k with
          | Some c -> Some (c.c_rank, Some c.c_name)
          | None -> None)
        | None -> None)
      | _ -> None)
    | _ -> None)

let register_class mctx slot (rank, name) =
  let c_name = match name with Some n -> n | None -> slot_repr slot in
  match Hashtbl.find_opt mctx.st.classes slot with
  | Some prev ->
    if prev.c_rank <> rank then
      mctx.st.diagnostics <-
        Finding.v ~file:mctx.file ~line:1 ~rule:"R9"
          (Printf.sprintf "lock slot %s created with conflicting ranks (%s vs %s)" (slot_repr slot)
             (match prev.c_rank with Some r -> string_of_int r | None -> "?")
             (match rank with Some r -> string_of_int r | None -> "?"))
        :: mctx.st.diagnostics
  | None -> Hashtbl.replace mctx.st.classes slot { c_rank = rank; c_name }

(* Identify a field slot by its label's DECLARATION site, not its type
   path: inside the defining module the record type's path is a bare
   [t], from other modules it is [Table_cache.t] — the declaration
   location is the one spelling both agree on, and distinct record
   types' [m] fields stay distinct. *)
let field_slot lbl =
  let loc = lbl.Types.lbl_loc.Location.loc_start in
  Some (Field (Printf.sprintf "%s:%d" loc.Lexing.pos_fname loc.pos_lnum, lbl.Types.lbl_name))

(* Class pass over one module: walks every expression, tracking local
   `let m = create ...` bindings per enclosing structure item, and
   binds record fields / module-level values to lock classes. *)
let class_pass mctx str =
  let local_creates = Hashtbl.create 4 in
  let expr_iter (it : Tast_iterator.iterator) e =
    (match e.exp_desc with
    | Texp_let (_, vbs, _) ->
      List.iter
        (fun vb ->
          match (vb.vb_pat.pat_desc, as_create mctx vb.vb_expr) with
          | Tpat_var (id, _), Some cls -> Hashtbl.replace local_creates (Ident.name id) cls
          | _ -> ())
        vbs
    | Texp_record { fields; _ } ->
      Array.iter
        (fun (lbl, def) ->
          match def with
          | Overridden (_, fe) -> (
            match class_of_field_value mctx local_creates fe with
            | Some cls -> (
              match field_slot lbl with
              | Some slot -> register_class mctx slot cls
              | None -> ())
            | None -> ())
          | Kept _ -> ())
        fields
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let rec items mctx str =
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              (* toplevels feeds key_of_fn_path, which the
                 returns-a-mutex field inference relies on *)
              (match vb.vb_pat.pat_desc with
              | Tpat_var (id, _) -> Hashtbl.replace mctx.toplevels (Ident.name id) ()
              | _ -> ());
              (match (vb.vb_pat.pat_desc, as_create mctx vb.vb_expr) with
              | Tpat_var (id, _), Some cls ->
                register_class mctx (Global (in_module mctx (Ident.name id))) cls
              | _ -> ());
              (* Function returning a fresh mutex: its body's tail is a
                 create (chased through let/sequence). *)
              (match vb.vb_pat.pat_desc with
              | Tpat_var (id, _) -> (
                let rec tail e =
                  match e.exp_desc with
                  | Texp_function { cases = [ { c_rhs; _ } ]; _ } -> tail c_rhs
                  | Texp_let (_, _, b) -> tail b
                  | Texp_sequence (_, b) -> tail b
                  | _ -> e
                in
                match as_create mctx (tail vb.vb_expr) with
                | Some (rank, name) ->
                  let c_name =
                    match name with Some n -> n | None -> in_module mctx (Ident.name id)
                  in
                  Hashtbl.replace mctx.st.returns_class
                    (in_module mctx (Ident.name id))
                    { c_rank = rank; c_name }
                | None -> ())
              | _ -> ());
              let it = { Tast_iterator.default_iterator with expr = expr_iter } in
              it.expr it vb.vb_expr)
            vbs
        | Tstr_module mb -> descend_module mctx mb
        | Tstr_recmodule mbs -> List.iter (descend_module mctx) mbs
        | _ -> ())
      str.str_items
  and descend_module mctx mb =
    match mb.mb_id with
    | None -> ()
    | Some id -> (
      let name = Ident.name id in
      match mb.mb_expr.mod_desc with
      | Tmod_ident (p, _) -> Hashtbl.replace mctx.aliases name (Cmts.flatten_path p)
      | Tmod_structure s | Tmod_constraint ({ mod_desc = Tmod_structure s; _ }, _, _, _) ->
        items { mctx with modpath = mctx.modpath @ [ name ] } s
      | _ -> ())
  in
  items mctx str

(* Rank table extraction from the Ordered_mutex module itself. *)
let rank_pass st (info : Cmts.info) =
  if info.modname = "Ordered_mutex" then
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_module
            {
              mb_id = Some id;
              mb_expr =
                {
                  mod_desc =
                    ( Tmod_structure s
                    | Tmod_constraint ({ mod_desc = Tmod_structure s; _ }, _, _, _) );
                  _;
                };
              _;
            }
          when Ident.name id = "Rank" ->
          List.iter
            (fun si ->
              match si.str_desc with
              | Tstr_value (_, vbs) ->
                List.iter
                  (fun vb ->
                    match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
                    | Tpat_var (rid, _), Texp_constant (Asttypes.Const_int n) ->
                      Hashtbl.replace st.rank_table (Ident.name rid) n
                    | _ -> ())
                  vbs
              | _ -> ())
            s.str_items
        | _ -> ())
      info.str.str_items

(* ---------------- summary construction ---------------- *)

type wctx = {
  m : mctx;
  params : Ident.t list;  (* enclosing function's parameters *)
  locals : (Ident.t, summary) Hashtbl.t;  (* let-bound local functions *)
}

let site_of w e = { s_file = w.m.file; s_line = line_of_exp e }

(* The mutex operand of a lock primitive. *)
let slot_of_mutex w e =
  match e.exp_desc with
  | Texp_field (_, _, lbl) -> (
    match field_slot lbl with Some s -> Some s | None -> None)
  | Texp_ident (Path.Pident id, _, _) ->
    if Hashtbl.mem w.m.toplevels (Ident.name id) then
      Some (Global (in_module w.m (Ident.name id)))
    else None
  | Texp_ident (p, _, _) ->
    let c = canon_path_in w.m p in
    if c = "" then None else Some (Global c)
  | _ -> None

let assoc_ident id env =
  List.find_map (fun (p, evs) -> if Ident.same p id then Some evs else None) env

let rec zip ps fas =
  match (ps, fas) with p :: ptl, fa :: fatl -> (p, fa) :: zip ptl fatl | _, _ -> []

(* Substitute parameter idents with concrete argument representations
   when splicing a local function at its call site. A [ParamI] that is
   not in [env] belongs to the enclosing function and stays symbolic. *)
let rec subst env evs =
  List.concat_map
    (fun ev ->
      match ev with
      | ParamI id -> ( match assoc_ident id env with Some r -> r | None -> [ ev ])
      | Acquire (s, l, body) -> [ Acquire (s, l, subst env body) ]
      | Spawn body -> [ Spawn (subst env body) ]
      | Call c -> [ Call { c with fargs = Array.map (subst env) c.fargs } ]
      | Bare _ | Wait _ -> [ ev ])
    evs

let rec peel_params e =
  match e.exp_desc with
  | Texp_function { param; cases = [ { c_lhs; c_rhs; _ } ]; _ } ->
    let id = match c_lhs.pat_desc with Tpat_var (pid, _) -> pid | _ -> param in
    let ps, body = peel_params c_rhs in
    (id :: ps, body)
  | _ -> ([], e)

let rec walk w e : ev list =
  match e.exp_desc with
  | Texp_ident _ | Texp_constant _ | Texp_unreachable -> []
  | Texp_apply (fn, args) -> apply w e fn args
  | Texp_function { cases; _ } ->
    (* A lambda in a non-argument position (stored in a record/ref,
       returned, ...): its call context is unknown — analyze it as a
       separate empty-context root. *)
    [ Spawn (List.concat_map (fun c -> walk w c.c_rhs) cases) ]
  | Texp_let (_, vbs, body) ->
    let evs =
      List.concat_map
        (fun vb ->
          match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
          | Tpat_var (id, _), Texp_function _ ->
            let ps, fbody = peel_params vb.vb_expr in
            let inner = walk w fbody in
            Hashtbl.replace w.locals id { params = ps; evs = inner };
            []
          | _ -> walk w vb.vb_expr)
        vbs
    in
    evs @ walk w body
  | Texp_match (scrut, cases, _) ->
    walk w scrut @ List.concat_map (fun c -> walk w c.c_rhs) cases
  | Texp_try (b, cases) -> walk w b @ List.concat_map (fun c -> walk w c.c_rhs) cases
  | Texp_ifthenelse (c, a, b) ->
    walk w c @ walk w a @ (match b with Some b -> walk w b | None -> [])
  | Texp_sequence (a, b) -> walk w a @ walk w b
  | Texp_while (c, b) -> walk w c @ walk w b
  | Texp_for (_, _, lo, hi, _, b) -> walk w lo @ walk w hi @ walk w b
  | Texp_tuple es | Texp_array es -> List.concat_map (walk w) es
  | Texp_construct (_, _, es) -> List.concat_map (walk w) es
  | Texp_variant (_, e) -> ( match e with Some e -> walk w e | None -> [])
  | Texp_record { fields; extended_expression; _ } ->
    let f =
      Array.to_list fields
      |> List.concat_map (fun (_, def) ->
             match def with Overridden (_, fe) -> walk w fe | Kept _ -> [])
    in
    f @ (match extended_expression with Some e -> walk w e | None -> [])
  | Texp_field (b, _, _) -> walk w b
  | Texp_setfield (b, _, _, v) -> walk w b @ walk w v
  | Texp_assert (e, _) -> walk w e
  | Texp_lazy e -> [ Spawn (walk w e) ]
  | Texp_letmodule (_, _, _, me, body) ->
    (match me.mod_desc with Tmod_structure _ -> () | _ -> ());
    walk w body
  | Texp_open (_, body) -> walk w body
  | Texp_letexception (_, body) -> walk w body
  | _ -> []

(* Representation of an argument as a callable value, if it is one. *)
and rep_of_arg w a : ev list option =
  if not (is_arrow a.exp_type) then None
  else
    match a.exp_desc with
    | Texp_function _ ->
      let _, body = peel_params a in
      Some (walk w body)
    | Texp_ident (Path.Pident id, _, _) when List.exists (fun p -> Ident.same p id) w.params ->
      Some [ ParamI id ]
    | Texp_ident (Path.Pident id, _, _) when Hashtbl.mem w.locals id ->
      Some (Hashtbl.find w.locals id).evs
    | Texp_ident (p, _, _) -> (
      match key_of_fn_path w.m p with
      | Some k -> Some [ Call { key = k; c_site = site_of w a; fargs = [||] } ]
      | None -> None)
    | Texp_apply (fn, args) -> (
      (* partial application, e.g. Domain.spawn (worker_loop pool) *)
      match fn.exp_desc with
      | Texp_ident (p, _, _) -> (
        match key_of_fn_path w.m p with
        | Some k ->
          let fargs =
            args
            |> List.filter_map (fun (_, a) -> a)
            |> List.map (fun a -> match rep_of_arg w a with Some r -> r | None -> [])
          in
          Some [ Call { key = k; c_site = site_of w a; fargs = Array.of_list fargs } ]
        | None -> None)
      | _ -> None)
    | _ -> None

and body_evs w a =
  match rep_of_arg w a with Some evs -> evs | None -> walk w a

and apply w e fn args : ev list =
  match fn.exp_desc with
  | Texp_apply (f2, args2) ->
    (* The typechecker rewrites [f x @@ g] into a nested application
       whose function is itself an application — flatten it. *)
    apply w e f2 (args2 @ args)
  | _ -> apply_flat w e fn args

and apply_flat w e fn args : ev list =
  let present = List.filter_map (fun (_, a) -> a) args in
  let fn_key =
    match fn.exp_desc with
    | Texp_ident (p, _, _) -> key_of_fn_path w.m p
    | _ -> None
  in
  let raw_canon =
    match fn.exp_desc with Texp_ident (p, _, _) -> canon_path_in w.m p | _ -> ""
  in
  (* Normalize f @@ x / x |> f into direct application. *)
  match (raw_canon, present) with
  | "@@", [ lhs; rhs ] -> reapply w e lhs rhs
  | "|>", [ lhs; rhs ] -> reapply w e rhs lhs
  | _ -> (
    match raw_canon with
    | "Ordered_mutex.with_lock" -> (
      match present with
      | m :: rest ->
        let body = match rest with b :: _ -> body_evs w b | [] -> [] in
        [ Acquire (slot_of_mutex w m, site_of w e, body) ]
      | [] -> [])
    | "Ordered_mutex.protect" -> (
      (* [protect m f a b] holds [m] across [f a b]. *)
      match present with
      | m :: f :: args ->
        List.concat_map (walk w) args @ [ Acquire (slot_of_mutex w m, site_of w e, body_evs w f) ]
      | _ -> [])
    | "Ordered_mutex.lock" -> (
      match present with m :: _ -> [ Bare (slot_of_mutex w m, site_of w e) ] | [] -> [])
    | "Ordered_mutex.wait" -> (
      match present with
      | [ _cond; m ] -> [ Wait (slot_of_mutex w m, site_of w e) ]
      | _ -> [])
    | "Ordered_mutex.create" -> []
    | _ -> (
      (* Local function applied directly: splice its events with the
         argument representations substituted for its parameters. *)
      match fn.exp_desc with
      | Texp_ident (Path.Pident id, _, _) when Hashtbl.mem w.locals id ->
        let s = Hashtbl.find w.locals id in
        let reps = List.map (fun a -> rep_of_arg w a) present in
        let env =
          zip s.params (List.map (function Some r -> r | None -> []) reps)
        in
        let inline_args =
          List.concat_map
            (fun (r, a) -> if r = None then walk w a else [])
            (List.combine reps present)
        in
        inline_args @ subst env s.evs
      | Texp_ident (Path.Pident id, _, _) when List.exists (fun p -> Ident.same p id) w.params
        ->
        List.concat_map (walk w) present @ [ ParamI id ]
      | _ -> (
        match fn_key with
        | Some key ->
          let fargs =
            List.map (fun a -> match rep_of_arg w a with Some r -> r | None -> []) present
          in
          let inline_args =
            List.concat_map (fun a -> if rep_of_arg w a = None then walk w a else []) present
          in
          inline_args @ [ Call { key; c_site = site_of w e; fargs = Array.of_list fargs } ]
        | None ->
          (* Unresolvable callee (field access, computed closure):
             evaluate arguments; function-valued args become roots. *)
          walk w fn
          @ List.concat_map
              (fun a ->
                match rep_of_arg w a with Some r -> [ Spawn r ] | None -> walk w a)
              present)))

and reapply w e fn_expr arg_expr =
  match fn_expr.exp_desc with
  | Texp_apply (f, args) -> apply w e f (args @ [ (Asttypes.Nolabel, Some arg_expr) ])
  | _ -> apply w e fn_expr [ (Asttypes.Nolabel, Some arg_expr) ]

(* ---------------- per-module summary construction ---------------- *)

let build_summaries mctx str =
  let init_count = ref 0 in
  let rec items mctx str =
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
          (* Register the whole binding group first so `let rec` bodies
             resolve self/mutual references to module-qualified keys. *)
          List.iter
            (fun vb ->
              match vb.vb_pat.pat_desc with
              | Tpat_var (id, _) -> Hashtbl.replace mctx.toplevels (Ident.name id) ()
              | _ -> ())
            vbs;
          List.iter
            (fun vb ->
              let w = { m = mctx; params = []; locals = Hashtbl.create 4 } in
              match vb.vb_pat.pat_desc with
              | Tpat_var (id, _) ->
                let params, body = peel_params vb.vb_expr in
                let evs = walk { w with params } body in
                Hashtbl.replace mctx.st.summaries
                  (in_module mctx (Ident.name id))
                  { params; evs }
              | _ ->
                (* `let () = ...` module-initialization effects are
                   roots of their own. *)
                incr init_count;
                let evs = walk w vb.vb_expr in
                if evs <> [] then
                  Hashtbl.replace mctx.st.summaries
                    (in_module mctx (Printf.sprintf "<init#%d>" !init_count))
                    { params = []; evs })
            vbs
        | Tstr_module mb -> descend mctx mb
        | Tstr_recmodule mbs -> List.iter (descend mctx) mbs
        | _ -> ())
      str.str_items
  and descend mctx mb =
    match mb.mb_id with
    | None -> ()
    | Some id -> (
      let name = Ident.name id in
      match mb.mb_expr.mod_desc with
      | Tmod_ident (p, _) -> Hashtbl.replace mctx.aliases name (Cmts.flatten_path p)
      | Tmod_structure s | Tmod_constraint ({ mod_desc = Tmod_structure s; _ }, _, _, _) ->
        items { mctx with modpath = mctx.modpath @ [ name ] } s
      | _ -> ())
  in
  items mctx str

(* ---------------- may-acquire fixpoint ---------------- *)

module SS = Set.Make (String)

(* may(key) = class names [key] may acquire in its own calling context,
   transitively through project callees. Spawned closures and closure
   arguments are excluded: those run (or may run) outside the caller's
   held stack, and including them would fabricate held-before edges. *)
let compute_may st =
  let cls_name slot =
    match slot with
    | Some s -> (
      match Hashtbl.find_opt st.classes s with Some c -> Some c.c_name | None -> None)
    | None -> None
  in
  let direct = Hashtbl.create 64 and callees = Hashtbl.create 64 in
  Hashtbl.iter
    (fun key (s : summary) ->
      let d = ref SS.empty and cs = ref SS.empty in
      let rec scan evs =
        List.iter
          (fun ev ->
            match ev with
            | Acquire (sl, _, body) ->
              (match cls_name sl with Some n -> d := SS.add n !d | None -> ());
              scan body
            | Bare (sl, _) | Wait (sl, _) -> (
              match cls_name sl with Some n -> d := SS.add n !d | None -> ())
            | Call c -> cs := SS.add c.key !cs
            | Spawn _ | ParamI _ -> ())
          evs
      in
      scan s.evs;
      Hashtbl.replace direct key !d;
      Hashtbl.replace callees key !cs)
    st.summaries;
  let may = Hashtbl.copy direct in
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun key cs ->
        let cur = try Hashtbl.find may key with Not_found -> SS.empty in
        let nxt =
          SS.fold
            (fun c acc ->
              match Hashtbl.find_opt may c with Some s -> SS.union acc s | None -> acc)
            cs cur
        in
        if not (SS.equal cur nxt) then begin
          Hashtbl.replace may key nxt;
          changed := true
        end)
      callees
  done;
  fun key -> match Hashtbl.find_opt may key with Some s -> s | None -> SS.empty

(* ---------------- whole-program expansion ---------------- *)

let first_component key =
  match String.index_opt key '.' with Some i -> String.sub key 0 i | None -> key

(* Close over the current parameter environment: after this, every
   [ParamI] bound here is spliced and the events can travel into other
   contexts (callee bodies, spawn roots). *)
let rec resolve_params env evs =
  if env = [] then evs
  else
    List.concat_map
      (fun ev ->
        match ev with
        | ParamI id -> ( match assoc_ident id env with Some r -> r | None -> [ ev ])
        | Acquire (s, l, body) -> [ Acquire (s, l, resolve_params env body) ]
        | Spawn body -> [ Spawn (resolve_params env body) ]
        | Call c -> [ Call { c with fargs = Array.map (resolve_params env) c.fargs } ]
        | Bare _ | Wait _ -> [ ev ])
      evs

let expand st =
  let may = compute_may st in
  let cls_of slot =
    match slot with
    | Some s -> Hashtbl.find_opt st.classes s
    | None -> None
  in
  let rank_of =
    let by_name = Hashtbl.create 16 in
    Hashtbl.iter
      (fun _ c -> if not (Hashtbl.mem by_name c.c_name) then Hashtbl.replace by_name c.c_name c.c_rank)
      st.classes;
    fun n -> match Hashtbl.find_opt by_name n with Some r -> r | None -> None
  in
  let edges_tbl : (string * string, edge) Hashtbl.t = Hashtbl.create 64 in
  let emit held dst site chain =
    List.iter
      (fun src ->
        if not (Hashtbl.mem edges_tbl (src, dst)) then
          Hashtbl.replace edges_tbl (src, dst)
            {
              e_src = src;
              e_dst = dst;
              e_src_rank = rank_of src;
              e_dst_rank = rank_of dst;
              e_site = site;
              e_chain = chain;
            })
      held
  in
  let roots : (string list * ev list) Queue.t = Queue.create () in
  let queued_roots = Hashtbl.create 64 in
  let enqueue_root chain evs =
    if evs <> [] && not (Hashtbl.mem queued_roots evs) then begin
      Hashtbl.replace queued_roots evs ();
      Queue.add (chain, evs) roots
    end
  in
  let memo = Hashtbl.create 256 in
  let rec go ~held ~chain ~env ~visiting evs =
    ignore
      (List.fold_left
         (fun held ev ->
           match ev with
           | Acquire (slot, site, body) -> (
             match cls_of slot with
             | Some c ->
               emit held c.c_name site chain;
               go ~held:(held @ [ c.c_name ]) ~chain ~env ~visiting body;
               held
             | None ->
               go ~held ~chain ~env ~visiting body;
               held)
           | Bare (slot, site) -> (
             (* Scope unknown: held for the rest of this function. *)
             match cls_of slot with
             | Some c ->
               emit held c.c_name site chain;
               held @ [ c.c_name ]
             | None -> held)
           | Wait (slot, site) -> (
             match cls_of slot with
             | Some c ->
               let self =
                 match List.rev held with last :: _ -> last = c.c_name | [] -> false
               in
               (* Waiting on the innermost held lock is the blessed
                  condition-variable pattern; anything else is an
                  acquisition for ordering purposes. *)
               if not self then emit held c.c_name site chain;
               held
             | None -> held)
           | ParamI id ->
             (match assoc_ident id env with
             | Some cl -> go ~held ~chain:(chain @ [ "<closure>" ]) ~env:[] ~visiting cl
             | None -> ());
             held
           | Spawn body ->
             enqueue_root (chain @ [ "<deferred>" ]) (resolve_params env body);
             held
           | Call { key; c_site; fargs } ->
             let fargs = Array.map (resolve_params env) fargs in
             (if List.mem key deferral_keys then
                Array.iter (fun fa -> enqueue_root (chain @ [ key; "<deferred>" ]) fa) fargs
              else
                match Hashtbl.find_opt st.summaries key with
                | Some s ->
                  if SS.mem key visiting then begin
                    (* Recursive cycle: approximate the callee by its
                       may-set, and its closure invocations by the
                       current held stack. *)
                    SS.iter (fun c -> emit held c c_site (chain @ [ key ])) (may key);
                    Array.iter
                      (fun fa ->
                        go ~held ~chain:(chain @ [ key; "<closure>" ]) ~env:[] ~visiting fa)
                      fargs
                  end
                  else begin
                    let no_cl = Array.for_all (fun fa -> fa = []) fargs in
                    let mkey = key ^ "|" ^ String.concat "," held in
                    if no_cl && Hashtbl.mem memo mkey then
                      (* Already fully expanded under this held stack;
                         re-emit the summary-level edges only. *)
                      SS.iter (fun c -> emit held c c_site (chain @ [ key ])) (may key)
                    else begin
                      if no_cl then Hashtbl.replace memo mkey ();
                      go ~held ~chain:(chain @ [ key ])
                        ~env:(zip s.params (Array.to_list fargs))
                        ~visiting:(SS.add key visiting) s.evs
                    end
                  end
                | None ->
                  if List.mem (first_component key) inline_modules then
                    (* Known inline combinator: closures run here, under
                       the current held stack. *)
                    Array.iter
                      (fun fa -> go ~held ~chain:(chain @ [ key ]) ~env:[] ~visiting fa)
                      fargs
                  else
                    (* Unknown callee: assume closures are stored and
                       run elsewhere, with nothing held. The runtime
                       graph cross-check covers the case where an
                       unknown higher-order function invokes inline. *)
                    Array.iter
                      (fun fa -> enqueue_root (chain @ [ key; "<deferred>" ]) fa)
                      fargs);
             held)
         held evs)
  in
  Hashtbl.iter (fun key (s : summary) -> enqueue_root [ key ] s.evs) st.summaries;
  while not (Queue.is_empty roots) do
    let chain, evs = Queue.pop roots in
    let visiting =
      match chain with [ k ] -> SS.singleton k | _ -> SS.empty
    in
    go ~held:[] ~chain ~env:[] ~visiting evs
  done;
  edges_tbl

(* ---------------- results ---------------- *)

let findings_of_edges edges_tbl =
  Hashtbl.fold
    (fun _ e acc ->
      match (e.e_src_rank, e.e_dst_rank) with
      | Some sr, Some dr when dr < sr ->
        Finding.v ~chain:e.e_chain ~file:e.e_site.s_file ~line:e.e_site.s_line ~rule:"R9"
          (Printf.sprintf
             "lock-order inversion: acquires '%s' (rank %d) while holding '%s' (rank %d)"
             e.e_dst dr e.e_src sr)
        :: acc
      | Some sr, Some dr when dr = sr ->
        Finding.v ~chain:e.e_chain ~file:e.e_site.s_file ~line:e.e_site.s_line ~rule:"R9"
          (Printf.sprintf
             "same-rank acquisition: acquires '%s' (rank %d) while holding '%s' (rank %d)"
             e.e_dst dr e.e_src sr)
        :: acc
      | _ -> acc)
    edges_tbl []
  |> List.sort Finding.compare_finding

let rec dump_ev ppf ev =
  match ev with
  | Acquire (s, _, body) ->
    Format.fprintf ppf "Acquire(%s)[%a]"
      (match s with Some s -> slot_repr s | None -> "?")
      (Format.pp_print_list dump_ev) body
  | Bare (s, _) -> Format.fprintf ppf "Bare(%s)" (match s with Some s -> slot_repr s | None -> "?")
  | Wait (s, _) -> Format.fprintf ppf "Wait(%s)" (match s with Some s -> slot_repr s | None -> "?")
  | Call c ->
    Format.fprintf ppf "Call(%s){%a}" c.key
      (Format.pp_print_list (fun ppf fa -> Format.fprintf ppf "[%a]" (Format.pp_print_list dump_ev) fa))
      (Array.to_list c.fargs)
  | ParamI id -> Format.fprintf ppf "Param(%s)" (Ident.name id)
  | Spawn body -> Format.fprintf ppf "Spawn[%a]" (Format.pp_print_list dump_ev) body

let debug_dump st =
  match Sys.getenv_opt "LSM_LINT_DEBUG" with
  | Some pat when pat <> "" ->
    Hashtbl.iter
      (fun key (s : summary) ->
        let matches =
          let lp = String.lowercase_ascii pat and lk = String.lowercase_ascii key in
          let ln = String.length lp and lkn = String.length lk in
          let rec go i = i + ln <= lkn && (String.sub lk i ln = lp || go (i + 1)) in
          go 0
        in
        if matches then
          Format.eprintf "SUMMARY %s: %a@." key (Format.pp_print_list dump_ev) s.evs)
      st.summaries
  | _ -> ()

let analyze (infos : Cmts.info list) : result =
  let st = create_state () in
  List.iter (rank_pass st) infos;
  (* Ordered_mutex implements the primitives (raw Mutex under the
     hood); only its Rank table participates in the analysis. *)
  let infos = List.filter (fun (i : Cmts.info) -> i.modname <> "Ordered_mutex") infos in
  let mk (info : Cmts.info) =
    {
      st;
      file = info.source;
      modpath = [ info.modname ];
      aliases = Hashtbl.create 8;
      toplevels = Hashtbl.create 32;
    }
  in
  (* Two class passes: the second lets fields bound via a
     returns-a-mutex helper (io_stats' mk_mutex) resolve regardless of
     the order modules were loaded in. *)
  List.iter (fun i -> class_pass (mk i) i.Cmts.str) infos;
  List.iter (fun i -> class_pass (mk i) i.Cmts.str) infos;
  List.iter (fun i -> build_summaries (mk i) i.Cmts.str) infos;
  debug_dump st;
  let edges_tbl = expand st in
  let edges =
    Hashtbl.fold (fun _ e acc -> e :: acc) edges_tbl []
    |> List.sort (fun a b ->
           match String.compare a.e_src b.e_src with
           | 0 -> String.compare a.e_dst b.e_dst
           | c -> c)
  in
  let classes =
    let seen = Hashtbl.create 16 in
    Hashtbl.fold
      (fun _ c acc ->
        if Hashtbl.mem seen c.c_name then acc
        else begin
          Hashtbl.replace seen c.c_name ();
          (c.c_name, c.c_rank) :: acc
        end)
      st.classes []
    |> List.sort (fun (na, ra) (nb, rb) ->
           match compare ra rb with 0 -> String.compare na nb | c -> c)
  in
  { classes; edges; findings = findings_of_edges edges_tbl @ st.diagnostics }
