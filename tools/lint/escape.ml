(* R10: iterator / read-view escape analysis over the Typedtree.

   A [Read_path.ctx], a [Version.Pins.pin], and any [Iter.t] built from a
   pinned version are valid only inside the [with_pin]-style combinator
   that took the pin: once the pin is released, compaction may delete
   the tables those values point into. Scope-based lifetimes are not
   expressible in OCaml's types, so this pass flags the three ways such
   a value can outlive its pin:

   1. stored into module-level mutable state (`ref :=`, Hashtbl.add/
      replace, Atomic.set, or a field assignment on a module-level
      value);
   2. captured free by a closure handed to a deferred executor
      (Scheduler.submit/enqueue/set_on_commit, Domain_pool.submit,
      Domain.spawn, Thread.create, at_exit) — the closure runs after
      the submitting scope, pin and all, has unwound. Note
      Domain_pool.map_list is deliberately NOT in this set: it joins
      all chunks before returning, so the caller's pin covers the
      workers (Db.multi_get relies on exactly that);
   3. returned out of the pin combinator itself: the result type of a
      [Db.with_pin]/[Version.Pins.with_pin] application mentions a
      pinned type. *)

open Typedtree

let pinned = [ "Read_path.ctx"; "Version.Pins.pin"; "Iter.t" ]

let deferral_keys =
  [
    "Domain_pool.submit";
    "Scheduler.submit";
    "Scheduler.enqueue";
    "Scheduler.set_on_commit";
    "Domain.spawn";
    "Thread.create";
    "at_exit";
    "Stdlib.at_exit";
  ]

let pin_combinators = [ "Db.with_pin"; "Version.Pins.with_pin" ]

(* Module-level mutable-store primitives: (canonical key, index of the
   container argument, index of the stored-value argument). *)
let store_prims =
  [ (":=", 0, 1); ("Hashtbl.add", 0, 2); ("Hashtbl.replace", 0, 2); ("Atomic.set", 0, 1) ]

let line_of e = e.exp_loc.Location.loc_start.Lexing.pos_lnum

let is_pinned ty = Cmts.type_is_pinned ~pinned ty

(* Canonical key of an applied identifier; bare references to the
   enclosing module's own functions are qualified with the module
   name so `with_pin t f` inside db.ml resolves to "Db.with_pin". *)
let key_of ~modname fn =
  match fn.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> Some (modname ^ "." ^ Ident.name id)
  | Texp_ident (p, _, _) ->
    let c = Cmts.canon_path p in
    if c = "" then None else Some c
  | _ -> None

(* Free variables of pinned type inside a lambda: idents used at a
   pinned type that no pattern inside the lambda binds. *)
let free_pinned_vars lam =
  let bound : (Ident.t, unit) Hashtbl.t = Hashtbl.create 16 in
  let uses = ref [] in
  let it =
    {
      Tast_iterator.default_iterator with
      pat =
        (fun it p ->
          List.iter (fun id -> Hashtbl.replace bound id ()) (pat_bound_idents p);
          Tast_iterator.default_iterator.pat it p);
      expr =
        (fun it e ->
          (match e.exp_desc with
          | Texp_ident (Path.Pident id, _, _) when is_pinned e.exp_type ->
            uses := (id, line_of e) :: !uses
          | _ -> ());
          Tast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it lam;
  List.filter (fun (id, _) -> not (Hashtbl.mem bound id)) (List.rev !uses)

let analyze_module (info : Cmts.info) : Finding.t list =
  let file = info.source in
  let findings = ref [] in
  let add ~line msg = findings := Finding.v ~file ~line ~rule:"R10" msg :: !findings in
  (* Module-level value idents, nested modules included: targets for
     the "stored into module state" check. *)
  let global_ids : (Ident.t, unit) Hashtbl.t = Hashtbl.create 32 in
  let rec note_globals str =
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
          List.iter
            (fun vb -> List.iter (fun id -> Hashtbl.replace global_ids id ()) (pat_bound_idents vb.vb_pat))
            vbs
        | Tstr_module
            {
              mb_expr =
                {
                  mod_desc =
                    ( Tmod_structure s
                    | Tmod_constraint ({ mod_desc = Tmod_structure s; _ }, _, _, _) );
                  _;
                };
              _;
            } ->
          note_globals s
        | _ -> ())
      str.str_items
  in
  note_globals info.str;
  let is_global e =
    match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) -> Hashtbl.mem global_ids id
    | Texp_ident (_, _, _) -> true (* module-qualified value *)
    | _ -> false
  in
  let rec check_apply e fn args =
    match fn.exp_desc with
    | Texp_apply (f2, args2) ->
      (* [f x @@ g] typechecks to a nested application — flatten. *)
      check_apply e f2 (args2 @ args)
    | _ -> check_apply_flat e fn args
  and check_apply_flat e fn args =
    let present = List.filter_map (fun (_, a) -> a) args in
    match key_of ~modname:info.modname fn with
    | None -> ()
    | Some key ->
      (* bare-ident keys also match unqualified prims like `:=` *)
      let short = match String.rindex_opt key '.' with
        | Some i -> String.sub key (i + 1) (String.length key - i - 1)
        | None -> key
      in
      List.iter
        (fun (prim, ci, vi) ->
          if key = prim || (prim = ":=" && short = ":=") then
            match (List.nth_opt present ci, List.nth_opt present vi) with
            | Some container, Some v when is_global container && is_pinned v.exp_type ->
              add ~line:(line_of e)
                (Printf.sprintf
                   "pinned value (%s) stored into module-level state via %s — it outlives its pin"
                   "iterator/read context/pin" prim)
            | _ -> ())
        store_prims;
      if List.mem key deferral_keys then
        List.iter
          (fun a ->
            match a.exp_desc with
            | Texp_function _ ->
              List.iter
                (fun (id, line) ->
                  add ~line
                    (Printf.sprintf
                       "closure deferred via %s captures pinned value '%s' — it runs after the pin is released"
                       key (Ident.name id)))
                (free_pinned_vars a)
            | _ -> ())
          present;
      if List.mem key pin_combinators && is_pinned e.exp_type then
        add ~line:(line_of e)
          (Printf.sprintf
             "pinned value escapes %s as its result — it is only valid while the pin is held" key)
  in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.exp_desc with
          | Texp_apply (fn, args) -> check_apply e fn args
          | Texp_setfield (base, _, _, v) when is_global base && is_pinned v.exp_type ->
            add ~line:(line_of e)
              "pinned value stored into a field of a module-level value — it outlives its pin"
          | _ -> ());
          Tast_iterator.default_iterator.expr it e);
    }
  in
  it.structure it info.str;
  List.rev !findings

let analyze (infos : Cmts.info list) : Finding.t list =
  List.concat_map analyze_module infos |> List.sort Finding.compare_finding
