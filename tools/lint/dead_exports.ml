(* R14: dead exports over the Typedtree.

   A value that a lib/ interface exports (nested modules such as
   [Block.Cursor] included) must have a use outside its own module:
   otherwise it is either dead code or an internal helper that the
   .mli should not publish. Uses are the resolved [Texp_ident] paths
   in the .cmt files of the repository's caller roots ([roots] below);
   test/ is not one of them, so a value only tests call is a finding.
   There are no functors in the tree, so every use of a module's value
   is a path through that module, an alias of it, or a whole-module
   use (first-class packing, [include], a signature coercion), which
   counts as a use of every value in it.

   The caller roots are resolved against the build directory holding
   the analysed [lib] root: `--typed _build/default/lib` judges lib/'s
   interfaces against _build/default/{lib,bin,bench,...}. Executables
   keep their .cmt files only once `dune build @check` has run, so a
   caller root whose executables have none is an error, not a silent
   pass that would flag everything they call. *)

open Typedtree

(* Every directory whose code counts as a caller. *)
let roots = [ "lib"; "bin"; "bench"; "perfbench"; "tools"; "examples" ]

(* Interfaces R14 does not judge. lib/workload is the crash,
   corruption and server harness that tests and bench drive: its
   exports are its harness API for test/, so a test-only caller is its
   purpose there, not a leftover. *)
let exempt_dirs = [ "lib/workload/" ]

(* ---------------- uses ---------------- *)

type uses = {
  values : (string, unit) Hashtbl.t;  (** canonical value paths used *)
  whole : (string, unit) Hashtbl.t;  (** modules used as a whole *)
}

(* Components of a path headed by a compilation unit, or by one of the
   unit's own module aliases resolved through [local]; [None] for a
   path headed by a local module, which names no unit's export. *)
let rec unit_comps local (p : Path.t) =
  match p with
  | Pident id -> (
    match Hashtbl.find_opt local (Ident.unique_name id) with
    | Some c -> Some c
    | None -> if Ident.persistent id then Some [ Ident.name id ] else None)
  | Pdot (q, s) -> Option.map (fun c -> c @ [ s ]) (unit_comps local q)
  | _ -> None

(* Top-level module aliases of every unit, by canonical name: an
   executable's [Common] declaring [module Device = Lsm_storage.Device]
   lets [open Common] reach [Device.x] as [Common.Device.x]. *)
let unit_aliases infos =
  let tbl : (string list, string list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (info : Cmts.info) ->
      List.iter
        (fun item ->
          match item.str_desc with
          | Tstr_module { mb_id = Some id; mb_expr = { mod_desc = Tmod_ident (p, _); _ }; _ } ->
            Option.iter
              (fun c -> Hashtbl.replace tbl [ info.modname; Ident.name id ] (Cmts.canon_components c))
              (unit_comps (Hashtbl.create 0) p)
          | _ -> ())
        info.str.str_items)
    infos;
  tbl

(* Rewrite a leading [Unit.Alias] to the alias's target, to a fixed
   point (an alias may name another unit's alias). *)
let rec expand aliases = function
  | u :: m :: rest as comps -> (
    match Hashtbl.find_opt aliases [ u; m ] with
    | Some target when target <> [ u; m ] -> expand aliases (target @ rest)
    | _ -> comps)
  | comps -> comps

(* Record every value path one unit names. Its own module aliases
   ([module B = Lsm_sstable.Block], [let module B = ...]) and other
   units' aliases are resolved to their target, and only paths headed
   by a compilation unit count: a local module that happens to share a
   unit's name is not a use. *)
let note_uses uses aliases (info : Cmts.info) =
  let local : (string, string list) Hashtbl.t = Hashtbl.create 8 in
  let key p =
    Option.map
      (fun c -> String.concat "." (expand aliases (Cmts.canon_components c)))
      (unit_comps local p)
  in
  let alias id p = Option.iter (Hashtbl.replace local (Ident.unique_name id)) (unit_comps local p) in
  let add tbl p = Option.iter (fun k -> if k <> "" then Hashtbl.replace tbl k ()) (key p) in
  let super = Tast_iterator.default_iterator in
  let it =
    {
      super with
      module_binding =
        (fun it mb ->
          match (mb.mb_id, mb.mb_expr.mod_desc) with
          | Some id, Tmod_ident (p, _) -> alias id p
          | _ -> super.module_binding it mb);
      (* [open M] brings names into scope; the uses it enables resolve
         to [M.x] paths of their own. *)
      open_declaration =
        (fun it od ->
          match od.open_expr.mod_desc with
          | Tmod_ident _ -> ()
          | _ -> super.open_declaration it od);
      expr =
        (fun it e ->
          match e.exp_desc with
          | Texp_ident (p, _, _) -> add uses.values p
          | Texp_letmodule (Some id, _, _, { mod_desc = Tmod_ident (p, _); _ }, body) ->
            alias id p;
            it.expr it body
          | _ -> super.expr it e);
      module_expr =
        (fun it me ->
          (match me.mod_desc with Tmod_ident (p, _) -> add uses.whole p | _ -> ());
          super.module_expr it me);
    }
  in
  it.structure it info.Cmts.str

(* ---------------- exports ---------------- *)

type export = { key : string; file : string; line : int }

(* The values one interface declares, nested module signatures
   included; values a signature takes from elsewhere (a [Map.S]
   instance) are not its own to delete. The finding points at the
   .mli line: the recorded source path when it resolves from the cwd
   (the project root under `dune exec`), else the copy dune keeps beside
   the library's [.objs] directory, three levels above the .cmti. *)
let exports_of_cmti path =
  match Cmt_format.read_cmt path with
  | { cmt_annots = Cmt_format.Interface sg; cmt_modname; cmt_sourcefile = Some src; _ }
    when not (List.exists (fun dir -> String.starts_with ~prefix:dir src) exempt_dirs) ->
    Cmts.note_wrapper cmt_modname;
    let file =
      if Sys.file_exists src then src
      else
        let up = Filename.dirname in
        Filename.concat (up (up (up path))) (Filename.basename src)
    in
    let out = ref [] in
    let rec walk prefix (items : Types.signature) =
      List.iter
        (function
          | Types.Sig_value (id, vd, _) ->
            let pos = vd.Types.val_loc.Location.loc_start in
            if pos.Lexing.pos_fname = src then
              out := { key = prefix ^ "." ^ Ident.name id; file; line = pos.Lexing.pos_lnum } :: !out
          | Types.Sig_module (id, _, { Types.md_type = Types.Mty_signature sg; _ }, _, _) ->
            walk (prefix ^ "." ^ Ident.name id) sg
          | _ -> ())
        items
    in
    walk (Cmts.canon_modname cmt_modname) sg.sig_type;
    List.rev !out
  | _ -> []
  | exception _ -> []

(* ---------------- the rule ---------------- *)

(* A caller root's executables whose .cmt files are missing: only
   their .cmti (and native objects) exist after a plain `dune build`. *)
let rec unchecked_exes dir =
  match Sys.readdir dir with
  | entries ->
    Array.to_list entries
    |> List.concat_map (fun e ->
         let p = Filename.concat dir e in
         if Filename.check_suffix e ".eobjs" then
           let byte = Filename.concat p "byte" in
           let has_cmt =
             Sys.file_exists byte
             && Array.exists (fun f -> Filename.check_suffix f ".cmt") (Sys.readdir byte)
           in
           if has_cmt then [] else [ p ]
         else if Sys.is_directory p then unchecked_exes p
         else [])
  | exception Sys_error _ -> []

(* Judge the interfaces under one [lib] root against the uses in the
   caller roots beside it. *)
let analyze_lib lib =
  let context = Filename.dirname lib in
  let callers = List.map (Filename.concat context) roots |> List.filter Sys.file_exists in
  (match List.concat_map unchecked_exes callers with
  | [] -> ()
  | dir :: _ ->
    raise
      (Sys_error (Printf.sprintf "R14 needs the .cmt files of %s: run `dune build @check` first" dir)));
  (* Interfaces first: a library whose modules all have one leaves no
     implementation .cmt of them in a native-only build, so its wrapper
     is learnt from the .cmti. *)
  let exports = Cmts.collect_cmt ~suffix:".cmti" lib |> List.concat_map exports_of_cmti in
  let uses = { values = Hashtbl.create 4096; whole = Hashtbl.create 64 } in
  let infos = Cmts.load ~exes:true callers in
  List.iter (note_uses uses (unit_aliases infos)) infos;
  (* used by path, or through an enclosing module used as a whole *)
  let used e =
    let rec enclosing m = function
      | [] | [ _ ] -> false
      | p :: rest ->
        let m = if m = "" then p else m ^ "." ^ p in
        Hashtbl.mem uses.whole m || enclosing m rest
    in
    Hashtbl.mem uses.values e.key || enclosing "" (String.split_on_char '.' e.key)
  in
  let findings =
    List.filter_map
      (fun e ->
        if used e then None
        else
          Some
            (Finding.v ~file:e.file ~line:e.line ~rule:"R14"
               (Printf.sprintf
                  "%s is exported but nothing outside its module uses it (test/ does not \
                   count): delete it, drop it from the .mli, or allow R14 with a reason"
                  e.key)))
      exports
  in
  (findings, List.sort_uniq String.compare (List.map (fun e -> e.file) exports))

type result = { findings : Finding.t list; interfaces : string list }

(* R14 over every [lib] root among [typed_roots]. *)
let analyze typed_roots =
  let judged = List.filter (fun r -> Filename.basename r = "lib") typed_roots |> List.map analyze_lib in
  { findings = List.concat_map fst judged; interfaces = List.concat_map snd judged }
