(* Typedtree frontend plumbing: find and load dune's `.cmt` output and
   canonicalize compiler [Path.t]s into stable, wrapper-free names.

   Dune compiles every library module with [-bin-annot], so a plain
   `dune build` leaves `<Wrapper>__<Module>.cmt` files under each
   library's `.objs/byte/` directory. Loading those gives the analyses
   resolved paths and inferred types — exactly what the Parsetree
   frontend cannot see across module boundaries.

   Canonicalization maps both spellings of a cross-library reference —
   the alias route (`Lsm_util.Ordered_mutex.with_lock`) and the mangled
   unit (`Lsm_util__Ordered_mutex.with_lock`) — to one key,
   `Ordered_mutex.with_lock`, by stripping `Prefix__` manglings and
   dropping known library-wrapper components. The wrapper set is
   inferred from the loaded cmt set itself (every `A__B` modname
   contributes prefix `A`), so the same code canonicalizes the real
   tree and compiled test fixtures alike. *)

type info = {
  modname : string;  (** canonical module name, e.g. ["Db"] *)
  source : string;  (** source path as recorded by the compiler *)
  str : Typedtree.structure;
}

(* Last segment after the final "__": "Lsm_core__Db" -> "Db",
   "Lsm_util__" -> "". *)
let strip_prefix comp =
  let n = String.length comp in
  let rec find i =
    if i + 1 >= n then None
    else if comp.[i] = '_' && comp.[i + 1] = '_' then Some i
    else find (i + 1)
  in
  let rec last acc i = match find i with Some j -> last (Some j) (j + 2) | None -> acc in
  match last None 0 with
  | Some j -> String.sub comp (j + 2) (n - j - 2)
  | None -> comp

(* Library wrapper names discovered from loaded cmts; components that
   match are dropped during canonicalization. The repo's own library
   wrappers are seeded up front so an analysis of a small cmt set
   (compiled test fixtures referencing Lsm_util) canonicalizes the same
   way as an analysis of the whole tree. Note "Lsm_error" is a module
   inside lsm_util, not a wrapper — it must not appear here. *)
let wrappers : (string, unit) Hashtbl.t = Hashtbl.create 16

let () =
  List.iter
    (fun w -> Hashtbl.replace wrappers w ())
    [
      "Lsm_util"; "Lsm_record"; "Lsm_storage"; "Lsm_memtable"; "Lsm_filter";
      "Lsm_sstable"; "Lsm_compaction"; "Lsm_core"; "Lsm_cost"; "Lsm_server";
      "Lsm_workload"; "Lsm_kvsep"; "Lsm_index";
    ]

(* "Lsm_core__Db" -> wrapper "Lsm_core" (dune also emits a bare
   "Lsm_core" alias unit, caught by the same name). *)
let note_wrapper modname =
  let n = String.length modname in
  let rec first_sep i =
    if i + 1 >= n then None
    else if modname.[i] = '_' && modname.[i + 1] = '_' then Some i
    else first_sep (i + 1)
  in
  match first_sep 0 with
  | Some j when j > 0 -> Hashtbl.replace wrappers (String.sub modname 0 j) ()
  | _ -> ()

let is_wrapper c = Hashtbl.mem wrappers c || c = "Stdlib"

let rec flatten_path (p : Path.t) =
  match p with
  | Path.Pident id -> [ Ident.name id ]
  | Path.Pdot (p, s) -> flatten_path p @ [ s ]
  | Path.Papply _ -> [ "?" ]
  | _ -> [ "?" ]

(* Canonical dotted name for a resolved path: mangled prefixes
   stripped, wrapper components dropped. *)
let canon_components comps =
  comps
  (* dune's alias module of an executable's own modules *)
  |> List.filter (fun c -> c <> "Dune__exe")
  |> List.map strip_prefix
  |> List.filter (fun c -> c <> "" && not (is_wrapper c))

let canon_path p = String.concat "." (canon_components (flatten_path p))

let canon_modname m = match canon_components [ m ] with [ c ] -> c | _ -> m

(* ---------------- type helpers ---------------- *)

(* Head-constructor names occurring anywhere in a type expression, to a
   small depth (enough for iterators inside options/lists/tuples/
   closures; pinned types never hide deeper in this codebase). *)
let rec type_mentions ~pinned depth (ty : Types.type_expr) =
  depth > 0
  &&
  match Types.get_desc ty with
  | Types.Tconstr (p, args, _) ->
    List.mem (canon_path p) pinned || List.exists (type_mentions ~pinned (depth - 1)) args
  | Types.Ttuple ts -> List.exists (type_mentions ~pinned (depth - 1)) ts
  | Types.Tarrow (_, a, b, _) ->
    type_mentions ~pinned (depth - 1) a || type_mentions ~pinned (depth - 1) b
  | Types.Tlink t | Types.Tsubst (t, _) -> type_mentions ~pinned depth t
  | _ -> false

let type_is_pinned ~pinned ty = type_mentions ~pinned 5 ty

(* Result type of a function type (chasing all arrows). *)
let rec result_type ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, _, r, _) -> result_type r
  | Types.Tlink t | Types.Tsubst (t, _) -> result_type t
  | _ -> ty

(* ---------------- cmt discovery and loading ---------------- *)

(* Recursive sweep for [suffix] files; descends into dot-directories
   (dune's .objs live there) but skips executable object dirs (.eobjs)
   unless [exes]: R9 and R10 target libraries, R14 counts executables
   among the callers. *)
let rec collect_cmt ?(exes = false) ?(suffix = ".cmt") path =
  match Sys.is_directory path with
  | true ->
    if Filename.check_suffix path ".eobjs" && not exes then []
    else
      Sys.readdir path |> Array.to_list |> List.sort String.compare
      |> List.concat_map (fun entry -> collect_cmt ~exes ~suffix (Filename.concat path entry))
  | false -> if Filename.check_suffix path suffix then [ path ] else []
  | exception Sys_error _ -> []

let load_file path =
  match Cmt_format.read_cmt path with
  | { cmt_annots = Cmt_format.Implementation str; cmt_modname; cmt_sourcefile; _ } ->
    note_wrapper cmt_modname;
    let source = match cmt_sourcefile with Some s -> s | None -> path in
    Some { modname = cmt_modname; source; str }
  | _ -> None
  | exception _ -> None

(* Load every implementation cmt under [roots]. Two passes over the
   names so wrapper inference sees the whole set before any path is
   canonicalized. *)
let load ?exes roots =
  let files = List.concat_map (collect_cmt ?exes) roots in
  let infos = List.filter_map load_file files in
  List.map (fun i -> { i with modname = canon_modname i.modname }) infos
  |> List.filter (fun i -> i.modname <> "")
  (* Drop dune's generated alias units (module A = Lib__A lists): their
     canonical name collides with the wrapper and they contain no code. *)
  |> List.filter (fun i -> not (Filename.check_suffix i.source ".ml-gen"))
