(* lsm-lint driver: ties the two frontends together.

   The Parsetree frontend (Parse_rules, R1–R8, R12, R13) parses sources
   directly, so it runs on anything — including fixtures that do not
   compile. The Typedtree frontend (Typed_rules, R9, R10, R14) loads
   dune's .cmt output, so it sees resolved paths and inferred types
   across modules — the price is that its subjects must build first.

   Suppression comments are applied here, across both frontends, so
   that a suppression seen by either counts as used and stale ones can
   be reported (R0): an allow that no longer absorbs a finding is
   itself a finding, so dead allows cannot accumulate. The .mli files
   R14 judged are scanned too, since its allows live there. *)

type format = Text | Json

let all_rules = Parse_rules.all_rules @ Typed_rules.rules

(* Filter [findings] through per-file suppression comments; report
   malformed suppressions and — for files whose suppressed rules were
   all active this run — suppressions that suppressed nothing. [files]
   lists every file whose comments should be scanned even if it
   produced no findings (a stale allow in a clean file must still
   surface). *)
let apply_suppressions ~active ~files findings =
  let tbl = Hashtbl.create 32 in
  let get file =
    match Hashtbl.find_opt tbl file with
    | Some v -> v
    | None ->
      let v = Finding.load_suppressions file in
      Hashtbl.replace tbl file v;
      v
  in
  List.iter (fun f -> ignore (get f)) files;
  let kept =
    List.filter
      (fun (f : Finding.t) ->
        f.Finding.rule = "R0"
        ||
        let sups, _ = get f.Finding.file in
        not (Finding.suppressed sups f.Finding.rule f.Finding.line))
      findings
  in
  let extra = ref [] in
  Hashtbl.iter
    (fun file (sups, bad) ->
      extra := bad @ !extra;
      List.iter
        (fun (s : Finding.suppression) ->
          if
            (not s.Finding.s_used)
            && List.for_all (fun r -> List.mem r active) s.Finding.s_rules
          then
            extra :=
              Finding.v ~file ~line:s.Finding.s_first ~rule:"R0"
                (Printf.sprintf
                   "unused suppression (%s): nothing here to allow — remove it"
                   (String.concat "," s.Finding.s_rules))
              :: !extra)
        sups)
    tbl;
  List.sort Finding.compare_finding (kept @ !extra)

(* Parse-frontend entry point (tests use this directly). *)
let lint_paths ?(rules = Parse_rules.all_rules) paths =
  let active r = List.mem r rules in
  let files = List.concat_map Parse_rules.collect_ml paths in
  let raw = List.concat_map (Parse_rules.lint_file ~active) files in
  apply_suppressions ~active:rules ~files raw

(* Typed-frontend entry point (tests use this directly). *)
let typed_analysis ?(rules = [ "R9"; "R10" ]) roots = Typed_rules.analyze ~active:rules roots

(* The typed frontend's findings as the CLI reports them: suppressions
   applied, and every interface R14 judged scanned for stale allows. *)
let typed_lint ~rules roots =
  let t = typed_analysis ~rules roots in
  apply_suppressions ~active:rules ~files:t.Typed_rules.dead_exports.Dead_exports.interfaces
    (Typed_rules.findings t)

type opts = {
  rules : string list;
  format : format;
  typed_roots : string list;  (* directories to sweep for .cmt; [] = skip *)
  show_lock_order : bool;
  lockdep_graph : string option;
}

let default_opts =
  {
    rules = all_rules;
    format = Text;
    typed_roots = [];
    show_lock_order = false;
    lockdep_graph = None;
  }

let run ?(opts = default_opts) paths =
  let parse_active r = List.mem r opts.rules && List.mem r Parse_rules.all_rules in
  let files = List.concat_map Parse_rules.collect_ml paths in
  let parse_raw = List.concat_map (Parse_rules.lint_file ~active:parse_active) files in
  let typed =
    if opts.typed_roots = [] then None
    else
      let active = List.filter (fun r -> List.mem r Typed_rules.rules) opts.rules in
      Some (typed_analysis ~rules:active opts.typed_roots)
  in
  let typed_raw, interfaces =
    match typed with
    | Some t -> (Typed_rules.findings t, t.Typed_rules.dead_exports.Dead_exports.interfaces)
    | None -> ([], [])
  in
  let active_eff =
    List.filter
      (fun r -> parse_active r || (typed <> None && List.mem r Typed_rules.rules))
      opts.rules
  in
  let findings =
    apply_suppressions ~active:active_eff ~files:(files @ interfaces) (parse_raw @ typed_raw)
  in
  let graph_report =
    Option.map
      (fun file ->
        let static_edges =
          match typed with
          | Some t -> t.Typed_rules.lock_order.Lock_summary.edges
          | None -> []
        in
        Lockdep_graph.analyze ~file ~static_edges)
      opts.lockdep_graph
  in
  let graph_findings =
    match graph_report with Some r -> r.Lockdep_graph.g_findings | None -> []
  in
  let findings = findings @ graph_findings in
  (match opts.format with
  | Json -> print_endline (Finding.list_to_json findings)
  | Text ->
    List.iter (fun f -> Format.printf "%a@." Finding.pp_text f) findings;
    (match (typed, opts.show_lock_order) with
    | Some t, true -> Typed_rules.pp_lock_order Format.std_formatter t.Typed_rules.lock_order
    | _ -> ());
    (match (graph_report, typed) with
    | Some r, Some _ -> Lockdep_graph.pp_cross_check Format.std_formatter r
    | Some r, None ->
      Format.printf "lockdep graph: %d observed edge(s), %d cycle(s)@."
        (List.length r.Lockdep_graph.g_edges)
        (List.length r.Lockdep_graph.g_findings)
    | None, _ -> ()));
  if findings = [] then 0 else 1
