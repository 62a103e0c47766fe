(* Typedtree frontend orchestration: load the .cmt set once, run the
   whole-program passes that need resolved paths and inferred types —
   R9 (static lockdep, Lock_summary), R10 (iterator/read-view escape,
   Escape) and R14 (dead exports, Dead_exports) — and hand back
   findings plus the derived lock-order facts for printing and for the
   runtime-graph cross-check. R9 and R10 see the libraries under the
   given roots; R14 resolves its own caller roots from them. *)

let rules = [ "R9"; "R10"; "R14" ]

type t = {
  infos : Cmts.info list;
  lock_order : Lock_summary.result;
  escape_findings : Finding.t list;
  dead_exports : Dead_exports.result;
}

let analyze ?(active = [ "R9"; "R10" ]) roots =
  let infos = Cmts.load roots in
  let lock_order =
    if List.mem "R9" active then Lock_summary.analyze infos
    else { Lock_summary.classes = []; edges = []; findings = [] }
  in
  let escape_findings = if List.mem "R10" active then Escape.analyze infos else [] in
  let dead_exports =
    if List.mem "R14" active then Dead_exports.analyze roots
    else { Dead_exports.findings = []; interfaces = [] }
  in
  { infos; lock_order; escape_findings; dead_exports }

let findings t =
  t.lock_order.Lock_summary.findings @ t.escape_findings @ t.dead_exports.Dead_exports.findings

let pp_rank_opt ppf = function
  | Some r -> Format.fprintf ppf "%d" r
  | None -> Format.fprintf ppf "?"

(* `lsm-lint --lock-order`: the independently derived hierarchy — the
   classes bound at Ordered_mutex.create sites (rank order) and every
   acquired-before edge the expansion produced, with its witness
   chain. On a clean tree this reprints the Rank table of
   lib/util/ordered_mutex.ml from the code alone. *)
let pp_lock_order ppf (r : Lock_summary.result) =
  Format.fprintf ppf "lock classes (derived from create sites, rank order):@.";
  List.iter
    (fun (name, rank) -> Format.fprintf ppf "  %a  %s@." pp_rank_opt rank name)
    r.Lock_summary.classes;
  Format.fprintf ppf "acquired-before edges (static, may-analysis):@.";
  List.iter
    (fun (e : Lock_summary.edge) ->
      Format.fprintf ppf "  %s (%a) -> %s (%a)  via %s@." e.e_src pp_rank_opt e.e_src_rank
        e.e_dst pp_rank_opt e.e_dst_rank
        (String.concat " -> " e.e_chain))
    r.Lock_summary.edges
