module Comparator = Lsm_util.Comparator
module Table_meta = Lsm_sstable.Table_meta
module Policy = Lsm_compaction.Policy
module Picker = Lsm_compaction.Picker

type output = Fresh_run | Join of int

type pick = {
  level : int;
  inputs : Version.run list;
  target : int;
  output : output;
  bottom : bool;
  trivial_move : bool;
  lo : string;
  hi : string;
  cursor : (int * string) option;
}

let input_files p = List.concat_map (fun (r : Version.run) -> r.Version.files) p.inputs

(* What every shape reads: the tree and how to measure it. *)
type tree = {
  cfg : Config.t;
  v : Version.t;
  cmp : Comparator.t;
  last : int;
  reach : Table_meta.t -> string;
}

let run_cap tr l =
  Policy.run_cap tr.cfg.Config.compaction ~level:l ~last_level:(max 1 tr.last)

let span cmp runs = Option.value ~default:("", "") (Version.runs_key_range ~cmp runs)

let guarded tr =
  match tr.cfg.Config.compaction.Policy.layout with Policy.Guarded _ -> true | _ -> false

let overlap_at tr level ~lo ~hi =
  Picker.overlapping ~cmp:tr.cmp ~lo ~hi (Version.level_files tr.v level)

(* The output group of a merge into leveled [level]: its run's, when it
   holds exactly one. *)
let join tr level =
  match Version.level_runs tr.v level with [ r ] -> Join r.Version.group | _ -> Fresh_run

(* ---------------- shapes ---------------- *)

(* Every run of level [l] into [l + 1]: appended there as a fresh run
   when [l + 1] is tiered (a lone run of a level >= 1 may move
   unchanged), else merged with [l + 1]'s run. *)
let whole_level tr l =
  let runs = Version.level_runs tr.v l in
  let next = Version.level_runs tr.v (l + 1) in
  let lo, hi = span tr.cmp (runs @ next) in
  let pick =
    { level = l; inputs = runs @ next; target = l + 1; output = join tr (l + 1);
      bottom = tr.last <= l + 1; trivial_move = false; lo; hi; cursor = None }
  in
  if run_cap tr (l + 1) > 1 then
    { pick with inputs = runs; output = Fresh_run; bottom = pick.bottom && next = [];
                trivial_move = l > 0 && List.length runs = 1 }
  else pick

(* File [f] of leveled level [l] with its [reach]-widened overlap in
   leveled [l + 1]: the overlap merges a range tombstone's victims along
   with it (else retiring the tombstone at the bottom would resurrect
   them). *)
let single_file tr l (f : Table_meta.t) =
  let overlap = overlap_at tr (l + 1) ~lo:f.min_key ~hi:(tr.reach f) in
  let lo, hi = span tr.cmp [ { Version.group = 0; files = f :: overlap } ] in
  { level = l;
    inputs = [ { Version.group = max_int; files = [ f ] }; { Version.group = 0; files = overlap } ];
    target = l + 1; output = join tr (l + 1); bottom = tr.last <= l + 1;
    trivial_move = overlap = []; lo; hi; cursor = Some (l, f.max_key) }

(* A guard of a [Policy.Guarded] level: a key-overlap component of the
   level's files — its runs restricted to the component's files, newest
   first — with its inclusive [reach]-widened key span. *)
type guard = { g_runs : Version.run list; g_lo : string; g_hi : string; g_bytes : int }

(* Guard [g] of level [l] into a fresh run of [l + 1], or in place at the
   last level while it is under capacity. Appending leaves the target
   level's own runs in place, so tombstones retire only where nothing
   there overlaps the guard; in place, the guard holds everything at the
   last level it covers. *)
let guard_merge tr l g =
  let in_place =
    l >= tr.last && Version.level_bytes tr.v l <= Config.level_capacity tr.cfg l
  in
  let target = if in_place then l else l + 1 in
  let overlap level = overlap_at tr level ~lo:g.g_lo ~hi:g.g_hi in
  let lo, hi = span tr.cmp ({ Version.group = 0; files = overlap (l + 1) } :: g.g_runs) in
  { level = l; inputs = g.g_runs; target; output = Fresh_run;
    bottom = in_place || (tr.last <= target && overlap target = []);
    trivial_move = false; lo; hi; cursor = None }

(* The guards of guarded level [l], key-ascending: its files closed under
   overlap of their [reach]-widened spans, so a range tombstone and all
   its victims at the level always merge together. *)
let guards_of_level tr l =
  let cmp = tr.cmp.Comparator.compare in
  let spans =
    List.concat_map
      (fun (r : Version.run) ->
        List.map (fun (f : Table_meta.t) -> (r.Version.group, f, tr.reach f)) r.Version.files)
      (Version.level_runs tr.v l)
    |> List.stable_sort (fun (_, (a : Table_meta.t), _) (_, (b : Table_meta.t), _) ->
           cmp a.min_key b.min_key)
  in
  (* [members]: (group, file), key-descending *)
  let guard (members, lo, hi) =
    let g_runs =
      List.fold_right
        (fun (group, f) (runs : Version.run list) ->
          match runs with
          | r :: rest when r.Version.group = group ->
            { r with Version.files = f :: r.files } :: rest
          | _ -> { Version.group; files = [ f ] } :: runs)
        (List.stable_sort (fun (a, _) (b, _) -> compare b a) (List.rev members))
        []
    in
    let g_bytes = List.fold_left (fun a (_, (f : Table_meta.t)) -> a + f.size) 0 members in
    { g_runs; g_lo = lo; g_hi = hi; g_bytes }
  in
  let rec sweep acc cur = function
    | [] -> List.rev_map guard (Option.fold ~none:acc ~some:(fun c -> c :: acc) cur)
    | (group, (f : Table_meta.t), r) :: rest -> (
      match cur with
      | Some (members, lo, hi) when cmp f.min_key hi <= 0 ->
        sweep acc (Some ((group, f) :: members, lo, Comparator.max_key tr.cmp hi r)) rest
      | _ ->
        sweep
          (Option.fold ~none:acc ~some:(fun c -> c :: acc) cur)
          (Some ([ (group, f) ], f.min_key, r))
          rest)
  in
  sweep [] None spans

(* ---------------- triggers ---------------- *)

let over_capacity tr l = Version.level_bytes tr.v l > Config.level_capacity tr.cfg l

(* PebblesDB's triggers for guarded level [l]: the first guard holding
   more than [size_ratio] runs (fragments); failing that, when the level
   is over capacity, its heaviest guard (the first, on ties). *)
let guard_trigger tr l =
  let guards = guards_of_level tr l in
  match
    List.find_opt
      (fun g -> List.length g.g_runs > tr.cfg.Config.compaction.Policy.size_ratio)
      guards
  with
  | Some g -> Some (guard_merge tr l g)
  | None when over_capacity tr l ->
    List.fold_left
      (fun best g ->
        match best with Some b when b.g_bytes >= g.g_bytes -> best | _ -> Some g)
      None guards
    |> Option.map (guard_merge tr l)
  | None -> None

let ttl_of (policy : Policy.t) =
  match policy.Policy.movement with Policy.Expired_ttl { ttl } -> Some ttl | _ -> None

(* The run-count or capacity trigger of level [l] >= 1. *)
let level_trigger tr ~now ~cursor l =
  let policy = tr.cfg.Config.compaction in
  let cap = run_cap tr l in
  if Version.level_runs tr.v l = [] then None
  else if guarded tr then guard_trigger tr l
  else if cap > 1 then
    if Version.run_count tr.v l >= cap then Some (whole_level tr l) else None
  else if not (over_capacity tr l) then None
  else if run_cap tr (l + 1) > 1 || policy.Policy.granularity = Policy.Whole_level then
    Some (whole_level tr l)
  else
    Picker.annotate ~cmp:tr.cmp ~now ~ttl:(ttl_of policy)
      ~next_level:(Version.level_files tr.v (l + 1))
      (Version.level_files tr.v l)
    |> Picker.pick policy.Policy.movement ~cursor:(cursor l)
    |> Option.map (single_file tr l)

(* Lethe's delete-driven trigger: the first file (shallowest level first)
   with expired tombstones forces a compaction even when its level is
   under capacity. It names the file; a level that is tiered, or feeds a
   tiered one, merges whole, as its run-count trigger would: moving one
   file of a newer run below its level's older runs would let them
   shadow it. Movement does not apply to guarded levels, so there it
   watches level 0 only. *)
let ttl_trigger tr ~now ~ttl =
  let expired (f : Table_meta.t) =
    f.point_tombstones + f.range_tombstones > 0 && now - f.created_at > ttl
  in
  let deepest = if guarded tr then 0 else Version.max_levels - 2 in
  List.init (deepest + 1) Fun.id
  |> List.find_map (fun l ->
         List.find_opt expired (Version.level_files tr.v l)
         |> Option.map (fun f ->
                if l > 0 && run_cap tr l = 1 && run_cap tr (l + 1) = 1 then
                  single_file tr l f
                else whole_level tr l))

let next cfg v ~now ~cursor ~reach =
  let tr = { cfg; v; cmp = cfg.Config.comparator; last = Version.last_level v; reach } in
  let policy = cfg.Config.compaction in
  let l0 = Version.run_count v 0 in
  if l0 >= policy.Policy.level0_limit && l0 > 0 then Some (whole_level tr 0)
  else
    match
      List.find_map (level_trigger tr ~now ~cursor) (List.init (Version.max_levels - 2) succ)
    with
    | Some _ as pick -> pick
    | None -> Option.bind (ttl_of policy) (fun ttl -> ttl_trigger tr ~now ~ttl)

let major cfg v =
  match List.concat_map (Version.level_runs v) (List.init Version.max_levels Fun.id) with
  | [] -> None
  | runs ->
    let lo, hi = span cfg.Config.comparator runs in
    Some
      { level = 0; inputs = runs; target = max 1 (Version.last_level v); output = Fresh_run;
        bottom = true; trivial_move = false; lo; hi; cursor = None }
