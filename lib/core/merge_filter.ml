module Entry = Lsm_record.Entry
module Iter = Lsm_record.Iter
module Comparator = Lsm_util.Comparator

let stripe_of ~snapshots seqno =
  (* Index of the first snapshot >= seqno; snapshots sorted ascending. *)
  let n = Array.length snapshots in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if snapshots.(mid) < seqno then lo := mid + 1 else hi := mid
  done;
  !lo

(* Range tombstones as (start, end-exclusive, seqno, stripe). A
   top-level recursion, not [List.exists] over a local closure, which
   would allocate per record. *)
let rec covered cmp key seqno st = function
  | [] -> false
  | (lo, hi, rseq, rstripe) :: rest ->
    (rseq > seqno && rstripe = st
    && cmp.Comparator.compare lo key <= 0
    && cmp.Comparator.compare key hi < 0)
    || covered cmp key seqno st rest

(* Where the filter's current record is. *)
type at =
  | Done  (** exhausted *)
  | Source  (** the source's current record *)
  | Saved  (** a kept single delete, saved before its look-ahead moved the source *)

let filtered ~cmp ~snapshots ~bottom ~range_tombstones (src : Iter.t) =
  let snapshots = Array.of_list (List.sort_uniq compare snapshots) in
  let stripe s = stripe_of ~snapshots s in
  let rds =
    List.filter_map
      (fun (e : Entry.t) ->
        if e.kind = Entry.Range_delete then Some (e.key, e.value, e.seqno, stripe e.seqno)
        else None)
      range_tombstones
  in
  let has_rds = rds <> [] in
  (* Streaming state, boxed once per filter: no record allocates. The
     filter decides on the source's view of each record — key, seqno,
     kind — and passes a survivor on as that same view, so no value is
     materialized. The current user key is a string plus a flag, not an
     option. *)
  let at = ref Done in
  let saved = ref (Entry.delete ~key:"" ~seqno:0) in
  let saved_view = Iter.new_view () in
  let cur_key = ref "" in
  let has_key = ref false in
  let kept_stripe = ref (-1) in
  let note_key k =
    if not (!has_key && String.equal !cur_key k) then begin
      cur_key := k;
      has_key := true;
      kept_stripe := -1
    end
  in
  (* Settle on the next record to keep, from the source's current one:
     a dropped record is stepped past, a kept one stays current in the
     source until the consumer moves on. *)
  let rec settle () =
    if not (src.Iter.valid ()) then at := Done
    else begin
      let v = src.Iter.view () in
      let key = v.Iter.key and seqno = v.Iter.seqno in
      note_key key;
      match v.Iter.kind with
      | Entry.Range_delete ->
        (* Oldest stripe at the bottom: every entry it could cover is in
           the inputs and already dropped; retire the tombstone. *)
        if bottom && stripe seqno = 0 then drop () else at := Source
      | (Entry.Put | Entry.Merge | Entry.Delete | Entry.Single_delete) as kind -> (
        let st = stripe seqno in
        if st = !kept_stripe then drop () (* shadowed within stripe *)
        else if has_rds && covered cmp key seqno st rds then drop ()
        else
          match kind with
          | Entry.Put ->
            kept_stripe := st;
            at := Source
          | Entry.Merge ->
            (* keep, but do not shadow: the chain's base must survive *)
            at := Source
          | Entry.Single_delete ->
            (* The look-ahead moves the source, so the tombstone is kept
               as an entry of its own: a GC decision may decode. *)
            let sd = Iter.view_entry v in
            src.Iter.next ();
            if
              src.Iter.valid ()
              &&
              let nxt = src.Iter.view () in
              String.equal nxt.Iter.key key
              && nxt.Iter.kind = Entry.Put
              && stripe nxt.Iter.seqno = st
            then
              (* Annihilate the pair; older versions resurface, which is
                 the documented single-delete contract. *)
              drop ()
            else begin
              (* Kept, or dropped at the bottom while still shadowing its
                 stripe. *)
              kept_stripe := st;
              if bottom && st = 0 then settle ()
              else begin
                saved := sd;
                Iter.fill_view saved_view sd;
                at := Saved
              end
            end
          | Entry.Delete ->
            kept_stripe := st;
            if bottom && st = 0 then drop () else at := Source
          | Entry.Range_delete -> assert false)
    end
  and drop () =
    src.Iter.next ();
    settle ()
  in
  let started = ref false in
  let ensure_started () =
    if not !started then begin
      started := true;
      src.Iter.seek_to_first ();
      has_key := false;
      kept_stripe := -1;
      settle ()
    end
  in
  let not_valid () = invalid_arg "Merge_filter: not valid" in
  {
    Iter.valid =
      (fun () ->
        ensure_started ();
        !at <> Done);
    entry =
      (fun () ->
        ensure_started ();
        match !at with Source -> src.Iter.entry () | Saved -> !saved | Done -> not_valid ());
    view =
      (fun () ->
        ensure_started ();
        match !at with Source -> src.Iter.view () | Saved -> saved_view | Done -> not_valid ());
    next =
      (fun () ->
        ensure_started ();
        match !at with
        | Source -> drop ()
        | Saved -> settle () (* the look-ahead already moved the source *)
        | Done -> ());
    seek =
      (fun _ -> invalid_arg "Merge_filter: seek not supported");
    seek_to_first =
      (fun () ->
        started := false;
        ensure_started ());
  }
