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

(* The current-entry sentinel: [current == no_entry] means exhausted. *)
let no_entry = { Entry.key = ""; seqno = 0; kind = Entry.Put; value = "" }

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
     current user key is a string plus a flag, not an option. *)
  let current = ref no_entry in
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
  let rec advance () =
    if not (src.Iter.valid ()) then current := no_entry
    else begin
      (* Consume the next input entry. *)
      let e = src.Iter.entry () in
      src.Iter.next ();
      note_key e.Entry.key;
      match e.Entry.kind with
      | Entry.Range_delete ->
        (* Oldest stripe at the bottom: every entry it could cover is in
           the inputs and already dropped; retire the tombstone. *)
        if bottom && stripe e.Entry.seqno = 0 then advance () else current := e
      | Entry.Put | Entry.Merge | Entry.Delete | Entry.Single_delete -> (
        let st = stripe e.Entry.seqno in
        if st = !kept_stripe then advance () (* shadowed within stripe *)
        else if has_rds && covered cmp e.Entry.key e.Entry.seqno st rds then advance ()
        else
          match e.Entry.kind with
          | Entry.Put ->
            kept_stripe := st;
            current := e
          | Entry.Merge ->
            (* keep, but do not shadow: the chain's base must survive *)
            current := e
          | Entry.Single_delete ->
            if
              src.Iter.valid ()
              &&
              let nxt = src.Iter.entry () in
              String.equal nxt.Entry.key e.Entry.key
              && nxt.Entry.kind = Entry.Put
              && stripe nxt.Entry.seqno = st
            then begin
              (* Annihilate the pair; older versions resurface, which is
                 the documented single-delete contract. *)
              src.Iter.next ();
              advance ()
            end
            else if bottom && st = 0 then begin
              (* Drop the tombstone but keep shadowing its stripe. *)
              kept_stripe := st;
              advance ()
            end
            else begin
              kept_stripe := st;
              current := e
            end
          | Entry.Delete ->
            if bottom && st = 0 then begin
              kept_stripe := st;
              advance ()
            end
            else begin
              kept_stripe := st;
              current := e
            end
          | Entry.Range_delete -> assert false)
    end
  in
  let started = ref false in
  let ensure_started () =
    if not !started then begin
      started := true;
      src.Iter.seek_to_first ();
      has_key := false;
      kept_stripe := -1;
      advance ()
    end
  in
  {
    Iter.valid =
      (fun () ->
        ensure_started ();
        !current != no_entry);
    entry =
      (fun () ->
        ensure_started ();
        if !current == no_entry then invalid_arg "Merge_filter: not valid";
        !current);
    next =
      (fun () ->
        ensure_started ();
        if !current != no_entry then advance ());
    seek =
      (fun _ -> invalid_arg "Merge_filter: seek not supported");
    seek_to_first =
      (fun () ->
        started := false;
        ensure_started ());
  }
