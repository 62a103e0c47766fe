module Comparator = Lsm_util.Comparator

type view = {
  mutable key : string;
  mutable seqno : int;
  mutable kind : Entry.kind;
  mutable vbase : string;
  mutable voff : int;
  mutable vlen : int;
}

type t = {
  valid : unit -> bool;
  entry : unit -> Entry.t;
  view : unit -> view;
  next : unit -> unit;
  seek : string -> unit;
  seek_to_first : unit -> unit;
}

let new_view () = { key = ""; seqno = 0; kind = Entry.Put; vbase = ""; voff = 0; vlen = 0 }

let fill_view v (e : Entry.t) =
  v.key <- e.key;
  v.seqno <- e.seqno;
  v.kind <- e.kind;
  v.vbase <- e.value;
  v.voff <- 0;
  v.vlen <- String.length e.value

let view_value v =
  if v.voff = 0 && v.vlen = String.length v.vbase then v.vbase else String.sub v.vbase v.voff v.vlen

let view_entry v = { Entry.key = v.key; seqno = v.seqno; kind = v.kind; value = view_value v }

(* An entry-backed source's view: one record per iterator, refilled
   from the current entry on each call. *)
let entry_view entry =
  let v = new_view () in
  fun () ->
    fill_view v (entry ());
    v

let of_sorted_array (c : Comparator.t) arr =
  let n = Array.length arr in
  let pos = ref n in
  (* First index whose user key is >= target. *)
  let lower_bound target =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if c.compare arr.(mid).Entry.key target < 0 then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let entry () = arr.(!pos) in
  {
    valid = (fun () -> !pos < n);
    entry;
    view = entry_view entry;
    next = (fun () -> if !pos < n then incr pos);
    seek = (fun target -> pos := lower_bound target);
    seek_to_first = (fun () -> pos := 0);
  }

let of_sorted_list c l = of_sorted_array c (Array.of_list l)

let empty =
  let none () = invalid_arg "Iter.empty: no entry" in
  {
    valid = (fun () -> false);
    entry = none;
    view = none;
    next = ignore;
    seek = ignore;
    seek_to_first = ignore;
  }

let to_list it =
  it.seek_to_first ();
  let rec loop acc = if it.valid () then (let e = it.entry () in it.next (); loop (e :: acc)) else List.rev acc in
  loop []

(* The k-way merge keeps a binary min-heap of source indices over cached
   heads: [heads.(i)] is source [i]'s current view, fetched once each
   time [i] moves, so a comparison reads two array slots rather than
   calling into the sources, and orders records on (key, seqno, kind)
   without materializing a value. [next] advances the top source and
   sifts it down in place (replace-top); a source leaves the heap only
   when it is exhausted. Equal records order by source index: newer
   sources first. *)
type heap = {
  hcmp : Comparator.t;
  srcs : t array;
  heads : view array;
  order : int array;  (** source indices; [order.(0)] holds the least head *)
  mutable size : int;
}

let no_view = new_view ()

let less h i j =
  let a = h.heads.(i) and b = h.heads.(j) in
  let k = h.hcmp.compare a.key b.key in
  if k <> 0 then k < 0
  else if a.seqno <> b.seqno then a.seqno > b.seqno
  else
    let d = Int.compare (Entry.kind_to_int a.kind) (Entry.kind_to_int b.kind) in
    d < 0 || (d = 0 && i < j)

let rec sift_down h k =
  let l = (2 * k) + 1 in
  if l < h.size then begin
    let r = l + 1 in
    let m = if r < h.size && less h h.order.(r) h.order.(l) then r else l in
    let top = h.order.(k) in
    if less h h.order.(m) top then begin
      h.order.(k) <- h.order.(m);
      h.order.(m) <- top;
      sift_down h m
    end
  end

let rebuild h =
  h.size <- 0;
  Array.iteri
    (fun i s ->
      if s.valid () then begin
        h.heads.(i) <- s.view ();
        h.order.(h.size) <- i;
        h.size <- h.size + 1
      end
      else h.heads.(i) <- no_view)
    h.srcs;
  for k = (h.size / 2) - 1 downto 0 do
    sift_down h k
  done

let advance h =
  if h.size > 0 then begin
    let i = h.order.(0) in
    let s = h.srcs.(i) in
    s.next ();
    if s.valid () then h.heads.(i) <- s.view ()
    else begin
      h.heads.(i) <- no_view;
      h.size <- h.size - 1;
      h.order.(0) <- h.order.(h.size)
    end;
    sift_down h 0
  end

let merge (c : Comparator.t) sources =
  let srcs = Array.of_list sources in
  let n = Array.length srcs in
  let h =
    {
      hcmp = c;
      srcs;
      heads = Array.make n no_view;
      order = Array.make n 0;
      size = 0;
    }
  in
  {
    valid = (fun () -> h.size > 0);
    entry = (fun () -> h.srcs.(h.order.(0)).entry ());
    view = (fun () -> h.heads.(h.order.(0)));
    next = (fun () -> advance h);
    seek =
      (fun target ->
        Array.iter (fun s -> s.seek target) srcs;
        rebuild h);
    seek_to_first =
      (fun () ->
        Array.iter (fun s -> s.seek_to_first ()) srcs;
        rebuild h);
  }
