let now () = Int64.to_int (Monotonic_clock.now ())
let max_depth = 16

type t = {
  names : string array;
  (* kept spans, in order of opening *)
  sp_name : int array;
  sp_parent : int array;
  sp_req : int array;
  sp_start : int array;
  sp_dur : int array;
  mutable kept : int;
  mutable dropped : int;
  (* open-span stack *)
  st_span : int array;  (** kept-span index, or -1 when not kept *)
  st_name : int array;
  st_start : int array;
  st_child : int array;  (** time covered by closed children *)
  mutable depth : int;
  (* per-name aggregates *)
  n_count : int array;
  n_total : int array;
  n_self : int array;
}

let create ~names ~capacity =
  let k = Array.length names in
  let z n = Array.make n 0 in
  {
    names;
    sp_name = z capacity;
    sp_parent = z capacity;
    sp_req = z capacity;
    sp_start = z capacity;
    sp_dur = z capacity;
    kept = 0;
    dropped = 0;
    st_span = z max_depth;
    st_name = z max_depth;
    st_start = z max_depth;
    st_child = z max_depth;
    depth = 0;
    n_count = z k;
    n_total = z k;
    n_self = z k;
  }

let enter t name ~req =
  if t.depth >= max_depth then invalid_arg "Tracer.enter: nesting too deep";
  let d = t.depth in
  let idx =
    if t.kept < Array.length t.sp_name then begin
      let i = t.kept in
      t.kept <- i + 1;
      t.sp_name.(i) <- name;
      t.sp_parent.(i) <- (if d = 0 then -1 else t.st_span.(d - 1));
      t.sp_req.(i) <- req;
      i
    end
    else begin
      t.dropped <- t.dropped + 1;
      -1
    end
  in
  t.st_span.(d) <- idx;
  t.st_name.(d) <- name;
  t.st_child.(d) <- 0;
  t.depth <- d + 1;
  (* Read the clock last so the bookkeeping above is not inside the span. *)
  let start = now () in
  t.st_start.(d) <- start;
  if idx >= 0 then t.sp_start.(idx) <- start

let leave t =
  let stop = now () in
  if t.depth = 0 then invalid_arg "Tracer.leave: no open span";
  let d = t.depth - 1 in
  t.depth <- d;
  let dur = stop - t.st_start.(d) in
  let name = t.st_name.(d) in
  t.n_count.(name) <- t.n_count.(name) + 1;
  t.n_total.(name) <- t.n_total.(name) + dur;
  t.n_self.(name) <- t.n_self.(name) + (dur - t.st_child.(d));
  if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur;
  let idx = t.st_span.(d) in
  if idx >= 0 then t.sp_dur.(idx) <- dur

let spans_kept t = t.kept
let spans_dropped t = t.dropped

let summary t =
  List.filter_map
    (fun i ->
      if t.n_count.(i) = 0 then None
      else Some (t.names.(i), t.n_count.(i), t.n_total.(i), t.n_self.(i)))
    (List.init (Array.length t.names) Fun.id)

let write_csv t path =
  let oc = open_out path in
  output_string oc "id,parent,req,name,start_ns,dur_ns\n";
  for i = 0 to t.kept - 1 do
    Printf.fprintf oc "%d,%d,%d,%s,%d,%d\n" i t.sp_parent.(i) t.sp_req.(i)
      t.names.(t.sp_name.(i)) t.sp_start.(i) t.sp_dur.(i)
  done;
  close_out oc
