(* The legal versions of every shape in r10_bad's leak.ml: the pinned
   value never outlives with_pin. *)

(* Derived plain data may escape; the pinned value itself does not. *)
let read () = Db.with_pin (fun () -> (Db.capture ()).Read_path.snap)

(* A ref local to the pin scope is fine. *)
let local_store () =
  Db.with_pin (fun () ->
      let ctx = ref None in
      ctx := Some (Db.capture ());
      match !ctx with Some c -> c.Read_path.snap | None -> 0)

(* Deferring a closure that captures only unpinned data is fine. *)
let defer_plain () =
  Db.with_pin (fun () ->
      let snap = (Db.capture ()).Read_path.snap in
      Scheduler.submit (fun () -> ignore snap);
      snap)
