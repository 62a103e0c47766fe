(* The three escape shapes R10 must catch. *)

(* 1: pinned value stored into module-level mutable state. *)
let last_ctx : Read_path.ctx option ref = ref None

let stash () =
  Db.with_pin (fun () ->
      last_ctx := Some (Db.capture ());
      0)

(* 2: closure handed to a deferred executor captures a pinned value —
   it runs after the pin is gone. *)
let bad_defer () =
  Db.with_pin (fun () ->
      let ctx = Db.capture () in
      Scheduler.submit (fun () -> ignore ctx.Read_path.snap);
      1)

(* 3: the pinned value itself returned past with_pin. *)
let bad_return () = Db.with_pin (fun () -> Db.capture ())
