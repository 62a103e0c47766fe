(* Minimal stand-in for the engine's capture and pin combinator:
   canonicalizes to Db.with_pin, which the escape pass keys on. *)
let capture () = { Read_path.snap = 0 }
let with_pin f = f ()
