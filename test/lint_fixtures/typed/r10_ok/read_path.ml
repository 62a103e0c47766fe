(* Minimal stand-in for the engine's read context: canonicalizes to
   Read_path.ctx, which is what the escape pass keys on. *)
type ctx = { snap : int }
