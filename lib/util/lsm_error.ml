(* Typed error taxonomy for the storage engine. Every failure that can
   escape the public Db API is one of these constructors; bare
   [Codec.Corrupt] / [Failure _] must not cross the API boundary
   (the linter's R7 rule forces new code through this module). *)

type t =
  | Corruption of { file : string; offset : int option; detail : string }
  | Io_error of { retriable : bool; detail : string }
  | Read_only of string
  | Shutdown

exception Error of t

let corruption ?offset ~file detail = Error (Corruption { file; offset; detail })
let io_error ~retriable detail = Error (Io_error { retriable; detail })
let read_only detail = Error (Read_only detail)

let to_string = function
  | Corruption { file; offset; detail } ->
    let where =
      match offset with None -> file | Some o -> Printf.sprintf "%s@%d" file o
    in
    Printf.sprintf "corruption in %s: %s" where detail
  | Io_error { retriable; detail } ->
    Printf.sprintf "i/o error (%s): %s"
      (if retriable then "retriable" else "permanent")
      detail
  | Read_only detail -> Printf.sprintf "store is read-only: %s" detail
  | Shutdown -> "store is shut down"

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Lsm_error.Error: " ^ to_string e)
    | _ -> None)
