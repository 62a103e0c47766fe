module Entry = Lsm_record.Entry

type t = { mutable ops : (Entry.kind * string * string) list (* newest first *) }

let create () = { ops = [] }
let put t ~key value = t.ops <- (Entry.Put, key, value) :: t.ops
let delete t key = t.ops <- (Entry.Delete, key, "") :: t.ops
let single_delete t key = t.ops <- (Entry.Single_delete, key, "") :: t.ops

let range_delete t ~lo ~hi = t.ops <- (Entry.Range_delete, lo, hi) :: t.ops

let merge t ~key operand = t.ops <- (Entry.Merge, key, operand) :: t.ops
let length t = List.length t.ops
let is_empty t = t.ops = []
let clear t = t.ops <- []
let operations t = List.rev t.ops
