module Ordered_mutex = Lsm_util.Ordered_mutex

type t = { m : Ordered_mutex.t; mutable kicks : int }

let create () = { m = Ordered_mutex.create ~rank:30 ~name:"fix.engine"; kicks = 0 }
let bump t () = t.kicks <- t.kicks + 1

(* Through [protect], which the analysis must read as an acquisition. *)
let kick t = Ordered_mutex.protect t.m bump t ()
