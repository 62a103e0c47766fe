(** In-memory span recorder for the traced run.

    A span is opened and closed by the benchmark around one call into a
    layer's public function. Spans nest: each records the span that was
    open when it started (its parent) and the request it serves. Per-name
    totals and self times (duration minus time covered by child spans)
    are always kept; individual spans are kept up to a fixed capacity and
    written out when the run ends. *)

type t

val create : names:string array -> capacity:int -> t

val enter : t -> int -> req:int -> unit
(** [enter t name ~req] opens a span of [names.(name)] serving request
    [req], nested in the innermost open span. *)

val leave : t -> unit
(** Close the innermost open span. *)

val spans_kept : t -> int
val spans_dropped : t -> int

val summary : t -> (string * int * int * int) list
(** Per span name with at least one span: (name, count, total ns, self ns). *)

val write_csv : t -> string -> unit
(** One line per kept span: [id,parent,req,name,start_ns,dur_ns]. *)
