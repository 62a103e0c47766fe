(** Per-tenant admission quotas: operations and ingested bytes per
    fixed accounting window.

    The model is deliberately simple (the paper's serving context needs
    isolation, not a billing system): each tenant carries an optional
    [ops per window] and [bytes per window] limit; usage accumulates in
    the current window and resets when the window rolls over. A request
    that would exceed either limit is rejected {e whole} — partial
    admission would break batch atomicity — with a typed verdict the
    server turns into a [-QUOTA_EXCEEDED] reply.

    Time is passed in by the caller (the server's event loop clock), so
    the module is deterministic under test. Not domain-safe: the single
    server loop is the only caller. *)

type t

type limits = {
  max_ops : int option;  (** operations per window; [None] = unlimited *)
  max_bytes : int option;  (** key+value bytes per window; [None] = unlimited *)
}

type denial = {
  tenant : string;
  dimension : [ `Ops | `Bytes ];
  used : int;  (** consumed in the current window before this request *)
  requested : int;
  limit : int;
}

val create : ?window_s:float -> ?default:limits -> unit -> t
(** [window_s] defaults to 1.0 — per-second rate limits. [default]
    applies to tenants without an explicit {!set_limits} entry and
    defaults to {!unlimited}. *)

val set_limits : t -> tenant:string -> limits -> unit

val admit : t -> tenant:string -> now:float -> ops:int -> bytes:int -> (unit, denial) result
(** Charge [ops]/[bytes] to [tenant]'s current window, rolling the
    window first if [now] has passed it. On [Error] nothing is charged. *)

val describe : denial -> string
(** One-line human form, used as the error-reply message. *)
