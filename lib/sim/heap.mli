(** Binary min-heap keyed by a totally ordered key.

    The simulator keys events by [(virtual time, sequence number)], so ties
    in virtual time break deterministically by insertion order. *)

type ('k, 'v) t

val create : unit -> ('k, 'v) t

val add : ('k, 'v) t -> 'k -> 'v -> unit

val push : ('k, 'v) t -> 'k * 'v -> unit
(** [push t entry] is [add t k v] for [entry = (k, v)], reusing the
    entry: an entry taken off by {!pop} goes back without a new pair. *)

val peek : ('k, 'v) t -> ('k * 'v) option
(** Smallest key, without removing it. *)

val pop : ('k, 'v) t -> ('k * 'v) option
(** Remove and return the entry with the smallest key. *)

val size : ('k, 'v) t -> int

val is_empty : ('k, 'v) t -> bool

val clear : ('k, 'v) t -> unit
