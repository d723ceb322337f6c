(** An append-only log of decided instance ids, in the order a member
    came to know them.

    Each substrate keeps one per member (or one shared log where every
    member's knowledge is the same): a reader keeps its own position in
    it, so every decision is seen exactly once however long the run. *)

type t

val create : unit -> t

val add : t -> string -> unit

val length : t -> int

val get : t -> int -> string
(** [get t i] is the [i]-th decision known, counting from 0. *)
