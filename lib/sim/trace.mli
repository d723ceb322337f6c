(** In-memory trace of simulation activity.

    A trace records timestamped, tagged text entries in the order the
    simulator produced them.  Tests use traces to assert determinism (same
    seed, same trace) and to diagnose protocol behaviour.

    A trace may be bounded: [create ~capacity:n] keeps only the [n] most
    recent entries (a ring buffer), so unattended exploration runs do not
    grow memory without bound.  {!length} and {!fingerprint} always cover
    every entry ever recorded, bounded or not. *)

type entry = {
  time : int;  (** virtual time at which the entry was recorded *)
  source : string;  (** component that recorded it, e.g. a replica name *)
  text : string;
}

type t

val create : ?capacity:int -> ?enabled:bool -> unit -> t
(** [capacity] bounds the number of retained entries (default: unbounded).
    Raises [Invalid_argument] if non-positive. *)

val set_enabled : t -> bool -> unit

val is_enabled : t -> bool
(** Whether {!record} keeps entries.  Callers that build an entry's text
    check this first, so a disabled trace costs no formatting. *)

val record : t -> time:int -> source:string -> string -> unit
(** No-op when the trace is disabled. *)

val entries : t -> entry list
(** The retained entries, oldest first.  With a capacity, older entries
    may have been dropped. *)

val by_source : t -> string -> entry list

val length : t -> int
(** Total entries ever recorded (including dropped ones). *)

val retained : t -> int
(** Entries currently held (= [length] when unbounded). *)

val dropped : t -> int
(** Entries evicted by the capacity bound. *)

val fingerprint : t -> int
(** Order-sensitive hash folded over every entry ever recorded.  Two runs
    with equal fingerprints recorded identical traces, regardless of any
    capacity bound.  Used by replay-determinism tests. *)

val clear : t -> unit

val pp_entry : Format.formatter -> entry -> unit

val dump : Format.formatter -> t -> unit

val entry_to_json : entry -> string
(** One-line JSON object [{"time":..,"source":..,"text":..}]. *)

val to_jsonl : t -> string list
(** Retained entries as JSON Lines, oldest first. *)

val pp_jsonl : Format.formatter -> t -> unit
