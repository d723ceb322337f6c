(** Deterministic discrete-event simulation engine with cooperative fibers.

    The engine owns a virtual clock and an event queue.  Fibers are
    lightweight cooperative threads implemented with OCaml effect handlers;
    they suspend by registering a {e resumer} with some external condition
    (a timer, a mailbox, an ivar) and resume when that condition delivers a
    value.  All resumptions are funneled through the event queue, keyed by
    [(virtual time, sequence number)], so a run is a pure function of the
    seed and the program: replaying with the same seed yields the identical
    interleaving.

    Fibers may be owned by a {!Proc.t}.  Killing the process models a
    crash: suspended fibers of a dead process never resume and scheduled
    resumptions for them are dropped. *)

type t

type chooser = step:int -> ready:string array -> int
(** A scheduling strategy for the explorer.  At every decision point the
    engine passes the labels of the up-next events (in default execution
    order) and the running index of the decision point; the chooser
    returns the index of the event to run first (clamped; 0 = default
    order).  With no chooser installed the engine never constructs the
    window and behaves exactly as the plain FIFO simulator. *)

type 'a resumer = ('a, exn) result -> bool
(** A one-shot resumption capability for a suspended fiber.  Calling it
    schedules the fiber to resume with the given result {e at the current
    virtual time}.  It returns [false] when the resumption was not accepted:
    the fiber already resumed through another racing resumer, or its owning
    process has crashed.  Callers hand these to conditions (mailboxes,
    timers) which use the boolean to decide whether a value was consumed. *)

val create : ?seed:int -> ?trace_enabled:bool -> unit -> t

val now : t -> int
(** Current virtual time (arbitrary ticks; the code base treats them as
    microseconds). *)

val rng : t -> Rng.t
(** The engine's root generator. Components should [Rng.split] it. *)

val trace : t -> Trace.t

val tracef :
  t -> source:string -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Record a formatted trace entry at the current virtual time. *)

val spawn : t -> ?proc:Proc.t -> name:string -> (unit -> unit) -> unit
(** Start a new fiber.  It begins executing at the current virtual time,
    after already-queued events.  If [proc] is dead, the fiber never runs. *)

val schedule : t -> ?label:string -> delay:int -> (unit -> unit) -> unit
(** Run a raw callback [delay] ticks from now (in scheduler context, not in
    a fiber: the callback must not perform fiber effects).  [label]
    (default ["cb"]) classifies the event for the explorer's choosers:
    the network layer tags deliveries ["net"], timers tag ["timer"], and
    the engine itself tags fiber starts ["spawn:..."] and resumptions
    ["resume:..."]. *)

val set_chooser : t -> ?window:int -> chooser option -> unit
(** Install (or clear) a scheduling chooser.  [window] (default 4,
    minimum 1) bounds how many up-next events each decision point offers.
    All simulator nondeterminism funnels through the event queue — message
    deliveries, timer firings, fiber wakeups — so a chooser explores
    message reordering, delayed timers, and fiber interleavings with one
    interface.  A decision costs O(window * log n) for n queued events,
    however deep the queue. *)

val choice_points : t -> int
(** Number of decision points offered to the chooser so far. *)

val await : t -> ('a resumer -> unit) -> 'a
(** [await t register] suspends the calling fiber; [register] is called
    immediately with the fiber's resumer.  The fiber resumes when some
    party invokes the resumer.  Raises inside the fiber if the resumer is
    invoked with [Error e]. *)

val sleep : t -> int -> unit
(** Suspend the calling fiber for the given number of ticks. *)

val yield : t -> unit
(** Suspend and resume after all currently queued events at this instant. *)

val current_proc : t -> Proc.t option
(** The process owning the currently running fiber, if any. *)

val current_fiber_name : t -> string
(** Name of the currently running fiber ("-" outside any fiber). *)

val request_stop : t -> unit
(** Make [run] return after the current event completes. *)

val stop_requested : t -> bool

val run : ?limit:int -> t -> unit
(** Process events in order until the queue is empty, [request_stop] is
    called, or the next event lies beyond virtual time [limit] (the event
    stays queued, so [run] can be called again with a larger limit). *)

val errors : t -> (int * string * exn) list
(** Uncaught exceptions escaping fibers, as [(time, fiber name, exn)],
    oldest first.  A healthy simulation ends with [errors t = []]. *)

val pending_events : t -> int
