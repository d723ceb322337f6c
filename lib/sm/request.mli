(** Requests as processed by the replication protocol (paper sections 2.1
    and 5.4).

    A request names an action and carries an input value; the protocol adds
    a [round] parameter so that cancellation and commit actions are
    specific to one retry round ("a cancellation action issued for round n
    cannot cancel the action of round n+1").  Each logical client request
    gets a unique [rid].

    Encoding of environment-level input values:
    - idempotent and raw actions ignore the round: their environment input
      is the logical identity [(rid, input)] — retries in later rounds are
      re-executions of the {e same} action instance;
    - undoable actions tag the round into the input:
      [("round", (round, (rid, input)))] — each round is a distinct
      instance whose cancel/commit target that round only. *)

type t = {
  rid : int;  (** unique id of the logical client request *)
  action : Xability.Action.name;  (** action name, possibly with variant *)
  kind : Xability.Action.kind;  (** kind of the base action *)
  round : int;  (** current protocol round, starting at 1 *)
  input : Xability.Value.t;  (** application payload *)
}

val make :
  rid:int ->
  action:Xability.Action.name ->
  kind:Xability.Action.kind ->
  input:Xability.Value.t ->
  t
(** A fresh round-1 request.  The action must be a base name. *)

val with_round : t -> int -> t

val cancel_of : t -> t
(** The paper's [cancel(req)]: same parameters, cancellation action. *)

val commit_of : t -> t
(** The paper's [commit(req)]. *)

val variant : t -> Xability.Action.variant
val base_action : t -> Xability.Action.name

val logical_iv : t -> Xability.Value.t
(** [(rid, input)] — identity of the logical request. *)

val env_iv : t -> Xability.Value.t
(** Input value as recorded in environment histories (see encoding above). *)

val logical_of_env_iv : Xability.Action.name -> Xability.Value.t -> Xability.Value.t
(** Projection used by the checker: strips a round tag if present.  The
    first argument (base action name) is unused by this encoding but kept
    for interface compatibility with {!Xability.Checker.check}. *)

val round_of_env_iv : Xability.Value.t -> int option

val key : t -> string
(** Stable identity of the logical request: ["action#rid"]. *)

val pp_key : Format.formatter -> t -> unit
(** Prints {!key}; for trace lines, which build no text when off. *)

val round_key : t -> string
(** Stable identity of (logical request, round): ["action#rid@round"]. *)

val pp : Format.formatter -> t -> unit
val show : t -> string
val equal : t -> t -> bool
