(** Client-replica messages (paper Figures 5 and 6). *)

open Xability

type t =
  | Request of { req : Xsm.Request.t; client : Xnet.Address.t }
      (** the paper's [[Request, req]] *)
  | Result of { rid : int; value : Value.t }
      (** the paper's [[Result, res]], tagged with the request id so a
          client can correlate replies across retries *)

let pp ppf = function
  | Request { req; client } ->
      Format.fprintf ppf "Request(%s from %a)" (Xsm.Request.show req)
        Xnet.Address.pp client
  | Result { rid; value } ->
      Format.fprintf ppf "Result(rid=%d,%a)" rid Value.pp_compact value
