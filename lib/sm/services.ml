open Xability

module Kv = struct
  type t = {
    table : (string, Value.t) Hashtbl.t;
    mutable writes : int;
  }

  let register env ?(prefix = "") () =
    let t = { table = Hashtbl.create 16; writes = 0 } in
    Environment.register_idempotent env (prefix ^ "kv_put")
      (fun ~rid:_ ~payload ~rng:_ ->
        match payload with
        | Value.Pair (Value.Str key, v) ->
            Hashtbl.replace t.table key v;
            t.writes <- t.writes + 1;
            Value.unit
        | _ -> failwith "kv_put: payload must be (key, value)");
    Environment.register_idempotent env (prefix ^ "kv_get")
      (fun ~rid:_ ~payload ~rng:_ ->
        match payload with
        | Value.Str key -> (
            match Hashtbl.find_opt t.table key with
            | Some v -> v
            | None -> Value.nil)
        | _ -> failwith "kv_get: payload must be a key string");
    t

  let get t key = Hashtbl.find_opt t.table key
  let size t = Hashtbl.length t.table
  let put_count t = t.writes
end

module Bank = struct
  type hold = { from_acct : string; to_acct : string; amount : int }

  type t = {
    posted : (string, int) Hashtbl.t;
    holds : (int * int, hold) Hashtbl.t;  (* keyed by (rid, round) *)
    mutable transfers : int;
  }

  let parse_transfer payload =
    match payload with
    | Value.Pair (Value.Pair (Value.Str from_acct, Value.Str to_acct), Value.Int amount)
      ->
        (from_acct, to_acct, amount)
    | _ -> failwith "transfer: payload must be ((from, to), amount)"

  let register env ?(prefix = "") ~accounts () =
    let t =
      { posted = Hashtbl.create 8; holds = Hashtbl.create 8; transfers = 0 }
    in
    List.iter (fun (acct, bal) -> Hashtbl.replace t.posted acct bal) accounts;
    let balance_of acct =
      Option.value ~default:0 (Hashtbl.find_opt t.posted acct)
    in
    Environment.register_undoable env (prefix ^ "transfer")
      ~attempt:(fun ~rid ~payload ~round ~rng:_ ->
        let from_acct, to_acct, amount = parse_transfer payload in
        Hashtbl.replace t.holds (rid, round)
          { from_acct; to_acct; amount };
        Value.int amount)
      ~cancel:(fun ~rid ~payload:_ ~round ->
        Hashtbl.remove t.holds (rid, round))
      ~commit:(fun ~rid ~payload:_ ~round ->
        match Hashtbl.find_opt t.holds (rid, round) with
        | Some { from_acct; to_acct; amount } ->
            Hashtbl.replace t.posted from_acct (balance_of from_acct - amount);
            Hashtbl.replace t.posted to_acct (balance_of to_acct + amount);
            Hashtbl.remove t.holds (rid, round);
            t.transfers <- t.transfers + 1
        | None -> failwith "transfer commit: no hold to post");
    Environment.register_idempotent env (prefix ^ "balance")
      (fun ~rid:_ ~payload ~rng:_ ->
        match payload with
        | Value.Str acct -> Value.int (balance_of acct)
        | _ -> failwith "balance: payload must be an account string");
    t

  let posted_balance t acct =
    Option.value ~default:0 (Hashtbl.find_opt t.posted acct)

  let held t acct =
    Hashtbl.fold
      (fun _ h acc -> if String.equal h.from_acct acct then acc + h.amount else acc)
      t.holds 0

  let posted_transfers t = t.transfers

  let total_money t = Hashtbl.fold (fun _ bal acc -> acc + bal) t.posted 0
end

module Booking = struct
  type seat_state = Free | Held of string | Confirmed of string

  type t = { seats : seat_state array }

  let register env ?(prefix = "") ~seats () =
    let t = { seats = Array.make seats Free } in
    let find_free rng =
      (* Non-deterministic assignment: scan from a random offset. *)
      let n = Array.length t.seats in
      let start = Xsim.Rng.int rng n in
      let rec go i =
        if i = n then None
        else
          let idx = (start + i) mod n in
          match t.seats.(idx) with Free -> Some idx | _ -> go (i + 1)
      in
      go 0
    in
    (* Holds keyed by (rid, round) so cancel/commit target the right hold. *)
    let holds : (int * int, int) Hashtbl.t = Hashtbl.create 8 in
    Environment.register_undoable env (prefix ^ "reserve")
      ~attempt:(fun ~rid ~payload ~round ~rng ->
        let passenger =
          match payload with
          | Value.Str p -> p
          | _ -> failwith "reserve: payload must be a passenger name"
        in
        match find_free rng with
        | Some seat ->
            t.seats.(seat) <- Held passenger;
            Hashtbl.replace holds (rid, round) seat;
            Value.int seat
        | None -> failwith "reserve: sold out")
      ~cancel:(fun ~rid ~payload:_ ~round ->
        match Hashtbl.find_opt holds (rid, round) with
        | Some seat ->
            t.seats.(seat) <- Free;
            Hashtbl.remove holds (rid, round)
        | None -> ())
      ~commit:(fun ~rid ~payload:_ ~round ->
        match Hashtbl.find_opt holds (rid, round) with
        | Some seat ->
            (match t.seats.(seat) with
            | Held p -> t.seats.(seat) <- Confirmed p
            | Free | Confirmed _ -> failwith "reserve commit: hold vanished");
            Hashtbl.remove holds (rid, round)
        | None -> failwith "reserve commit: no hold");
    t

  let confirmed t =
    let acc = ref [] in
    Array.iteri
      (fun i s -> match s with Confirmed p -> acc := (i, p) :: !acc | _ -> ())
      t.seats;
    List.rev !acc

  let held_seats t =
    Array.fold_left
      (fun acc s -> match s with Held _ -> acc + 1 | _ -> acc)
      0 t.seats

  let free_seats t =
    Array.fold_left
      (fun acc s -> match s with Free -> acc + 1 | _ -> acc)
      0 t.seats
end

module Mailer = struct
  type t = { mutable rev_deliveries : string list; mutable next_id : int }

  let body_of payload =
    match payload with
    | Value.Str body -> body
    | v -> Value.to_string v

  let deliver t payload =
    let body = body_of payload in
    t.rev_deliveries <- body :: t.rev_deliveries;
    let id = t.next_id in
    t.next_id <- t.next_id + 1;
    Value.int id

  let register env ?(prefix = "") () =
    let t = { rev_deliveries = []; next_id = 1 } in
    Environment.register_idempotent env (prefix ^ "send")
      (fun ~rid:_ ~payload ~rng:_ -> deliver t payload);
    Environment.register_raw env (prefix ^ "send_raw")
      (fun ~rid:_ ~payload ~rng:_ -> deliver t payload);
    t

  let deliveries t = List.rev t.rev_deliveries
  let delivery_count t = List.length t.rev_deliveries

  let duplicate_count t =
    let seen = Hashtbl.create 16 in
    List.fold_left
      (fun acc body ->
        if Hashtbl.mem seen body then acc + 1
        else begin
          Hashtbl.replace seen body ();
          acc
        end)
      0 t.rev_deliveries
end
