(* Reliable channels rebuilt on a faulty wire (ARQ).

   The paper assumes its channels (section 5.2): every message between
   correct processes is delivered exactly once.  This module implements
   that contract on top of a {!Transport} configured with a fault plane,
   with the classic automatic-repeat-request machinery:

   - per directed link, data packets carry consecutive sequence numbers
     and a piggybacked cumulative acknowledgement for the reverse link;
   - the receiver acknowledges cumulatively ("everything below [ack]"),
     preferring to piggyback the ack on the next data frame it sends
     back; when no reverse traffic shows up within [ack_delay] ticks a
     pure [Ack] frame is flushed instead.  Duplicates re-raise the owed
     ack (a duplicate usually means the previous ack was lost), are
     dropped, and out-of-order arrivals are buffered and released to the
     application strictly in sequence order — so delivery is
     exactly-once and FIFO per link even though the raw wire loses,
     duplicates and reorders;
   - the sender keeps ONE retransmission timer per directed link (not
     per packet): on expiry it resends the oldest unacked packet with
     exponential backoff (capped at [max_rto]); any ack progress resets
     the backoff.  Retransmission never gives up, which is what makes
     delivery between correct processes {e eventual} for any drop
     probability < 1 — [retransmit_cap] is a metric threshold, not a
     cutoff.

   ARQ runs below the process level, in scheduler context (the simulated
   NIC): a crashed receiver still acks, which is unobservable to the
   application (its mailbox is never consumed) and stops senders from
   retransmitting to the dead forever.  A crashed *sender* does stop
   retransmitting — crashed processes send nothing. *)

module Addr_tbl = Hashtbl.Make (struct
  type t = Address.t

  let equal = Address.equal
  let hash = Address.hash
end)

type 'm packet =
  | Data of { seq : int; ack : int; payload : 'm }
  | Ack of { ack : int }

type arq = {
  rto : int;  (* initial retransmission timeout *)
  backoff : int;  (* timeout multiplier per retry *)
  max_rto : int;  (* backoff ceiling *)
  retransmit_cap : int;  (* metric threshold: retries per packet *)
  ack_delay : int;  (* wait for a piggyback ride before a pure Ack *)
}

let default_arq =
  { rto = 150; backoff = 2; max_rto = 2400; retransmit_cap = 8; ack_delay = 25 }

(* Both halves of one node's view of one neighbour, in a single record:
   the tx half tracks data we send to [other], the rx half data [other]
   sends to us.  Fusing them means every ARQ operation — send with
   piggybacked ack, data arrival (apply ack + sequence + owe ack),
   retransmit — resolves its state with exactly one table lookup, where
   the split tx/rx tables cost two or three. *)
type 'm peer = {
  (* tx half: our data -> other *)
  mutable next_seq : int;
  unacked : (int, 'm) Hashtbl.t;
  (* One coalesced retransmission timer per directed link. *)
  mutable timer_armed : bool;
  mutable rto_cur : int;  (* current backoff level *)
  mutable attempts : int;  (* retransmissions since the last ack progress *)
  (* rx half: other's data -> us *)
  mutable expected : int;  (* next in-order sequence number *)
  buffer : (int, 'm) Hashtbl.t;  (* out-of-order arrivals *)
  mutable ack_owed : bool;  (* data arrived since our last ack *)
  mutable ack_timer_armed : bool;
}

type stats = {
  app_sent : int;
  app_delivered : int;
  retransmits : int;
  acks_sent : int;  (* pure Ack frames only *)
  piggyback_acks : int;  (* acks that rode a reverse-link data frame *)
  ack_flushes : int;  (* delayed-ack timers that had to fire *)
  dedup_dropped : int;
  cap_hits : int;
}

type 'm t = {
  eng : Xsim.Engine.t;
  raw : 'm packet Transport.t;
  arq : arq;
  mailboxes : 'm Transport.envelope Xsim.Mailbox.t Addr_tbl.t;
  peers : 'm peer Addr_tbl.t Addr_tbl.t;  (* me -> other -> peer *)
  mutable app_sent : int;
  mutable app_delivered : int;
  mutable retransmits : int;
  mutable acks_sent : int;
  mutable piggyback_acks : int;
  mutable ack_flushes : int;
  mutable dedup_dropped : int;
  mutable cap_hits : int;
}

let obs_incr name = if Xobs.enabled () then Xobs.Counter.incr (Xobs.counter name)

let obs_backoff rto =
  if Xobs.enabled () then Xobs.Histogram.record (Xobs.histogram "net.backoff") rto

let peer t ~me ~other =
  let by_other =
    match Addr_tbl.find t.peers me with
    | by_other -> by_other
    | exception Not_found ->
        let by_other = Addr_tbl.create 8 in
        Addr_tbl.replace t.peers me by_other;
        by_other
  in
  match Addr_tbl.find by_other other with
  | p -> p
  | exception Not_found ->
      let p =
        {
          next_seq = 0;
          unacked = Hashtbl.create 8;
          timer_armed = false;
          rto_cur = t.arq.rto;
          attempts = 0;
          expected = 0;
          buffer = Hashtbl.create 8;
          ack_owed = false;
          ack_timer_armed = false;
        }
      in
      Addr_tbl.replace by_other other p;
      p

(* Apply a cumulative ack to a peer's tx half. *)
let apply_ack t p ~ack =
  let progress = ref false in
  Hashtbl.iter (fun seq _ -> if seq < ack then progress := true) p.unacked;
  if !progress then begin
    Hashtbl.filter_map_inplace
      (fun seq payload -> if seq < ack then None else Some payload)
      p.unacked;
    (* Forward progress: the link is passing traffic again. *)
    p.rto_cur <- t.arq.rto;
    p.attempts <- 0
  end

(* Sender side: one self-rearming timer per directed link.  On expiry the
   oldest unacked packet is retransmitted with backoff; ack progress
   (seen in [apply_ack]) resets the backoff.  A dead sender process stops
   retransmitting (crash-stop).  [p] is peer (src, dst); its rx half
   ([p.expected]) is exactly the cumulative ack we owe dst, so the
   retransmitted frame piggybacks it with no extra lookup. *)
let rec arm_link t ~src ~dst p =
  if (not p.timer_armed) && Hashtbl.length p.unacked > 0 then begin
    p.timer_armed <- true;
    let rto = p.rto_cur in
    Xsim.Engine.schedule t.eng ~label:"timer" ~delay:rto (fun () ->
        p.timer_armed <- false;
        if Hashtbl.length p.unacked > 0 then
          if Xsim.Proc.alive (Transport.proc_of t.raw src) then begin
            let oldest =
              Hashtbl.fold (fun seq _ acc -> min seq acc) p.unacked max_int
            in
            let payload = Hashtbl.find p.unacked oldest in
            t.retransmits <- t.retransmits + 1;
            obs_incr "net.retransmits";
            obs_backoff rto;
            p.attempts <- p.attempts + 1;
            if p.attempts = t.arq.retransmit_cap then begin
              t.cap_hits <- t.cap_hits + 1;
              obs_incr "net.retransmit_cap_hits"
            end;
            Transport.send t.raw ~src ~dst
              (Data { seq = oldest; ack = p.expected; payload });
            p.rto_cur <- min (p.rto_cur * t.arq.backoff) t.arq.max_rto;
            arm_link t ~src ~dst p
          end)
  end

(* Delayed ack: wait [ack_delay] for a data frame to carry the ack back;
   flush a pure Ack if none does.  Runs at NIC level — a crashed
   receiver still acks (silencing retransmissions to the dead).  [p] is
   peer (dst, src): dst is us, src the data sender being acked. *)
let arm_ack_flush t ~src ~dst p =
  if not p.ack_timer_armed then begin
    p.ack_timer_armed <- true;
    Xsim.Engine.schedule t.eng ~label:"timer" ~delay:t.arq.ack_delay (fun () ->
        p.ack_timer_armed <- false;
        if p.ack_owed then begin
          p.ack_owed <- false;
          t.acks_sent <- t.acks_sent + 1;
          t.ack_flushes <- t.ack_flushes + 1;
          obs_incr "net.acks";
          obs_incr "net.piggyback_flushes";
          Transport.send t.raw ~src:dst ~dst:src (Ack { ack = p.expected })
        end)
  end

(* Receiver side, in scheduler context (wire delivery hook). *)
let handle t (e : 'm packet Transport.envelope) =
  match e.Transport.payload with
  | Ack { ack } ->
      (* The ack travelled dst->src, acknowledging the data we ([e.dst])
         sent towards [e.src]: peer (e.dst, e.src)'s tx half. *)
      apply_ack t (peer t ~me:e.Transport.dst ~other:e.Transport.src) ~ack
  | Data { seq; ack; payload } ->
      let src = e.Transport.src and dst = e.Transport.dst in
      (* One record covers everything this frame touches at [dst]: the
         piggybacked ack hits our tx half towards [src], the data itself
         our rx half from [src]. *)
      let p = peer t ~me:dst ~other:src in
      apply_ack t p ~ack;
      (* Owe an ack in all cases, duplicates included: a duplicate data
         packet usually means the previous ack was lost. *)
      p.ack_owed <- true;
      arm_ack_flush t ~src ~dst p;
      if seq < p.expected || Hashtbl.mem p.buffer seq then begin
        t.dedup_dropped <- t.dedup_dropped + 1;
        obs_incr "net.dedup_drops"
      end
      else begin
        Hashtbl.replace p.buffer seq payload;
        let mbox = Addr_tbl.find t.mailboxes dst in
        while Hashtbl.mem p.buffer p.expected do
          let pl = Hashtbl.find p.buffer p.expected in
          Hashtbl.remove p.buffer p.expected;
          p.expected <- p.expected + 1;
          t.app_delivered <- t.app_delivered + 1;
          Xsim.Mailbox.put mbox { Transport.src; dst; payload = pl }
        done
      end

let create eng ?fifo ?faults ?(arq = default_arq) ~latency () =
  let raw = Transport.create eng ?fifo ?faults ~latency () in
  let t =
    {
      eng;
      raw;
      arq;
      mailboxes = Addr_tbl.create 16;
      peers = Addr_tbl.create 16;
      app_sent = 0;
      app_delivered = 0;
      retransmits = 0;
      acks_sent = 0;
      piggyback_acks = 0;
      ack_flushes = 0;
      dedup_dropped = 0;
      cap_hits = 0;
    }
  in
  Transport.set_delivery_hook raw
    (Some
       (fun e ->
         handle t e;
         true));
  t

let engine t = t.eng
let raw t = t.raw

let register t addr ~proc =
  ignore (Transport.register t.raw addr ~proc);
  let mbox =
    Xsim.Mailbox.create ~name:("rinbox:" ^ Address.to_string addr) ()
  in
  Addr_tbl.replace t.mailboxes addr mbox;
  mbox

let mailbox t addr = Addr_tbl.find t.mailboxes addr
let members t = Transport.members t.raw

let send t ~src ~dst payload =
  ignore (Transport.mailbox t.raw dst);  (* Not_found on unregistered dst *)
  t.app_sent <- t.app_sent + 1;
  let p = peer t ~me:src ~other:dst in
  let seq = p.next_seq in
  p.next_seq <- seq + 1;
  Hashtbl.replace p.unacked seq payload;
  (* Any owed ack for the reverse direction rides this frame for free:
     [p.expected] is our cumulative ack for dst's data. *)
  if p.ack_owed then begin
    p.ack_owed <- false;
    t.piggyback_acks <- t.piggyback_acks + 1;
    obs_incr "net.piggyback_acks"
  end;
  Transport.send t.raw ~src ~dst (Data { seq; ack = p.expected; payload });
  arm_link t ~src ~dst p

let broadcast t ~src ?(include_self = false) payload =
  List.iter
    (fun dst ->
      if include_self || not (Address.equal dst src) then
        send t ~src ~dst payload)
    (members t)

let stats t =
  {
    app_sent = t.app_sent;
    app_delivered = t.app_delivered;
    retransmits = t.retransmits;
    acks_sent = t.acks_sent;
    piggyback_acks = t.piggyback_acks;
    ack_flushes = t.ack_flushes;
    dedup_dropped = t.dedup_dropped;
    cap_hits = t.cap_hits;
  }
