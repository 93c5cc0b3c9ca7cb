type phase =
  | Collect of {
      reg : int;
      born : float;
      mutable replies : (int * (int * Wire.payload)) list;
      finish : int * Wire.payload -> unit;
    }
  | Store_p of {
      reg : int;
      born : float;
      ts : int;
      pl : Wire.payload;
      mutable acks : int list;
      finish : unit -> unit;
    }

type stats = {
  reads : int;
  writes : int;
  messages_sent : int;
  retransmissions : int;
}

(* Per register: the highest timestamp this engine has issued (the
   floor every later write must exceed) and the highest timestamp whose
   store phase — a write, a [write_at] or a write-back — it has seen
   complete.  Replicas ack a store only once it is durable and never
   lower a timestamp, so a majority holds [stable] or newer for good. *)
type reg_ts = { mutable issued : int; mutable stable : int }

type ctrs = {
  m_queries : Metrics.counter;
  m_stores : Metrics.counter;
  m_retrans : Metrics.counter;
  h_phase1 : Metrics.histogram;
  h_phase2 : Metrics.histogram;
}

type t = {
  tr : Transport.t;
  me : Transport.node;
  replicas : Transport.node list;
  quorum : int;
  read_quorum : int;
  skip_write_back : bool;
  pending : (int, phase) Hashtbl.t;
  regs : (int, reg_ts) Hashtbl.t;  (* global reg -> its timestamps *)
  storage : Storage.t option;
  rid_stride : int;
  mutable next_rid : int;
  mutable reads : int;
  mutable writes : int;
  mutable sent : int;
  mutable retrans : int;
  c : ctrs;
}

let create ~transport ~me ~replicas ?read_quorum ?(skip_write_back = false)
    ?storage ?metrics ?(rid_base = 0) ?(rid_stride = 1) () =
  if rid_stride < 1 || rid_base < 0 || rid_base >= rid_stride then
    invalid_arg "Quorum.create: rid_base/rid_stride out of range";
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  let majority = (List.length replicas / 2) + 1 in
  let read_quorum =
    match read_quorum with
    | None -> majority
    | Some q ->
      if q < 1 || q > List.length replicas then
        invalid_arg "Quorum.create: read_quorum out of range";
      q
  in
  let c =
    {
      m_queries = Metrics.counter metrics "quorum_queries";
      m_stores = Metrics.counter metrics "quorum_stores";
      m_retrans = Metrics.counter metrics "quorum_retransmissions";
      h_phase1 = Metrics.histogram metrics "quorum_phase1";
      h_phase2 = Metrics.histogram metrics "quorum_phase2";
    }
  in
  let regs = Hashtbl.create 16 in
  (* recover issued write timestamps: a restarted engine must never
     reuse a timestamp it already handed to the replicas, or a newer
     value would lose to an older one under the ts-monotone apply.  No
     store is known complete yet: the last write may have reached only
     a minority before the restart. *)
  (match storage with
   | None -> ()
   | Some st ->
     List.iter
       (fun (reg, (ts, _)) ->
         Hashtbl.replace regs reg { issued = ts; stable = 0 })
       (Storage.contents st));
  {
    tr = transport;
    me;
    replicas;
    quorum = majority;
    read_quorum;
    skip_write_back;
    pending = Hashtbl.create 16;
    regs;
    storage;
    rid_stride;
    next_rid = rid_base;
    reads = 0;
    writes = 0;
    sent = 0;
    retrans = 0;
    c;
  }

let quorum_size t = t.quorum

(* Rids walk the residue class [rid_base mod rid_stride]: during a
   migration two engines of one node carry pending phases for the same
   registers concurrently, and a reply must never be attributable to
   more than one engine's rid space. *)
let fresh_rid t =
  let rid = t.next_rid in
  t.next_rid <- rid + t.rid_stride;
  rid

let send_to t dst msg =
  t.sent <- t.sent + 1;
  t.tr.Transport.send ~src:t.me ~dst msg

let broadcast t msg = List.iter (fun r -> send_to t r msg) t.replicas

(* [find], not [find_opt]: these run on every operation, and the
   exception path allocates no option *)
let entry t reg =
  match Hashtbl.find t.regs reg with
  | e -> e
  | exception Not_found ->
    let e = { issued = 0; stable = 0 } in
    Hashtbl.replace t.regs reg e;
    e

(* 0 for a register this engine never stored: the initial pair every
   replica holds *)
let stable t reg =
  match Hashtbl.find t.regs reg with e -> e.stable | exception Not_found -> 0

let start_store t ~reg ~ts ~pl ~finish =
  let rid = fresh_rid t in
  let born = t.tr.Transport.now () in
  Metrics.incr t.c.m_stores;
  Hashtbl.replace t.pending rid
    (Store_p { reg; born; ts; pl; acks = []; finish });
  broadcast t (Wire.Store { rid; reg; ts; pl })

let read t ~reg ~k =
  t.reads <- t.reads + 1;
  Metrics.incr t.c.m_queries;
  let rid = fresh_rid t in
  let finish (ts, pl) =
    (* write-back phase: install the freshest pair on a majority before
       returning it, for reader-reader atomicity.  A pair whose store
       this engine already saw complete is on a majority, so every later
       collect sees it (or a newer one) without another round. *)
    if ts = stable t reg || t.skip_write_back then k pl
    else start_store t ~reg ~ts ~pl ~finish:(fun () -> k pl)
  in
  let born = t.tr.Transport.now () in
  Hashtbl.replace t.pending rid (Collect { reg; born; replies = []; finish });
  broadcast t (Wire.Query { rid; reg })

(* A bare collect: the freshest (ts, payload) a read quorum holds,
   with no write-back phase.  The reconfiguration coordinator uses it
   to sample a register's state from the outgoing group before
   installing it on the incoming one — the install is the write-back,
   so doing another here would double the message cost. *)
let read_ts t ~reg ~k =
  t.reads <- t.reads + 1;
  Metrics.incr t.c.m_queries;
  let rid = fresh_rid t in
  let born = t.tr.Transport.now () in
  Hashtbl.replace t.pending rid (Collect { reg; born; replies = []; finish = k });
  broadcast t (Wire.Query { rid; reg })

(* Install (ts, value) verbatim: the dual-write leg of a migration
   replays the primary engine's timestamp into the incoming group, so
   the pair stays comparable across the handoff.  The issued floor
   is raised (never lowered) so a post-cutover write through this
   engine still dominates.  No storage append: the primary engine's
   [write] already made the same (reg, ts) durable in this node's log,
   which is what [create] recovers the floor from. *)
let write_at t ~reg ~ts ~value ~k =
  t.writes <- t.writes + 1;
  let e = entry t reg in
  if ts > e.issued then e.issued <- ts;
  start_store t ~reg ~ts ~pl:value ~finish:k

let write_ts t ~reg ~value ~k =
  t.writes <- t.writes + 1;
  let e = entry t reg in
  let ts = e.issued + 1 in
  e.issued <- ts;
  (* persist the timestamp bump before the Store leaves this node, so
     a restarted engine recovers an issued floor at least as high as
     any timestamp a replica may already hold from us.  With a
     group-commit store the broadcast is deferred to the batch's
     durability completion — the in-memory floor above is already
     bumped, so concurrent writes to other shards keep their
     timestamps ordered. *)
  (* the write timestamp dominates every write-back of an earlier read
     (those reuse timestamps <= issued, by SWMR ownership) *)
  (match t.storage with
   | None -> start_store t ~reg ~ts ~pl:value ~finish:k
   | Some st ->
     Storage.append_async st
       { Storage.reg; ts; pl = value }
       ~k:(fun () -> start_store t ~reg ~ts ~pl:value ~finish:k));
  ts

let write t ~reg ~value ~k = ignore (write_ts t ~reg ~value ~k)

let best replies =
  List.fold_left
    (fun acc (_, (ts, pl)) ->
      match acc with
      | Some (ts', _) when ts' >= ts -> acc
      | _ -> Some (ts, pl))
    None replies
  |> Option.get

let on_message t ~src msg =
  let rec go = function
    | Wire.Query_reply { rid; ts; pl; _ } ->
      (match Hashtbl.find_opt t.pending rid with
       | Some (Collect c) when not (List.mem_assoc src c.replies) ->
         c.replies <- (src, (ts, pl)) :: c.replies;
         if List.length c.replies >= t.read_quorum then begin
           Hashtbl.remove t.pending rid;
           Metrics.observe t.c.h_phase1 (t.tr.Transport.now () -. c.born);
           c.finish (best c.replies)
         end
       | _ -> ())
    | Wire.Store_ack { rid; _ } ->
      (match Hashtbl.find_opt t.pending rid with
       | Some (Store_p s) when not (List.mem src s.acks) ->
         s.acks <- src :: s.acks;
         if List.length s.acks >= t.quorum then begin
           Hashtbl.remove t.pending rid;
           Metrics.observe t.c.h_phase2 (t.tr.Transport.now () -. s.born);
           let e = entry t s.reg in
           if s.ts > e.stable then e.stable <- s.ts;
           s.finish ()
         end
       | _ -> ())
    | Wire.Batch msgs -> List.iter go msgs
    | _ -> ()
  in
  go msg

let resend_pending ?(older_than = 0.0) t =
  let cutoff = t.tr.Transport.now () -. older_than in
  Hashtbl.iter
    (fun rid phase ->
      let resend answered msg =
        List.iter
          (fun r ->
            if not (List.mem r answered) then begin
              t.retrans <- t.retrans + 1;
              Metrics.incr t.c.m_retrans;
              send_to t r msg
            end)
          t.replicas
      in
      match phase with
      | Collect c when c.born <= cutoff ->
        resend (List.map fst c.replies) (Wire.Query { rid; reg = c.reg })
      | Store_p s when s.born <= cutoff ->
        resend s.acks (Wire.Store { rid; reg = s.reg; ts = s.ts; pl = s.pl })
      | Collect _ | Store_p _ -> ())
    t.pending;
  Hashtbl.length t.pending > 0

let stats t =
  {
    reads = t.reads;
    writes = t.writes;
    messages_sent = t.sent;
    retransmissions = t.retrans;
  }
