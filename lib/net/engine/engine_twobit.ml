(* The Mostéfaoui–Raynal register engine ("Two-Bit Messages are
   Sufficient to Implement Atomic Read/Write Registers in Crash-prone
   Systems", arXiv:1602.02695), adapted to this service's sharded
   single-engine-per-shard shape.

   The paper's insight: over reliable FIFO channels, a register needs
   no control information beyond the message type (four types = two
   bits).  This engine realises the FIFO exactly-once channel as a
   link layer — every frame to replica [r] carries the next sequence
   number of the (engine, r) link, the replica delivers frames in
   sequence order (buffering gaps, re-answering duplicates), and a
   reply echoes the request's link sequence number, which is how the
   engine matches it back (counting replaces request ids and
   timestamps; the replica's per-register apply counter replaces the
   writer timestamp).

   Why this is atomic here: this engine is the only issuer of
   operations on its shard's registers, and it broadcasts a write's
   [Store2] on every link at issue time.  FIFO delivery then means a
   [Query2] issued later is delivered at {e every} replica after that
   store, so {e any single reply} already reflects it — a read asks
   {e one} link (the next in rotation that is not suspected) and
   completes on its reply, with no write-back phase and no timestamp
   comparison.  Writes must broadcast; reads need only one link.
   Replies may be lost, duplicated or reordered freely: they are
   matched by link seq, and a duplicate frame is re-answered from
   current replica state, which only ever moves forward (see
   DESIGN_NET.md §10 for the full argument).

   Fault model: crash-stop (the paper's).  A crashed replica may pause
   and resume with memory intact; writes survive any minority of
   crashes, reads any n-1: a read still open at its resend deadline
   is widened — its [Query2] goes out once on every other link — and
   a link holding an overdue frame is suspected, so later reads pass
   it over until it answers again.  What the link layer does {e not}
   survive is an {e amnesia} restart — the replica's receive counters
   are volatile, so {!Explore.config} rejects twobit+amnesia and
   torture mode degrades amnesia fates to plain crashes for this
   engine. *)

type opk = Rd of (Wire.payload -> unit) | Wr of (unit -> unit)

type op = {
  k : opk;
  born : float;
  mutable acks : int;  (* Wr: replicas heard from *)
  mutable done_ : bool;
  mutable wide : bool;  (* Rd: its Query2 went out on every link *)
}

type entry = { frame : Wire.msg; sent_at : float; op : op }

type link = {
  dst : Transport.node;
  mutable next_seq : int;
  outbox : (int, entry) Hashtbl.t;  (* link seq -> unanswered frame *)
}

type ctrs = {
  m_stores : Metrics.counter;
  m_queries : Metrics.counter;
  m_msgs : Metrics.counter;
  m_retrans : Metrics.counter;
  m_bytes : Metrics.counter;
  m_cbytes : Metrics.counter;
  m_widened : Metrics.counter;
  m_suspected : Metrics.counter;
  h_op : Metrics.histogram;
}

type t = {
  tr : Transport.t;
  me : Transport.node;
  lid : int;  (* link id on the wire = this engine's shard index *)
  links : link array;
  majority : int;
  mutable turn : int;  (* the link the next read tries first *)
  mutable suspected : int;  (* bitmask over links: held an overdue frame *)
  c : ctrs;
}

let create ~transport ~me ~replicas ~lid ?metrics () =
  if lid < 0 || lid >= Wire.max_lid then
    invalid_arg
      (Fmt.str
         "Engine_twobit.create: link id %d out of range (at most %d shards)"
         lid Wire.max_lid);
  if List.length replicas > Sys.int_size - 1 then
    invalid_arg "Engine_twobit.create: too many replicas";
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  {
    tr = transport;
    me;
    lid;
    links =
      Array.of_list
        (List.map
           (fun dst -> { dst; next_seq = 0; outbox = Hashtbl.create 16 })
           replicas);
    majority = (List.length replicas / 2) + 1;
    turn = 0;
    suspected = 0;
    c =
      {
        m_stores = Metrics.counter metrics "twobit_stores";
        m_queries = Metrics.counter metrics "twobit_queries";
        m_msgs = Metrics.counter metrics "twobit_msgs";
        m_retrans = Metrics.counter metrics "twobit_retransmissions";
        m_bytes = Metrics.counter metrics "twobit_bytes";
        m_cbytes = Metrics.counter metrics "twobit_control_bytes";
        m_widened = Metrics.counter metrics "twobit_widened";
        m_suspected = Metrics.counter metrics "twobit_suspected";
        h_op = Metrics.histogram metrics "twobit_op";
      };
  }

let send t l msg =
  Metrics.incr t.c.m_msgs;
  Metrics.add t.c.m_bytes (Wire.encoded_size msg);
  Metrics.add t.c.m_cbytes (Wire.control_bytes msg);
  t.tr.Transport.send ~src:t.me ~dst:l.dst msg

(* Push [op]'s [frame], which must carry [l.next_seq], onto link [l].
   The frame stays in the outbox (and keeps being retransmitted) until
   its reply arrives — link repair must outlive the operation, or a
   lost frame would leave a sequence gap that deadlocks the receiver
   forever. *)
let push t l op frame =
  Hashtbl.replace l.outbox l.next_seq
    { frame; sent_at = t.tr.Transport.now (); op };
  l.next_seq <- l.next_seq + 1;
  send t l frame

let query t l op reg =
  push t l op (Wire.Query2 { lid = t.lid; seq = l.next_seq; reg })

(* A write broadcasts its [Store2] on every link at once: that is what
   makes any single read reply current.  [ts] is {!Registry}'s, already
   durable; the replicas' apply counter orders stores instead. *)
let store t ~reg ~ts:_ ~value ~k =
  Metrics.incr t.c.m_stores;
  let op =
    {
      k = Wr k;
      born = t.tr.Transport.now ();
      acks = 0;
      done_ = false;
      wide = false;
    }
  in
  for i = 0 to Array.length t.links - 1 do
    let l = t.links.(i) in
    push t l op
      (Wire.Store2 { lid = t.lid; seq = l.next_seq; reg; pl = value })
  done

(* The first link from [i] on, over at most [left] links, that is not
   suspected; [-1] if there is none.  Top-level, so a read builds no
   closure. *)
let rec unsuspected t i left =
  if left = 0 then -1
  else if t.suspected land (1 lsl i) = 0 then i
  else unsuspected t ((i + 1) mod Array.length t.links) (left - 1)

(* A read asks one link: the next in rotation that is not suspected,
   or the next in rotation if every link is.  Rotation spreads the
   reads over the group; the rotation index moves past the link picked,
   so reads skipping a suspect still alternate over the others. *)
let pick t =
  let n = Array.length t.links in
  let i = match unsuspected t t.turn n with -1 -> t.turn | i -> i in
  t.turn <- (i + 1) mod n;
  i

let read t ~reg ~k =
  Metrics.incr t.c.m_queries;
  let op =
    {
      k = Rd k;
      born = t.tr.Transport.now ();
      acks = 0;
      done_ = false;
      wide = false;
    }
  in
  query t t.links.(pick t) op reg

(* Index of the link to replica node [dst], from [i] on; [-1] for a
   node outside the group.  A loop, not a closure: it runs on every
   reply. *)
let rec link_index t dst i =
  if i >= Array.length t.links then -1
  else if t.links.(i).dst = dst then i
  else link_index t dst (i + 1)

(* A reply from [src], even to a finished op, shows its link is up:
   clear the link's suspicion and return its index ([-1] for a node
   outside the group). *)
let heard t src =
  let i = link_index t src 0 in
  if i >= 0 then t.suspected <- t.suspected land lnot (1 lsl i);
  i

let finish t op =
  op.done_ <- true;
  Metrics.observe t.c.h_op (t.tr.Transport.now () -. op.born)

(* Recursive with explicit arguments: a local helper would close over
   [t] and [src], one closure per reply.  Only a [Batch] builds one. *)
let rec on_message t ~src msg =
  match msg with
  | Wire.Ack2 { lid; seq } when lid = t.lid ->
    let i = heard t src in
    if i >= 0 then begin
      let l = t.links.(i) in
      match Hashtbl.find l.outbox seq with
      | { op = { k = Wr k; _ } as op; _ } ->
        Hashtbl.remove l.outbox seq;
        op.acks <- op.acks + 1;
        if (not op.done_) && op.acks >= t.majority then begin
          finish t op;
          k ()
        end
      | { op = { k = Rd _; _ }; _ } | (exception Not_found) -> ()
    end
  | Wire.Query2_reply { lid; seq; pl } when lid = t.lid ->
    let i = heard t src in
    if i >= 0 then begin
      let l = t.links.(i) in
      match Hashtbl.find l.outbox seq with
      | { op = { k = Rd k; _ } as op; _ } ->
        Hashtbl.remove l.outbox seq;
        (* first reply wins: FIFO links make every reply current *)
        if not op.done_ then begin
          finish t op;
          k pl
        end
      | { op = { k = Wr _; _ }; _ } | (exception Not_found) -> ()
    end
  | Wire.Batch msgs -> List.iter (fun m -> on_message t ~src m) msgs
  | _ -> ()

(* Every unanswered frame is retransmitted — even ones whose operation
   already completed, because a sequence gap on a link blocks all later
   frames until repaired — and a link holding one becomes suspected.
   A read still open after its deadline is then widened: its Query2
   goes out once on every other link, so the read survives any n-1
   crashed replicas, as a broadcast read would.  The timer is only
   kept armed while an OPERATION is in flight: op-complete frames
   pending towards a slow or crashed replica do not spin an idle
   service (a crashed replica would otherwise keep the timer alive
   forever), and the next operation re-arms the timer, whose resends
   then repair the old gaps before the receiver needs the new
   frame. *)
let resend_pending ?(older_than = 0.0) t =
  let cutoff = t.tr.Transport.now () -. older_than in
  let still = ref false in
  Array.iteri
    (fun i l ->
      Hashtbl.iter
        (fun _ e ->
          if not e.op.done_ then still := true;
          if e.sent_at <= cutoff then begin
            if t.suspected land (1 lsl i) = 0 then begin
              t.suspected <- t.suspected lor (1 lsl i);
              Metrics.incr t.c.m_suspected
            end;
            Metrics.incr t.c.m_retrans;
            send t l e.frame
          end)
        l.outbox)
    t.links;
  (* a second pass, so that no frame widened here is resent at once *)
  Array.iteri
    (fun i l ->
      Hashtbl.iter
        (fun _ e ->
          match e with
          | { op = { k = Rd _; wide = false; done_ = false; _ } as op;
              frame = Wire.Query2 { reg; _ }; sent_at }
            when sent_at <= cutoff ->
            op.wide <- true;
            Metrics.incr t.c.m_widened;
            Array.iteri (fun j l' -> if j <> i then query t l' op reg) t.links
          | _ -> ())
        l.outbox)
    t.links;
  !still
