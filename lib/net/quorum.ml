(* Pending phases live in slot arrays: slot [i]'s fields sit at index
   [i] of the arrays below, and a finished phase's slot goes back on a
   free stack, so starting a phase allocates nothing once the arrays
   have grown to the engine's peak of phases in flight.  [pending] maps
   a phase's rid to its slot; [resend_pending] visits the phases in
   its order.

   [reached] is the set of replica indices (a bitmask over [reps]) the
   phase has been sent to: its first window, then every replica once
   {!resend_pending} widens it.  [got] is the set that has replied
   (answered a collect, acked a store), [count] its size, so a
   duplicate reply is a bit test.  A collect keeps only the freshest
   pair so far in [ts]/[pl]: a reply whose timestamp ties it replaces
   it, so the newest reply wins a tie.  A store's [ts]/[pl] is the pair
   it installs.

   What runs at completion is the slot's kind.  A read's collect keeps
   the read's own continuation in [rk] and decides its write-back
   inline; a write-back store hands its pair to the same [rk]. *)
type kind =
  | Free
  | Read  (* a read's collect: [rk], after a write-back if needed *)
  | Read_ts  (* a bare collect: [tk] *)
  | Store  (* a {!store}: [uk] *)
  | Write_back  (* a read's write-back: [rk] *)

type slots = {
  mutable kind : kind array;
  mutable reg : int array;
  mutable born : Float.Array.t;
  mutable reached : int array;
  mutable got : int array;
  mutable count : int array;
  mutable ts : int array;
  mutable pl : Wire.payload array;
  mutable rk : (Wire.payload -> unit) array;
  mutable uk : (unit -> unit) array;
  mutable tk : (int * Wire.payload -> unit) array;
  mutable free : int array;  (* a stack of free slots *)
  mutable nfree : int;
}

type ctrs = {
  m_queries : Metrics.counter;
  m_writes : Metrics.counter;
  m_stores : Metrics.counter;
  m_msgs : Metrics.counter;
  m_retrans : Metrics.counter;
  m_bytes : Metrics.counter;
  m_cbytes : Metrics.counter;
  m_widened : Metrics.counter;
  m_suspected : Metrics.counter;
  h_phase1 : Metrics.histogram;
  h_phase2 : Metrics.histogram;
}

type t = {
  tr : Transport.t;
  me : Transport.node;
  reps : Transport.node array;
  all : int;  (* every replica index, as a bitmask *)
  quorum : int;
  read_quorum : int;
  need : int;  (* first-window size: enough replies for any phase *)
  mutable suspected : int;  (* bitmask: missed a resend deadline *)
  skip_write_back : bool;
  no_widen : bool;  (* [Bug.no_widen] *)
  pending : (int, int) Hashtbl.t;  (* rid -> slot *)
  ph : slots;
  (* global reg -> the highest timestamp whose store phase — a {!store}
     or a write-back — this engine has seen complete.  Replicas ack a
     store only once it is durable and never lower a timestamp, so a
     majority holds it or newer for good. *)
  stable : (int, int) Hashtbl.t;
  rid_stride : int;
  mutable next_rid : int;
  c : ctrs;
}

(* a collect's [pl] until its first reply replaces it, and a free
   slot's *)
let no_payload = Registers.Tagged.initial 0

let no_rk (_ : Wire.payload) = ()
let no_uk () = ()
let no_tk (_ : int * Wire.payload) = ()

let create ~transport ~me ~replicas ?read_quorum ?(skip_write_back = false)
    ?(no_widen = false) ?metrics ?(rid_base = 0) ?(rid_stride = 1) () =
  if rid_stride < 1 || rid_base < 0 || rid_base >= rid_stride then
    invalid_arg "Quorum.create: rid_base/rid_stride out of range";
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  let n = List.length replicas in
  if n > Sys.int_size - 1 then invalid_arg "Quorum.create: too many replicas";
  let majority = (n / 2) + 1 in
  let read_quorum =
    match read_quorum with
    | None -> majority
    | Some q ->
      if q < 1 || q > n then
        invalid_arg "Quorum.create: read_quorum out of range";
      q
  in
  let c =
    {
      m_queries = Metrics.counter metrics "quorum_queries";
      m_writes = Metrics.counter metrics "quorum_writes";
      m_stores = Metrics.counter metrics "quorum_stores";
      m_msgs = Metrics.counter metrics "quorum_msgs";
      m_retrans = Metrics.counter metrics "quorum_retransmissions";
      m_bytes = Metrics.counter metrics "quorum_bytes";
      m_cbytes = Metrics.counter metrics "quorum_control_bytes";
      m_widened = Metrics.counter metrics "quorum_widened";
      m_suspected = Metrics.counter metrics "quorum_suspected";
      h_phase1 = Metrics.histogram metrics "quorum_phase1";
      h_phase2 = Metrics.histogram metrics "quorum_phase2";
    }
  in
  {
    tr = transport;
    me;
    reps = Array.of_list replicas;
    all = (1 lsl n) - 1;
    quorum = majority;
    read_quorum;
    need = max majority read_quorum;
    suspected = 0;
    skip_write_back;
    no_widen;
    pending = Hashtbl.create 16;
    ph =
      {
        kind = [||];
        reg = [||];
        born = Float.Array.create 0;
        reached = [||];
        got = [||];
        count = [||];
        ts = [||];
        pl = [||];
        rk = [||];
        uk = [||];
        tk = [||];
        free = [||];
        nfree = 0;
      };
    stable = Hashtbl.create 16;
    rid_stride;
    next_rid = rid_base;
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
  Metrics.incr t.c.m_msgs;
  Metrics.add t.c.m_bytes (Wire.encoded_size msg);
  Metrics.add t.c.m_cbytes (Wire.control_bytes msg);
  t.tr.Transport.send ~src:t.me ~dst msg

(* Where phase [rid]'s rotation starts: one place further on for each
   phase this engine issues, so every replica carries about [need/n]
   of the load.  Always 0 when a phase needs the whole group. *)
let turn t rid =
  let n = Array.length t.reps in
  if t.need >= n then 0 else rid / t.rid_stride mod n

(* A phase's first window: the first [need] replicas of its rotation,
   passing over suspected ones while enough others remain.  Majorities
   intersect whichever ones are picked, and a window member that does
   not answer costs one {!resend_pending}, which widens the phase to
   every replica. *)
let window t rid =
  let n = Array.length t.reps and start = turn t rid in
  let w = ref 0 and k = ref 0 in
  for pass = 0 to 1 do
    for i = 0 to n - 1 do
      let b = 1 lsl ((start + i) mod n) in
      if !k < t.need && (t.suspected land b = 0) = (pass = 0) then begin
        w := !w lor b;
        incr k
      end
    done
  done;
  !w

(* Send phase [rid]'s [msg] to the replicas in [mask], in rotation
   order. *)
let send_mask t rid mask msg =
  let n = Array.length t.reps and start = turn t rid in
  for i = 0 to n - 1 do
    let j = (start + i) mod n in
    if mask land (1 lsl j) <> 0 then send_to t t.reps.(j) msg
  done

(* Bit of replica node [r] in [reps]; 0 for a node outside the group.
   A loop, not a closure: it runs on every reply while a replica is
   suspected. *)
let bit t r =
  let b = ref 0 in
  for i = 0 to Array.length t.reps - 1 do
    if t.reps.(i) = r then b := 1 lsl i
  done;
  !b

(* 0 for a register this engine never stored: the initial pair every
   replica holds.  [find], not [find_opt]: this runs on every
   operation, and the exception path allocates no option. *)
let stable t reg =
  match Hashtbl.find t.stable reg with ts -> ts | exception Not_found -> 0

(* Double every slot array, pushing the new slots on the free stack
   (highest first, so the lowest is taken next). *)
let grow p =
  let n = Array.length p.kind in
  let n' = max 4 (2 * n) in
  let ext a fill =
    let a' = Array.make n' fill in
    Array.blit a 0 a' 0 n;
    a'
  in
  p.kind <- ext p.kind Free;
  p.reg <- ext p.reg 0;
  let born = Float.Array.make n' 0.0 in
  Float.Array.blit p.born 0 born 0 n;
  p.born <- born;
  p.reached <- ext p.reached 0;
  p.got <- ext p.got 0;
  p.count <- ext p.count 0;
  p.ts <- ext p.ts 0;
  p.pl <- ext p.pl no_payload;
  p.rk <- ext p.rk no_rk;
  p.uk <- ext p.uk no_uk;
  p.tk <- ext p.tk no_tk;
  p.free <- ext p.free 0;
  for i = n' - 1 downto n do
    p.free.(p.nfree) <- i;
    p.nfree <- p.nfree + 1
  done

(* A slot for fresh phase [rid] of [kind] on [reg], with its first
   window.  The caller sets the slot's continuation, then sends: a
   zero-delay transport may complete the phase inside the send. *)
let open_phase t kind ~rid ~reg ~ts ~pl =
  let p = t.ph in
  if p.nfree = 0 then grow p;
  p.nfree <- p.nfree - 1;
  let i = p.free.(p.nfree) in
  p.kind.(i) <- kind;
  p.reg.(i) <- reg;
  Float.Array.set p.born i (t.tr.Transport.now ());
  p.reached.(i) <- window t rid;
  p.got.(i) <- 0;
  p.count.(i) <- 0;
  p.ts.(i) <- ts;
  p.pl.(i) <- pl;
  Hashtbl.replace t.pending rid i;
  i

(* Retire phase [rid] in slot [i]: its continuations and payload are
   dropped, so a free slot keeps nothing alive. *)
let close_phase t rid i =
  let p = t.ph in
  Hashtbl.remove t.pending rid;
  p.kind.(i) <- Free;
  p.pl.(i) <- no_payload;
  p.rk.(i) <- no_rk;
  p.uk.(i) <- no_uk;
  p.tk.(i) <- no_tk;
  p.free.(p.nfree) <- i;
  p.nfree <- p.nfree + 1

let send_store t ~rid i ~reg ~ts ~pl =
  Metrics.incr t.c.m_stores;
  send_mask t rid t.ph.reached.(i) (Wire.Store { rid; reg; ts; pl })

(* Write-back phase: install the freshest pair on a majority before the
   read returns it, for reader-reader atomicity. *)
let start_write_back t ~reg ~ts ~pl ~k =
  let rid = fresh_rid t in
  let i = open_phase t Write_back ~rid ~reg ~ts ~pl in
  t.ph.rk.(i) <- k;
  send_store t ~rid i ~reg ~ts ~pl

let open_collect t kind ~rid ~reg =
  open_phase t kind ~rid ~reg ~ts:min_int ~pl:no_payload

let send_query t ~rid i ~reg =
  send_mask t rid t.ph.reached.(i) (Wire.Query { rid; reg })

let read t ~reg ~k =
  Metrics.incr t.c.m_queries;
  let rid = fresh_rid t in
  let i = open_collect t Read ~rid ~reg in
  t.ph.rk.(i) <- k;
  send_query t ~rid i ~reg

(* A bare collect: the freshest (ts, payload) a read quorum holds,
   with no write-back phase.  The reconfiguration coordinator uses it
   to sample a register's state from the outgoing group before
   installing it on the incoming one — the install is the write-back,
   so doing another here would double the message cost. *)
let read_ts t ~reg ~k =
  Metrics.incr t.c.m_queries;
  let rid = fresh_rid t in
  let i = open_collect t Read_ts ~rid ~reg in
  t.ph.tk.(i) <- k;
  send_query t ~rid i ~reg

(* A store phase installs the caller's pair verbatim: {!Registry}
   issued [ts] and made it durable before this call. *)
let store t ~reg ~ts ~value ~k =
  Metrics.incr t.c.m_writes;
  let rid = fresh_rid t in
  let i = open_phase t Store ~rid ~reg ~ts ~pl:value in
  t.ph.uk.(i) <- k;
  send_store t ~rid i ~reg ~ts ~pl:value

(* Any reply, even to a finished phase, shows [src] is up again. *)
let heard t src =
  if t.suspected <> 0 then t.suspected <- t.suspected land lnot (bit t src)

(* A collect's completion.  A read returns at once when its pair's
   store is one this engine already saw complete (that pair is on a
   majority, so every later collect sees it or a newer one), and
   writes it back first otherwise. *)
let collected t rid i =
  let p = t.ph in
  let reg = p.reg.(i) and ts = p.ts.(i) and pl = p.pl.(i) in
  let kind = p.kind.(i) and rk = p.rk.(i) and tk = p.tk.(i) in
  Metrics.observe t.c.h_phase1
    (t.tr.Transport.now () -. Float.Array.get p.born i);
  close_phase t rid i;
  match kind with
  | Read_ts -> tk (ts, pl)
  | _ ->
    if ts = stable t reg || t.skip_write_back then rk pl
    else start_write_back t ~reg ~ts ~pl ~k:rk

let stored t rid i =
  let p = t.ph in
  let reg = p.reg.(i) and ts = p.ts.(i) and pl = p.pl.(i) in
  let kind = p.kind.(i) and rk = p.rk.(i) and uk = p.uk.(i) in
  Metrics.observe t.c.h_phase2
    (t.tr.Transport.now () -. Float.Array.get p.born i);
  close_phase t rid i;
  if ts > stable t reg then Hashtbl.replace t.stable reg ts;
  match kind with Write_back -> rk pl | _ -> uk ()

(* Count [src]'s reply to the phase in slot [i]: whether it is new and
   from the group. *)
let count_reply t i src =
  let p = t.ph in
  let b = bit t src in
  if b <> 0 && p.got.(i) land b = 0 then begin
    p.got.(i) <- p.got.(i) lor b;
    p.count.(i) <- p.count.(i) + 1;
    true
  end
  else false

let is_collect = function Read | Read_ts -> true | Free | Store | Write_back -> false

(* Recursive with explicit arguments: a local helper would close over
   [t] and [src], one closure per reply.  Only a [Batch] builds one.
   [find], not [find_opt], for the same reason as {!stable}.  A reply
   from outside the group (bit 0) never counts toward a quorum. *)
let rec on_message t ~src msg =
  match msg with
  | Wire.Query_reply { rid; ts; pl; _ } ->
    heard t src;
    (match Hashtbl.find t.pending rid with
     | i when is_collect t.ph.kind.(i) && count_reply t i src ->
       let p = t.ph in
       if ts >= p.ts.(i) then begin
         p.ts.(i) <- ts;
         p.pl.(i) <- pl
       end;
       if p.count.(i) >= t.read_quorum then collected t rid i
     | _ | (exception Not_found) -> ())
  | Wire.Store_ack { rid; _ } ->
    heard t src;
    (match Hashtbl.find t.pending rid with
     | i when (not (is_collect t.ph.kind.(i))) && count_reply t i src ->
       if t.ph.count.(i) >= t.quorum then stored t rid i
     | _ | (exception Not_found) -> ())
  | Wire.Batch msgs -> List.iter (fun m -> on_message t ~src m) msgs
  | _ -> ()

(* Re-send to every replica of the group that has not answered: a
   window member that missed the deadline becomes suspected, and one
   outside the window widens the phase, which reaches every replica
   from then on.  With [no_widen] only the window is re-sent to. *)
let resend t ~reached ~answered msg =
  let missing = (if t.no_widen then reached else t.all) land lnot answered in
  if missing land lnot reached <> 0 then Metrics.incr t.c.m_widened;
  for i = 0 to Array.length t.reps - 1 do
    let b = 1 lsl i in
    if missing land b <> 0 then begin
      if reached land b <> 0 && t.suspected land b = 0 then begin
        t.suspected <- t.suspected lor b;
        Metrics.incr t.c.m_suspected
      end;
      Metrics.incr t.c.m_retrans;
      send_to t t.reps.(i) msg
    end
  done

let resend_pending ?(older_than = 0.0) t =
  let cutoff = t.tr.Transport.now () -. older_than in
  let p = t.ph in
  Hashtbl.iter
    (fun rid i ->
      if Float.Array.get p.born i <= cutoff then begin
        let reg = p.reg.(i) in
        resend t ~reached:p.reached.(i) ~answered:p.got.(i)
          (if is_collect p.kind.(i) then Wire.Query { rid; reg }
           else Wire.Store { rid; reg; ts = p.ts.(i); pl = p.pl.(i) });
        if not t.no_widen then p.reached.(i) <- t.all
      end)
    t.pending;
  Hashtbl.length t.pending > 0
