module E = Histories.Event
module Vm = Registers.Vm

(* Per-session, per-key execution state.  A session's operations
   arrive in sequence-number order (client links keep order, and the
   pool's router keeps it), and are queued per key: operations on the
   same key (the same two-writer register) execute one at a time — the
   paper's a-processor-is-sequential assumption, which is per register
   — while operations on different keys proceed concurrently.  That
   per-key independence is where the sharded service's throughput
   comes from. *)
type session = {
  src : Transport.node;
  proc : E.proc;
  mutable next_seq : int;  (* lowest sequence number not yet seen *)
  lane : lane;
  invoke_read : int E.t;
  respond_write : int E.t;
      (* the session's two events that carry no value, built once: the
         log and the monitor share them *)
}

(* A processor's per-key execution lanes.  They belong to the
   processor, not the session: a reconnect ([Bye] then [Hello]) reuses
   them, so a new session's op on a key waits behind the old session's
   op still in flight there — the processor stays sequential per key.
   A writer role has one set however many client nodes claim it (two
   concurrent writes by one role would break the protocol and the
   writer's local copy); a reader's set belongs to its client node. *)
and lane = (int, keyq) Hashtbl.t  (* key -> its queue *)

(* One key of a lane: its queued ops, not yet started, in a ring that
   doubles when full, and whether an op of the key is executing. *)
and keyq = {
  mutable ring : op array;
  mutable first : int;
  mutable len : int;
  mutable busy : bool;
}

(* One client op on one key (a multi-key op has one per owned key),
   from its admission to its answer: the op's only record.  A finished
   op's record goes back on the core's spare stack and serves a later
   op, so admitting, queueing and running an op allocate nothing of
   the core's own once the stack has grown to the peak of ops in
   flight. *)
and op = {
  mutable s : session;
  mutable seq : int;
  mutable wop : Wire.op;
  mutable key : int;
  mutable kq : keyq;
  mutable gen : bool;  (* {!Reconfig.op_started}'s generation *)
  t0 : Float.Array.t;  (* [| start time |], unboxed *)
  rd : int cursor;  (* a read program's place *)
  wr : unit cursor;  (* a write program's place *)
}

(* Where an op's program stands while the engine serves one of its
   real accesses: the program's continuation for that access, and the
   op's fixed engine callbacks that resume it.  One per result type,
   so resuming allocates nothing but the program's own next node. *)
and 'a cursor = {
  mutable on_read : Wire.payload -> (Wire.payload, 'a) Vm.prog;
  mutable on_write : unit -> (Wire.payload, 'a) Vm.prog;
  read_k : Wire.payload -> unit;
  write_k : unit -> unit;
  done_ : 'a -> unit;  (* the program returned *)
}

type lane_owner =
  | Role of E.proc  (* writer role 0 or 1 *)
  | Node of Transport.node  (* a reader's client node *)

let is_writer proc = proc = 0 || proc = 1

type member = {
  worker : int;
  domains : int;
  txns : Txn.t;
  post : (unit -> unit) -> unit;
  peer_stores : Storage.t list;
}

(* Worker ownership by the epoch-0 hash placement, NOT the live map: a
   migrated key must stay on the worker whose core ran (and audits)
   its history — that core's own registry routes it to the new shard's
   engine after cutover — and reply frames keep routing there too. *)
let worker_of_key map ~domains key =
  Shard_map.base_shard_of_key map key mod domains

type t = {
  tr : Transport.t;  (* corked: one frame per peer per turn *)
  cork : Transport.cork;
  me : Transport.node;
  owns : int -> bool;
  registry : Registry.t;
  reconfig : Reconfig.t;
  txns : Txn.t;  (* shared across all cores of a pool *)
  post : (unit -> unit) -> unit;  (* how coordinator thunks re-enter *)
  sessions : (Transport.node, session) Hashtbl.t;
  lanes : (lane_owner, lane) Hashtbl.t;
  mutable spare : op array;  (* a stack of finished ops' records *)
  mutable nspare : int;
  idle_s : session;
  idle_q : keyq;
      (* what a spare record points at, so that it keeps no session,
         and through it no lane table, reachable *)
  copies : (int, Wire.payload) Hashtbl.t;
      (* writer [i]'s copy of its own register of a key, at that
         register's global index: the protocol's cells 2 and 3.  Never
         persisted — a restarted server reads plainly until the
         writer's next write to the key *)
  stale_copy : bool;  (* [Bug.stale_copy] *)
  audit : bool;
  init : int;
  monitors : (int, int Histories.Monitor.t) Hashtbl.t;  (* per key *)
  mutable violations_rev : (int * int Histories.Fastcheck.violation) list;
      (* first violation per key, newest first *)
  log : History_log.t option;
      (* the recorded history, with [?history]: chunks of at most 4096
         events, so it grows with no copy and its memory follows its
         length *)
  mutable timer_armed : bool;
  resend_every : float;
  storage : Storage.t option;
  stores : Storage.t list;  (* [storage] and the pool's other cores' *)
  metrics : Metrics.t;
  trace : Trace.t option;
  m_served : Metrics.counter;
  m_rejected : Metrics.counter;
  m_copy_reads : Metrics.counter;
  m_copy_misses : Metrics.counter;
  m_audit : Metrics.counter;  (* keys whose audit latched a violation *)
  m_audit_keys : Metrics.counter;  (* keys with a monitor *)
  m_audit_resident : Metrics.counter;
      (* monitors holding a working graph: +1 and -1 as one unfolds and
         folds *)
  h_op : Metrics.histogram;
  c_shard_ops : Metrics.counter array;
}

let monitor_of t key =
  match Hashtbl.find t.monitors key with
  | m -> m
  | exception Not_found ->
    let m = Histories.Monitor.create ~init:t.init in
    Hashtbl.replace t.monitors key m;
    Metrics.incr t.m_audit_keys;
    m

(* Feed [key]'s monitor, keeping the resident count. *)
let observe t key ev =
  let m = monitor_of t key in
  let before = Histories.Monitor.resident m in
  let v = Histories.Monitor.observe m ev in
  let after = Histories.Monitor.resident m in
  if after <> before then
    Metrics.add t.m_audit_resident (if after then 1 else -1);
  v

let with_cork t f = Transport.turn t.cork f

let epoch t = Reconfig.epoch t.reconfig
let shards t = Registry.shards t.registry

let record t key ev =
  (match t.log with
   | None -> ()
   | Some l -> History_log.append l (t.tr.Transport.now ()) key ev);
  (match t.trace with
   | None -> ()
   | Some tr ->
     let kind =
       match ev with
       | E.Invoke (proc, op) -> Trace.Invoke { key; proc; op }
       | E.Respond (proc, result) -> Trace.Respond { key; proc; result }
     in
     Trace.record tr ~time:(t.tr.Transport.now ()) kind);
  if t.audit then
    match observe t key ev with
    | Histories.Monitor.Ok_so_far -> ()
    | Histories.Monitor.Violation v ->
      if not (List.mem_assoc key t.violations_rev) then begin
        t.violations_rev <- (key, v) :: t.violations_rev;
        Metrics.incr t.m_audit
      end

(* Retransmission driver: armed while operations are in flight, quiet
   when the service is idle.  Re-armed from each operation start. *)
let rec arm_timer t =
  if not t.timer_armed then begin
    t.timer_armed <- true;
    t.tr.Transport.set_timer ~node:t.me ~delay:t.resend_every (fun () ->
        t.timer_armed <- false;
        (* only phases a full period old can have lost a message *)
        if Registry.resend_pending ~older_than:t.resend_every t.registry then
          arm_timer t)
  end

(* Cell [2 + i] of the cached programs is writer [i]'s copy. *)
let copy_slot key cell = Shard_map.global_reg key (cell land 1)

(* Interpret a Bloom micro-step program for op [o]'s key, mapping
   each primitive cell access to a quorum operation on the
   corresponding replicated real register of that key.  Access goes
   through the reconfiguration coordinator, which is the registry
   outside a migration and the dual-quorum discipline during one.  A
   writer's local copy (a {!Core.Protocol.is_local_cell} cell) is the
   [copies] table: no message.  A real access parks the program's
   continuation in cursor [c] and hands the engine [c]'s fixed
   callback. *)
let rec step : 'a. t -> op -> 'a cursor -> (Wire.payload, 'a) Vm.prog -> unit
    =
 fun t o c prog ->
  match prog with
  | Vm.Ret a -> c.done_ a
  | Vm.Read (cell, cont) when Core.Protocol.is_local_cell cell ->
    step t o c (cont (Hashtbl.find t.copies (copy_slot o.key cell)))
  | Vm.Write (cell, pl, cont) when Core.Protocol.is_local_cell cell ->
    Hashtbl.replace t.copies (copy_slot o.key cell) pl;
    step t o c (cont ())
  | Vm.Read (reg, cont) ->
    c.on_read <- cont;
    Reconfig.read t.reconfig ~key:o.key ~reg ~k:c.read_k
  | Vm.Write (reg, pl, cont) ->
    c.on_write <- cont;
    Reconfig.write t.reconfig ~key:o.key ~reg ~value:pl ~k:c.write_k

(* A reply goes out only while [s] is still its node's current session:
   the op of a closed session still runs (and is audited) on the
   node's lane, but its answer must not reach a reconnected client,
   whose sequence numbers restart at 0. *)
let reply t s msg =
  match Hashtbl.find t.sessions s.src with
  | cur when cur == s -> t.tr.Transport.send ~src:t.me ~dst:s.src msg
  | _ | (exception Not_found) -> ()

let respond t s seq result =
  Metrics.incr t.m_served;
  reply t s (Wire.Resp { seq; result })

(* Every client-visible operation's key.  For a multi-key op this is
   its *routing* key — the first listed key (or 0 when the list is
   empty, so even an invalid frame has a well-defined core that will
   reject it). *)
let key_of_op = function
  | Wire.Read_k { key } | Wire.Write_k { key; _ } -> key
  | Wire.Txn_k { writes = (key, _) :: _ } | Wire.Snap_k { keys = key :: _ } ->
    key
  | Wire.Txn_k { writes = [] } | Wire.Snap_k { keys = [] } -> 0

let keys_of_op = function
  | Wire.Txn_k { writes } -> List.map fst writes
  | Wire.Snap_k { keys } -> keys
  | op -> [ key_of_op op ]

(* A writer reads through its copy once it has one, i.e. once it has
   written the key since this server started; everyone else, and a
   writer without a copy, runs the plain three-read program. *)
let read_prog t proc key =
  if not (is_writer proc) then Core.Protocol.read_prog ()
  else if Hashtbl.mem t.copies (Shard_map.global_reg key proc) then begin
    Metrics.incr t.m_copy_reads;
    Core.Protocol.cached_read_prog ~proc
  end
  else begin
    Metrics.incr t.m_copy_misses;
    Core.Protocol.read_prog ()
  end

(* [find], not [find_opt], here and at [sessions]: these run once per
   op, and the exception path allocates no option *)
let queue_of lane key =
  match Hashtbl.find lane key with
  | q -> q
  | exception Not_found ->
    let q = { ring = [||]; first = 0; len = 0; busy = false } in
    Hashtbl.replace lane key q;
    q

let push q o =
  let cap = Array.length q.ring in
  if q.len = cap then begin
    let ring = Array.make (max 4 (2 * cap)) o in
    for i = 0 to q.len - 1 do
      ring.(i) <- q.ring.((q.first + i) mod cap)
    done;
    q.ring <- ring;
    q.first <- 0
  end;
  q.ring.((q.first + q.len) mod Array.length q.ring) <- o;
  q.len <- q.len + 1

let pop q =
  let o = q.ring.(q.first) in
  q.first <- (q.first + 1) mod Array.length q.ring;
  q.len <- q.len - 1;
  o

(* Put a finished op's record on the spare stack.  Nothing may touch
   [o] afterwards: the next admission reuses it. *)
let release t o =
  o.s <- t.idle_s;
  o.kq <- t.idle_q;
  if t.nspare = Array.length t.spare then begin
    let spare = Array.make (max 4 (2 * t.nspare)) o in
    Array.blit t.spare 0 spare 0 t.nspare;
    t.spare <- spare
  end;
  t.spare.(t.nspare) <- o;
  t.nspare <- t.nspare + 1

let rec start_next t lane key =
  (* a key in a migration's drain phase parks here: the op stays
     queued, and the coordinator's unpark hook re-enters once the
     cutover has installed the new placement *)
  let q = queue_of lane key in
  if (not q.busy) && Reconfig.admitting t.reconfig key && q.len > 0 then begin
    let o = pop q in
    q.busy <- true;
    arm_timer t;
    Metrics.incr t.c_shard_ops.(Registry.shard_of_key t.registry key);
    (* the generation token gates the migration's settle (pre-entry
       ops) and drain (their dual-writing successors) phases *)
    o.gen <- Reconfig.op_started t.reconfig ~key;
    Float.Array.set o.t0 0 (t.tr.Transport.now ());
    match o.wop with
    | Wire.Txn_k { writes } -> start_multi t o (Txn.Writes writes)
    | Wire.Snap_k { keys } -> start_multi t o (Txn.Snap keys)
    | Wire.Read_k _ when key < 0 -> reject t o
    | Wire.Read_k _ ->
      record t key o.s.invoke_read;
      step t o o.rd (read_prog t o.s.proc key)
    | Wire.Write_k { value = v; _ } when key >= 0 && is_writer o.s.proc ->
      record t key (E.Invoke (o.s.proc, E.Write v));
      step t o o.wr (Core.Protocol.cached_write_prog ~proc:o.s.proc v)
    | Wire.Write_k _ ->
      (* only processors 0 and 1 hold the two writer roles *)
      reject t o
  end

(* The end of a single-key op on its lane: the key runs its next
   queued op. *)
and finish t o =
  let s = o.s and key = o.key and q = o.kq and gen = o.gen in
  Metrics.observe t.h_op (t.tr.Transport.now () -. Float.Array.get o.t0 0);
  release t o;
  q.busy <- false;
  Reconfig.op_finished t.reconfig ~key ~gen;
  start_next t s.lane key

and reject t o =
  Metrics.incr t.m_rejected;
  reply t o.s (Wire.Nack { seq = o.seq });
  let s = o.s and key = o.key and q = o.kq and gen = o.gen in
  release t o;
  q.busy <- false;
  Reconfig.op_finished t.reconfig ~key ~gen;
  start_next t s.lane key

(* A program's end.  A single-key op answers its client and frees its
   key; a multi-key op's key reports to the coordinator, whose own
   [finish] frees the key later. *)
and read_done t o v =
  let r = Some v in
  record t o.key (E.Respond (o.s.proc, r));
  match o.wop with
  | Wire.Snap_k _ ->
    let src = o.s.src and seq = o.seq and key = o.key in
    release t o;
    Txn.key_done t.txns ~src ~seq ~key ~value:v ()
  | _ ->
    respond t o.s o.seq r;
    finish t o

and write_done t o () =
  record t o.key o.s.respond_write;
  match o.wop with
  | Wire.Txn_k _ ->
    let src = o.s.src and seq = o.seq and key = o.key in
    release t o;
    Txn.key_done t.txns ~src ~seq ~key ()
  | _ ->
    respond t o.s o.seq None;
    finish t o

(* Phase 1 of a multi-key op, entered once per owned key when that key
   reaches its session queue's head (the key is already marked busy by
   [start_next]).  Everything from here on is driven by the shared
   coordinator; the thunks we hand it post back onto this core so
   engine operations, responses and queue pumps all run on the owning
   domain. *)
and start_multi t o kind =
  let post = t.post in
  let s = o.s and key = o.key and seq = o.seq and q = o.kq and gen = o.gen in
  let t0 = t.tr.Transport.now () in
  let min_key = List.fold_left min max_int (Txn.keys_of_kind kind) in
  let run_key () =
    post (fun () ->
        arm_timer t;
        match kind with
        | Txn.Writes writes ->
          let v = List.assoc key writes in
          record t key (E.Invoke (s.proc, E.Write v));
          step t o o.wr
            (if t.stale_copy then
               Core.Protocol.write_prog ~level:0 ~proc:s.proc v
             else Core.Protocol.cached_write_prog ~proc:s.proc v)
        | Txn.Snap _ ->
          record t key s.invoke_read;
          step t o o.rd (Core.Protocol.read_prog ()))
  in
  let finish () =
    post (fun () ->
        Metrics.observe t.h_op (t.tr.Transport.now () -. t0);
        q.busy <- false;
        Reconfig.op_finished t.reconfig ~key ~gen;
        start_next t s.lane key)
  in
  let resp_thunk =
    (* the owner of the smallest key is the coordinator: it answers *)
    if key = min_key then
      Some
        (fun values ->
          post (fun () ->
              match values with
              | None -> respond t s seq None
              | Some vs ->
                Metrics.incr t.m_served;
                reply t s (Wire.Resp_snap { seq; values = vs })))
    else None
  in
  Txn.key_ready t.txns ~src:s.src ~seq ~kind ~key ~exec:run_key ~finish
    ?respond:resp_thunk ()

let no_access _ = invalid_arg "Server: no real access pending"

(* A record for op [wop] of session [s] on [key], queued on [kq]: a
   spare one, or a new one with its cursors. *)
let take_op t s seq wop key kq =
  if t.nspare > 0 then begin
    t.nspare <- t.nspare - 1;
    let o = t.spare.(t.nspare) in
    o.s <- s;
    o.seq <- seq;
    o.wop <- wop;
    o.key <- key;
    o.kq <- kq;
    o
  end
  else
    let t0 = Float.Array.make 1 0.0 in
    let rec o = { s; seq; wop; key; kq; gen = false; t0; rd; wr }
    and rd =
      {
        on_read = no_access;
        on_write = no_access;
        read_k = (fun pl -> step t o rd (rd.on_read pl));
        write_k = (fun () -> step t o rd (rd.on_write ()));
        done_ = (fun v -> read_done t o v);
      }
    and wr =
      {
        on_read = no_access;
        on_write = no_access;
        read_k = (fun pl -> step t o wr (wr.on_read pl));
        write_k = (fun () -> step t o wr (wr.on_write ()));
        done_ = (fun () -> write_done t o ());
      }
    in
    o

let create ~transport ?(audit = true) ?(resend_every = 0.05) ?engine
    ?(bug = Bug.none) ?storage ?metrics ?trace ?map ?(history = false)
    ~member ~me ~replicas ~init () =
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  let map =
    match map with Some m -> m | None -> Shard_map.create ~shards:1 ()
  in
  let owns key =
    worker_of_key map ~domains:member.domains key = member.worker
  in
  let tr, cork = Transport.cork transport in
  let registry =
    Registry.create ~transport:tr ~me ~replicas ~map ?engine ~bug
      ?storage ~metrics ~worker:(member.worker, member.domains) ()
  in
  let reconfig =
    Reconfig.create ~registry ~metrics
      ~skip_dual_write:bug.Bug.skip_dual_write ()
  in
  let t =
    {
      tr;
      cork;
      me;
      owns;
      registry;
      reconfig;
      txns = member.txns;
      post = member.post;
      sessions = Hashtbl.create 16;
      lanes = Hashtbl.create 16;
      spare = [||];
      nspare = 0;
      idle_s =
        {
          src = -1;
          proc = -1;
          next_seq = 0;
          lane = Hashtbl.create 1;
          invoke_read = E.Invoke (-1, E.Read);
          respond_write = E.Respond (-1, None);
        };
      idle_q = { ring = [||]; first = 0; len = 0; busy = false };
      copies = Hashtbl.create 16;
      stale_copy = bug.Bug.stale_copy;
      audit;
      init;
      monitors = Hashtbl.create 8;
      violations_rev = [];
      log = (if history then Some (History_log.create ()) else None);
      timer_armed = false;
      resend_every;
      storage;
      stores = Option.to_list storage @ member.peer_stores;
      metrics;
      trace;
      m_served = Metrics.counter metrics "ops_served";
      m_rejected = Metrics.counter metrics "ops_rejected";
      m_copy_reads = Metrics.counter metrics "copy_reads";
      m_copy_misses = Metrics.counter metrics "copy_misses";
      m_audit = Metrics.counter metrics "audit_violated_keys";
      m_audit_keys = Metrics.counter metrics "audit_keys";
      m_audit_resident = Metrics.counter metrics "audit_resident";
      h_op = Metrics.histogram metrics "server_op";
      c_shard_ops =
        Array.init (Shard_map.shards map) (fun s ->
            Metrics.counter metrics (Fmt.str "shard%d_ops" s));
    }
  in
  (* a cutover re-kicks every session's queue for the migrated key:
     ops parked during the drain phase dispatch here, now routed by
     the advanced map *)
  Reconfig.set_unpark reconfig (fun key ->
      Hashtbl.iter (fun _ lane -> start_next t lane key) t.lanes);
  (* A restarted durable server recovers the writes it had issued;
     its fresh monitors never saw them, so a read of a recovered key
     would be flagged.  Seed each recovered key's monitor with its
     writer roles' last values as completed concurrent writes: a read
     may then return either (or a later write), which is exactly the
     continuity the recovered state promises.  Exact when no write was
     in flight at the crash; an in-flight write that reached no
     majority member can still produce a spurious flag, because the
     value it overwrote at the server is not locally recoverable —
     the audit fails suspicious rather than silent. *)
  (if audit then
     match storage with
     | None -> ()
     | Some st ->
       let by_key = Hashtbl.create 8 in
       List.iter
         (fun (reg, (_ts, pl)) ->
           if reg >= 0 && owns (Shard_map.key_of_reg reg) then begin
             let key = Shard_map.key_of_reg reg in
             let role = reg land 1 in
             let prev =
               Option.value ~default:[] (Hashtbl.find_opt by_key key)
             in
             Hashtbl.replace by_key key
               ((role, Registers.Tagged.v pl) :: prev)
           end)
         (Storage.contents st);
       Hashtbl.iter
         (fun key writes ->
           let observe ev = ignore (observe t key ev) in
           List.iter
             (fun (role, v) -> observe (E.Invoke (role, E.Write v)))
             writes;
           List.iter (fun (role, _) -> observe (E.Respond (role, None))) writes)
         by_key);
  t

(* Queue [op] into every owned touched key's session queue, then
   start each of those keys.  A structurally invalid multi-key op —
   empty, duplicate or negative keys, oversize, or a transaction from
   a non-writer processor — is rejected with a [Nack] by
   exactly one core, the owner of [key_of_op op], so a worker pool
   answers once. *)
let enqueue_op t s seq op =
  match op with
  | Wire.Txn_k _ | Wire.Snap_k _ ->
    let keys = keys_of_op op in
    let ok =
      Txn.valid_keys keys
      &&
      match op with
      | Wire.Txn_k _ -> is_writer s.proc
      | _ -> true
    in
    if ok then begin
      let owned = List.filter t.owns keys in
      List.iter
        (fun key ->
          let q = queue_of s.lane key in
          push q (take_op t s seq op key q))
        owned;
      List.iter (start_next t s.lane) owned
    end
    else if t.owns (key_of_op op) then begin
      Metrics.incr t.m_rejected;
      reply t s (Wire.Nack { seq })
    end
  | _ ->
    let key = key_of_op op in
    if t.owns key then begin
      let q = queue_of s.lane key in
      push q (take_op t s seq op key q);
      start_next t s.lane key
    end

let rec on_message_inner t ~src msg =
  match msg with
  | Wire.Hello { proc } ->
    let owner = if is_writer proc then Role proc else Node src in
    let lane =
      match Hashtbl.find_opt t.lanes owner with
      | Some lane -> lane
      | None ->
        let lane = Hashtbl.create 4 in
        Hashtbl.replace t.lanes owner lane;
        lane
    in
    Hashtbl.replace t.sessions src
      {
        src;
        proc;
        next_seq = 0;
        lane;
        invoke_read = E.Invoke (proc, E.Read);
        respond_write = E.Respond (proc, None);
      }
  | Wire.Req { seq; op } ->
    (match Hashtbl.find t.sessions src with
     | s when seq >= s.next_seq ->
       (* presequenced: the link (and a pool's router) delivers each
          session's ops in sequence order, and only the ops this core
          owns, so sequence numbers may skip over the ops other cores
          own; each is queued directly *)
       s.next_seq <- seq + 1;
       enqueue_op t s seq op
     | _ | (exception Not_found) -> ())  (* duplicate or sessionless request *)
  | Wire.Query_reply _ | Wire.Store_ack _ | Wire.Ack2 _ | Wire.Query2_reply _
    ->
    Registry.on_message t.registry ~src msg
  | Wire.Batch msgs -> List.iter (fun m -> on_message_inner t ~src m) msgs
  | Wire.Bye ->
    Hashtbl.remove t.sessions src;
    (* a reader node's lanes outlive the session only while they hold
       work; a writer role's stay, as another node may hold the role *)
    (match Hashtbl.find_opt t.lanes (Node src) with
     | Some lane
       when Hashtbl.fold
              (fun _ q idle -> idle && (not q.busy) && q.len = 0)
              lane true ->
       Hashtbl.remove t.lanes (Node src)
     | _ -> ())
  | Wire.Reconfig { rid; key; to_shard; epoch } ->
    (* migration control needs no session (like Stats_req); the ack is
       deferred to the coordinator's completion and may be sent from a
       later turn — [src] is captured by the finish closure *)
    Reconfig.start t.reconfig ~key ~to_shard ~epoch
      ~finish:(fun ~ok ~epoch ->
        t.tr.Transport.send ~src:t.me ~dst:src
          (Wire.Reconfig_ack { rid; epoch; ok }))
  | Wire.Epoch_req { rid } ->
    t.tr.Transport.send ~src:t.me ~dst:src
      (Wire.Epoch_reply
         { rid; epoch = Reconfig.epoch t.reconfig; shards = shards t })
  | Wire.Stats_req { rid } ->
    (* live observability over the wire: no session needed, safe to
       answer anyone who can reach the socket.  The counters are the
       registry's, which every core of a pool shares *)
    let tx = Txn.stats t.txns in
    (* the commit causes of the pool's wts stores, read here so the
       commit path counts nothing more; [Storage.stats] locks each *)
    let cap, deadline, forced, idle =
      List.fold_left
        (fun (c, d, f, i) st ->
          let s = Storage.stats st in
          Storage.(c + s.cap_commits, d + s.deadline_commits,
                   f + s.forced_commits, i + s.idle_commits))
        (0, 0, 0, 0) t.stores
    in
    let stats =
      Metrics.wire_stats t.metrics
      @ [
          ("sessions", Hashtbl.length t.sessions);
          ("shards", shards t);
          ("engine", Engine.kind_code (Registry.spec t.registry).Engine.kind);
          ("audit_violation", min 1 (Metrics.value t.m_audit));
          ("txns_committed", tx.Txn.txns_committed);
          ("snaps_served", tx.Txn.snaps_served);
          ("txn_violation", if Txn.violations t.txns = [] then 0 else 1);
          ("epoch", epoch t);
          ("store_cap_commits", cap);
          ("store_deadline_commits", deadline);
          ("store_forced_commits", forced);
          ("store_idle_commits", idle);
        ]
    in
    t.tr.Transport.send ~src:t.me ~dst:src (Wire.Stats_reply { rid; stats })
  | Wire.Resp _ | Wire.Resp_snap _ | Wire.Query _ | Wire.Store _
  | Wire.Stats_reply _ | Wire.Store2 _ | Wire.Query2 _ | Wire.Engine_hello _
  | Wire.Reconfig_ack _ | Wire.Epoch_reply _ | Wire.Nack _ -> ()

let on_message t ~src msg = Transport.handle t.cork on_message_inner t ~src msg

(* The end of a worker's turn, for the core's wts store.  An idle
   worker commits the pending batch now, as one cork turn, so the
   [Store]s its completions release leave as one frame per replica; a
   completion may append again, so it commits until nothing is pending
   or work arrives.  A busy worker leaves the batch open for the
   appends its queued work makes, under [Storage.drive]'s deadline. *)
let rec settle t ~idle w =
  match t.storage with
  | Some st when Storage.pending st > 0 ->
    if idle w then begin
      Transport.turn_on t.cork Storage.flush_idle st;
      settle t ~idle w
    end
    else Storage.drive st ~transport:t.tr ~node:t.me
  | Some _ | None -> ()

let view f t = match t.log with None -> [] | Some l -> f l
let keyed_history = view History_log.keyed
let history = view History_log.events
let timed_history = view History_log.timed
let violations t = List.rev t.violations_rev

let ops_served t = Metrics.value t.m_served
let rejected t = Metrics.value t.m_rejected
let quorum_stats t = Registry.stats t.registry
let txns t = t.txns
let txn_violations t = Txn.violations t.txns
