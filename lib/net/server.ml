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
}

(* A processor's per-key execution lanes.  They belong to the
   processor, not the session: a reconnect ([Bye] then [Hello]) reuses
   them, so a new session's op on a key waits behind the old session's
   op still in flight there — the processor stays sequential per key.
   A writer role has one set however many client nodes claim it (two
   concurrent writes by one role would break the protocol and the
   writer's local copy); a reader's set belongs to its client node. *)
and lane = {
  queues : (int, (session * int * Wire.op) Queue.t) Hashtbl.t;
      (* key -> queued, not yet started *)
  busy : (int, unit) Hashtbl.t;  (* keys with an operation executing *)
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
}

(* Worker ownership by the epoch-0 hash placement, NOT the live map: a
   migrated key must stay on the worker whose core ran (and audits)
   its history — that core's own registry routes it to the new shard's
   engine after cutover — and reply frames keep routing there too. *)
let worker_of_key map ~domains key =
  Shard_map.base_shard_of_key map key mod domains

(* Event [i]'s time, key and event sit at index [i] of three arrays
   that double when full: recording one allocates nothing but its
   share of the growth. *)
type log = {
  mutable times : Float.Array.t;
  mutable keys : int array;
  mutable evs : int E.t array;
  mutable len : int;
}

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
  log : log option;  (* the recorded history, with [?history] *)
  mutable timer_armed : bool;
  resend_every : float;
  storage : Storage.t option;
  metrics : Metrics.t;
  trace : Trace.t option;
  m_served : Metrics.counter;
  m_rejected : Metrics.counter;
  m_copy_reads : Metrics.counter;
  m_copy_misses : Metrics.counter;
  m_audit : Metrics.counter;  (* keys whose audit latched a violation *)
  h_op : Metrics.histogram;
  c_shard_ops : Metrics.counter array;
}

let log_append l time key ev =
  let cap = Array.length l.keys in
  if l.len = cap then begin
    let cap' = max 16 (2 * cap) in
    let times = Float.Array.make cap' 0.0
    and keys = Array.make cap' 0
    and evs = Array.make cap' ev in
    Float.Array.blit l.times 0 times 0 cap;
    Array.blit l.keys 0 keys 0 cap;
    Array.blit l.evs 0 evs 0 cap;
    l.times <- times;
    l.keys <- keys;
    l.evs <- evs
  end;
  Float.Array.set l.times l.len time;
  l.keys.(l.len) <- key;
  l.evs.(l.len) <- ev;
  l.len <- l.len + 1

(* [f l i] for each event [i] of the log, in order. *)
let log_map t f =
  match t.log with
  | None -> []
  | Some l ->
    let rec go i acc = if i < 0 then acc else go (i - 1) (f l i :: acc) in
    go (l.len - 1) []

let monitor_of t key =
  match Hashtbl.find t.monitors key with
  | m -> m
  | exception Not_found ->
    let m = Histories.Monitor.create ~init:t.init in
    Hashtbl.replace t.monitors key m;
    m

let with_cork t f = Transport.turn t.cork f

let epoch t = Reconfig.epoch t.reconfig
let shards t = Registry.shards t.registry

let record t key ev =
  (match t.log with
   | None -> ()
   | Some l -> log_append l (t.tr.Transport.now ()) key ev);
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
    match Histories.Monitor.observe (monitor_of t key) ev with
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

(* Interpret a Bloom micro-step program for one key, mapping each
   primitive cell access to a quorum operation on the corresponding
   replicated real register of that key.  Access goes through the
   reconfiguration coordinator, which is the registry outside a
   migration and the dual-quorum discipline during one.  A writer's
   local copy (a {!Core.Protocol.is_local_cell} cell) is the [copies]
   table: no message. *)
let rec exec :
  'a. t -> int -> (Wire.payload, 'a) Vm.prog -> ('a -> unit) -> unit =
  fun t key prog k ->
  match prog with
  | Vm.Ret a -> k a
  | Vm.Read (cell, cont) when Core.Protocol.is_local_cell cell ->
    exec t key (cont (Hashtbl.find t.copies (copy_slot key cell))) k
  | Vm.Write (cell, pl, cont) when Core.Protocol.is_local_cell cell ->
    Hashtbl.replace t.copies (copy_slot key cell) pl;
    exec t key (cont ()) k
  | Vm.Read (reg, cont) ->
    Reconfig.read t.reconfig ~key ~reg ~k:(fun pl -> exec t key (cont pl) k)
  | Vm.Write (reg, pl, cont) ->
    Reconfig.write t.reconfig ~key ~reg ~value:pl ~k:(fun () ->
        exec t key (cont ()) k)

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

(* Every client-visible operation, keyed: the legacy unkeyed ops are
   the key-0 register.  For a multi-key op this is its *routing* key —
   the first listed key (or 0 when the list is empty, so even an
   invalid frame has a well-defined core that will reject it). *)
let key_of_op = function
  | Wire.Read | Wire.Write _ -> 0
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

(* [find], not [find_opt], here and at [sessions] and [take]: these
   run once per op, and the exception path allocates no option *)
let queue_of lane key =
  match Hashtbl.find lane.queues key with
  | q -> q
  | exception Not_found ->
    let q = Queue.create () in
    Hashtbl.replace lane.queues key q;
    q

let rec start_next t lane key =
  (* a key in a migration's drain phase parks here: the op stays
     queued, and the coordinator's unpark hook re-enters once the
     cutover has installed the new placement *)
  if (not (Hashtbl.mem lane.busy key)) && Reconfig.admitting t.reconfig key
  then
    match Queue.take (queue_of lane key) with
    | exception Queue.Empty -> ()
    | s, seq, op ->
      Hashtbl.replace lane.busy key ();
      arm_timer t;
      Metrics.incr t.c_shard_ops.(Registry.shard_of_key t.registry key);
      (* the generation token gates the migration's settle (pre-entry
         ops) and drain (their dual-writing successors) phases *)
      let gen = Reconfig.op_started t.reconfig ~key in
      let t0 = t.tr.Transport.now () in
      let finish () =
        Metrics.observe t.h_op (t.tr.Transport.now () -. t0);
        Hashtbl.remove s.lane.busy key;
        Reconfig.op_finished t.reconfig ~key ~gen;
        start_next t s.lane key
      in
      let reject () =
        Metrics.incr t.m_rejected;
        reply t s (Wire.Resp { seq; result = None });
        Hashtbl.remove s.lane.busy key;
        Reconfig.op_finished t.reconfig ~key ~gen;
        start_next t s.lane key
      in
      (match op with
       | Wire.Txn_k { writes } ->
         start_multi t s key seq (Txn.Writes writes) gen
       | Wire.Snap_k { keys } -> start_multi t s key seq (Txn.Snap keys) gen
       | Wire.Read | Wire.Read_k _ when key < 0 -> reject ()
       | Wire.Read | Wire.Read_k _ ->
         record t key (E.Invoke (s.proc, E.Read));
         exec t key (read_prog t s.proc key) (fun v ->
             record t key (E.Respond (s.proc, Some v));
             respond t s seq (Some v);
             finish ())
       | Wire.Write v | Wire.Write_k { value = v; _ }
         when key >= 0 && is_writer s.proc ->
         record t key (E.Invoke (s.proc, E.Write v));
         exec t key
           (Core.Protocol.cached_write_prog ~proc:s.proc v)
           (fun () ->
             record t key (E.Respond (s.proc, None));
             respond t s seq None;
             finish ())
       | Wire.Write _ | Wire.Write_k _ ->
         (* only processors 0 and 1 hold the two writer roles *)
         reject ())

(* Phase 1 of a multi-key op, entered once per owned key when that key
   reaches its session queue's head (the key is already marked busy by
   [start_next]).  Everything from here on is driven by the shared
   coordinator; the thunks we hand it post back onto this core so
   engine operations, responses and queue pumps all run on the owning
   domain. *)
and start_multi t s key seq kind gen =
  let post = t.post in
  let t0 = t.tr.Transport.now () in
  let min_key = List.fold_left min max_int (Txn.keys_of_kind kind) in
  let run_key () =
    post (fun () ->
        arm_timer t;
        match kind with
        | Txn.Writes writes ->
          let v = List.assoc key writes in
          record t key (E.Invoke (s.proc, E.Write v));
          exec t key
            (if t.stale_copy then
               Core.Protocol.write_prog ~level:0 ~proc:s.proc v
             else Core.Protocol.cached_write_prog ~proc:s.proc v)
            (fun () ->
              record t key (E.Respond (s.proc, None));
              Txn.key_done t.txns ~src:s.src ~seq ~key ())
        | Txn.Snap _ ->
          (* pin the core's store: GC must not reorganize the log under
             a snapshot read's consistent cut *)
          (match t.storage with Some st -> Storage.pin st | None -> ());
          record t key (E.Invoke (s.proc, E.Read));
          exec t key
            (Core.Protocol.read_prog ())
            (fun v ->
              record t key (E.Respond (s.proc, Some v));
              (match t.storage with
               | Some st -> Storage.unpin st
               | None -> ());
              Txn.key_done t.txns ~src:s.src ~seq ~key ~value:v ()))
  in
  let finish () =
    post (fun () ->
        Metrics.observe t.h_op (t.tr.Transport.now () -. t0);
        Hashtbl.remove s.lane.busy key;
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
      ?storage ~metrics ()
  in
  (* two-bit replies are routed to workers by [lid mod domains]; during
     a migration the owner worker drives TWO engines (two lids) whose
     replies may hash to other workers, so reconfiguration is only
     sound for that engine on a single domain — see Reconfig *)
  let enabled =
    (Registry.spec registry).Engine.kind <> Engine.Twobit
    || member.domains = 1
  in
  let reconfig =
    Reconfig.create ~registry ~metrics ~enabled
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
      copies = Hashtbl.create 16;
      stale_copy = bug.Bug.stale_copy;
      audit;
      init;
      monitors = Hashtbl.create 8;
      violations_rev = [];
      log =
        (if history then
           Some
             { times = Float.Array.create 0; keys = [||]; evs = [||]; len = 0 }
         else None);
      timer_armed = false;
      resend_every;
      storage;
      metrics;
      trace;
      m_served = Metrics.counter metrics "ops_served";
      m_rejected = Metrics.counter metrics "ops_rejected";
      m_copy_reads = Metrics.counter metrics "copy_reads";
      m_copy_misses = Metrics.counter metrics "copy_misses";
      m_audit = Metrics.counter metrics "audit_violated_keys";
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
           let m = monitor_of t key in
           let observe ev = ignore (Histories.Monitor.observe m ev) in
           List.iter
             (fun (role, v) -> observe (E.Invoke (role, E.Write v)))
             writes;
           List.iter (fun (role, _) -> observe (E.Respond (role, None))) writes)
         by_key);
  t

(* Queue [op] into every owned touched key's session queue, then
   start each of those keys.  A structurally invalid multi-key op —
   empty, duplicate or negative keys, oversize, or a transaction from
   a non-writer processor — is rejected with an empty [Resp] by
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
      List.iter (fun key -> Queue.add (s, seq, op) (queue_of s.lane key)) owned;
      List.iter (start_next t s.lane) owned
    end
    else if t.owns (key_of_op op) then begin
      Metrics.incr t.m_rejected;
      reply t s (Wire.Resp { seq; result = None })
    end
  | _ ->
    let key = key_of_op op in
    if t.owns key then begin
      Queue.add (s, seq, op) (queue_of s.lane key);
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
        let lane = { queues = Hashtbl.create 4; busy = Hashtbl.create 4 } in
        Hashtbl.replace t.lanes owner lane;
        lane
    in
    Hashtbl.replace t.sessions src { src; proc; next_seq = 0; lane }
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
       when Hashtbl.length lane.busy = 0
            && Hashtbl.fold (fun _ q idle -> idle && Queue.is_empty q)
                 lane.queues true ->
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
        ]
    in
    t.tr.Transport.send ~src:t.me ~dst:src (Wire.Stats_reply { rid; stats })
  | Wire.Resp _ | Wire.Resp_snap _ | Wire.Query _ | Wire.Store _
  | Wire.Stats_reply _ | Wire.Store2 _ | Wire.Query2 _ | Wire.Engine_hello _
  | Wire.Reconfig_ack _ | Wire.Epoch_reply _ -> ()

(* The server's own wts store is flushed by the shared driver, as
   every replica's is. *)
let handle t ~src msg =
  on_message_inner t ~src msg;
  match t.storage with
  | Some st -> Storage.drive st ~transport:t.tr ~node:t.me
  | None -> ()

let on_message t ~src msg = Transport.handle t.cork handle t ~src msg

let keyed_history t = log_map t (fun l i -> (l.keys.(i), l.evs.(i)))
let history t = log_map t (fun l i -> l.evs.(i))
let timed_history t =
  log_map t (fun l i -> (Float.Array.get l.times i, l.evs.(i)))
let violations t = List.rev t.violations_rev

let ops_served t = Metrics.value t.m_served
let rejected t = Metrics.value t.m_rejected
let quorum_stats t = Registry.stats t.registry
let txns t = t.txns
let txn_violations t = Txn.violations t.txns
