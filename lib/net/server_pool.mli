(** A multicore front-end: one {!Server} core per worker domain, one
    shared keyspace.

    The pool owns [domains] OCaml 5 [Domain]s, each running an
    ordinary {!Server} that executes only the keys assigned to it
    ({!Server.worker_of_key}: [shard mod domains] — the {!Shard_map}
    placement already spreads keys uniformly, so workers load-balance
    for free).
    {!dispatch} is the single entry point the transport handler calls:
    it routes each message to the worker(s) that need it through
    per-worker mutex-striped handoff queues, and every worker drains
    its queue in bursts under one {!Server.with_cork} section — a
    burst of same-shard operations from one client [Batch] frame
    becomes a single engine pass whose quorum fan-out leaves as one
    frame per replica, feeding a group-commit store at real batch
    depth.

    {b Routing.}  Session boundaries ([Hello]/[Bye]) go to {e every}
    worker — opening and closing a session is per-core state.
    Requests point-route to the single worker owning the op's key:
    {!dispatch} runs on one transport thread and preserves each
    session's arrival order, so the cores run presequenced (see
    {!Server.member}) and never need the rest of the stream (sequence
    numbers skip over the ops other workers own).
    Quorum replies are point-routed by their register
    ([Query_reply]/[Store_ack]) or link id ([Ack2]/[Query2_reply]) to
    the owning worker; [Stats_req] is answered by worker 0 out of the
    shared metrics registry.  A frame whose messages all go to one
    worker, and to it alone (every frame, with one domain), is queued
    as it arrived; any other [Batch] frame is partitioned into at most
    one (re-batched) enqueue per worker, so a K-message frame costs
    O(workers) queue handoffs, not O(K).  A worker's queue is slot
    arrays, so an enqueue allocates nothing; the deepest any queue has
    been is the [pool_queue_hwm] counter of the pool's {!Metrics.t}.

    {b Multi-key ops.}  A {!Wire.op.Txn_k} or {!Wire.op.Snap_k} is
    delivered to the owner of {e each} touched key (each worker once):
    every owning core queues it on its keys and reports them to the
    {e shared} {!Txn} coordinator, which serializes the whole batch
    against overlapping multi-key ops across all domains — the
    coordinator's thunks re-enter each core through its worker queue,
    so engine ops and responses still run on the owning domain.  The
    coordinator (the smallest key's owner) sends the single reply.

    {b Ownership and audits.}  Worker state never crosses domains:
    each worker has its own engines, sessions, monitors and (if
    configured) its own store.  The shared {!Metrics.t} is safe by
    construction (atomic counters, locked histograms).  The per-key
    monitors therefore audit exactly as in the single-core server —
    a key's whole history lives on one worker — and {!violations}
    concatenates the per-worker views.  The cores record no history,
    so the audit's memory is constant per key: each key's live
    {!Histories.Monitor} forgets superseded writes.  A caller that
    wants the events for an offline re-check passes a [trace].

    Aggregate accessors read worker state without stopping the pool;
    call them on a quiescent pool (workload drained, or after
    {!stop}) for exact numbers. *)

type t

val create :
  transport:Transport.t ->
  ?audit:bool ->
  ?engine:Engine.spec ->
  ?storage:(int -> Storage.t option) ->
  ?metrics:Metrics.t ->
  ?trace:Trace.t ->
  ?map:Shard_map.t ->
  ?domains:int ->
  me:Transport.node ->
  replicas:Transport.node list ->
  init:int ->
  unit ->
  t
(** Build the cores and spawn the worker domains.  [audit], [engine],
    [metrics] and [map] are {!Server.create}'s, passed to every core;
    each core is built with a {!Server.member} value, which makes it
    corked and presequenced and shares one {!Txn} coordinator.
    [domains] (default 1) is the worker count.  [storage] maps a
    worker index to that worker's private store — stores must be
    {e per-domain} (the group-commit queue completes on the appending
    domain), so a durable pool persists under [dir/server-d<i>] and
    must be restarted with the same [domains] to recover every shard's
    timestamps.  Timer callbacks of each core are re-routed into its
    worker queue, so cores never execute on a transport thread.  A
    pool plants no deliberate bugs ({!Bug}): those are {!Explore}'s,
    which drives the same core, one worker's, in the simulator
    ({!Sim_run}).

    With [trace], every core appends its operation invokes and
    responds to that one ring ({!Trace.record} is mutex-protected).
    Each key's events come from its one owning worker, so a key's
    events keep their order: {!Trace.keyed_history}, grouped by key,
    is what an offline per-key re-check consumes.  Size the ring to
    the run and check {!Trace.overwritten}: a wrapped ring is a suffix
    window, not the history.

    {b Reconfiguration.}  A {!Wire.msg.Reconfig} routes to the key's
    owner worker ({!Server.worker_of_key}), which runs the whole
    migration on its own registry; ownership is by the {e epoch-0}
    hash placement, so a migrated key stays on the worker holding its
    monitor and its engines simply re-route it.  Worker epochs advance
    independently; {!Wire.msg.Epoch_req} is answered by worker 0 (a
    stale answer costs one nack-and-retry).

    {b Stats.}  A {!Wire.msg.Stats_req} is answered by worker 0 from
    the shared [metrics] registry, which every core counts into, so
    its counters — ops served, engine traffic, [reconfig_*],
    [audit_violation], [audit_keys], [audit_resident] — are the whole
    pool's.  The [store_*_commits] rows sum every worker's store
    (worker 0 reads the others' as its [peer_stores]).  Only [epoch]
    is still worker 0's, as for {!Wire.msg.Epoch_req}.  With the
    two-bit engine
    and [domains > 1] every core nacks reconfiguration: two-bit
    replies route by [lid mod domains] and a migration's second engine
    would misroute — see {!Reconfig.create}. *)

val dispatch : t -> src:Transport.node -> Wire.msg -> unit
(** Feed one incoming frame (possibly a [Batch]).  Thread-safe; called
    from the transport's handler.  Enqueues and returns — execution
    happens on the worker domains. *)

val stop : t -> unit
(** Drain and join every worker domain.  In-flight bursts finish;
    idempotent.  A worker survives an exception escaping its handler:
    it counts it in the [worker_exn] counter of the pool's
    {!Metrics.t} (so {!Wire.msg.Stats_reply} reports it), prints the
    pool's first one with its backtrace to stderr, and keeps draining.
    [stop] then re-raises that first exception, once every worker has
    been joined. *)

val ops_served : t -> int
(** Total operations answered by every worker: the shared registry's
    [ops_served]. *)

val rejected : t -> int
(** Total operations refused without execution by every worker: the
    shared registry's [ops_rejected]. *)

val violations : t -> (int * int Histories.Fastcheck.violation) list
(** First latched violation of each offending key across all workers.
    Empty iff every per-key audit accepts. *)

val quorum_stats : t -> Engine.stats
(** Engine counters over every worker's shards, read from the shared
    registry ({!Registry.stats}). *)

val txns : t -> Txn.t
(** The multi-key coordinator shared by every core. *)

val txn_violations : t -> string list
(** Torn-batch verdicts of the shared coordinator's cross-key audit —
    empty iff every committed snapshot observed an atomic cut. *)
