(** The register service front-end: a sharded keyspace of two-writer
    atomic registers.

    Every key of the keyspace is an independent instance of Bloom's
    two-writer construction.  The server owns both writer roles' real
    registers of every key as replicated registers over the replicas
    (one {!Engine} instance per shard, via {!Registry} — ABD quorum or
    the Mostéfaoui–Raynal two-bit protocol) and executes
    Bloom's {e unchanged} protocol code on behalf of client sessions: a
    reader session's read of [key] runs {!Core.Protocol.read_prog}, a
    writer session's write runs {!Core.Protocol.cached_write_prog},
    with every primitive cell access interpreted as a quorum operation
    on the corresponding replicated real register of that key.  The
    construction therefore runs end-to-end over messages, tolerating a
    minority of replica crashes and a lossy, reordering, duplicating
    network.

    Writers read through a local copy of their own register, the
    paper's Section 5 optimisation: the cached programs' private cells
    ({!Core.Protocol.is_local_cell}) are an in-memory table of this
    core, so a read by proc 0 or 1 runs {!Core.Protocol.cached_read_prog}
    at 1 or 2 real reads instead of 3.  Every write by a writer —
    single-key or a transaction's key — refreshes the copy.  The copy
    is never persisted: a writer with no copy of a key (no write to it
    since this server started) reads with {!Core.Protocol.read_prog}.
    The [copy_reads] and [copy_misses] counters count the two cases.

    Sessions are per client ([Hello] opens one, declaring which
    processor of the history the client plays).  Requests carry
    sequence numbers and arrive in sequence order — client links are
    FIFO, as TCP is, and a {!Server_pool}'s router keeps that order —
    so the server queues each as it arrives (a request whose number
    is below its session's last is a duplicate, and dropped), then
    executes them serially {e per key}
    (a processor is sequential — the paper's input-correctness
    assumption, which holds per register) while operations on different
    keys — and different processors — interleave freely.  A writer
    role is one processor however many client nodes claim it.  A pipelined
    session spreading ops over many keys therefore keeps many shards
    busy at once; that per-key concurrency is the sharded service's
    throughput lever.

    With [audit] on, every operation is fed to a live, {e per-key}
    {!Histories.Monitor} at its invocation and response: the serialized
    server-side event order is a sound witness (server-side intervals
    are contained in client-observed intervals, so it carries {e more}
    real-time precedence than any client view — if it is atomic, the
    clients' history is too).  The first violation per key is latched.
    Each monitor forgets superseded writes, so its memory stays
    constant per key however long the server runs.  The monitor's
    precondition is the clients' to keep: no write (single-key or in a
    transaction) of the initial value [init], and no value written to
    a key again while an earlier write of it is live there (not yet
    superseded).  The core executes such a write like any other, and
    its monitor latches
    {!Histories.Fastcheck.violation.Duplicate_write}: a broken
    precondition, not a non-atomic history.  A core created with
    [history] also records its history ({!history}), which can be
    re-checked post-hoc with {!Histories.Fastcheck} provided written
    values are unique, as {!Sim_run} does; a {!Server_pool} core
    records none and is re-checked from a {!Trace} instead. *)

type t

(** A core's place in its pool.  Its fields are facts about the pool,
    not switches.  {!Server_pool} builds one per worker, in the service
    and in the simulator alike. *)
type member = {
  worker : int;  (** This core's worker index, in [[0, domains)]. *)
  domains : int;  (** The pool's worker count, at least 1. *)
  txns : Txn.t;  (** The multi-key coordinator every core shares. *)
  post : (unit -> unit) -> unit;
      (** Runs a thunk on this core's worker, in a later turn. *)
  peer_stores : Storage.t list;
      (** The wts stores of the pool's other cores: a
          {!Wire.msg.Stats_req} reports their commit causes together
          with this core's own. *)
}

val worker_of_key : Shard_map.t -> domains:int -> int -> int
(** The worker of a [domains]-worker pool that owns a key: its
    epoch-0 hash placement ({!Shard_map.base_shard_of_key}) modulo
    [domains].  A migrated key therefore stays on the worker holding
    its monitor, whose engines simply re-route it. *)

val create :
  transport:Transport.t ->
  ?audit:bool ->
  ?resend_every:float ->
  ?engine:Engine.spec ->
  ?bug:Bug.t ->
  ?storage:Storage.t ->
  ?metrics:Metrics.t ->
  ?trace:Trace.t ->
  ?map:Shard_map.t ->
  ?history:bool ->
  member:member ->
  me:Transport.node ->
  replicas:Transport.node list ->
  init:int ->
  unit ->
  t
(** [audit] defaults to [true].  [resend_every] (default 0.05) is the
    retransmission period in transport-clock units; it should exceed a
    round trip (for {!Sim_net}, a multiple of [max_delay]).
    [engine] (default ABD) picks the replication protocol every shard
    runs — see {!Engine} and {!Registry.create}.  [bug] (default
    {!Bug.none}) plants {!Explore}'s deliberate bugs: the read-quorum
    hook in every shard engine, the
    skip-dual-write hook in the {!Reconfig} coordinator and the
    stale-copy hook in this server's transaction writes.  [storage]
    makes the write timestamps the server issues durable: the
    server's {!Registry}, their only issuer, appends each one before
    any store of it leaves and recovers one floor per register from
    it at restart, so a restarted server never re-issues a timestamp a
    replica may already hold.  A migration's dual write appends its
    one timestamp once, and both of its legs wait for that append.
    When the store was opened with a [group_commit] config the server
    drives it with {!Storage.drive} after every handled message: a
    positive {!Storage.flush_deadline} arms a transport timer that
    flushes the pending batch (coalescing timestamp appends across
    messages), a zero deadline flushes at the end of the message —
    either way each store waits for its timestamp's batch to be
    durable.  A restarted server with
    [audit] on also seeds each recovered key's monitor with the writer
    roles' recovered values as completed concurrent writes, so a read
    of recovered state audits clean — exact when no write was in
    flight at the crash; a write cut down before reaching any majority
    can still leave a later read of the value it overwrote flagged
    (that value is not locally recoverable), so the audit errs
    suspicious, never silent.  [map] (default: a single
    shard owning every key) fixes the key → shard → replica-group
    placement for the server's lifetime.

    [member] places the core in its pool, and four things follow.
    Sends go through a {!type:Transport.cork}: while a handler turn (an
    {!on_message} call, a timer callback or a {!with_cork} section) is
    open, they are buffered per destination and leave as one frame
    per peer.  Admission is presequenced: the core is delivered each
    session's requests in order and only those whose key it owns
    ({!worker_of_key}; every key, on one domain), so each is queued
    directly and sequence numbers may skip the ops other cores own;
    monitor seeding from recovered [storage] keeps owned keys only.
    Multi-key ops go through the member's coordinator, whose thunks
    re-enter this core through [post].  And the core's twobit engines
    speak link ids striped by [worker] and [domains]
    ({!Registry.create}), so every reply comes back to this core, a
    migration's second engine's too.  The torn-batch hook of [bug] is
    the coordinator's ({!Txn.create}), set by whoever builds
    [member].

    With [history] (default [false]) the core records every event
    ({!history}); without it the live monitors are its whole audit
    state, and a caller that wants the events passes a [trace].

    Per-key execution lanes belong to the processor, not the session:
    writer roles 0 and 1 have one set each, shared by every client
    node that says [Hello] with that role, and a reader's set belongs
    to its client node.  A reconnect ([Bye], then [Hello] from the same
    node) reuses them, so the new session's op on a key waits for the
    old session's op still running there, as a second node's op in the
    same writer role waits for the first's.  The old op completes and
    is audited, but its reply is dropped — only the node's current
    session is answered.

    [metrics] (default: a fresh instance — pass the cluster-wide one)
    receives [ops_served]/[ops_rejected] counters, the
    [copy_reads]/[copy_misses] counters of writer reads,
    [audit_violated_keys], the audit's resident set ([audit_keys], the
    keys with a monitor, and [audit_resident], the monitors not folded
    — see {!Histories.Monitor.resident}), the [server_op] invoke-to-respond
    histogram, one [shard<i>_ops] counter per shard, (through the
    embedded {!Registry}) the engine counters, phase histograms and
    per-shard [shard<i>_quorum_ops], and (through the {!Reconfig}
    coordinator) the [reconfig_*] counters.  {!ops_served},
    {!rejected} and {!quorum_stats} read these counters back, and its
    {!Metrics.wire_stats} snapshot is what a {!Wire.msg.Stats_req} is
    answered with, followed by rows of this core's own: among them
    [store_cap_commits], [store_deadline_commits] and
    [store_forced_commits], the commit causes ({!Storage.stats}) of its
    [storage] and the member's [peer_stores], summed (0 without any).  With [trace], every operation invoke/respond is
    appended to the ring, tagged with its key; that is how a pool
    member's history is kept.  Does not block. *)

val key_of_op : Wire.op -> int
(** The register key a client operation addresses: a [Read_k] or
    [Write_k]'s [key].  For a multi-key op this is
    its {e routing} key: the first listed key (0 when the list is
    empty, so even an invalid frame has a well-defined core that
    rejects it).  This is the op → key mapping admission and execution
    use; a router that point-routes requests (see [member]) must agree
    with it. *)

val keys_of_op : Wire.op -> int list
(** Every key an operation touches, in request order: the write keys
    of a [Txn_k], the read keys of a [Snap_k], the singleton
    {!key_of_op} otherwise.  A multi-key op must be delivered to the
    owner of {e each} of these (see {!Server_pool.dispatch}). *)

val epoch : t -> int
(** Current configuration epoch (see {!Reconfig.epoch}). *)

val on_message : t -> src:Transport.node -> Wire.msg -> unit
(** Feed one incoming message (possibly a [Batch]), as one cork turn:
    its sends leave when it returns, one frame per peer.  May execute
    protocol steps; never blocks, never raises on well-typed input,
    and allocates nothing for a reply that completes no phase.  Not
    internally locked — drive from one
    transport handler (both transports serialize handler invocations
    per node). *)

val history : t -> int Histories.Event.t list
(** All recorded invocation/response events across all keys, oldest
    first (the server-side serialization order).  Only a core created
    with [history] records them; any other's history is empty. *)

val keyed_history : t -> (int * int Histories.Event.t) list
(** Same, with each event tagged by its key. *)

val timed_history : t -> (float * int Histories.Event.t) list
(** All events with the transport-clock instant of each — latency
    distributions are derived from this. *)

val with_cork : t -> (unit -> unit) -> unit
(** Run [f] as one turn of the core's {!type:Transport.cork}: sends
    buffered anywhere inside [f] (including nested {!on_message}
    calls) ship as one frame per destination when the outermost turn
    closes.  A worker draining its whole inbox under one cork is how a
    multi-message burst becomes a single frame per peer. *)

val violations : t -> (int * int Histories.Fastcheck.violation) list
(** First latched violation of each offending key, in the order they
    were caught.  Empty iff every per-key audit accepts. *)

val ops_served : t -> int
(** Operations answered: the [ops_served] counter of [metrics]. *)

val rejected : t -> int
(** Operations refused without execution: writes attempted by
    non-writer sessions (procs other than 0 and 1), ops naming a
    negative key, and structurally invalid multi-key ops (empty,
    duplicate or negative keys, more than {!Wire.max_txn} of them, or
    a transaction from a non-writer).  Answered with a
    {!Wire.msg.Nack} and not recorded in any history.  The
    [ops_rejected] counter of [metrics]. *)

val quorum_stats : t -> Engine.stats
(** Counters over every shard's engine: {!Registry.stats}. *)

val txns : t -> Txn.t
(** The multi-key coordinator this core reports to (shared across a
    pool's cores). *)

val txn_violations : t -> string list
(** Torn-batch verdicts from the coordinator's cross-key audit —
    empty iff every committed snapshot observed an atomic cut.  See
    {!Txn.violations}. *)
