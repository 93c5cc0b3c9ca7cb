(** The active half of the ABD-style quorum construction: every real
    register of the keyspace as an atomic SWMR register over
    crash-prone replicas.

    A {e write} of global register [reg] takes the next
    write-timestamp for [reg] and stores the pair on a majority.  A {e
    read} queries a majority and picks the pair with the highest
    timestamp.  Before returning it, the read must know that pair is
    on a majority, or two reader sessions could see a new–old
    inversion (the register would be regular, not atomic).  The engine
    records, per register, the highest timestamp whose store phase —
    a write, a {!write_at} or a write-back — it has seen complete;
    replicas ack a store only once durable and never lower a
    timestamp, so that pair stays on a majority.  A read whose
    freshest timestamp equals that record (0, the initial pair, for a
    register never stored) returns at once; any other read {e writes
    the pair back} to a majority first.  That covers a write still in
    flight, a restarted engine (the record is not recovered), and a
    pair another engine installed on a shared group.  Any minority of
    replicas may crash, and the network may drop, delay, reorder or
    duplicate messages: lost messages are retransmitted by
    {!resend_pending} (driven by a transport timer), and replicas are
    idempotent, so duplicates are harmless.

    Registers are addressed by the flat index of
    {!Shard_map.global_reg}; timestamps are per-register counters
    owned by this engine, so the engine must be the only writer of its
    registers (exactly the paper's SWMR architecture — Wr{_i} is the
    sole writer of Reg{_i}, and one front-end server hosts both writer
    sessions of every key).  In the sharded service, the {!Registry}
    owns one engine per shard, each the exclusive writer of its
    shard's keys.

    Operations are asynchronous: [read]/[write] send the first phase
    and return; the continuation runs (possibly reentrantly from
    {!on_message}) once a quorum has answered.  This continuation
    style is what lets the unchanged {!Core.Protocol} micro-step
    programs be interpreted over the network by {!Server}.

    A [t] is {e not} internally locked: drive it from one thread, or
    from one transport node's handler (both transports serialize
    handler invocations per node).  No call here blocks — sends go
    through the non-blocking {!Transport.t} contract. *)

type t

val create :
  transport:Transport.t ->
  me:Transport.node ->
  replicas:Transport.node list ->
  ?read_quorum:int ->
  ?skip_write_back:bool ->
  ?storage:Storage.t ->
  ?metrics:Metrics.t ->
  ?rid_base:int ->
  ?rid_stride:int ->
  unit ->
  t
(** An engine speaking from node [me] to the quorum group [replicas].
    Never blocks; performs no I/O until the first operation.
    [read_quorum] (default: majority) overrides how many query replies
    complete a read's collect phase — {e deliberately unsound} below a
    majority, provided so the schedule explorer can regression-test
    that it detects the resulting non-atomic schedules.  Raises
    [Invalid_argument] outside [1 .. length replicas].  The store
    quorum is always a majority.  [skip_write_back] (default [false])
    is the other deliberate bug: every {!read} returns its freshest
    pair with no write-back, leaving the register regular.

    [storage] makes the engine's write timestamps durable: each
    {!write} appends its (register, timestamp, value) to the store
    before the [Store] broadcast leaves this node, and {!create}
    recovers the per-register timestamps from it — so a restarted
    engine never re-issues a timestamp a replica may already hold.
    Several engines may share one store as long as their register sets
    are disjoint (which shards guarantee) — or, during a migration,
    overlap only through {!write_at}, which appends nothing.

    [rid_base]/[rid_stride] (defaults [0]/[1]) stripe the request-id
    space: this engine issues rids congruent to [rid_base] modulo
    [rid_stride].  A node running one engine per shard gives engine
    [s] the stripe [(s, shards)], so a reply identifies its issuing
    engine by [rid mod shards] even while a migration has two engines
    with pending phases for the same registers.  Raises
    [Invalid_argument] unless [0 <= rid_base < rid_stride].
    [metrics] (default: a fresh, private instance) receives
    [quorum_queries]/[quorum_stores]/[quorum_retransmissions] counters
    and the [quorum_phase1]/[quorum_phase2] round-latency histograms
    (transport clock units, measured from first transmission to quorum
    completion). *)

val quorum_size : t -> int
(** Majority: [n/2 + 1] of the replicas.  Pure. *)

val read : t -> reg:int -> k:(Wire.payload -> unit) -> unit
(** Start an atomic read of global register [reg]; [k] runs exactly
    once, after the collect quorum — at once if the freshest timestamp
    is the highest this engine has seen stored on a majority, else
    after a write-back round — possibly {e before} [read] returns
    (reentrantly, under a zero-delay transport) or never (if a
    majority is permanently unreachable).  Does not block. *)

val write : t -> reg:int -> value:Wire.payload -> k:(unit -> unit) -> unit
(** Start an atomic write; same continuation contract as {!read}.
    Must only be called by the register's owning engine (SWMR). *)

val write_ts :
  t -> reg:int -> value:Wire.payload -> k:(unit -> unit) -> int
(** {!write}, additionally returning the timestamp it chose — decided
    synchronously, before any message leaves.  The migration dual
    write replays this timestamp into the incoming group with
    {!write_at} so the two groups stay comparable. *)

val read_ts : t -> reg:int -> k:(int * Wire.payload -> unit) -> unit
(** Collect phase only: [k] receives the freshest (timestamp, payload)
    a read quorum holds, with {e no} write-back — so on its own this
    is not an atomic read.  The reconfiguration coordinator's sync
    step uses it to sample a register from the outgoing group; the
    subsequent {!write_at} into the incoming group plays the
    write-back role.  Same continuation contract as {!read}. *)

val write_at :
  t -> reg:int -> ts:int -> value:Wire.payload -> k:(unit -> unit) -> unit
(** Store phase with a caller-supplied timestamp: installs (ts, value)
    on a majority verbatim, raising (never lowering) the engine's
    local timestamp floor for [reg] so later {!write}s still dominate.
    Appends nothing to [storage] — the caller must ensure the pair is
    already durable (the migration dual-write replays a timestamp the
    primary engine's {!write} just logged).  Same continuation
    contract as {!read}. *)

val on_message : t -> src:Transport.node -> Wire.msg -> unit
(** Feed [Query_reply]/[Store_ack] messages; replies from unknown
    request ids (stale retransmissions, duplicates, other engines'
    rids) are ignored, other message kinds are no-ops.  May run
    pending continuations reentrantly; never raises on well-typed
    input. *)

val resend_pending : ?older_than:float -> t -> bool
(** Retransmit every outstanding phase at least [older_than] (default
    0) clock units old to the replicas that have not yet answered it;
    returns whether anything is still outstanding.  The age filter
    keeps a periodic timer from re-sending phases whose first
    transmission is still legitimately in flight.  Does not block. *)

type stats = {
  reads : int;
  writes : int;
  messages_sent : int;
  retransmissions : int;
}

val stats : t -> stats
(** Monotone operation/message counters since {!create}.  Reads
    mutable state without locking — call from the engine's driving
    thread, or accept a torn-but-monotone snapshot. *)
