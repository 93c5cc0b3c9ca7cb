(** The active half of the ABD-style quorum construction: every real
    register of the keyspace as an atomic SWMR register over
    crash-prone replicas.

    A {e store} of global register [reg] installs a (timestamp, value)
    pair on a majority; the timestamp is the caller's, issued by
    {!Registry}, which also makes it durable before the store is
    called.  A {e read} queries a majority and picks the pair with the
    highest timestamp.  Before returning it, the read must know that pair is
    on a majority, or two reader sessions could see a new–old
    inversion (the register would be regular, not atomic).  The engine
    records, per register, the highest timestamp whose store phase —
    a {!store} or a write-back — it has seen complete;
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

    Atomicity needs only that any two majorities intersect, so a phase
    is first sent to just enough replicas to complete it — [max
    majority read_quorum] of them, its {e window} — not to the whole
    group.  Windows rotate: phase [i] of the engine starts at replica
    [i mod n] of the group, so each replica carries about [need/n] of
    the load.  A phase still unanswered at a {!resend_pending}
    deadline is re-sent to {e every} replica that has not answered, so
    a dead or slow window member costs one resend interval.  A window
    member that missed the deadline is {e suspected}: later windows
    pass over it while enough unsuspected replicas remain, so a
    crashed replica costs one resend round, not one per operation.
    Any reply from a replica clears its suspicion.  In a group of one
    or two replicas the majority is the whole group and every phase
    goes to all of it.

    Registers are addressed by the flat index of
    {!Shard_map.global_reg}.  Timestamps are per-register counters
    that {!Registry} issues from one floor per register, shared by
    every shard's engine: the registry is each register's single
    writer (the paper's SWMR architecture — Wr{_i} is the sole writer
    of Reg{_i}, and one front-end server hosts both writer sessions of
    every key), and this engine only replicates the pairs it is
    given.

    Operations are asynchronous: [read]/[store] send the first phase
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
    [Invalid_argument] outside [1 .. length replicas], or for more than
    [Sys.int_size - 1] replicas.  The store
    quorum is always a majority.  [skip_write_back] (default [false])
    is the other deliberate bug: every {!read} returns its freshest
    pair with no write-back, leaving the register regular.

    [rid_base]/[rid_stride] (defaults [0]/[1]) stripe the request-id
    space: this engine issues rids congruent to [rid_base] modulo
    [rid_stride].  A node running one engine per shard gives engine
    [s] the stripe [(s, shards)], so a reply identifies its issuing
    engine by [rid mod shards] even while a migration has two engines
    with pending phases for the same registers.  Raises
    [Invalid_argument] unless [0 <= rid_base < rid_stride].
    [metrics] (default: a fresh, private instance) receives
    [quorum_queries]/[quorum_writes]/[quorum_stores]/[quorum_msgs]/[quorum_retransmissions]
    counters, [quorum_bytes]/[quorum_control_bytes] (the
    {!Wire.encoded_size} and {!Wire.control_bytes} of every message
    sent, resends included), [quorum_widened] (phases re-sent beyond their first
    window) and [quorum_suspected] (replicas that became suspected),
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

val read_ts : t -> reg:int -> k:(int * Wire.payload -> unit) -> unit
(** Collect phase only: [k] receives the freshest (timestamp, payload)
    a read quorum holds, with {e no} write-back — so on its own this
    is not an atomic read.  The reconfiguration coordinator's sync
    step uses it to sample a register from the outgoing group; the
    subsequent {!store} into the incoming group plays the write-back
    role.  Same continuation contract as {!read}. *)

val store :
  t -> reg:int -> ts:int -> value:Wire.payload -> k:(unit -> unit) -> unit
(** Store phase: install (ts, value) on a majority verbatim; same
    continuation contract as {!read}.  The caller issues [ts] and makes
    it durable first — {!Registry} does both, so a restarted server
    never re-issues a timestamp a replica may already hold.  A write,
    a migration's install and its intersection read's write-back all
    reach the replicas through here. *)

val on_message : t -> src:Transport.node -> Wire.msg -> unit
(** Feed [Query_reply]/[Store_ack] messages; replies from unknown
    request ids (stale retransmissions, duplicates, other engines'
    rids) only clear their sender's suspicion, other message kinds are
    no-ops.  A phase counts each replica of the group once, however
    many copies of its reply arrive, and never counts a reply whose
    [src] is not in [replicas]: such a reply is ignored.  A collect
    keeps the reply with the highest timestamp, the latest one to
    arrive on a tie.  May run pending continuations reentrantly; never
    raises on well-typed input. *)

val resend_pending : ?older_than:float -> t -> bool
(** Retransmit every outstanding phase at least [older_than] (default
    0) clock units old to every replica of the group that has not yet
    answered it — widening a phase beyond its first window — and
    suspect the window members among them; returns whether anything is
    still outstanding.  The age filter
    keeps a periodic timer from re-sending phases whose first
    transmission is still legitimately in flight.  Does not block. *)
