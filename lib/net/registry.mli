(** The server-side owner of the sharded keyspace.

    A registry holds one replication engine per shard of its
    {!Shard_map}, all speaking the same protocol (the {!Engine.spec}
    chosen at creation — shards are engine-homogeneous).  Each engine
    is the exclusive writer of the real registers of the keys its
    shard owns (the SWMR ownership the construction requires), talks
    to its shard's replica group, and keeps its own pending table — so
    operations on different shards share nothing and proceed fully
    concurrently through the pipelined server.  All engines speak from
    the same transport node; incoming replies are routed to the owning
    engine by the request-id stripe they carry (ABD: engine [s] issues
    rids congruent to [s] modulo the shard count — see
    {!Quorum.create}) or by their link id, which is the shard index
    (two-bit).  Register-index routing would be ambiguous during a
    {!Reconfig} migration, when two engines hold pending phases for
    the same registers.

    The registry is the only issuer of write timestamps.  It keeps one
    floor per global register — the highest timestamp issued — for all
    its engines, recovered once from [storage] at {!create}; {!write},
    {!write_at} and {!write_ts} are the only calls that raise it.  A
    timestamp is appended to [storage] before any [Store] of it leaves
    this node, so a restarted registry never re-issues a timestamp a
    replica may already hold — the single-writer rule that makes each
    replicated register atomic.  The engines only replicate the
    (register, timestamp, value) they are given.

    Same threading contract as {!Quorum}: not internally locked, drive
    from one transport handler; nothing here blocks. *)

type t

val create :
  transport:Transport.t ->
  me:Transport.node ->
  replicas:Transport.node list ->
  map:Shard_map.t ->
  ?engine:Engine.spec ->
  ?bug:Bug.t ->
  ?storage:Storage.t ->
  ?metrics:Metrics.t ->
  unit ->
  t
(** One engine per shard of [map], over
    {!Shard_map.group}[ map ~replicas s]: a {!Quorum} or an
    {!Engine_twobit} as [engine] says (default {!Engine.default}, i.e.
    ABD).  [bug] (default {!Bug.none}) reaches each engine; only ABD's
    read-quorum and skip-write-back hooks act there.  [storage] makes
    issued write timestamps durable across a server restart: each
    issue appends (register, timestamp, value), and {!create}
    recovers the floors from it.  A [group_commit] store batches the
    appends of {e all} shards into shared write+fsync rounds, and each
    write's stores wait for its own timestamp's batch; whoever owns
    the transport loop must drive {!Storage.flush} — {!Server} does
    this for its own store.  [metrics] receives
    the engine counters/histograms plus one [shard<i>_quorum_ops]
    counter per shard — the per-shard load (and skew) signal.
    @raise Invalid_argument on a read quorum larger than a shard's
    replica group, or a twobit shard count beyond {!Wire.max_lid}. *)

val map : t -> Shard_map.t
(** The current placement.  Mutable across epochs — see {!set_map}. *)

val set_map : t -> Shard_map.t -> unit
(** Install the next epoch's map: subsequent {!read}/{!write} calls
    route by it.  The {!Reconfig} coordinator calls this exactly at
    cutover, from the registry's driving thread.  The shard count is
    fixed at {!create} (engines are per-shard state).
    @raise Invalid_argument if the new map's shard count differs. *)

val shards : t -> int
val shard_of_key : t -> int -> int

val spec : t -> Engine.spec
(** The engine spec every shard runs. *)

val read : t -> key:int -> reg:int -> k:(Wire.payload -> unit) -> unit
(** Atomic read of register bit [reg] (the paper's Reg{_0}/Reg{_1}) of
    [key], routed to the owning shard's engine; continuation contract
    as {!Quorum.read}. *)

val write :
  t -> key:int -> reg:int -> value:Wire.payload -> k:(unit -> unit) -> unit
(** Atomic write of register bit [reg] of [key]: issue the register's
    next timestamp, append it, and once that append is durable store
    the pair through the owning shard's engine ({!Quorum.store});
    continuation contract as {!Quorum.read}.  Must only be called by
    the register's writer role (SWMR). *)

val on_message : t -> src:Transport.node -> Wire.msg -> unit
(** Route [Query_reply]/[Store_ack]/[Ack2]/[Query2_reply] (possibly
    batched) to the engine owning the register or link they name;
    everything else is ignored. *)

val resend_pending : ?older_than:float -> t -> bool
(** {!Quorum.resend_pending} (or its twobit counterpart) on every
    engine; true if any engine still has phases or link frames
    outstanding. *)

val stats : t -> Engine.stats
(** Every engine's counters, read from [metrics] by {!Engine.stats_of}:
    the totals of every registry (and pool core) sharing that
    instance. *)

(** {2 One shard's engine}

    The migration legs of {!Reconfig}, which address the outgoing and
    the incoming shard of a key directly.  [reg] is a global register
    index ({!Shard_map.global_reg}).  These calls do not count towards
    [shard<i>_quorum_ops]; an out-of-range shard raises
    [Invalid_argument]. *)

val read_ts :
  t -> shard:int -> reg:int -> k:(int * Wire.payload -> unit) -> unit
(** {!Quorum.read_ts} on [shard]'s engine.  A twobit engine has no
    comparable timestamps: there this is a plain read reporting ts
    0. *)

val write_at :
  t ->
  shard:int ->
  reg:int ->
  ts:int ->
  value:Wire.payload ->
  k:(unit -> unit) ->
  unit
(** Store (ts, value) through [shard]'s engine verbatim.  A [ts] at or
    below the register's floor was issued before and is stored at
    once; one above it raises the floor and is appended first, as
    {!write} does.  A twobit engine ignores [ts] (the replicas' apply
    counter orders stores by arrival). *)

val write_ts :
  t -> reg:int -> value:Wire.payload -> k:(int -> unit) -> unit
(** Issue [reg]'s next timestamp and append it, like {!write}, but
    hand it to [k] once the append is durable instead of storing it:
    the migration's dual write sends both of its legs from [k] with
    {!write_at}, so neither leaves before its timestamp is durable and
    one append covers both. *)
