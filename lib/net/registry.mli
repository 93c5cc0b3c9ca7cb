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
    read-quorum and skip-write-back hooks act there.  [storage] is shared by every
    engine — safe because the shards partition the keyspace, so the
    engines' register sets are disjoint; it makes issued write
    timestamps durable across a server restart.  A [group_commit]
    store batches the wts appends of {e all} shards into shared
    write+fsync rounds (each engine's store broadcast waits for its
    own timestamp's batch); whoever owns the transport loop must
    drive {!Storage.flush} — {!Server} does this for its own store.  [metrics] receives
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
    index ({!Shard_map.global_reg}); contracts as
    {!Quorum.read_ts}/{!Quorum.write_at}/{!Quorum.write_ts}.  A twobit
    engine has no comparable timestamps: its [read_ts] is a plain read
    reporting ts 0, and its [write_at] ignores [ts] (the replicas'
    apply counter orders stores by arrival).  These calls do not count
    towards [shard<i>_quorum_ops]; an out-of-range shard raises
    [Invalid_argument]. *)

val read_ts :
  t -> shard:int -> reg:int -> k:(int * Wire.payload -> unit) -> unit

val write_at :
  t ->
  shard:int ->
  reg:int ->
  ts:int ->
  value:Wire.payload ->
  k:(unit -> unit) ->
  unit

val write_ts :
  t -> shard:int -> reg:int -> value:Wire.payload -> k:(unit -> unit) -> int
