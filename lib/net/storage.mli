(** Durable replica storage: a checksummed write-ahead log plus
    periodic snapshots, behind a pluggable backend.

    ABD-style quorum safety (see PAPERS.md) rests on replicas never
    forgetting a (timestamp, value) pair they acknowledged: a replica
    that acks a [Store] and then restarts empty lets an old value win a
    later quorum read, and the register is no longer atomic.  This
    module makes that durability real.  A store is an append of one
    {!entry} to the WAL — durable before the caller builds its ack —
    and every [snapshot_every] appends the full register table is
    written as a snapshot and the log truncated, bounding both recovery
    time and disk footprint.

    {2 Group commit}

    An fsync'd append costs a disk flush; the [net-recovery] bench
    section measured that floor at ~7.5k appends/s against ~880k/s
    without fsync (EXPERIMENTS.md § D).  Group commit
    amortizes it: with a {!commit_config}, {!append_async} frames its
    record in place at the end of one growable byte buffer (applying
    the entry to the in-memory table eagerly) and queues its completion
    in an array, and the whole queue is committed as {e one} backend
    append — one write, one fsync, of one byte slice — when it reaches
    [batch_max] entries or a driver calls {!flush} on the [flush_every]
    deadline.  Every completion callback fires only after its batch is
    durable, and completions (and {!on_durable} markers) fire in the
    order they were queued, so persist-before-ack holds per batch: an
    op whose batch never commits is never acknowledged.  A commit hands
    its completion array to the caller and swaps in a spare; only a
    commit nested in (or racing) the run of an earlier batch finds the
    spare in use and takes a fresh array.  Eagerly applying queued
    entries is safe for both engines — an ABD read writes its value
    back through a persist-before-ack majority before returning, and
    the twobit engine's fault model is crash-stop — while the entry's
    own ack still waits for durability.

    {2 Compaction}

    A store has one compaction rule: once [snapshot_every] appends
    have committed since the last snapshot, the committing call
    snapshots the table and truncates the log.  Every WAL entry is
    superseded by the table the snapshot persists, and a snapshot is
    taken only on the committing path, right after the whole queue is
    durable, so the table it persists holds no entry that is not yet
    durable and snapshot + WAL recovers every acknowledged entry.  Every
    WAL record is 33 bytes, so the cadence also bounds the log in
    bytes.  Compaction never changes the in-memory table, and every
    read ({!find}, {!contents}) is served from that table, so no read
    needs to hold compaction off.

    The store never arms timers by itself: [flush_every] is advisory,
    exposed via {!flush_deadline} for the driver that owns the
    threading model.  Two drivers use it.  A replica's store is driven
    by {!drive} after every handler turn ({!Replica.drive}).  A
    {!Server_pool} worker settles its core's store at the end of each
    turn ({!Server.settle}): a worker whose queue is empty commits the
    batch at once ({!flush_idle}), since nothing is left to batch with
    it, and a worker with work still queued calls {!drive}, so the
    deadline bounds the wait of a worker that never goes idle.  All
    public operations are thread-safe behind one internal mutex;
    completions run outside it and may re-enter the store.

    {2 On-disk format}

    Both files are sequences of {e records}: [len : int32 LE][crc :
    int32 LE][payload : len bytes], where [crc] is the IEEE CRC-32 of
    the payload.  The WAL holds one 25-byte entry payload per record
    ([reg : int64][ts : int64][value : int64][tag : byte]); the
    snapshot file holds exactly one record whose payload is
    ["SNP1"][count : int64] followed by [count] entries.

    {2 Recovery invariant}

    Recovery rebuilds the table from the snapshot, then replays the
    longest valid prefix of the WAL (each record applied iff its
    timestamp beats the current one — so a stale WAL left by a crash
    between snapshot install and log truncation replays harmlessly).
    A record that fails its length bound or checksum ends the prefix:
    the torn tail is discarded and the file truncated back to the
    valid prefix ({e recover the prefix, never fabricate state}).  A
    snapshot that fails its checksum is a hard {!Corrupt} error —
    snapshots are installed atomically, so a bad one means the disk
    lied, and serving guessed state would break the quorum invariant
    silently. *)

type entry = { reg : int; ts : int; pl : Wire.payload }
(** One WAL record: a [Store] application to global register [reg]. *)

exception Corrupt of string
(** Raised by {!create} when the snapshot (not the WAL tail) is
    unreadable.  Fail closed: no state is better than wrong state. *)

(** {2 Backends} *)

type backend = {
  load_snapshot : unit -> string option;
      (** raw snapshot file bytes, [None] if never installed *)
  load_wal : unit -> string;  (** raw WAL bytes (empty if none) *)
  append_wal : Bytes.t -> int -> unit;
      (** [append_wal b n] appends the first [n] bytes of [b], durable
          before return.  [b] is the store's batch buffer, reused by
          the next batch: copy what must outlive the call. *)
  truncate_wal : int -> unit;  (** keep only the first [n] bytes *)
  install_snapshot : string -> unit;
      (** atomically replace the snapshot, then truncate the WAL to
          empty.  If the two steps are separable (real files: rename
          then truncate), a crash between them must leave the {e new}
          snapshot and the old WAL — safe under the recovery
          invariant. *)
  close : unit -> unit;
      (** release what the backend holds open (the file backend's WAL
          descriptor); called once, by {!close} *)
}

val file_backend : ?fsync:bool -> dir:string -> unit -> backend
(** Real files [wal] and [snapshot] under [dir] (created, parents
    included, if missing).  The WAL is opened [O_APPEND], so every
    append lands at the file's end (after a torn-tail repair, right
    after the valid prefix) without a seek.
    Snapshot installs write [snapshot.tmp] and rename over, so a
    half-written snapshot can never be observed.  With [fsync] (default
    [false]) every append and install is fsync'd: durable against power
    loss, not just process crash, at a large throughput cost. *)

(** A simulated disk: the in-memory backend.  Without a hook it is a
    plain volatile backend (tests, and the no-op-cost baseline for
    benches); for crash testing its appends can be torn mid-record by
    an injected hook, modelling a process dying inside [write(2)].
    After a torn append the disk plays dead — all writes are ignored
    until {!Disk.revive} — because the process that issued them no
    longer exists. *)
module Disk : sig
  type t

  type write_fate =
    | Persist  (** append lands in full *)
    | Torn of int
        (** only the first [min n len] bytes of the append land; the
            disk then plays dead until {!revive} *)

  val create : unit -> t
  val backend : t -> backend

  val set_hook : t -> (int -> write_fate) -> unit
  (** Decide the fate of each append; the argument is the 1-based
      append ordinal since {!create}.  The hook typically also crashes
      the owning node — tearing the write and killing the process are
      one event. *)

  val clear_hook : t -> unit

  val revive : t -> unit
  (** Clear the played-dead state: the next incarnation of the process
      may use the disk again. *)

  val is_dead : t -> bool
  (** [true] between a torn append and {!revive} — the window in which
      the owning process is gone and completions must not be trusted. *)

  val appends : t -> int
  (** appends offered (torn ones included).  With group commit each
      batch is one append: the tear hook's ordinal counts batches. *)

  val snapshots : t -> int
  val wal_size : t -> int
  val wal_bytes : t -> string
  val snapshot_bytes : t -> string option
end

(** {2 Decoding — what recovery runs, exposed for fuzzing} *)

val crc32 : string -> int32
(** IEEE CRC-32 (the zlib/PNG polynomial). *)

val decode_entry : string -> entry option
(** One WAL entry from the byte payload of a record (25 bytes: [reg],
    [ts] and value as little-endian int64s, then the tag byte): total,
    [None] on any malformation. *)

val decode_snapshot : string -> (int * (int * Wire.payload)) list option
(** A whole register state from one snapshot payload (["SNP1"], an
    int64 count, then that many entries ascending by register): total,
    [None] on any malformation. *)

type tail =
  | Clean
  | Torn_tail of { valid : int; dropped : int }
      (** [valid] bytes of whole checksummed records, then [dropped]
          bytes that fail framing or checksum *)

val scan : string -> string list * tail
(** Split a byte string into its longest valid prefix of framed records
    (payloads returned in order) and the tail verdict.  Total: any
    input, bit-flipped or truncated anywhere, yields a prefix. *)

(** {2 The store} *)

type t

type commit_config = {
  batch_max : int;
      (** commit the pending batch as soon as it holds this many
          entries; [<= 1] degenerates to sync appends *)
  flush_every : float;
      (** advisory flush deadline in seconds for the driver (see
          {!flush_deadline}): the longest a pending entry waits, [0.]
          meaning the end of the handler turn that queued it; a
          driver may commit sooner ({!flush_idle}) *)
}
(** Group-commit tuning, mirroring the client batcher in
    [lib/net/client.ml] (size cap + flush deadline). *)

val create : ?snapshot_every:int -> ?group_commit:commit_config -> backend -> t
(** Open the store: load the snapshot, replay the WAL's valid prefix,
    repair (truncate) a torn tail.  [snapshot_every] (default [0] =
    never) is the compaction cadence documented above: the number of
    appends between automatic snapshots, the replayed WAL records
    counting towards the first.  [group_commit] (default off) enables
    the commit queue documented above.  Raises {!Corrupt} on an
    unreadable snapshot. *)

val append : t -> entry -> unit
(** Append one entry — durable when this returns — and apply it to the
    in-memory table (iff its timestamp beats the current one).  With
    group commit on, this forces the whole pending batch out (it is a
    barrier); prefer {!append_async} on hot paths.  May trigger a
    snapshot + truncation. *)

val append_async :
  t -> reg:int -> ts:int -> Wire.payload -> k:(unit -> unit) -> unit
(** Queue the entry [{reg; ts; pl}] and apply it to the in-memory table
    now; [k] fires exactly once, after the batch containing the entry
    is durable — inline if the enqueue itself fills the batch, else
    from whichever call commits it ({!flush}, a filling
    {!append_async}, {!snapshot} or {!append}).  Completions fire in
    the order they were queued.  Without a [group_commit] config the
    batch size is one and [k] always fires before this returns.  On a
    warm store (its buffers grown) this allocates only the table's
    pair, and a bucket for a register never stored. *)

val flush : t -> unit
(** Commit the pending batch now (one backend append), firing its
    completions.  No-op when nothing is pending. *)

val flush_idle : t -> unit
(** {!flush}, counted as an idle commit: the driver commits because
    it has no other work queued, so no later append could join the
    batch before its deadline. *)

val on_durable : t -> (unit -> unit) -> unit
(** Run a callback once everything currently pending is durable —
    inline when nothing is pending.  This is the ack path for
    duplicate [Store]s: the original may still sit in the queue, and
    re-acking it before its batch commits would break
    persist-before-ack. *)

val pending : t -> int
(** Entries queued but not yet committed. *)

val batch_max : t -> int
(** Effective batch cap ([1] when group commit is off). *)

val flush_deadline : t -> float
(** The [flush_every] this store was opened with ([0.] when group
    commit is off) — advisory, for the driver that arms flush timers:
    a replica's {!drive}, and a server worker's that still has work
    queued. *)

val drive : t -> transport:Transport.t -> node:Transport.node -> unit
(** The group-commit deadline policy, called at the end of a handler
    turn of [node]: every turn of a replica, and each turn of a server
    worker that ends with work still queued (an idle worker commits
    with {!flush_idle} instead).  Nothing pending: no-op.  A zero
    {!flush_deadline} flushes now.  A positive one arms a single
    [transport] timer on [node] unless one is already armed; the timer
    flushes the batch and drives again, so entries queued meanwhile
    get their own deadline.  Acks therefore wait at most one deadline
    past their append.  The armed flag lives in the store, so each
    store must have exactly one driving node, and [drive] must run
    serialized with that node's handler (as transport timers do).
    The timer's closure is built by the first arming and kept for the
    store's life, over that call's [transport] and [node]: one driver
    per store is a rule, not a convention. *)

val snapshot : t -> unit
(** Force a snapshot now (flushes the pending batch first). *)

val close : t -> unit
(** Commit the pending batch (its completions fire), then release the
    backend: a store over {!file_backend} holds its WAL descriptor
    open until then, so each reopen of a directory in one process
    needs the previous store closed.  Closing twice is a no-op; an
    append after close raises [Invalid_argument]. *)

val find : t -> int -> default:int * Wire.payload -> int * Wire.payload
(** The stored pair, or [default] for a register never stored.
    Allocates nothing. *)

val contents : t -> (int * (int * Wire.payload)) list
(** Sorted by register index. *)

type stats = {
  appends : int;  (** entries appended since open *)
  batch_commits : int;  (** backend appends, i.e. write+fsync rounds *)
  cap_commits : int;  (** commits made by an append filling the batch *)
  deadline_commits : int;
      (** commits made by {!drive}: its timer, or at once under a zero
          deadline *)
  forced_commits : int;
      (** commits forced by {!flush}, {!snapshot}, {!close} or a sync
          {!append} *)
  idle_commits : int;
      (** commits by {!flush_idle}: a driver with nothing else queued;
          the four causes sum to [batch_commits] *)
  max_batch : int;  (** largest batch committed since open *)
  snapshots_taken : int;
      (** snapshots since open, by the cadence or by {!snapshot} *)
  recovered_snapshot : int;  (** registers loaded from the snapshot *)
  recovered_wal : int;  (** WAL records replayed at open *)
  torn_bytes : int;  (** tail bytes discarded (and truncated) at open *)
  wal_size : int;  (** current WAL length in bytes *)
}

val stats : t -> stats
(** Counters since open — appends vs. the backend commit rounds they
    coalesced into, snapshot and recovery accounting. *)
