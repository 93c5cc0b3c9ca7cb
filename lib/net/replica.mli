(** A crash-prone replica holding one timestamped copy of every real
    register of the keyspace.

    Replicas are the passive half of the ABD-style construction
    (Attiya–Bar-Noy–Dolev; see also Mostéfaoui–Raynal in PAPERS.md):
    they answer [Query] with their current (timestamp, tagged value)
    pair and apply [Store] iff its timestamp is newer than what they
    hold.  Both handlers are idempotent and monotone, so the quorum
    engine may retransmit freely and the network may duplicate or
    reorder messages without affecting safety.

    Registers are addressed by the flat global index of
    {!Shard_map.global_reg} — key [k]'s Reg{_0}/Reg{_1} live at
    [2k]/[2k+1] — and are materialized lazily: an index never stored
    reads back as [(0, initial)], so the replica's footprint is
    proportional to the keys actually written, not to the keyspace.

    {b Two-bit sublanguage.}  The same replica also speaks the
    Mostéfaoui–Raynal engine's messages ([Store2]/[Query2], see
    {!Engine_twobit}): each [(engine, lid)] pair is a FIFO link whose
    frames are delivered in link-sequence order — early frames are
    parked, duplicates of already-delivered frames are re-answered
    from current state — and an applied [Store2] bumps the register's
    timestamp by one (the apply counter {e is} the timestamp).  Link
    receive state is volatile even for a durable replica: the twobit
    fault model is crash-stop, not amnesia (see DESIGN_NET.md §10).

    The state machine is pure message-in/messages-out — it runs
    unchanged under {!Sim_net} and {!Socket_net}.  A [t] is not
    internally locked: drive it from one thread (or one transport
    handler, which both transports serialize per node). *)

type t

val create : init:int -> ?storage:Storage.t -> ?unordered:bool -> unit -> t
(** Every register of the keyspace starts as the tagged value
    [(init, false)] at timestamp 0.  With [storage] the replica is
    durable: each accepted [Store] is appended to the store's WAL
    {e before} the ack is built (persist-before-ack), and the table
    recovered by {!Storage.create} — snapshot plus replayed WAL — is
    the replica's starting state.  Without it the table is volatile
    and an amnesia restart comes back empty.

    [unordered] (default false) is the twobit engine's deliberate-bug
    hook, the counterpart of ABD's [?read_quorum]: link frames are
    applied in arrival order instead of link-sequence order, so a
    delayed retransmitted [Store2] can regress a register — the
    new/old inversion {!Explore} demonstrates. *)

val handle :
  t ->
  src:Transport.node ->
  emit:(Transport.node -> Wire.msg -> unit) ->
  Wire.msg ->
  unit
(** Process one message, passing each reply to [emit dst msg].  Unknown
    message kinds (and negative register indices) are ignored; [Batch]
    is flattened.  This is the group-commit-aware entry point: a
    [Store]/[Store2] ack is emitted from the backing store's
    durability completion, which with a group-commit store may happen
    {e after} this call returns — on a later [Storage.flush] or on the
    batch-filling append of another message.  A waiting ack is kept as
    int slots plus the [emit] it was given (no closure per message),
    and waiting acks leave in the order their stores were accepted.
    The driver must therefore use an [emit] that stays valid across
    handler turns (and guard it against the replica having crashed or
    restarted in between).  A handled [Query] allocates its reply and
    nothing else. *)

val handle_emit :
  t ->
  src:Transport.node ->
  emit:(Transport.node * Wire.msg -> unit) ->
  Wire.msg ->
  unit
(** {!handle} with a tupled [emit], which gets each reply as one
    [(dst, msg)] pair.  The curried wrapper {!handle} needs is built
    when [emit] differs (physically) from the previous call's, so a
    driver that passes one [emit] every time pays only the pair per
    reply. *)

val drive : t -> transport:Transport.t -> node:Transport.node -> unit
(** The end of one of [node]'s handler turns: a durable replica's store
    is driven by {!Storage.drive} on [transport]; a volatile one has
    nothing to flush.  Call it serialized with [node]'s handler, as
    {!serve} and {!Sim_run} do. *)

val serve :
  t ->
  transport:Transport.t ->
  me:Transport.node ->
  src:Transport.node ->
  Wire.msg ->
  unit
(** [serve rep ~transport ~me] is the replica node the socket service
    runs, as a handler for {!Socket_net.listen} at node [me].  Each
    handled message is one {!Transport.handle} turn: its replies leave
    as one frame per peer.  The turn's {!handle} is followed by
    {!drive} on the corked transport, so the acks a deadline flush
    releases are coalesced the same way.  Build one handler per
    replica and node; it must be called serialized with [me]'s timers,
    as {!Socket_net} does. *)

val contents : t -> (int * (int * Wire.payload)) list
(** Materialized registers as [(global_reg, (timestamp, payload))],
    sorted by register index — for tests. *)

val lookup_reg : t -> int -> int * Wire.payload
(** Current (timestamp, payload) of one global register index,
    materialized or not. *)

val storage : t -> Storage.t option
(** The backing store, when the replica is durable. *)

val handled : t -> int
(** Number of messages processed. *)
