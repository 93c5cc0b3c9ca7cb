(** Blocking client library for the socket-served keyspace.

    A client is itself a node: it listens on its own socket for
    responses and speaks {!Wire} to the server.  [read_k]/[write_k] are
    the synchronous one-at-a-time API; [run_keyed] is the pipelined hot
    path — it keeps a window of requests in flight and tops it up as
    responses arrive.

    Underneath, every request goes through a {e batcher}: operations
    are queued and shipped as a single [Batch] frame once [batch_max]
    of them have coalesced, when the caller is about to block in an
    await (nothing queued may outlive the caller's patience), or when
    the [flush_every] deadline expires (a background flusher thread
    bounds the latency a lone op can pay waiting for company).  With a
    window open, that turns the request stream into a few large frames
    per round trip instead of one syscall per op.  Whichever thread
    ships a batch, batches reach the wire in sequence order: a
    {!Server_pool} core drops a request whose sequence number is below
    one it has already admitted.

    One [t] must be driven by one thread at a time (the paper's
    input-correctness assumption: a processor is sequential); the
    response handler and the flusher run on their own threads, and the
    reply table is mutex-protected.  One table holds every reply until
    its caller collects it: operations are keyed by their sequence
    number (counting up from 0) and control requests by their request
    id (counting down from -1), so the two never meet. *)

type t

val connect :
  ?metrics:Metrics.t ->
  ?batch_max:int ->
  ?flush_every:float ->
  net:Socket_net.t ->
  server:Transport.node ->
  proc:int ->
  unit ->
  t
(** Listen on node {!Transport.client}[ proc] and open a session with
    the server, declaring this client to be processor [proc] (0 and 1
    are the two writer roles).

    [batch_max] (default 32, clamped to [1 .. ]{!Wire.max_batch})
    bounds how many queued requests coalesce into one [Batch] frame;
    [flush_every] (default 0.002 s) is the flusher deadline — pass 0 to
    disable the flusher thread entirely (flushes then happen only on
    full batches and before blocking awaits).

    [metrics] (default: the transport's own instance,
    {!Socket_net.metrics}[ net]) receives the [client_rtt] histogram —
    wall-clock seconds from each request's {e queueing} to its
    response, as observed from this side of the wire — and the
    [client_batches] counter of multi-op frames shipped. *)

val read_k : t -> key:int -> int
(** Blocking atomic read of one key of the keyspace.  Keys are
    independent two-writer registers; the server routes by
    {!Shard_map.shard_of_key}.
    @raise Invalid_argument if the server rejects (negative key). *)

val write_k : t -> key:int -> int -> unit
(** Blocking atomic write to one key.
    @raise Invalid_argument if the server rejects the write with a
    {!Wire.msg.Nack} (a non-writer session, or a negative key). *)

val txn_k : t -> (int * int) list -> unit
(** Blocking atomic multi-key transaction: write every [(key, value)]
    pair all-or-nothing across shards and worker domains (see
    {!Wire.op.Txn_k}).  Acknowledged once every write has committed.
    @raise Invalid_argument if the server rejects (non-writer session,
    empty/duplicate/negative keys, or more than {!Wire.max_txn}), or
    if the client is already closed — a {!close} racing an in-flight
    prepare fails the transaction deterministically rather than
    leaving it half-queued. *)

val snap_k : t -> int list -> int list
(** Blocking consistent snapshot read: the returned values (in request
    order) form an atomic cut — for any committed {!txn_k} they
    contain either all of its writes or none (see {!Wire.op.Snap_k}).
    @raise Invalid_argument if the server rejects the snapshot or the
    client is already closed. *)

val run_keyed :
  ?window:int -> t -> (int * int Histories.Event.op) list -> int option list
(** Run a whole script with up to [window] (default 8) requests in
    flight; each element names the key its op addresses.  Returns the
    results in script order ([Some v] per read, [None] per write
    acknowledgment) once every op has completed.  Ops on distinct keys
    may execute concurrently server-side (per-key serialization only),
    which is what makes a windowed keyed script scale with the shard
    count.
    @raise Invalid_argument if the server rejects an op. *)

val post : t -> Wire.op -> unit
(** Fire-and-forget: queue one operation through the batcher without
    awaiting its response (the result is discarded when it arrives).
    The op ships on the usual triggers — a full batch, the flusher
    deadline, a blocking await, or {!close}, which is guaranteed to
    carry every posted op out before the session's [Bye].
    @raise Invalid_argument if the client is already closed. *)

val stats : t -> (string * int) list
(** Flush the batcher, ask the server for a live {!Metrics.wire_stats}
    snapshot ([Stats_req]/[Stats_reply]) and block for the answer.
    Counters come back verbatim; histograms as [name_count],
    [name_p50_us] and [name_p99_us].  The server appends [sessions],
    [shards] and [audit_violation] (0/1).
    @raise Invalid_argument if the client is closed, before or during
    the wait. *)

val epoch : t -> int
(** Flush the batcher, ask the server which configuration epoch is
    current ([Epoch_req]/[Epoch_reply]) and block for the answer.
    Returns the newest epoch this client has heard of (the reply, or a
    later {!reshard} ack).  Epochs advance by one per completed
    migration — see {!Reconfig}.
    @raise Invalid_argument if the client is closed, before or during
    the wait. *)

val reshard : ?attempts:int -> t -> key:int -> to_shard:int -> int
(** Blocking live migration: ask the server to move [key] onto
    [to_shard] (and thereby that shard's replica group) while traffic
    continues, returning the new configuration epoch once the handoff
    has cut over.  The request carries the client's believed epoch; a
    stale-epoch nack adopts the server's answer and retries, a busy
    nack (another migration in flight) backs off briefly first — at
    most [attempts] (default 8) tries in total.
    @raise Invalid_argument on a negative key or shard, on a server
    that keeps refusing (e.g. reconfiguration disabled, or the shard
    out of range), or if the client is closed before or during the
    wait. *)

val close : t -> unit
(** Close the session: atomically seal the batcher (later queue
    attempts raise) and detach any partially filled batch, send it,
    stop the flusher thread, and only then announce session end
    ([Bye]) and stop listening — so no queued op can be silently
    dropped by [Bye] overtaking its batch.  Any other thread blocked
    in an awaiting call ({!read_k}, {!txn_k}, {!snap_k}, ...) is woken
    and fails with [Invalid_argument] — its reply can never arrive
    once the endpoint is gone, so the seal fails it deterministically
    instead of leaving it parked forever.  Blocks for at most one
    [flush_every] period.  The node's socket is torn down by
    {!Socket_net.shutdown}. *)
