(** A real transport over Unix-domain sockets (stream, one socket per
    node), driven by one readiness event loop.

    Every node — replica, server, client — binds a listening socket
    [<dir>/n<id>.sock]; {!Transport.t}[.send] connects (with per-peer
    connection caching) and writes length-prefixed {!Wire} frames.
    Sends to a dead or absent peer are silently dropped, matching the
    lossy-transport contract; stream sockets otherwise neither drop nor
    reorder, so the quorum engine's retransmission timer only matters
    when replicas crash.

    {b Runtime.}  Non-blocking sockets are driven from one
    {!Event_loop}, whose single thread runs every node's accepts, frame
    reassembly, handler invocations and timer callbacks — the per-node
    handler serialization is structural, with no lock on the hot
    path.  Inbound frames are reassembled in per-connection buffers
    leased from a shared pool and decoded in place through one reader
    per connection; a readiness callback reads until a read comes back
    short (or a 256 KiB budget is spent).  Outbound frames are encoded
    into a buffer the connection reuses and written inline from the
    sending thread; when the kernel buffer fills ([EAGAIN]) a copy of
    the remainder is queued (bounded by a backpressure cap, counted
    drops beyond it) and drained by the loop on writability — a slow
    peer costs its own queue, never a sender's thread.

    A send never raises.  A message whose body exceeds
    {!Wire.max_frame} is counted in [frames_oversized], one with a
    field outside its encoding range in [frames_unencodable]; neither
    is sent.

    Sending never blocks on a sick peer: outbound
    connects are non-blocking and bounded, run with no table lock
    held, and a peer that is not accepting (full backlog, hung
    process) costs the sender one counted [conn_stall] and a dropped
    frame instead of stalling every other destination behind the
    connection table.

    {b Timer incarnation guard.}  A transport timer captures its
    node's endpoint registration when armed and fires only if that
    very endpoint value — compared physically, the counterpart of
    {!Sim_net}'s amnesia-restart rule — is still the registered, live
    one at expiry.  A node that was {!unlisten}ed, {!crash}ed or replaced
    by a re-{!listen} in between can never observe the stale callback;
    such timers are counted as [timers_dropped].

    Multiple processes may share a [dir] (see the [serve]/[client]
    subcommands of [bin/net.exe]); a single process may equally host
    the whole cluster, each node on its own socket. *)

type t

val create :
  ?dir:string ->
  ?sndbuf:int ->
  ?metrics:Metrics.t ->
  unit ->
  t
(** Starts the event-loop thread.  [dir] defaults to a fresh directory
    under the system temp dir.  Ignores [SIGPIPE] process-wide (a must
    for socket servers).  [sndbuf] (default: the kernel's) sets
    [SO_SNDBUF] on every outbound connection — a test hook: a tiny
    buffer forces the short-write/EAGAIN path (frames parked on the
    pending queue, drained on writability) that production traffic
    only exercises under real congestion.  [metrics] (default: a fresh, private
    {!Metrics.t}) receives the transport's counters — frame,
    connection and timer accounting, including [write_queued]
    (short writes parked for writability) and [decode_errors] — and
    its handler-service histogram; pass the cluster-wide instance so
    one snapshot covers every layer. *)

val metrics : t -> Metrics.t
(** The metrics registry the transport's counters are interned in. *)

val path : t -> Transport.node -> string
(** The node's socket file, [<dir>/n<id>.sock] — useful to test for a
    live peer before connecting. *)

val transport : t -> Transport.t
(** The capability record protocol layers program against. *)

val listen :
  t -> Transport.node -> (src:Transport.node -> Wire.msg -> unit) -> unit
(** Bind the node's socket and start accepting.  The handler may
    reentrantly use the transport.  Handler invocations (and the
    node's timer callbacks) are serialized on the loop thread. *)

val unlisten : t -> Transport.node -> unit
(** Orderly stop of a node listened on this [t]: its descriptors are
    released, the cached route to it is dropped and its socket file is
    removed, so a later {!listen} on the same node id (e.g. a client
    reconnecting with the same processor) starts clean.  Timers armed
    against the old incarnation are dropped by the guard, never
    delivered to the new one. *)

val crash : t -> Transport.node -> unit
(** Stop a node listened on this [t] abruptly: its socket closes,
    subsequent sends to it are dropped — a process crash as seen by
    the rest of the cluster. *)

val shutdown : t -> unit
(** Crash every node, stop and join the event loop, close outbound
    connections and remove the socket files. *)
