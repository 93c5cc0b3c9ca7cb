(** The capability a protocol state machine needs from a network.

    The service's replicas, quorum engines, server and clients are
    written against this record only, so the same code runs over the
    deterministic fault-injecting simulator ({!Sim_net}) and over real
    Unix-domain sockets ({!Socket_net}).  Handlers (how a node {e
    receives}) are registered with the concrete implementation; the
    record carries only the send side, timers and a clock.

    [send] never blocks and may silently drop (lossy links, dead
    peers): every protocol built on it must tolerate loss, which the
    quorum engine does by retransmitting on a timer. *)

type node = int
(** Flat node-id space shared by both transports.  By convention in
    this library: replicas are [0 .. n-1], the server is {!server}, and
    the client playing processor [p] is [client p]. *)

val server : node
(** The front-end server's node id (100).  Constant; pure. *)

val client : int -> node
(** [client p] is the node id of the client playing processor [p]
    (200 + [p]).  Pure; does not validate [p] — negative processors
    produce ids colliding with replicas or the server, so don't. *)

type t = {
  send : src:node -> dst:node -> Wire.msg -> unit;
      (** Fire-and-forget unicast.  Never blocks and never raises:
          unroutable destinations, crashed peers, full buffers and
          lossy links all surface as silent loss (possibly counted in
          the transport's metrics), which the protocols above absorb by
          retransmission.  Thread-safety is the implementation's
          burden: both {!Sim_net} (single-threaded event loop) and
          {!Socket_net} (internally locked) allow concurrent calls. *)
  set_timer : node:node -> delay:float -> (unit -> unit) -> unit;
      (** One-shot timer; the callback runs serialized with [node]'s
          message handler (virtual time under {!Sim_net}, wall-clock
          seconds under {!Socket_net}), so handler state needs no extra
          locking.  If [node] is no longer the {e same incarnation} it
          was when the timer was armed (unlistened, or replaced by a
          reconnect/restart in between) by the time the timer fires,
          the callback is dropped, not run, and counted
          [timers_dropped].  Each transport enforces this itself:
          {!Socket_net} with the endpoint-incarnation check of its
          timer guard (a crashed socket node is gone, so its timers
          drop too), {!Sim_net} by dropping every timer an amnesia
          restart's old incarnation armed.  A {!Sim_net.crash} is a
          pause, not a new incarnation: a timer due while the node is
          down waits and runs at its {!Sim_net.restart}.  So a live
          incarnation never loses a timer it armed, and a one-timer
          flag such as {!Storage.drive}'s cannot wedge.  Does not
          block. *)
  now : unit -> float;
      (** The transport's clock: virtual time under {!Sim_net},
          [Unix.gettimeofday] under {!Socket_net}.  Monotone within a
          simulation; wall-clock caveats apply on real systems.  Cheap
          and safe from any thread. *)
}

val null : t
(** Discards sends, never fires timers, clock pinned at 0; for
    unit-testing state machines in isolation. *)

type cork
(** One node's coalescing send path: a buffer of the sends of the open
    turn, one slot per destination, found in constant time and reused
    turn after turn.  A destination's slot lives as long as the cork:
    a few words plus an array as long as the most messages one turn
    has sent it (rounded up to a power of two).  A shipped slot holds
    no message. *)

val cork : t -> t * cork
(** [cork base] is the corked transport and its cork.  While a turn
    ({!turn} or {!handle}, nested or not) is open, sends are buffered
    per destination; when the outermost turn closes, each destination
    gets its messages in send order as one frame — the message itself
    when there is one, a {!Wire.msg.Batch} of at most 2048 otherwise
    (more are split into successive batches).  Destinations ship in
    the order of their first send in the turn.  One syscall per peer
    instead of one per message; a turn whose destinations each get
    one message allocates nothing, and a longer turn allocates only
    its [Batch] frames and their lists.  Sends outside any turn pass
    straight through to [base].  Timer callbacks armed through the
    corked transport each run as their own turn, so a resend fan-out
    or the acks a deadline flush releases coalesce too.  Every send
    through one corked transport should name the same [src] (the node
    it serves).  Not locked — drive it from that node's serialized
    handler and timers. *)

val turn : cork -> (unit -> unit) -> unit
(** [turn c f] runs [f ()] as one turn; it ships when the outermost
    turn closes, also when [f] raises (the exception is re-raised). *)

val turn_on : cork -> ('a -> unit) -> 'a -> unit
(** [turn_on c f x] is [turn c (fun () -> f x)] without the closure. *)

val handle :
  cork -> ('a -> src:node -> Wire.msg -> unit) -> 'a -> src:node ->
  Wire.msg -> unit
(** [handle c h x ~src msg] is [turn c (fun () -> h x ~src msg)]
    without the closure: how a message handler runs each message as
    one turn. *)
