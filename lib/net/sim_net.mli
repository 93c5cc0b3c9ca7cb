(** A deterministic in-process simulated network with seeded fault
    injection.

    Messages in flight live in a virtual-time priority queue; {!step}
    pops the earliest event and invokes the destination's handler
    (which may send further messages and set timers).  All
    nondeterminism — delivery delays (hence reordering), drops,
    duplicates — is drawn from one seeded PRNG, so a run is a pure
    function of [(seed, faults, workload)] and any interleaving found
    by a fault-schedule sweep can be replayed exactly.

    Faults modelled: message delay/reorder/drop/duplication per link
    ([faults]), network partition ({!partition}/{!heal}), and process
    crash ({!crash} — the node stops receiving until {!restart};
    messages already sent by it still arrive, like packets in flight
    when a process dies).

    Timers keep {!Transport.t}[.set_timer]'s incarnation rule: a
    plain crash pauses a node's timers, and an amnesia restart drops
    every timer of the old incarnation. *)

type faults = {
  drop : float;  (** per-message drop probability *)
  duplicate : float;  (** per-message duplication probability *)
  min_delay : float;
  max_delay : float;
      (** per-message delivery delay, uniform in
          [[min_delay, max_delay + epsilon_float)]; jitter is what
          reorders messages *)
  immune : src:Transport.node -> dst:Transport.node -> bool;
      (** TCP-like links: no drops, no duplicates, and FIFO — a
          delivery is never scheduled before the link's previous one,
          and {!pending} offers only the link's oldest.  Delay still
          applies, and is still drawn, so marking a link immune does
          not change the faults of the others.  Client/server sessions
          assume a reliable link, so harnesses mark them immune;
          replica links are the crash-prone, lossy medium. *)
}

val reliable : faults
(** No drops, no duplicates, and a delay of 1.0 plus a random fraction
    of an ulp: like every delay it is drawn uniformly, over a range
    widened by [epsilon_float], so a delivery's time may come out one
    ulp later.  Messages sent at one instant on links that are not
    immune therefore arrive in an order drawn from the RNG, not in send
    order. *)

val lossy :
  ?drop:float ->
  ?duplicate:float ->
  ?min_delay:float ->
  ?max_delay:float ->
  unit ->
  faults
(** Defaults: [drop 0.1], [duplicate 0.05], delays in [[0.5, 2.0]],
    nothing immune. *)

type stats = {
  delivered : int;
  dropped : int;  (** lost to fault injection or a dead destination *)
  duplicated : int;
  blocked : int;  (** lost to a partition *)
  timer_fires : int;
}

type t

val create :
  seed:int -> faults:faults -> ?metrics:Metrics.t -> ?trace:Trace.t -> unit -> t
(** [metrics] (default: a fresh, private instance) receives the
    transport counters under the same names as {!Socket_net}
    ([frames_sent], [frames_delivered], …, [timer_fires],
    [timers_dropped]); at quiescence
    [frames_sent = frames_delivered + frames_dropped + frames_blocked].
    With [trace], every send/deliver/drop/timer-fire is appended to
    the log stamped with its virtual time, a send or delivery with the
    message itself. *)

val uniform : Random.State.t -> float -> float
(** [uniform rng span] is [Random.State.float rng span] bit for bit,
    drawing the same bits from [rng]; inlined where the simulator
    draws a delay, a drop or a duplicate, it boxes no float. *)

val transport : t -> Transport.t

val register :
  t -> Transport.node -> (src:Transport.node -> Wire.msg -> unit) -> unit
(** Install the node's message handler.  Handlers may reentrantly call
    [send]/[set_timer]. *)

val crash : t -> Transport.node -> unit
(** The node stops receiving.  Its handler closure — and hence its
    in-memory state — is retained, so a plain crash+{!restart} models
    a pause (a long GC, a suspended VM), {e not} a process death: a
    real restart forgets everything volatile.  Use {!crash_amnesia}
    for that.  A timer of the node that falls due while it is down
    waits: it fires, in arming order with the others, when {!restart}
    runs. *)

val crash_amnesia : t -> Transport.node -> unit
(** {!crash}, and additionally mark the node's volatile state as lost:
    the next {!restart} starts a new incarnation.  It drops every
    timer the node armed before it — still queued or already due —
    counting each in [timers_dropped], then runs the node's
    {!on_restart} recovery hook, which must rebuild the handler state
    — from stable storage if the node has any, or from nothing (the
    bug durability exists to prevent). *)

val on_restart : t -> Transport.node -> (unit -> unit) -> unit
(** Install the node's recovery hook, run by {!restart} iff the
    preceding crash was a {!crash_amnesia}.  Typically re-{!register}s
    the handler over freshly recovered state. *)

val restart : t -> Transport.node -> unit
(** Undo a {!crash}: the node receives messages again.  After a plain
    crash its state was retained, and the timers that fell due while
    it was down fire now, in arming order, before [restart] returns.
    After a {!crash_amnesia} its old timers are dropped and the
    recovery hook (if any) is invoked. *)

val alive : t -> Transport.node -> bool

val partition : t -> Transport.node list -> Transport.node list -> unit
(** Sever every link between the two groups (both directions; messages
    crossing the cut are counted [blocked] and lost). *)

val heal : t -> unit

val at : t -> float -> (unit -> unit) -> unit
(** Schedule a callback at an absolute virtual time — fault schedules
    (crash this replica at t, heal at t') are built from this.  It
    belongs to no node, so it fires whatever any node's state. *)

val task : t -> Transport.node -> (unit -> unit) -> unit
(** [task t node f] queues [f] as an event of [node]'s own, due now:
    {!step} runs it in its (time, seq) turn, whatever the node's state,
    and {!pending} offers it as it offers a delivery to [node], not as
    a timer, so an explorer chooses when it runs.  It is no frame: no
    frame counter moves and nothing is traced.  A simulated
    {!Server_pool} worker's turn is one. *)

val now : t -> float

val step : t -> bool
(** Deliver the earliest pending event; [false] when the queue is
    empty (the system is quiescent). *)

val peek : t -> (Transport.node * Wire.msg option) option
(** The event {!step} would execute next: its destination node and,
    for a delivery, the message ([None] for a timer or a {!task},
    whose node is its owner, [-1] for one set by {!at}); [None] when
    quiescent.  O(1) and read-only — for tools that attribute each
    step's cost. *)

val run : ?max_steps:int -> t -> int
(** Step until quiescent or [max_steps] (default 1_000_000); returns
    the number of steps taken. *)

(** {2 Controlled stepping}

    A schedule explorer takes over the simulator's one source of
    nondeterminism — which pending event fires next — by reading
    {!pending} and calling {!fire} on a chosen index instead of
    {!step}.  The snapshot is in canonical (time, seq) order (the order
    {!step} would drain), so an index names an event deterministically
    and a list of indices is a replayable schedule. *)

type pending_ev = {
  idx : int;  (** index to pass to {!fire} *)
  seq : int;
      (** the event's scheduling sequence number — a stable identity:
          it follows the entry while it sits in the queue, and replays
          of the same choice prefix reproduce it exactly *)
  time : float;  (** scheduled virtual delivery time *)
  timer : bool;
      (** [true] for timers; [src]/[dst] are the owner, as for a
          {!task} *)
  src : int;
  dst : int;
  msg : Wire.msg option;  (** a delivery's message *)
}

val pending : t -> pending_ev list
(** Snapshot of the event queue, earliest first, less every delivery
    of an immune link but its oldest (the link is FIFO); every timer
    and {!task} is offered.  Indices are
    valid until the next mutation ([fire], [step], [send], …). *)

val fire : t -> int -> bool
(** Execute the [i]-th event of the current {!pending} snapshot out of
    order (clock advances to [max now time]).  [false] if the index is
    out of range. *)

val stats : t -> stats
(** The [frames_delivered]/[frames_dropped]/[frames_duplicated]/
    [frames_blocked]/[timer_fires] counters of the [metrics] given to
    {!create} (see {!Metrics}). *)
