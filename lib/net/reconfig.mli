(** Live reconfiguration: the dual-quorum handoff that migrates a key
    to another shard — and thereby to that shard's replica group —
    while the server keeps serving the key.

    The {!Server} owns one coordinator and routes every keyed
    micro-operation through {!read}/{!write}; outside a migration
    those are exactly {!Registry.read}/{!Registry.write}.  A migration
    (started by {!start} on an accepted {!Wire.msg.Reconfig}) runs in
    phases, all on the server's single execution thread:

    + {e entry} — writes of the key go to {e both} the outgoing and
      the incoming group (same timestamp, acked only when both
      majorities ack); reads satisfy the stricter intersection of the
      two groups;
    + {e settle} — wait for every client op admitted before entry to
      finish, so pre-entry single-group writes are safely majority-
      acked before they are sampled;
    + {e sync} — copy each register's freshest (timestamp, value) from
      the outgoing group onto the incoming one, skipping registers
      with a dual write in flight;
    + {e drain} — park new admissions of the key ({!admitting} turns
      false; the server leaves them queued) until in-flight ops
      finish;
    + {e done} — install the advanced {!Shard_map} (epoch + 1), ack
      the requester, and unpark the key.

    Atomicity through the transition is audited externally (the
    per-key {!Monitor} inside the server) and verified exhaustively by
    {!Explore} over reconfig interleavings.

    Same threading contract as {!Registry}: not internally locked,
    drive from one transport handler; nothing here blocks. *)

type t

val create :
  registry:Registry.t ->
  metrics:Metrics.t ->
  ?skip_dual_write:bool ->
  unit ->
  t
(** A coordinator over [registry]'s engines and map, counting into
    [metrics]' [reconfig_*] counters (see {!Metrics}).  The current
    epoch is {!epoch}.  At most one
    migration is in flight at a time; further {!start}s are nacked
    until it completes.

    [skip_dual_write] (default [false]) is the deliberate bug
    hook: the incoming-group leg of every dual write is dropped, so a
    write acked during a migration can be lost at cutover — the
    violation {!Explore} must catch, shrink and replay. *)

val set_unpark : t -> (int -> unit) -> unit
(** Install the server's unpark hook, called with the migrated key
    after cutover so ops parked during drain re-dispatch (now routed
    by the new map).  Default: ignore. *)

val epoch : t -> int
(** The current configuration epoch, i.e. [Shard_map.epoch] of the
    registry's live map. *)

val admitting : t -> int -> bool
(** Whether the server may dispatch a new client op on this key now.
    [false] exactly while the key is in the drain phase — the server
    must leave the op queued and re-try after the unpark hook runs. *)

val op_started : t -> key:int -> bool
(** Count a client op on [key] entering execution.  Returns the op's
    {e generation} token — [true] iff [key] is currently under
    migration — which must be handed back to {!op_finished}.  The
    pre-entry generation gates the settle phase, its successors gate
    drain. *)

val op_finished : t -> key:int -> gen:bool -> unit
(** Count a client op leaving execution (completed or rejected); [gen]
    is the token {!op_started} returned for it.  May advance the
    migration (settle/drain completions) and run its continuations —
    including the requester's ack and the unpark hook — reentrantly. *)

val start :
  t ->
  key:int ->
  to_shard:int ->
  epoch:int ->
  finish:(ok:bool -> epoch:int -> unit) ->
  unit
(** Begin migrating [key] to [to_shard].  [epoch] is the epoch the
    requester believes current: a mismatch is nacked with the real one
    (stale-epoch fencing), as are a busy coordinator and an
    out-of-range key or shard.  [finish] runs exactly once —
    with the {e new} epoch on success, the current epoch on a nack;
    possibly before [start] returns (a nack, a same-shard request, or
    a fully quiescent key completes synchronously). *)

val read : t -> key:int -> reg:int -> k:(Wire.payload -> unit) -> unit
(** {!Registry.read}, or the intersection read while [key] migrates
    (ABD: both groups, max timestamp, write-back to the outgoing
    group; twobit: the outgoing group, whose FIFO links keep it
    current).  Continuation contract as {!Quorum.read}. *)

val write :
  t -> key:int -> reg:int -> value:Wire.payload -> k:(unit -> unit) -> unit
(** {!Registry.write}, or the dual-quorum write while [key] migrates:
    both groups store under one timestamp, and [k] runs only when both
    majorities have acked (single-group under the [skip_dual_write]
    bug hook).  Continuation contract as {!Quorum.write}. *)
