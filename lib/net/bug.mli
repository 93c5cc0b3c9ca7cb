(** The deliberate-bug hooks, as one validated value.

    The explorer is trusted because it catches, shrinks and replays
    bugs planted on purpose.  Each hook breaks exactly one layer and
    takes effect in that layer's leaf argument: {!Quorum.create}'s
    [?read_quorum] and [?skip_write_back], {!Replica.create}'s
    [?unordered], {!Txn.create}'s [?torn] and {!Reconfig.create}'s
    [?skip_dual_write] — except [stale_copy], whose leaf is
    {!Server}'s transaction write.  Everything between {!Explore} and
    those leaves ({!Sim_run}, {!Server}, {!Registry}, the engine
    factory) carries one [Bug.t] instead of six arguments.

    The record is [private]: the only ways to build one are {!none}
    and the validating {!make} (or {!of_fields}, which calls it), so a
    [Bug.t] never carries an out-of-range read quorum, a hook aimed at
    the wrong engine, or a reconfiguration hook with no migration to
    break.

    Replica durability ([durable:false] in {!Sim_run} and
    {!Explore}) is not a hook here: it is a storage mode that
    benchmarks and storage tests select for reasons of their own. *)

type t = private {
  read_quorum : int option;
      (** ABD: a read's collect phase completes on this many replies
          instead of a majority *)
  skip_write_back : bool;
      (** ABD: every read returns its freshest pair with no write-back,
          which leaves the register regular rather than atomic *)
  unordered : bool;
      (** twobit: replicas apply link frames in arrival order, ignoring
          their sequence numbers *)
  torn_txn : bool;
      (** the multi-key coordinator skips per-key locking, so a
          snapshot can observe a torn batch *)
  skip_dual_write : bool;
      (** the reconfiguration coordinator drops the incoming-group leg
          of every dual write, so a write acked during a migration can
          be lost at cutover *)
  stale_copy : bool;
      (** the server runs a transaction's per-key write with the plain
          {!Core.Protocol.write_prog}, so the writer's local copy of
          its register keeps the value before the transaction and a
          later read through it can return that overwritten value *)
}

val none : t
(** No hook set: the correct system. *)

val make :
  ?read_quorum:int ->
  ?skip_write_back:bool ->
  ?unordered:bool ->
  ?torn_txn:bool ->
  ?skip_dual_write:bool ->
  ?stale_copy:bool ->
  engine:Engine.kind ->
  replicas:int ->
  migration:bool ->
  unit ->
  t
(** The hooks for a service running [engine] over [replicas] replicas;
    [migration] says whether a live reconfiguration is requested.
    Every hook defaults to off.
    @raise Invalid_argument if [read_quorum] is outside [1..replicas],
    if a hook names the wrong engine ([read_quorum] or
    [skip_write_back] with twobit, [unordered] with ABD), or if
    [skip_dual_write] is set without a migration. *)

val fields : t -> (string * int) list
(** The artifact encoding: [read_quorum] (0 = off), [unordered],
    [torn_txn], [skip_dual_write], [skip_write_back] and [stale_copy]
    (0/1), in that order. *)

val of_fields :
  (string -> int option) ->
  engine:Engine.kind ->
  replicas:int ->
  migration:bool ->
  t
(** Decode {!fields} through a lookup; an absent field is off, so
    artifacts written before a hook existed still load.  Validated as
    {!make}. *)
