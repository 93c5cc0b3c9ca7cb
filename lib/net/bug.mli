(** The deliberate-bug hooks, as one value.

    The explorer is trusted because it catches, shrinks and replays
    bugs planted on purpose.  Each hook breaks exactly one layer and
    takes effect in that layer's leaf argument: {!Quorum.create}'s
    [?read_quorum] and [?skip_write_back], {!Replica.create}'s
    [?unordered], {!Txn.create}'s [?torn] and {!Reconfig.create}'s
    [?skip_dual_write] — except [stale_copy], whose leaf is
    {!Server}'s transaction write.  Everything between {!Explore} and
    those leaves ({!Sim_run}, {!Server}, {!Registry}, the engine
    factory) carries one [Bug.t] instead of six arguments.

    A [Bug.t] is checked only as part of the cluster it breaks:
    {!Sim_run.validate} (run by {!Sim_run.create} and
    {!Explore.config}) rejects an out-of-range read quorum, a hook
    aimed at the wrong engine, and a reconfiguration hook with no
    migration to break.  Build one from {!none}:
    [{ Bug.none with skip_write_back = true }].

    Replica durability (the [store] of a {!Sim_run.spec}) is not a
    hook here: it is a storage mode that benchmarks and storage tests
    select for reasons of their own. *)

type t = {
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
