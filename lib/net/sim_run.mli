(** Run a register workload over a simulated cluster under a seeded
    fault schedule, audit it live, and re-check the served history:
    {!create} wires a {!spec}'s cluster up, {!run} drives it to
    quiescence.

    Topology: [replicas] replica nodes ([0 .. r-1]), one server
    ({!Transport.server}), one client node per workload process
    ({!Transport.client}[ proc]).  Client/server links are made
    immune ({!Sim_net.faults}): no drops, no duplicates and FIFO
    delivery, a TCP-like session, which the server's presequenced
    admission relies on; delay jitter still applies.  Replica links
    suffer the full fault schedule.  The server is the
    {!Server_pool} the service runs, with [domains] workers whose cores
    keep their history; each worker's turn is a {!Sim_net.task} of
    the worker's own node ({!worker_node}), so with more than one
    worker the order of their turns is one more choice of the
    schedule.  With one worker no event is added: its queue drains
    as each frame or timer arrives.

    With [shards] > 1 the server hosts a sharded keyspace and each
    process round-robins its script over [keys] distinct keys, so a
    pipelining window keeps several per-key engines busy at once;
    every key is audited independently.

    The whole run is deterministic in [(seed, faults, spec, workload,
    schedule)]: sweeping seeds and fault parameters model-checks the
    transport + quorum + server stack, which is exactly what
    [test/test_net.ml] does. *)

type outcome = {
  history : int Histories.Event.t list;  (** as recorded by the server *)
  monitor_violation : string option;
      (** first live-audit violation of any key ([None] = every
          per-key audit accepts) *)
  txn_violations : string list;
      (** torn-batch verdicts of the cross-key {!Txn} audit (empty =
          every committed snapshot observed an atomic cut) *)
  fastcheck_ok : bool;
      (** conjunction of the per-key post-hoc {!Histories.Fastcheck}
          verdicts (requires written values to be unique) *)
  key_fastcheck : (int * bool) list;
      (** post-hoc verdict per key, ascending key order *)
  key_violations : (int * string) list;
      (** rendered first live violation per offending key *)
  completed : int;  (** operations that received a response *)
  expected : int;  (** operations in the workload *)
  steps : int;  (** simulator events processed *)
  virtual_span : float;  (** virtual time at quiescence *)
  latencies : (Histories.Event.proc * int Histories.Event.op * float) list;
      (** per completed operation, in virtual time units *)
  net : Sim_net.stats;
  quorum : Engine.stats;  (** aggregated over every shard's engine *)
  metrics : Metrics.t;
      (** the cluster-wide metrics registry (transport counters, quorum
          phase histograms, server op latencies, per-shard counters),
          fresh for each {!create}; also the cluster's [metrics] *)
  epoch : int;
      (** configuration epoch at quiescence (advances by one per
          completed migration — see {!Reconfig}) *)
  reconfig_acked : bool option;
      (** verdict of the [?reconfig] request: [None] if no migration
          was requested (or its ack never arrived), [Some ok]
          otherwise *)
}

(** {2 Extended workloads}

    [xprocesses] generalizes the plain register scripts with the
    multi-key operations of this layer; a plain [processes] workload
    is the [Single]-only special case ({!singles}).  One multi-key op
    answers with a single reply but records one Invoke/Respond pair
    per touched key, so [expected]/[completed] weigh it by its key
    count. *)

type xop =
  | Single of int Histories.Event.op
      (** one register op, keyed [seq mod keys] like plain scripts *)
  | Keyed of int * int Histories.Event.op
      (** one register op on an explicitly named key — what a
          reconfiguration workload uses to hammer the migrating key *)
  | Txn_w of (int * int) list
      (** an atomic multi-key transaction ({!Wire.op.Txn_k}) *)
  | Snap of int list
      (** a consistent snapshot read ({!Wire.op.Snap_k}) *)

type xprocess = { xproc : Histories.Event.proc; xscript : xop list }

val singles : int Registers.Vm.process list -> xprocess list
(** Plain register scripts as an extended workload: every op becomes
    a [Single]. *)

(** {2 Clusters}

    One {!spec} describes the cluster under test; {!create} builds it
    without running it, {!run} drives it to quiescence, and {!Explore}
    drives the same cluster externally
    ({!Sim_net.pending}/{!Sim_net.fire}) instead.  [collect] computes
    the {!outcome} from wherever the run got to. *)

type store = {
  snapshot_every : int;  (** appends between snapshots *)
  gc_bytes : int option;
      (** the WAL-size GC frontier ({!Storage.create}); [None] = off *)
  group_commit : Storage.commit_config option;
      (** a commit queue ({!Storage.commit_config}), [flush_every] in
          virtual-time units ([0.] flushes at the end of each turn) *)
}
(** How each replica persists its stores to its private
    {!Storage.Disk}. *)

type spec = {
  replicas : int;  (** replica nodes *)
  shards : int;  (** server shards (keys hash across them) *)
  domains : int;
      (** server pool workers; a key's worker is its shard's index
          modulo [domains] ({!Server.worker_of_key}) *)
  group_size : int option;
      (** replicas per shard group (see {!Shard_map.group}) — with
          [Some 1] and 2 shards the two replica groups are disjoint,
          the sharpest reconfiguration topology; [None]: every replica *)
  keys : int;  (** registers the [Single] scripts round-robin over *)
  window : int;  (** client pipelining window *)
  engine : Engine.kind;
      (** the replication protocol every shard runs.  The twobit
          engine's link layer does not survive amnesia fates: pair it
          with crash/restart only *)
  bug : Bug.t;
      (** the deliberate bugs planted: the server gets every hook but
          the torn-batch one, which is its coordinator's
          ({!Txn.create}), and the replicas get the twobit link-order
          one *)
  store : store option;
      (** [Some]: each replica persists every accepted store before
          acking, and an amnesia restart recovers from its disk.
          [None]: volatile replicas, so an amnesia restart comes back
          empty and an acked store can be forgotten — what
          {!Explore}'s no-durability hunts catch *)
}
(** The cluster under test. *)

val default_store : store
(** Snapshot every 32 appends, no GC frontier, no group commit. *)

val default : spec
(** 3 replicas, 1 shard (the unsharded single-register service), 1
    worker, every replica in it, 1 key, window 4, ABD, no bug,
    {!default_store}. *)

type reconfig = {
  key : int;  (** the key to migrate *)
  to_shard : int;  (** its destination shard *)
  at : float option;
      (** when the request is sent: [None] at creation, [Some t] at
          virtual time [t] (via {!Sim_net.at}) *)
}
(** A migration request ({!Wire.msg.Reconfig}, epoch 0). *)

val validate : ?reconfig:reconfig -> spec -> unit
(** Check a spec, as {!create} and {!Explore.config} do.
    @raise Invalid_argument if [replicas], [shards], [domains],
    [keys], [window] or [group_size] is below 1, if a twobit spec's
    [shards × domains] exceeds {!Wire.max_lid} (its link ids would not
    fit: {!Registry.create}), if the bug's [read_quorum] is outside
    [1..replicas], if a hook names the wrong engine ([read_quorum] or
    [skip_write_back] with twobit, [unordered] with ABD), if
    [skip_dual_write] is set without a [reconfig].  A [reconfig] to a
    shard outside the map is legal: the server nacks it. *)

type cluster = {
  net : Sim_net.t;
  pool : Server_pool.t;
  server : Server.t;
      (** worker 0's core: the whole server at one worker; read the
          pool's views through [pool] and {!collect} *)
  replica_nodes : int list;
  expected : int;  (** operations in the workload *)
  metrics : Metrics.t;
  disks : Storage.Disk.t array;
      (** one simulated disk per replica node ([[||]] when not
          durable) — tests reach in to install crash-point hooks and
          inspect WAL bytes *)
  replica_of : int -> Replica.t;
      (** current incarnation of a replica node (amnesia restarts swap
          incarnations) *)
  reconfig_ack : bool option ref;
      (** verdict of the [?reconfig] request's ack, once it arrives *)
}

val worker_node : int -> Transport.node
(** The node a pool worker's turns belong to ({!Sim_net.task}): one per
    worker, above every replica, server and client node. *)

val create :
  ?faults:Sim_net.faults ->
  ?reconfig:reconfig ->
  ?measure:(src:int -> dst:int -> Wire.msg -> unit) ->
  ?trace:Trace.t ->
  spec ->
  seed:int ->
  workload:xprocess list ->
  cluster
(** Wire up the cluster and enqueue every client's opening batch; no
    event has fired yet.  Registers start at 0, and the server always
    audits.  [faults] defaults to a reliable network.  [measure]
    observes every send the server, replicas and clients make (before
    fault injection — offered, not delivered, traffic), e.g. the
    bench's bytes-on-the-wire accounting.

    With a [store], each live replica's store is driven by
    {!Storage.drive} (through {!Replica.drive}) at the end of every
    handler turn, as a socket replica's is, and group-commit acks are
    emitted from batch durability completions.  Acks are guarded so a
    crashed node or a stale (pre-amnesia) incarnation cannot speak for
    its replacement, and {!Sim_net} drops a stale incarnation's flush
    timers.

    [workload] is an extended workload (see {!singles}) with
    multi-key transactions and snapshot reads, audited by the
    server's shared {!Txn} coordinator.  [reconfig] registers a
    dedicated fault-immune control client ({!Transport.client}[ 99])
    that asks the server to migrate [key] onto [to_shard] (epoch 0):
    at creation when [at] is [None] — under {!Explore} the request's
    delivery is then an ordinary schedulable event — or at virtual
    time [at].  The ack's verdict and the final epoch land in the
    outcome.

    The cluster's fresh [metrics] registry and [trace] are shared by
    the transport and the server: the trace (virtual-time stamped)
    records sends, deliveries, drops, timer fires and every operation
    invoke/respond with its key, and can be dumped with {!Trace.dump}
    and replayed through the checker with
    {!Trace.keyed_history_of_file}.
    @raise Invalid_argument as {!validate}. *)

val build :
  replicas:int ->
  window:int ->
  shards:int ->
  keys:int ->
  engine:Engine.spec ->
  durable:bool ->
  snapshot_every:int ->
  group_commit:Storage.commit_config ->
  measure:(src:int -> dst:int -> Wire.msg -> unit) ->
  xprocesses:xprocess list ->
  seed:int ->
  init:int ->
  processes:int Registers.Vm.process list ->
  unit ->
  cluster
(** {!create} under the labels the end-to-end benchmark's simulator
    leg passes: [durable] with its [snapshot_every] and
    [group_commit] is the [store], a non-empty [xprocesses] replaces
    [singles processes], and [init] is ignored (registers start at
    0).  New callers use {!create}. *)

val run :
  ?fates:(float * Harness.Failure.net_fate) list ->
  ?max_steps:int ->
  cluster ->
  outcome
(** Schedule [fates] (each played by {!apply_fate} at its time, via
    {!Sim_net.at}), run the simulator to quiescence or [max_steps]
    events (default 2_000_000), and {!collect}.  [fates] is a timed
    {!Harness.Failure.net_fate} schedule — e.g. a draw from
    {!Harness.Failure.random_net_fates}.  [(t, Crash r)] crashes
    replica [r] at virtual time [t]; a
    [Partition (cl.replica_nodes, [Transport.server])] at [t0] and a
    [Heal] at [t1] sever every replica from the server in between. *)

val apply_fate : cluster -> Harness.Failure.net_fate -> unit
(** Play one fate on the cluster's simulator now: the only mapping
    from a {!Harness.Failure.net_fate} to {!Sim_net} calls, shared by
    {!run}'s timed schedules and {!Explore}'s adversary.  [Crash],
    [Crash_amnesia], [Restart], [Partition] and [Heal] are
    {!Sim_net.crash}, {!Sim_net.crash_amnesia}, {!Sim_net.restart},
    {!Sim_net.partition} and {!Sim_net.heal}; [Reboot r] is
    {!Sim_net.crash_amnesia} then {!Sim_net.restart} of [r], so the
    replica recovers (from its disk when [durable], empty otherwise)
    before the next event. *)

val collect : cluster -> steps:int -> outcome
(** Assemble the outcome from the whole pool's current state: every
    core's violations, the coordinator's torn batches, the cores'
    histories merged in virtual time ({!keyed_history}), and the
    highest worker epoch.  [steps] is reported verbatim.  Safe to call
    on a partially-run (stalled or explorer-truncated) cluster —
    per-key audits then cover the prefix history. *)

val keyed_history : cluster -> (int * int Histories.Event.t) list
(** The pool's history with each event's key: every core's, merged in
    virtual time.  A key's events all come from its owning core, in
    their order. *)

val fastcheck_by_key :
  init:int ->
  (int * int Histories.Event.t) list ->
  (int * (unit, string) result) list
(** Post-hoc per-key verdicts of a keyed history, ascending key order:
    each key's subsequence, grouped in one pass, checked independently
    with {!Histories.Fastcheck.check_unique} (unique written values
    required; pending operations are fine).  [Error] carries the
    rendered reason: ["not input-correct: ..."] or
    ["NOT ATOMIC: ..."]. *)

val pp_outcome : outcome Fmt.t
(** One-paragraph summary (completion, verdicts, network stats). *)
