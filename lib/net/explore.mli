(** Systematic schedule exploration of the simulated register service.

    The paper's claim is per-interleaving: {e every} schedule of the
    construction yields an atomic history.  {!Sim_run} samples
    schedules (one per seed); this module {e enumerates} them.  It
    drives a {!Sim_run.create} cluster through
    {!Sim_net.pending}/{!Sim_net.fire} — the adversary picks which
    in-flight message is delivered next, and may additionally spend
    budgeted fates: {!Harness.Failure.net_fate}s ([Crash], [Reboot],
    [Partition], [Heal]) played by {!Sim_run.apply_fate}, as every
    other simulated run plays its fates — and hands the resulting
    choice tree to {!Modelcheck.Schedule}'s sleep-set DFS.  Every leaf
    ends as every simulated run does, through {!Sim_run.finish}: no
    more fates (a cut still active at [max_depth] is healed first),
    timers and deliveries in time order, for at most a bound the
    config fixes (ops × quorum phases × resend rounds to a full group
    × events per round); the tail adds no branch point.  Then it gets
    {!Sim_run.verdict}: the torn-batch audit, the server's per-key
    live {!Histories.Monitor}, optionally a post-hoc re-check of the
    leaf's history ([fastcheck]), and completion: an op still
    unanswered after the tail is [Stalled], whether its run went
    quiet or spun to the bound, and whether or not a group lost its
    majority.  The server is the {!Server_pool} the service runs,
    with the spec's [domains] workers, and client links are FIFO: the
    adversary reorders replica traffic, not a client's requests or
    answers, and a corked frame is one delivery.  With more than one
    worker, each worker's turn is one more choice ({!Sim_net.task}): which worker runs next, and how
    many queued frames one turn drains.  A worker's turn and a server
    delivery the pool queues to that worker alone are independent of
    the other workers' events for the sleep sets, unless the workload
    has multi-key ops, whose coordinator the workers share.

    Determinism: exploration uses the reliable fault model (constant
    delay, no drops or duplicates), so the delivery order chosen by the
    adversary is the {e only} nondeterminism and an [int list] of
    choice indices replays a run exactly.  Timers are not branch
    points: they fire deterministically, earliest first, and only when
    no delivery is pending — the classic "timeouts happen only when
    the system stalls" abstraction — with a budget of 64 timer fires
    per run so partition-retransmission loops terminate; a leaf the
    budget cuts off still owes its ops to the completion tail.
    Registers start at 0.

    On a violation, {!shrink} minimizes first the schedule (ddmin over
    choice indices, using loose replay: out-of-range indices are
    skipped, so truncation is always meaningful), then the workload
    (dropping one operation at a time and re-exploring under a budget),
    and {!save} dumps a replayable {!Trace} JSONL artifact that {!load}
    / {!replay_file} turn back into a verdict. *)

(** {2 Configuration} *)

type config = {
  spec : Sim_run.spec;
      (** the cluster under test, deliberate bugs included; its
          [store] is [None] or {!Sim_run.default_store}, the two an
          artifact can name *)
  workload : Sim_run.xprocess list;
      (** the client processes and their scripts: plain register ops
          ({!Sim_run.singles}), keyed ops, multi-key transactions and
          snapshot reads *)
  reconfig : (int * int) option;
      (** [(key, to_shard)]: a fault-immune control client requests a
          live migration of [key] onto [to_shard]; its delivery is one
          more schedulable event, so the handoff interleaves freely
          with the workload (see {!Reconfig}) *)
  crashable : int list;  (** replicas the adversary may crash *)
  max_crashes : int;  (** crash budget per run *)
  amnesia : int list;
      (** replicas the adversary may [Reboot]: an atomic
          crash-amnesia + restart, so volatile state is dropped and
          the node recovers (from its WAL when the spec has a store,
          from nothing otherwise) without ever going unreachable —
          runs stay complete, the branch point is purely whether the
          replica forgets *)
  max_amnesia : int;  (** reboot budget per run *)
  cuts : (int list * int list) list;
      (** candidate partitions the adversary may impose (one active at
          a time, must heal before the next) *)
  max_partitions : int;  (** partition budget per run *)
  max_depth : int;  (** schedule length cut-off *)
  max_schedules : int;  (** leaf budget *)
  prune : bool;  (** sleep-set pruning *)
  fastcheck : bool;  (** post-hoc re-check at every leaf *)
}

val config :
  ?spec:Sim_run.spec ->
  ?reconfig:int * int ->
  ?crashable:int list ->
  ?max_crashes:int ->
  ?amnesia:int list ->
  ?max_amnesia:int ->
  ?cuts:(int list * int list) list ->
  ?max_partitions:int ->
  ?max_depth:int ->
  ?max_schedules:int ->
  ?prune:bool ->
  ?fastcheck:bool ->
  workload:Sim_run.xprocess list ->
  unit ->
  config
(** [workload] is required; a plain register workload is
    [Sim_run.singles processes].  Defaults: {!Sim_run.default} (3
    replicas, 1 key, 1 shard, window 4, ABD with no bug hooks, durable
    replicas), no fates, [max_depth] 2000, unbounded schedules, pruning
    on, post-hoc check off.  A fate budget with an empty set is zeroed.

    Validated at construction (fail fast rather than deep inside
    [reset]):
    @raise Invalid_argument if {!Sim_run.validate} rejects the spec
    and [reconfig], if a [reconfig] key is negative or its shard out
    of range, if the spec's store is neither [None] nor
    {!Sim_run.default_store}, if the twobit engine is paired with
    amnesia fates (its link-sequence state is volatile — crash-stop
    only), or if a [workload] op carries structurally invalid keys
    (see {!Txn.valid_keys}; [Keyed] keys must be non-negative). *)

(** {2 Exploration} *)

type counterexample = {
  schedule : int list;  (** choice indices, replayable *)
  verdict : Sim_run.verdict;
      (** the leaf's verdict: a [Violation] or a [Stalled], never
          [Clean] *)
}

type result = {
  stats : Modelcheck.Schedule.stats;
  counterexample : counterexample option;
      (** first failing schedule found, if any (the search stops on
          it) *)
}

val explore : config -> result
(** Enumerate schedules depth-first until exhaustion (see
    [stats.exhausted]), the [max_schedules] budget, or the first
    leaf whose verdict is not [Clean]. *)

val hunt : ?walks:int -> seed:int -> config -> result
(** Seeded uniform random schedule walks (default 2000), stopping at
    the first leaf whose verdict is not [Clean].  The exhaustive DFS varies the tail
    of the schedule first, so bugs that need an early message starved
    past a much later one are exponentially far from its first leaf;
    random walks perturb the whole schedule at once and find such
    races fast.  Deterministic in [seed]; the returned schedule's
    indices are exact (strict replay).  [stats.exhausted] is always
    [false]. *)

val replay : ?trace:Trace.t -> config -> int list -> Sim_run.outcome
(** Re-run one schedule deterministically.  Loose semantics: indices
    out of range for the current choice set are skipped, and the run
    continues past the explicit prefix taking the default
    (earliest-event) choice until none is left or [max_depth] — so any
    prefix/sublist of a schedule is itself replayable — then ends as a
    leaf does, through {!Sim_run.finish}.  With [trace], the full run
    is recorded.  The outcome's verdict is the leaf's. *)

val shrink : config -> counterexample -> config * counterexample
(** Minimize a counterexample: ddmin the schedule, then greedily drop
    workload operations (re-exploring each candidate under a bounded
    budget), then ddmin again.  The result replays to a failing
    verdict (a violation or a stall) of the returned (possibly
    smaller) config. *)

(** {2 Replayable artifacts} *)

val save : file:string -> schedule:int list -> config -> unit
(** Dump the counterexample [schedule] of a config as Trace JSONL:
    note lines carrying the config (a worker count other than 1 on a
    [domains] line of its own), the workload (one [xproc] line per
    process) and the schedule; the fully traced replay (sends,
    deliveries, operation invokes/responds); and the replay's verdict
    on one note line: [verdict torn M], [verdict key=K M], [verdict
    stalled C/E] or [verdict atomic].  Self-contained — {!load} needs
    nothing else. *)

val load : file:string -> config * int list
(** Parse an artifact back into its config and schedule.  Older
    artifacts load too: missing config fields take their defaults,
    the retired [init] and [max_timer_fires] fields are ignored, and
    plain [proc] script lines are read as [Single] scripts unless the
    file also has [xproc] lines, which then hold the whole workload,
    and an artifact with no [domains] line runs one worker.
    @raise Failure on files {!save} did not produce.
    @raise Invalid_argument as {!config}, on a config it rejects. *)

val replay_file : file:string -> config * int list * Sim_run.outcome
(** [load] + [replay]: the outcome's [verdict] says whether the
    artifact still reproduces. *)

(** {2 Torture mode} *)

type torture_report = {
  runs : int;
  ops_completed : int;
  violations : int;  (** runs whose verdict is a [Violation] *)
  stalled : int;  (** runs whose verdict is [Stalled] (liveness
                      failure — the generated fate schedules preserve
                      quorum liveness, so any stall is a bug) *)
  first_failure : (int * string) option;
      (** run index + its verdict ({!Sim_run.pp_verdict}) *)
}

val torture :
  ?engine:Engine.kind ->
  ?runs:int ->
  ?dump:string ->
  ?progress:(int -> unit) ->
  seed:int ->
  unit ->
  torture_report
(** Seeded randomized long-run hammering: each run draws a
    {!Sim_run.spec} (3 or 5 replicas, 1–4 shards, multi-key keyspace,
    window 1–8, and last 1 or 2 server workers), a keyed batch
    workload, a
    lossy/duplicating/reordering fault model and a timed
    crash/restart/partition fate schedule
    ({!Harness.Failure.random_net_fates}), executes it to quiescence
    and counts its {!Sim_run.run} verdict: per-key atomicity {e and}
    completion.  A third of the
    runs swap the plain scripts for a mixed transaction/snapshot
    workload (half of those with every replica {!Storage} compacting
    every 16 appends instead of 32),
    so the cross-key {!Txn} audit is hammered under the same faults.
    Deterministic in [seed]: a failing run index reproduces alone.  With [dump], the
    first failing run is re-executed with a trace and written to the
    file (JSONL, fate notes included).  [runs] defaults to 100.
    [engine] (default ABD) picks the replication protocol; for the
    crash-stop-only twobit engine, amnesia fates are degraded to plain
    crashes (same seeded schedule otherwise, so engines stay comparable
    fate-for-fate). *)
