(** Lock-cheap runtime observability for the message-passing service.

    One {!t} is shared by every layer of a cluster instance (transport,
    quorum engine, server, clients): each layer interns the counters
    and histograms it needs {e once} at construction time and then
    updates them on the hot path with a single [Atomic] operation
    (counters) or a short mutex-protected reservoir insert
    (histograms, {!Harness.Stats.Reservoir}).

    A count lives here and nowhere else.  Every layer's stats accessor
    ({!Sim_net.stats}, {!Registry.stats} and so {!Server.quorum_stats}
    and {!Server_pool.quorum_stats}, {!Server.ops_served},
    {!Server_pool.ops_served}, …) reads the registry that layer was
    created with, and {!Wire.msg.Stats_reply} ships the same counters
    ({!wire_stats}).  So one registry serves one service instance: two
    servers handed the same {!t} would each report both servers'
    totals.

    Counter names used by the library (all monotonic but one):

    - [frames_sent] / [frames_delivered] / [frames_dropped] /
      [frames_blocked] / [frames_duplicated] — per-frame fates at the
      transport.  At quiescence
      [frames_sent = frames_delivered + frames_dropped + frames_blocked]
      (duplicated frames count as sent).
    - [frames_retried] — socket sends retried on a fresh connection.
    - [frames_oversized] — sends whose body exceeds {!Wire.max_frame}.
    - [frames_unencodable] — sends with a field outside its encoding
      range (a twobit [lid] or [seq], an engine code, a negative
      reconfiguration field, an over-long multi-key op): each is
      dropped, and {!Socket_net.send} still returns normally.
    - [decode_errors] — undecodable frame bodies received.
    - [conn_opened] / [conn_closed] / [conn_failed] — outbound
      connection churn ({!Socket_net} only).
    - [conn_stall] — connect attempts that would have blocked (peer
      not accepting) or timed out; each one is a send the caller did
      {e not} stall on.
    - [timer_fires] / [timers_dropped] — timer callbacks run /
      discarded because the node incarnation that armed them was gone
      (over sockets) or ended by an amnesia restart (in {!Sim_net}).
    - [quorum_queries] / [quorum_stores] / [quorum_retransmissions] —
      phase-1 and phase-2 rounds started, and per-replica resends.
    - [quorum_writes] — ABD store phases started for a write or a
      migration's install ({!Quorum.store}); [quorum_stores] also
      counts read write-backs.
    - [quorum_msgs] / [quorum_bytes] / [quorum_control_bytes] — ABD
      messages sent, resends included, and their {!Wire.encoded_size}
      and {!Wire.control_bytes}.
    - [quorum_widened] / [quorum_suspected] — ABD phases re-sent beyond
      their first window, and replicas that became suspected for
      missing a resend deadline ({!Quorum}).
    - [twobit_queries] / [twobit_stores] / [twobit_retransmissions] —
      twobit reads and writes started, and per-link frame resends.
    - [twobit_widened] / [twobit_suspected] — twobit reads whose
      [Query2] went out on every other link after missing their resend
      deadline (first sends, not retransmissions), and links that
      became suspected for holding an overdue frame
      ({!Engine_twobit}).
    - [twobit_msgs] / [twobit_bytes] / [twobit_control_bytes] — the
      same for twobit link frames.
    - [crashes] — nodes crashed (fault injection or real).
    - [ops_served] / [ops_rejected] — server-level operations.
    - [worker_exn] — exceptions that escaped a {!Server_pool} worker's
      handler (the worker survives them; see {!Server_pool.stop}).
    - [pool_queue_hwm] — the deepest any {!Server_pool} worker's queue
      has been: items dispatched to it and not yet taken, counted at
      each push.  A high-water mark ({!raise_to}), not a sum.
    - [audit_violated_keys] — keys whose live audit latched a
      violation ({!Server.violations}).
    - [audit_keys] — keys with a live monitor; [audit_resident] — of
      those, the monitors holding a working graph
      ({!Histories.Monitor.resident}).  [audit_resident] is the one
      counter that also falls: a monitor that folds takes 1 off.
    - [reconfig_started] / [reconfig_completed] / [reconfig_nacked] —
      migrations begun, cut over and refused; [reconfig_dual_writes],
      [reconfig_sync_installs] / [reconfig_sync_skips] and
      [reconfig_parked] — dual-quorum writes, sync-phase installs and
      hot-register skips, and admissions parked by a drain
      ({!Reconfig}).

    Which counter answers each stats field:

    - {!Engine.stats} ({!Engine.stats_of}): [reads] is
      [quorum_queries] / [twobit_queries]; [writes] is [quorum_writes] /
      [twobit_stores]; [messages_sent], [retransmissions],
      [bytes_sent] and [control_bytes_sent] are [quorum_msgs],
      [quorum_retransmissions], [quorum_bytes] and
      [quorum_control_bytes] (the [twobit_] ones for that engine).
    - {!Sim_net.stats}: [delivered], [dropped], [duplicated] and
      [blocked] are [frames_delivered], [frames_dropped],
      [frames_duplicated] and [frames_blocked]; [timer_fires] is
      [timer_fires].

    Histogram names (values in transport clock units — seconds over
    sockets, virtual time in the simulator):

    - [client_rtt] — request send to response receipt, per operation;
    - [quorum_phase1] / [quorum_phase2] — quorum round latencies;
    - [server_op] — server-side invoke-to-respond service time;
    - [handler_service] — per-message handler execution time
      ({!Socket_net} only). *)

type t

val create : unit -> t

(** {2 Counters} *)

type counter

val counter : t -> string -> counter
(** Intern (find or create) the named counter. *)

val incr : counter -> unit
val add : counter -> int -> unit

val raise_to : counter -> int -> unit
(** [raise_to c n] sets [c] to [n] if [n] is larger: a high-water mark
    that writers on several domains may raise at once (a
    compare-and-set loop, never a lost update). *)

val value : counter -> int
(** Current value; one [Atomic] read. *)

val get : t -> string -> int
(** Current value by name; [0] if the counter was never interned. *)

(** {2 Histograms} *)

type histogram

val histogram : t -> string -> histogram
val observe : histogram -> float -> unit

type summary = {
  count : int;  (** observations offered (reservoir may hold fewer) *)
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
  max : float;  (** all [nan] when [count = 0] *)
}

val summarise : histogram -> summary

(** {2 Snapshots} *)

val counters : t -> (string * int) list
(** Sorted by name. *)

val histograms : t -> (string * summary) list

val wire_stats : t -> (string * int) list
(** The flat snapshot shipped in {!Wire.msg.Stats_reply}: every
    counter, plus [<hist>_count]/[<hist>_p50_us]/[<hist>_p99_us] per
    histogram (latencies scaled to integer microseconds). *)

val pp : t Fmt.t
