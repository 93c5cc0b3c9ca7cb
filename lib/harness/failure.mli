(** Crash-failure scenarios (Section 5: "if the writer crashes at some
    point in the protocol, the write either occurs or does not occur;
    it does not leave the register in an inconsistent state").

    Built on {!Registers.Run_coarse}'s crash injection: a processor is
    killed after its k-th primitive access and never acknowledges. *)

(** {2 Network fault schedules}

    Timed fate schedules for the message-passing service's torture
    harness.  Nodes are plain ints (the transport node numbers) because
    harness sits below net in the library order; net's [Sim_run]
    interprets them. *)

type net_fate =
  | Crash of int
      (** replica stops receiving; volatile state retained (a pause,
          not a death) *)
  | Crash_amnesia of int
      (** replica dies: volatile state is lost, and a later [Restart]
          must recover from stable storage — or come back empty when
          the harness runs without durability *)
  | Restart of int  (** undo a crash; amnesiac nodes recover first *)
  | Reboot of int
      (** [Crash_amnesia] then [Restart] at the same instant: the node
          forgets its volatile state and recovers (from stable storage,
          or empty without durability) without ever being unreachable *)
  | Partition of int list * int list  (** sever links between groups *)
  | Heal  (** remove the active partition *)

val pp_net_fate : net_fate Fmt.t

val random_net_fates :
  rng:Random.State.t ->
  replicas:int list ->
  server:int ->
  span:float ->
  ?max_crashes:int ->
  unit ->
  (float * net_fate) list
(** A random liveness-preserving fate schedule over virtual-time
    window [[0, span]], sorted by time: at most [max_crashes] (default
    and hard cap: a minority of [replicas]) distinct replicas crash —
    each a coin-flip between [Crash] and [Crash_amnesia], each possibly
    restarting later — and at most one partition window
    cuts a subset of replicas from the rest and the [server], always
    healed within the window.  Under such a schedule every quorum
    operation can eventually complete, so a harness may assert both
    atomicity {e and} completion. *)

type write_fate =
  | Never_happened  (** crashed before its real write *)
  | Took_effect  (** crashed at/after its real write *)

val crash_writer_everywhere :
  seed:int ->
  init:int ->
  victim:Histories.Event.proc ->
  processes:int Registers.Vm.process list ->
  build:(unit -> (int Registers.Tagged.t, int) Registers.Vm.built) ->
  (int * write_fate * (int Registers.Tagged.t, int) Registers.Vm.trace_event list) list
(** Run the workload once per crash point [k = 0, 1, 2, ...] of the
    victim writer (until the crash point exceeds the victim's total
    accesses), returning for each the crash point, the fate of the
    victim's in-flight write, and the trace.  The fate is derived from
    the trace: [Took_effect] iff the victim's interrupted write
    performed its primitive write. *)

val fate_of_crashed_write :
  victim:Histories.Event.proc ->
  (int Registers.Tagged.t, int) Registers.Vm.trace_event list ->
  write_fate option
(** [None] when the victim has no pending (unacknowledged) write in the
    trace. *)
