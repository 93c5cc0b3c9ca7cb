(** Exhaustive bounded model checking of register protocols.

    Explores {e every} interleaving of the processes' primitive
    accesses over atomic cells, at the same glued granularity as
    {!Registers.Run_coarse} (which is sound and complete for atomicity
    violations — see that module's documentation), and hands each
    complete execution's trace to a callback.  The stepper is
    {!Registers.Run_coarse.machine} itself: the search takes one of its
    steps per edge and backtracks with {!Registers.Run_coarse.undo}, so
    it takes exactly the steps {!Registers.Run_coarse.run} and
    {!Registers.Run_coarse.run_scheduled} take.

    The number of interleavings of scripts with [k1 .. kp] accesses is
    the multinomial coefficient [(sum k)! / prod k!]; keep it under a
    few million.  {!interleavings} computes it so tests can assert the
    expected state-space size.

    Protocol programs must be pure (no state outside the cells) —
    true of {!Core.Protocol} and {!Baselines.Timestamp_mwmr}. *)

(** {[
      (* verify the theorem on a bounded configuration *)
      match
        Explorer.find_violation ~init:0
          (Core.Protocol.bloom ~init:0 ~other_init:0 ())
          [ { Vm.proc = 0; script = [ Write 1 ] };
            { Vm.proc = 1; script = [ Write 2 ] };
            { Vm.proc = 2; script = [ Read ] } ]
      with
      | None -> ()          (* atomic on every interleaving *)
      | Some v -> report v
    ]} *)

exception Stop
(** Raise from the callback to abort the exploration early. *)

val explore :
  ?crash:(Histories.Event.proc * int) list ->
  ('c, 'v) Registers.Vm.built ->
  'v Registers.Vm.process list ->
  on_leaf:(('c, 'v) Registers.Vm.trace_event list -> unit) ->
  int
(** Run the DFS; returns the number of complete executions visited
    (or visited so far, when the callback raised {!Stop}).
    [crash] kills processors after their k-th primitive access, exactly
    as in {!Registers.Run_coarse.run} — combined with the exhaustive
    interleaving search this verifies crash behaviour on {e every}
    schedule.
    @raise Registers.Run_coarse.Not_atomic_cells on weak cells. *)

val interleavings : int list -> int
(** [interleavings [k1; ...; kp]] = (k1+...+kp)! / (k1! ... kp!),
    the number of schedules the explorer will visit (exact as long as
    every process's access count is schedule-independent).
    @raise Invalid_argument on overflow past [max_int]. *)

type 'v violation = {
  trace_events : 'v Histories.Event.t list;  (** the offending history *)
  executions_checked : int;
}

val find_violation :
  ?crash:(Histories.Event.proc * int) list ->
  init:'v ->
  ('c, 'v) Registers.Vm.built ->
  'v Registers.Vm.process list ->
  'v violation option
(** Search every interleaving for a non-atomic history, deciding each
    leaf with the unique-value fast checker when the written values are
    distinct and the brute-force checker otherwise.  [None] means the
    protocol is atomic on this workload — an exhaustive proof for the
    bounded configuration.
    @raise Registers.Run_coarse.Not_atomic_cells on weak cells. *)

val count_atomic :
  init:'v ->
  ('c, 'v) Registers.Vm.built ->
  'v Registers.Vm.process list ->
  int * int
(** (atomic leaves, total leaves) — like {!find_violation} but without
    early exit, for reporting.
    @raise Registers.Run_coarse.Not_atomic_cells on weak cells. *)

(** {1 Parallel exploration}

    The search tree is split at depth 3: one depth-first walk over a
    {!Registers.Run_coarse.machine} lists every realizable schedule
    prefix of that length (executions that finish sooner are checked
    directly).  Worker domains take prefixes from a shared queue; each
    replays its prefix on a fresh machine and runs the sequential
    search below it, so the leaves are exactly the sequential ones, in
    another order.  Verdicts are aggregated; an early violation stops
    the other domains opportunistically.  Speedup is bounded by the
    host's core count (on 2 hardware threads it is nil; the sequential
    functions remain the default everywhere). *)

val count_atomic_parallel :
  ?domains:int ->
  init:'v ->
  ('c, 'v) Registers.Vm.built ->
  'v Registers.Vm.process list ->
  int * int
(** As {!count_atomic}, on [domains] (default
    [Domain.recommended_domain_count () - 1], at least 1) worker
    domains.
    @raise Registers.Run_coarse.Not_atomic_cells on weak cells. *)

val find_violation_parallel :
  ?domains:int ->
  init:'v ->
  ('c, 'v) Registers.Vm.built ->
  'v Registers.Vm.process list ->
  'v violation option
(** As {!find_violation}; [executions_checked] reports the global
    number of executions checked when the violation was found (the
    parallel visit order is not the sequential one).
    @raise Registers.Run_coarse.Not_atomic_cells on weak cells. *)
