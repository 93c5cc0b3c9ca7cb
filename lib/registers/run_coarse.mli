(** Randomized executions of protocols over {e atomic} cells, at the
    granularity of one scheduler step per primitive access.

    Because the cells are atomic, every execution of the real system is
    equivalent to one in which each primitive access happens at a single
    instant (its linearization point, the paper's *-action), with the
    simulated operations' request glued to their first access and the
    acknowledgment to their last.  Checking these {e coarse} executions
    is sound and complete for safety: the glued history carries at
    least the precedence constraints of any ungluing, so a protocol
    atomic here is atomic in general, and any violation found is a real
    violation. *)

exception Not_atomic_cells
(** Raised when the built register uses [Safe] or [Regular] cells;
    use {!Run_fine} for those. *)

val run :
  ?crash:(Histories.Event.proc * int) list ->
  ?max_steps:int ->
  seed:int ->
  ('c, 'v) Vm.built ->
  'v Vm.process list ->
  ('c, 'v) Vm.trace_event list
(** Run all processes' scripts to completion under a uniformly random
    fair scheduler.  [crash p k] kills processor [p] immediately after
    its [k]-th primitive access (counted from 1 across its whole
    script); [crash p 0] kills it before it accesses anything.  Crashed
    operations stay pending: no acknowledgment is emitted. *)

val run_scheduled :
  schedule:Histories.Event.proc list ->
  ('c, 'v) Vm.built ->
  'v Vm.process list ->
  ('c, 'v) Vm.trace_event list
(** Deterministic replay: each schedule entry lets the named processor
    perform exactly one primitive access (starting its next operation
    if idle).  Used for the paper's hand-crafted scenarios (slow
    writer, slow reader, Figure 5).
    @raise Invalid_argument if the named processor cannot take a step. *)

(** {1 The coarse machine}

    The glued step itself, written once: {!run} and {!run_scheduled}
    drive it through their schedulers, and the exhaustive explorer in
    the [modelcheck] library drives it depth first, backtracking with
    {!undo}. *)

type ('c, 'v) machine
(** The cells, each processor's state and the crash budget. *)

type ('c, 'v) undo
(** What one {!step} changed: the processor's state and the cell it
    wrote, if any. *)

val machine :
  ?crash:(Histories.Event.proc * int) list ->
  ('c, 'v) Vm.built ->
  'v Vm.process list ->
  ('c, 'v) machine
(** Cells at their initial values, every processor idle at the start
    of its script; [crash] as in {!run}.
    @raise Not_atomic_cells on [Safe] or [Regular] cells. *)

val size : ('c, 'v) machine -> int
(** Number of processors; they are indexed [0 .. size - 1] in the order
    of the process list. *)

val runnable : ('c, 'v) machine -> int -> bool
(** Processor [i] has not crashed and has an operation to start or
    finish. *)

val step :
  ('c, 'v) machine -> int -> ('c, 'v) Vm.trace_event list * ('c, 'v) undo
(** One glued step of processor [i]: start its next operation if idle,
    perform one primitive access, acknowledge the operation if that was
    its last access.  Returns the step's events, newest first, and the
    undo that takes the machine back to before the step.
    @raise Invalid_argument if [i] is not {!runnable}. *)

val undo : ('c, 'v) machine -> ('c, 'v) undo -> unit
(** Revert a step.  Undos must be applied newest first. *)

val cells_after : ('c, 'v) Vm.built -> ('c, 'v) Vm.trace_event list -> 'c array
(** Final cell contents implied by a trace (replayed from the
    primitive writes). *)
