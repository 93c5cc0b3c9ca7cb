(** A tiny virtual machine for register protocols.

    Protocols are written once, as {!prog} values — straight-line
    micro-step programs over shared {e cells} — and then executed by
    several engines: the randomized model runners here
    ({!Run_coarse}, {!Run_fine}), the exhaustive explorer in the
    [modelcheck] library, and indirectly the shared-memory
    implementations, which mirror the same code on OCaml [Atomic.t].

    Cells model the paper's "real registers".  Their semantics is
    [Atomic] (the paper's hypothesis), or Lamport's weaker [Regular] /
    [Safe] models for the register-simulation tower of footnote 3.

    ['c] is the type of values held in cells; ['a] is the result type
    of a program. *)

type sem =
  | Safe
  | Regular
  | Atomic

type 'c cell_spec = {
  sem : sem;
  init : 'c;
  domain : 'c list;
      (** possible cell values; consulted only by [Safe] cells when a
          read overlaps a write (any domain value may be returned) *)
}

val atomic_cell : 'c -> 'c cell_spec
(** Atomic cell with the given initial value (empty domain — atomic
    cells never fabricate values). *)

type ('c, 'a) prog =
  | Ret of 'a
  | Read of int * ('c -> ('c, 'a) prog)
      (** read cell [i], continue with its value *)
  | Write of int * 'c * (unit -> ('c, 'a) prog)
      (** write to cell [i], continue *)

val return : 'a -> ('c, 'a) prog
val bind : ('c, 'a) prog -> ('a -> ('c, 'b) prog) -> ('c, 'b) prog
val read : int -> ('c, 'c) prog
val write : int -> 'c -> ('c, unit) prog

val steps : probe:'c -> ('c, 'a) prog -> int
(** Number of primitive accesses along the path obtained by feeding
    every read the value [probe].  Exact for protocols whose length
    does not depend on the values read (e.g. the Bloom protocol); used
    to assert wait-freedom bounds.
    @raise Invalid_argument if the count exceeds 10_000
    (the program is presumably not wait-free). *)

(** {1 Register constructions} *)

(** A constructed register: some cells plus a read and a write
    procedure per processor.  ['v] is the register's value type, which
    may differ from the cell type ['c] (e.g. an [int] register built
    from [bool] cells). *)
type ('c, 'v) built = {
  spec : 'c cell_spec array;
  read : proc:int -> ('c, 'v) prog;
  write : proc:int -> 'v -> ('c, unit) prog;
}

val subst :
  ('m, 'a) prog ->
  read:(int -> ('c, 'm) prog) ->
  write:(int -> 'm -> ('c, unit) prog) ->
  ('c, 'a) prog
(** Interpret a program written over abstract registers of value type
    ['m] by expanding each access into a program over lower-level cells
    — the composition operator of the simulation tower. *)

val stack : ('m, 'v) built -> inner:(int -> ('c, 'm) built) -> ('c, 'v) built
(** [stack outer ~inner] builds ['v] registers from ['c] cells by
    implementing each of [outer]'s cells [i] with [inner i].  Each
    [inner i] brings its own cells; they are laid out consecutively.
    [inner i] is invoked once; implementations with per-processor local
    state keep it in closures, so [stack]ed registers must be built
    fresh for every run. *)

(** {1 Workloads} *)

type 'v process = {
  proc : Histories.Event.proc;
  script : 'v Histories.Event.op list;  (** operations, run in order *)
}

val op_prog :
  ('c, 'v) built ->
  proc:Histories.Event.proc ->
  'v Histories.Event.op ->
  ('c, 'v option) prog
(** One simulated operation of [proc] as a program: a read answers
    [Some v], a write [None] — what the runners and the explorer step
    through. *)

(** One entry of the low-level trace: either a simulated-register event
    or a primitive cell access — the latter are exactly the paper's
    *-actions of the real registers, since every primitive access of
    an atomic cell takes effect at one point. *)
type ('c, 'v) trace_event =
  | Sim of 'v Histories.Event.t
  | Prim_read of Histories.Event.proc * int * 'c
  | Prim_write of Histories.Event.proc * int * 'c

val history_of_trace : ('c, 'v) trace_event list -> 'v Histories.Event.t list
(** Project away the primitive accesses. *)

val pp_trace_event :
  'c Fmt.t -> 'v Fmt.t -> ('c, 'v) trace_event Fmt.t

val prim_counts :
  ('c, 'v) trace_event list ->
  (Histories.Event.proc * 'v Histories.Event.op * int * int) list
(** Per completed simulated operation: (proc, op, #primitive reads,
    #primitive writes) — the data for the paper's access-count claims. *)
