(** Polynomial-time atomicity verification for histories in which every
    written value is distinct (and distinct from the initial value).

    With distinct values the reads-from mapping is determined by the
    values themselves, and atomicity reduces to the acyclicity of a
    constraint graph over the writes (Gibbons–Korach style):

    - [w1 -> w2] when [w1] finishes before [w2] starts (real time);
    - [w -> sigma(r)] when [w] finishes before read [r] starts and
      [r] reads from [sigma(r) <> w] (otherwise [w] would intervene
      between [sigma(r)] and [r]);
    - [sigma(r) -> w] when read [r] finishes before [w] starts;
    - [sigma(r1) -> sigma(r2)] when [r1] finishes before [r2] starts
      and they read from different writes (no new–old inversion).

    Reads of a value never written (other than the initial value) and
    self-loops (reads from the future) are immediate violations.

    The implementation is cross-validated against the brute-force
    {!Linearize} checker by property tests. *)

type 'v violation =
  | Thin_air of int  (** read op [id] returned a value never written *)
  | Duplicate_write of 'v  (** precondition failure: value written twice *)
  | Cycle of int list
      (** write op ids forming a cycle of ordering constraints;
          [-1] stands for the virtual initial write *)
  | Unknown_value of 'v
      (** reported by {!Monitor} only: a read returned a value the
          monitor does not hold — never written, or overwritten before
          the read began (see {!Monitor}'s pruning rule) *)

type 'v verdict =
  | Atomic of 'v Operation.t list  (** witness linearization *)
  | Violation of 'v violation

val check_unique : init:'v -> 'v Operation.t list -> 'v verdict
(** Decide atomicity.  Preconditions: written values pairwise distinct
    and different from [init] (violations of this are reported as
    [Duplicate_write]).  Pending reads are dropped; pending writes are
    kept when some read observed them and dropped otherwise. *)

val is_atomic : init:'v -> 'v Operation.t list -> bool

val pp_violation : 'v Fmt.t -> 'v violation Fmt.t
