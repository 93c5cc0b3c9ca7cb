(** Online atomicity monitoring for unique-value register histories.

    {!Fastcheck} decides atomicity of a complete history by building a
    constraint graph over the writes and testing it for cycles.  This
    module maintains the same constraints {e incrementally}, one event
    at a time, so that multi-million-operation histories (e.g. from
    long multicore stress runs) can be checked as they happen:

    - real-time order among writes, writes-before-reads,
      reads-before-writes and the no-new-old-inversion rule are each
      generated from a small {e frontier} of currently-maximal
      completed operations, so the number of edges is linear in the
      history length times the concurrency (not quadratic in the
      history length);
    - cycles are detected online with the Pearce–Kelly dynamic
      topological-order algorithm, so each new edge costs amortized
      far less than a full recheck;
    - superseded writes are forgotten, so memory stays bounded by the
      concurrency, not by the history's length.

    {b Pruning.}  Atomicity lets no read that begins after a write has
    been overwritten return that write.  The monitor therefore drops a
    write's node, its edges and its value once three things hold:
    - the write has left the write frontier: a write that began after
      it completed has itself completed;
    - no read that is still pending began before that happened;
    - every predecessor other than the initial value's node has
      already been dropped, so the dropped set stays closed under
      ancestors and no path between live writes is lost.

    Edges out of a dropped write are skipped later.  A read that
    returns a dropped value is reported as
    {!Fastcheck.violation.Unknown_value}, at the same event where an
    unpruned monitor would close a cycle; that verdict covers a value
    never written too.  Other verdicts are exactly an unpruned
    monitor's.

    The monitor is cross-validated against {!Fastcheck} by property
    tests: on every prefix-closed history the final verdicts agree.

    Precondition (as for {!Fastcheck}): written values are pairwise
    distinct and distinct from the initial value.  Only a value still
    live can be reported as {!Fastcheck.violation.Duplicate_write}: a
    dropped value written again is not recognised.

    {[
      let m = Monitor.create ~init:0 in
      List.iter
        (fun ev ->
          match Monitor.observe m ev with
          | Monitor.Ok_so_far -> ()
          | Monitor.Violation v ->
            Fmt.epr "not atomic: %a@." (Fastcheck.pp_violation Fmt.int) v)
        events
    ]} *)

type 'v t

type 'v verdict =
  | Ok_so_far
  | Violation of 'v Fastcheck.violation

val create : init:'v -> 'v t

val observe : 'v t -> 'v Event.t -> 'v verdict
(** Feed the next event.  Once a violation is reported the monitor
    stays in that state.  Events must form an input-correct sequence;
    improper sequences raise [Invalid_argument]. *)

val observe_all : 'v t -> 'v Event.t list -> 'v verdict

val verdict : 'v t -> 'v verdict

val stats : 'v t -> int * int
(** (nodes, edges) of the live constraint graph, the initial value's
    node included and its implicit edges to every write excluded — for
    tests and reporting. *)
