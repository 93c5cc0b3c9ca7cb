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
    - superseded writes are forgotten, and a quiescent monitor folds
      its graph away (below), so memory follows the concurrency, not
      the history's length.

    {b Folding.}  When an event leaves every processor idle and the
    graph holding only the initial value's node and at most one write,
    the monitor folds: it keeps that write's value, node and completion
    clock, its processors' ids, its read-frontier and live obligation
    rows as (node, number) pairs, and a few counters — eleven ints plus
    one per processor and two per row.  On a key with three processors
    that array is about twenty words, and the whole folded key (the
    monitor record, its memory of the write's value and that array)
    about 35 words reachable, where a key with a working graph holds
    about 180.  Its graph
    goes on a stack of spare graphs, one per domain, and the next event
    of any folded monitor on that domain takes one and rebuilds the
    state from those words.  Folding prunes nothing and changes no
    verdict; once the domain's stack holds a spare, a fold and the
    unfold that follows allocate nothing.  {!resident} tells the two
    states apart.

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

val resident : 'v t -> bool
(** Whether the monitor holds a working graph: from its first event
    until it folds, and again from the next event.  A monitor that
    latched a violation keeps its graph. *)

val stats : 'v t -> int * int
(** (nodes, edges) of the live constraint graph, the initial value's
    node included and its implicit edges to every write excluded — for
    tests and reporting. *)
