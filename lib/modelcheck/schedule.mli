(** Stateless schedule exploration with sleep-set pruning, over any
    mutable system that exposes its nondeterminism as an indexed choice
    of enabled actions.

    The client presents a {!system}: [reset] builds a fresh initial
    state, [enabled] lists the choices available in a state (as
    dependence {!key}s), [apply i] fires the [i]-th one.  States may be
    arbitrarily mutable — the explorer never needs to undo anything,
    it replays the choice-index prefix from a fresh [reset] to visit a
    sibling branch (Godefroid's stateless search).  A schedule is
    therefore just an [int list], replayable by construction.

    Pruning: two choices whose keys are {!independent} (distinct
    non-negative [node]s — i.e. handled by different processes, which
    share no state) commute, so exploring both orders is redundant.
    After fully exploring choice [a] from a state, [a] enters the
    {e sleep set} of its later siblings; a child's sleep set keeps only
    the members independent of the choice taken.  Sound for safety
    properties evaluated at leaves: every Mazurkiewicz trace retains at
    least one representative schedule. *)

type key = { node : int; tag : string }
(** Dependence key of an enabled choice.  [node] is the process whose
    state the action touches (negative = touches global state, depends
    on everything); [tag] disambiguates distinct actions with equal
    nodes (keys are compared structurally for sleep-set membership, so
    tags must be stable across replays). *)

val independent : key -> key -> bool
(** Distinct non-negative nodes. *)

type 'a system = {
  reset : unit -> 'a;  (** fresh initial state, deterministic *)
  enabled : 'a -> key list;
      (** choices available now; called exactly once on a state before
          each [apply], so it may (re)build the index → action table as
          a side effect.  Empty = leaf. *)
  apply : 'a -> int -> unit;
      (** fire the i-th choice of the preceding [enabled] *)
}

type stats = {
  schedules : int;  (** leaves visited (maximal schedules explored) *)
  transitions : int;  (** total [apply] calls, replays excluded *)
  pruned : int;  (** choices skipped by sleep sets *)
  max_depth_seen : int;
  exhausted : bool;
      (** the search ran to its end: no leaf was cut off by
          [max_depth], the schedule budget did not run out and no
          [on_leaf] stopped it, so modulo pruning the whole space was
          seen (a search stopped at its first failure is not
          exhausted) *)
}

val explore :
  ?max_schedules:int ->
  ?max_depth:int ->
  ?prune:bool ->
  'a system ->
  on_leaf:('a -> int list -> [ `Continue | `Stop ]) ->
  stats
(** Depth-first enumeration.  [on_leaf state schedule] sees every leaf
    (quiescent state or depth cut-off) with the schedule that reached
    it; returning [`Stop] aborts the search (e.g. first violation).
    Defaults: unbounded schedules, [max_depth] 1_000_000, pruning on. *)

val ddmin : test:('a list -> bool) -> 'a list -> 'a list
(** Delta-debugging list minimization: the smallest sublist this
    greedy chunk-removal finds on which [test] still holds.  [test] is
    assumed monotone-ish (classic ddmin caveat); if [test] fails on the
    input itself the input is returned unchanged. *)
