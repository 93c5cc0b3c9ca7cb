(** A readiness-driven event loop with an epoll-shaped interface.

    One loop owns a set of file descriptors and a timer queue and runs
    on a single dedicated thread ({!run}); every callback — readability,
    writability, timer expiry — executes on that
    thread, so state touched only from callbacks of one loop needs no
    locking.  That structural serialization is what {!Socket_net}'s
    epoll runtime builds its per-node handler discipline on.

    The portable backend is [Unix.select] (the OCaml standard library
    exposes neither [epoll] nor [poll]); the interface is deliberately
    epoll-shaped — registration-based, level-triggered readiness,
    writability armed only while there is pending output — so a real
    [epoll]/[kqueue] backend can slot in without touching callers.
    The fd sets this repo drives (a few dozen Unix-domain sockets per
    process) are far below [select]'s limits.

    All mutating operations ({!add_read}, {!set_write}, {!remove_fd},
    {!after}, {!stop}) are thread-safe and may be called from any
    thread, including from callbacks running on the loop itself; a
    wakeup pipe nudges a sleeping [select] whenever the interest set
    or the timer queue changes.  [after t 0. f] is how another thread
    runs [f] on the loop thread. *)

type t

val create : unit -> t
(** A fresh loop (not yet running).  Allocates the wakeup pipe.  An
    exception escaping a callback is swallowed — one broken handler
    must not tear down the transport thread, so the loop catches and
    keeps going. *)

val run : t -> unit
(** Run the loop on the calling thread until {!stop}: fire due
    timers, [select] on the current interest set,
    dispatch ready callbacks.  Returns once stopped; at most one
    {!run} may be active per loop.  The fd lists handed to [select]
    are cached and rebuilt only on the first turn after {!add_read},
    {!set_write} or {!remove_fd} changed the interest set, so a turn
    costs no allocation proportional to the number of registered fds. *)

val stop : t -> unit
(** Ask the loop to exit; idempotent, callable from any thread (the
    wakeup pipe interrupts a sleeping [select]).  Timers not yet
    fired are discarded; registered fds are left open — the owner
    closes them after joining the loop thread. *)

val add_read : t -> Unix.file_descr -> (unit -> unit) -> unit
(** Register (or replace) the readability callback of a descriptor.
    Level-triggered: the callback fires again on every turn while the
    fd stays readable, so it may return before the fd is drained (a
    socket reader stops at a short read), but it must read something
    or remove itself, or the loop spins. *)

val set_write : t -> Unix.file_descr -> (unit -> unit) option -> unit
(** Arm ([Some cb]) or disarm ([None]) the writability callback of a
    descriptor.  Writability is near-permanent on a healthy socket, so
    keep it armed only while output is actually queued — the epoll
    discipline.  Disarming an unknown fd is a no-op. *)

val remove_fd : t -> Unix.file_descr -> unit
(** Forget both callbacks of a descriptor.  Does {e not} close it.
    Close a registered fd only from the loop thread (inline in a
    callback or in an {!after} timer) after removing it, or a concurrent
    [select] may see a stale descriptor. *)

val after : t -> float -> (unit -> unit) -> unit
(** Schedule a one-shot timer [delay] seconds from now (non-negative;
    [0.] fires on the next iteration).  Timers are kept in a min-heap
    and fire on the loop thread in deadline order; a due timer fires
    before fd callbacks of the same iteration.  There is no cancel —
    layer guards (like {!Socket_net}'s endpoint-incarnation check) on
    top, which is also what a cancelling wrapper would do. *)
