(** A server core's recorded history: every event it audits, with the
    event's key and the transport time at which it was recorded.

    Events go into chunks.  The first holds 16 events and each next
    one twice its predecessor's, up to 4096; after that every chunk
    holds 4096.  So the log's memory follows its length
    (within one chunk) and growing it copies no event, where arrays
    that double keep up to twice the length and copy on each doubling.
    Appending allocates nothing but a new chunk when the last is full.

    The three views return the events in recording order, as fresh
    lists; an event is returned physically, so events a recorder shares
    (a session's [Invoke (p, Read)], say) stay shared. *)

type t

val create : unit -> t
(** An empty log. *)

val append : t -> float -> int -> int Histories.Event.t -> unit
(** [append l time key ev] records [ev] on [key] at [time]. *)

val length : t -> int
(** Events recorded. *)

val events : t -> int Histories.Event.t list
(** The events, oldest first. *)

val keyed : t -> (int * int Histories.Event.t) list
(** The events with their keys, oldest first. *)

val timed : t -> (float * int Histories.Event.t) list
(** The events with their times, oldest first. *)
