(** A bounded ring-buffer event trace for the service.

    Both transports (and the server, for operation invoke/respond
    marks) append events; the buffer keeps the most recent [capacity]
    of them, so tracing a long-lived server costs O(capacity) memory
    and an O(1) mutex-protected write per event.  Timestamps are
    whatever the recording transport's clock says: virtual time under
    {!Sim_net}, wall-clock seconds under {!Socket_net}.

    A trace dumps as JSONL (one JSON object per line) and the
    operation events can be parsed back out of a dump — offline replay
    of a served history through the atomicity checkers
    ([bin/service.exe replay]).  Mind the window: replay needs every
    [invoke]/[respond] of the history, so size [capacity] to the run
    (a ring that wrapped mid-operation yields a history that is not
    input-correct). *)

type kind =
  | Send of { src : int; dst : int; info : string }
  | Deliver of { src : int; dst : int; info : string }
  | Drop of { src : int; dst : int; reason : string }
  | Timer_fire of { node : int }
  | Invoke of { key : int; proc : int; op : int Histories.Event.op }
      (** Operation invocation on the register named [key] (0 for the
          legacy single-register service). *)
  | Respond of { key : int; proc : int; result : int option }
  | Note of string

type event = { time : float; kind : kind }

type t

val create : ?capacity:int -> unit -> t
(** [capacity] defaults to 4096 events. *)

val record : t -> time:float -> kind -> unit

val recorded : t -> int
(** Total events recorded over the trace's lifetime. *)

val overwritten : t -> int
(** Events lost to ring wrap-around ([recorded - capacity], floored
    at 0) — nonzero means the dump is a suffix window, not the run. *)

val events : t -> event list
(** The retained window, oldest first. *)

val dump : t -> string -> unit
(** Write the window to a file as JSONL. *)

val keyed_history : t -> (int * int Histories.Event.t) list
(** The operation events ([Invoke]/[Respond]) of the retained window,
    each tagged with the register id it addressed — group by key
    before checking atomicity (each key is an independent register);
    [List.map snd] is the history of a single-key run. *)

val keyed_history_of_file : string -> (int * int Histories.Event.t) list
(** Parse a dump back into keyed operation events (non-operation lines
    and unparseable lines are skipped); dumps from before the keyspace
    carry no [key] field and parse as key 0. *)

val note_of_line : string -> string option
(** The text of one dumped [Note] line, [None] for any other line.  The
    text ends at its first quote: note texts meant to be read back keep
    to characters {!dump} does not escape. *)
