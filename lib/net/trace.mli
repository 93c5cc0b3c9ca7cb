(** A typed, append-only event log of a simulated run.

    {!Sim_net} appends its transport events and the server appends
    operation invoke/respond marks; a record holds the values it is
    about (the message sent or delivered, the cause of a drop), and
    {!dump} is the one place that turns them into text.  Timestamps
    are {!Sim_net}'s virtual time.  The log keeps every event from
    {!create} on: it is sized by the run, not by a capacity.

    A trace dumps as JSONL (one JSON object per line) and the
    operation events can be parsed back out of a dump — offline replay
    of a served history through the atomicity checkers
    ([bin/service.exe replay]). *)

(** Why the simulator lost a frame. *)
type drop =
  | Dead  (** the destination had crashed *)
  | Partition  (** the link crossed a partition's cut *)
  | Loss  (** fault injection dropped it *)
  | No_handler  (** the destination had no handler registered *)

type kind =
  | Send of { src : int; dst : int; msg : Wire.msg }
  | Deliver of { src : int; dst : int; msg : Wire.msg }
  | Drop of { src : int; dst : int; reason : drop }
  | Timer_fire of { node : int }
  | Invoke of { key : int; proc : int; op : int Histories.Event.op }
      (** Operation invocation on the register named [key] (0 for
          every op of a one-key service). *)
  | Respond of { key : int; proc : int; result : int option }
  | Note of string

type event = { time : float; kind : kind }

type t

val create : unit -> t
(** An empty log. *)

val record : t -> time:float -> kind -> unit
(** Append one event; mutex-protected, so the cores of a multi-domain
    {!Server_pool} may share one log. *)

val recorded : t -> int
(** Events recorded so far: the log's length. *)

val events : t -> event list
(** Every recorded event, oldest first. *)

val dump : t -> string -> unit
(** Write the log to a file as JSONL: a message prints as {!Wire.pp}
    formats it, a drop's cause as ["dead"], ["partition"], ["loss"] or
    ["no-handler"]. *)

val keyed_history_of_file : string -> (int * int Histories.Event.t) list
(** Parse a dump back into keyed operation events (non-operation lines
    and unparseable lines are skipped); dumps from before the keyspace
    carry no [key] field and parse as key 0. *)

val note_of_line : string -> string option
(** The text of one dumped [Note] line, [None] for any other line.  The
    text ends at its first quote: note texts meant to be read back keep
    to characters {!dump} does not escape. *)
