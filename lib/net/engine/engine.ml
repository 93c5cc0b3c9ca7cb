(* The engine seam: everything the sharded service needs from a
   replication protocol, as one first-class value.

   An engine owns the client half of one replication protocol for one
   shard: it turns [read]/[write] on global register indices into
   messages to the replica set, consumes the replies routed back to it,
   and drives retransmission.  The server/registry layers above and the
   replica layer below are engine-polymorphic; a service instance picks
   one [kind] at creation (shards stay engine-homogeneous) — see
   DESIGN_NET.md §10. *)

type kind =
  | Abd  (* ABD-style quorum replication: rids + timestamps (Quorum) *)
  | Twobit  (* Mostéfaoui–Raynal two-bit control metadata over FIFO
               exactly-once links (Engine_twobit) *)

let all_kinds = [ Abd; Twobit ]
let kind_name = function Abd -> "abd" | Twobit -> "twobit"

let kind_of_name = function
  | "abd" -> Some Abd
  | "twobit" -> Some Twobit
  | _ -> None

(* stable wire/artifact codes ([Engine_hello], explore dumps) *)
let kind_code = function Abd -> 0 | Twobit -> 1
let kind_of_code = function 0 -> Some Abd | 1 -> Some Twobit | _ -> None
let pp_kind ppf k = Fmt.string ppf (kind_name k)

(* An engine request.  The deliberate-bug hooks travel separately, as
   one validated {!Bug.t}. *)
type spec = { kind : kind }

let abd = { kind = Abd }
let twobit = { kind = Twobit }
let default = abd

type stats = {
  reads : int;
  writes : int;
  messages_sent : int;
  retransmissions : int;
  bytes_sent : int;  (* encoded bytes of every engine-sent message *)
  control_bytes_sent : int;  (* the Wire.control_bytes share of those *)
}

let zero_stats =
  {
    reads = 0;
    writes = 0;
    messages_sent = 0;
    retransmissions = 0;
    bytes_sent = 0;
    control_bytes_sent = 0;
  }

let add_stats a b =
  {
    reads = a.reads + b.reads;
    writes = a.writes + b.writes;
    messages_sent = a.messages_sent + b.messages_sent;
    retransmissions = a.retransmissions + b.retransmissions;
    bytes_sent = a.bytes_sent + b.bytes_sent;
    control_bytes_sent = a.control_bytes_sent + b.control_bytes_sent;
  }

module type S = sig
  type t

  val read : t -> reg:int -> k:(Wire.payload -> unit) -> unit
  val write : t -> reg:int -> value:Wire.payload -> k:(unit -> unit) -> unit

  (* the migration pair (Reconfig): [read_ts] samples a register's
     freshest (ts, payload) without a write-back; [write_at] installs a
     pair verbatim under a caller-supplied timestamp.  Engines without
     comparable timestamps (twobit) degrade: read_ts reports ts 0 and
     write_at ignores ts (its apply counter orders stores by arrival). *)
  val read_ts : t -> reg:int -> k:(int * Wire.payload -> unit) -> unit

  val write_at :
    t -> reg:int -> ts:int -> value:Wire.payload -> k:(unit -> unit) -> unit

  (* [write] that reports the timestamp it chose, synchronously — the
     dual-write leg replays it into the incoming group via [write_at] *)
  val write_ts : t -> reg:int -> value:Wire.payload -> k:(unit -> unit) -> int

  val on_message : t -> src:Transport.node -> Wire.msg -> unit
  val resend_pending : ?older_than:float -> t -> bool
  val stats : t -> stats
end

(* A packed engine: implementation module + its state, so the registry
   can hold a heterogeneous-by-type, homogeneous-by-protocol array. *)
type instance = Instance : (module S with type t = 'a) * 'a -> instance

let read (Instance ((module M), t)) ~reg ~k = M.read t ~reg ~k

let write (Instance ((module M), t)) ~reg ~value ~k =
  M.write t ~reg ~value ~k

let read_ts (Instance ((module M), t)) ~reg ~k = M.read_ts t ~reg ~k

let write_at (Instance ((module M), t)) ~reg ~ts ~value ~k =
  M.write_at t ~reg ~ts ~value ~k

let write_ts (Instance ((module M), t)) ~reg ~value ~k =
  M.write_ts t ~reg ~value ~k

let on_message (Instance ((module M), t)) ~src msg = M.on_message t ~src msg

let resend_pending ?older_than (Instance ((module M), t)) =
  M.resend_pending ?older_than t

let stats (Instance ((module M), t)) = M.stats t
