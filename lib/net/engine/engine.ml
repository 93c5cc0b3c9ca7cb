(* The engine vocabulary: what the sharded service and its callers
   share about a replication protocol, with no engine code in it.

   An engine owns the client half of one replication protocol for one
   shard: it turns [read]/[write] on global register indices into
   messages to the replica set, consumes the replies routed back to it,
   and drives retransmission.  There are two, {!Quorum} (ABD) and
   {!Engine_twobit}; {!Registry} holds one per shard as a two-case
   value and dispatches on it.  A service instance picks one [kind] at
   creation (shards stay engine-homogeneous) — see DESIGN_NET.md §10. *)

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
