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

(* The {!Metrics} counter behind each field, by kind: the engines count
   into these names, and [stats_of kind get] reads them back through
   [get] — {!Metrics.get} of the registry, or a [Stats_reply]'s pairs. *)
let stats_of kind get =
  let c abd twobit = get (match kind with Abd -> abd | Twobit -> twobit) in
  {
    reads = c "quorum_queries" "twobit_queries";
    writes = c "quorum_writes" "twobit_stores";
    messages_sent = c "quorum_msgs" "twobit_msgs";
    retransmissions = c "quorum_retransmissions" "twobit_retransmissions";
    bytes_sent = c "quorum_bytes" "twobit_bytes";
    control_bytes_sent = c "quorum_control_bytes" "twobit_control_bytes";
  }

let pp_stats ppf s =
  Fmt.pf ppf "engine: %d reads, %d writes, %d msgs, %d retransmissions, %d \
              bytes (%d control)"
    s.reads s.writes s.messages_sent s.retransmissions s.bytes_sent
    s.control_bytes_sent
