(** The wire protocol of the message-passing register service.

    Two sublanguages share one frame format:

    - {e client <-> server}: [Hello] opens a session, [Req]/[Resp]
      carry register operations with per-session sequence numbers (the
      sequence number lets clients pipeline and the server drop a
      duplicate; client links keep order, so the server never
      reassembles);
    - {e server <-> replica}: the ABD-style quorum messages.  [Query]
      asks a replica for its current (timestamp, tagged value) pair for
      one global real-register index; [Store] installs a pair if its
      timestamp is newer.  Both carry a request id [rid] so replies can
      be matched to the quorum phase that issued them.

    {b Keyed operations.}  The service hosts a whole keyspace of
    independent two-writer registers.  [Read_k]/[Write_k] carry the
    register id ([key]) they address (op tags 0 and 1, once an
    unkeyed read and write of key 0, are retired: they decode as
    malformed).  On the replica sublanguage a key is flattened
    into the global register index [reg = key * regs_per_key + i]
    where [i] is the paper's Reg{_0}/Reg{_1} bit (see
    {!Shard_map.global_reg}).

    [Batch] packs several messages into one frame — the hot-path
    batching used by pipelined, coalescing clients ({!Client}) and by
    the sharded server's fan-outs.

    Values on the wire are [int]s (encoded as 64-bit little-endian);
    the payload of a real register is a tagged value, the paper's
    (value, tag bit) pair.

    Everything in this module is pure (no blocking, no I/O) and
    thread-safe by virtue of sharing no mutable state; any thread may
    encode/decode concurrently.  The exceptions are the buffers a
    caller hands {!write_frame} and a {!reader}, which belong to one
    thread at a time.  See DESIGN_NET.md for the
    byte-by-byte frame layout. *)

type payload = int Registers.Tagged.t

type op =
  | Read_k of { key : int }  (** Read the register named [key]. *)
  | Write_k of { key : int; value : int }
      (** Write [value] to the register named [key]. *)
  | Txn_k of { writes : (int * int) list }
      (** Atomic multi-key transaction: write every [(key, value)] pair
          all-or-nothing — no {!Snap_k} snapshot may observe some of the
          writes without the others, even when the keys live on
          different shards (or different worker domains).  At most
          {!max_txn} writes; keys must be distinct; answered by an
          empty [Resp] ack. *)
  | Snap_k of { keys : int list }
      (** Consistent multi-key snapshot read: the returned values form
          an atomic cut of the keyspace — for any committed [Txn_k]
          they contain either all of its writes (per shared key) or
          none.  At most {!max_txn} keys; answered by {!Resp_snap} with
          the values in [keys] order. *)

type msg =
  | Hello of { proc : int }
      (** Open (or reset) a session; [proc] is the processor id the
          client plays in the register history (0 and 1 are the
          writers). *)
  | Req of { seq : int; op : op }
  | Resp of { seq : int; result : int option }
      (** [Some v] answers a read, [None] acknowledges a write. *)
  | Query of { rid : int; reg : int }
  | Query_reply of { rid : int; reg : int; ts : int; pl : payload }
  | Store of { rid : int; reg : int; ts : int; pl : payload }
  | Store_ack of { rid : int; reg : int }
  | Batch of msg list
  | Bye
  | Stats_req of { rid : int }
      (** Ask the server for its live metrics snapshot. *)
  | Stats_reply of { rid : int; stats : (string * int) list }
      (** Counter name/value pairs (see {!Metrics.wire_stats}). *)
  | Store2 of { lid : int; seq : int; reg : int; pl : payload }
      (** Two-bit engine store: no request id, no timestamp — the
          sequence number [seq] of the FIFO link [lid] (the shard
          index) both orders the frame at the replica and matches the
          {!Ack2} back to the issuing operation.  [lid] must be in
          [0, max_lid); [seq] in [0, max_link_seq). *)
  | Ack2 of { lid : int; seq : int }
      (** Acknowledges the [Store2] that carried [seq] on link [lid]. *)
  | Query2 of { lid : int; seq : int; reg : int }
      (** Two-bit engine read probe, link-sequenced like [Store2]. *)
  | Query2_reply of { lid : int; seq : int; pl : payload }
      (** Answers the [Query2] that carried [seq]: just the payload —
          the engine recovers the register from its outbox, and FIFO
          delivery replaces the timestamp comparison. *)
  | Engine_hello of { engine : int }
      (** An {!Engine.kind} code, server -> replica.  Replicas ignore
          it and the service does not send it; it stays decodable for
          senders that announce their engine. *)
  | Resp_snap of { seq : int; values : int list }
      (** Answers a [Req] carrying a {!Snap_k}: one value per requested
          key, in request order. *)
  | Reconfig of { rid : int; key : int; to_shard : int; epoch : int }
      (** Ask the server to migrate [key] to shard [to_shard].  [epoch]
          is the configuration epoch the {e requester} believes current:
          a server at a different epoch refuses (stale-epoch fencing)
          and answers with its own, letting the client retry against the
          real configuration.  All three fields are non-negative by
          construction; the codec rejects negatives at both ends. *)
  | Reconfig_ack of { rid : int; epoch : int; ok : bool }
      (** Answers [Reconfig]: [ok = true] carries the {e new} epoch the
          migration installed; [ok = false] carries the server's current
          epoch (stale requester, busy migration, or reconfiguration
          disabled on this deployment). *)
  | Epoch_req of { rid : int }
      (** Ask the server for its current configuration epoch. *)
  | Epoch_reply of { rid : int; epoch : int; shards : int }
      (** Answers [Epoch_req] with the server's epoch and shard count. *)
  | Nack of { seq : int }
      (** The server refused the [Req] that carried [seq] without
          running it: a write from a processor that holds no writer
          role, a negative key, or a structurally invalid multi-key op.
          A refused op is in no history. *)

val max_frame : int
(** Upper bound on an encoded message body (16 MiB), enforced
    symmetrically: {!frame} refuses to emit a larger body and the
    stream receivers refuse to read one. *)

val max_batch_depth : int
(** Decoder bound on [Batch] nesting; deeper frames are an [Error]
    (the encoder is not bounded — bound your producers). *)

val max_batch : int
(** Decoder bound on [Batch] length; together with {!frame} keeping
    bodies under {!max_frame}, a frame can never make the decoder
    allocate unboundedly. *)

val max_stat_name : int
(** Decoder bound on a [Stats_reply] counter-name length; longer
    strings are an [Error]. *)

val max_stats : int
(** Decoder bound on the number of [Stats_reply] entries. *)

val max_lid : int
(** Exclusive upper bound on a two-bit link id (one byte: 256), i.e.
    on the shard count a twobit service instance can address. *)

val max_link_seq : int
(** Exclusive upper bound on a two-bit link sequence number (32-bit
    field: 2{^32}). *)

val max_txn : int
(** Inclusive upper bound on the keys of one multi-key operation
    ([Txn_k] writes, [Snap_k] keys, [Resp_snap] values); enforced by
    both encoder and decoder. *)

val encode : msg -> string
(** Serialize a message body (no frame header) into one string of
    exactly {!encoded_size} bytes.  Never blocks; cost is linear in
    the message size.  The encoder does {e not} enforce
    {!max_frame} or {!max_batch_depth} — those bite at {!frame} time
    and in the receiver.
    @raise Invalid_argument if a two-bit link header field ([lid],
    [seq]) or engine code is outside its compact encoding range, or a
    multi-key op exceeds {!max_txn} keys — emitting bytes every
    receiver rejects would break the round-trip law. *)

val encoded_size : msg -> int
(** [String.length (encode m)], computed without allocating — for the
    per-send byte accounting in the engines.  Total.  Field widths are
    fixed, so it never inspects a field's value, but it does walk list
    lengths ([Batch] items, multi-key ops, [Stats_reply] entries and
    their names).  The encoder depends on it: {!encode} and {!frame}
    allocate exactly this many body bytes, write each [Batch] item's
    length prefix from it, and check that they ended exactly there. *)

val control_bytes : msg -> int
(** The control-metadata share of {!encoded_size}: everything that is
    not register index or register payload (tags, request ids,
    timestamps, link headers, batch overhead).  The quantity the
    two-bit engine minimises — see DESIGN_NET.md §10. *)

val decode : string -> (msg, string) result
(** Total inverse of {!encode} for messages within the decoder bounds
    ([decode (encode m) = Ok m]); any truncated, trailing-garbage,
    unknown-tag, over-long or over-deep input is an [Error] — never an
    exception.  Pure and non-blocking; safe to call from any thread. *)

val decode_sub : bytes -> off:int -> len:int -> (msg, string) result
(** [decode_sub buf ~off ~len] decodes the body held in
    [buf.(off) .. buf.(off + len - 1)] in place: the same result as
    [decode (Bytes.sub_string buf off len)] without the copy, and it
    never reads a byte outside the window.  The decoded message shares
    no storage with [buf] (strings are copied out), so the caller may
    reuse the buffer at once.  Allocates only the message, a
    four-word {!reader} and the [Ok].
    @raise Invalid_argument if the window does not lie inside [buf]
    (a caller bug, not a property of the bytes). *)

exception Malformed of string
(** Why {!read} refused a body (truncated, trailing bytes, unknown
    tag, a bound exceeded, ...). *)

type reader
(** A reusable decoding cursor: a stream receiver keeps one per
    connection, so a frame costs only its message. *)

val reader : unit -> reader

val read : reader -> bytes -> off:int -> len:int -> msg
(** [read r buf ~off ~len] is {!decode_sub} through [r]: the same
    message, or [Malformed] with the same reason that {!decode_sub}
    returns as [Error].  Allocates only the message.  [r] may be
    reused after either outcome.
    @raise Malformed if the window does not hold one valid body.
    @raise Invalid_argument if the window does not lie inside [buf]. *)

val write_frame : bytes -> pos:int -> src:int -> size:int -> msg -> unit
(** [write_frame b ~pos ~src ~size m] writes {!frame}'s bytes for [m]
    at [b.(pos)], where [size] is [encoded_size m]: the caller sized
    [b] (at least [pos + header_size + size] bytes) and checked [size]
    against {!max_frame}.  Allocates nothing.  On an exception the
    bytes from [pos] on are unspecified.
    @raise Invalid_argument if a field is out of its encoding range,
    as {!encode} does. *)

val frame : src:int -> msg -> bytes
(** A stream frame: an 8-byte header ([length, src] as two 32-bit
    little-endian ints) followed by the encoded message, written by
    {!write_frame} into one [Bytes] of exactly
    [header_size + encoded_size m] bytes, which is all it allocates.
    Pure and non-blocking.
    @raise Invalid_argument if the body exceeds {!max_frame} (a body
    length must never overflow the 32-bit header field, and a frame
    the receiver would reject should fail at the sender).  The size is
    checked before anything is allocated or encoded. *)

val header_size : int
(** Bytes of the frame header ([8]). *)

val parse_header : bytes -> int * int
(** [(body_length, src)] of a frame header.  The caller must supply at
    least {!header_size} bytes; the returned length is {e untrusted}
    input and must be checked against {!max_frame} before allocating. *)

val pp : msg Fmt.t
(** Human-readable one-line rendering (used by the tracing layer). *)
