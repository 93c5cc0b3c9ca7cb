module Tagged = Registers.Tagged

type payload = int Tagged.t

type op =
  | Read_k of { key : int }
  | Write_k of { key : int; value : int }
  | Txn_k of { writes : (int * int) list }
  | Snap_k of { keys : int list }

type msg =
  | Hello of { proc : int }
  | Req of { seq : int; op : op }
  | Resp of { seq : int; result : int option }
  | Query of { rid : int; reg : int }
  | Query_reply of { rid : int; reg : int; ts : int; pl : payload }
  | Store of { rid : int; reg : int; ts : int; pl : payload }
  | Store_ack of { rid : int; reg : int }
  | Batch of msg list
  | Bye
  | Stats_req of { rid : int }
  | Stats_reply of { rid : int; stats : (string * int) list }
  | Store2 of { lid : int; seq : int; reg : int; pl : payload }
  | Ack2 of { lid : int; seq : int }
  | Query2 of { lid : int; seq : int; reg : int }
  | Query2_reply of { lid : int; seq : int; pl : payload }
  | Engine_hello of { engine : int }
  | Resp_snap of { seq : int; values : int list }
  | Reconfig of { rid : int; key : int; to_shard : int; epoch : int }
  | Reconfig_ack of { rid : int; epoch : int; ok : bool }
  | Epoch_req of { rid : int }
  | Epoch_reply of { rid : int; epoch : int; shards : int }
  | Nack of { seq : int }

let max_frame = 16 * 1024 * 1024
let max_batch_depth = 8
let max_batch = 65536
let max_stat_name = 1024
let max_stats = 4096
let max_lid = 256
let max_link_seq = 1 lsl 32
let max_txn = 1024

(* Encoded body size, computed without allocating the encoding — the
   engine byte accounting calls this on every send, and the encoder
   sizes its one [Bytes] with it and writes every [Batch] item's length
   prefix from it, then checks that it ended exactly there. *)
let rec encoded_size = function
  | Hello _ -> 9
  | Req { op = Read_k _; _ } -> 18
  | Req { op = Write_k _; _ } -> 26
  | Req { op = Txn_k { writes }; _ } -> 18 + (16 * List.length writes)
  | Req { op = Snap_k { keys }; _ } -> 18 + (8 * List.length keys)
  | Resp { result = None; _ } -> 10
  | Resp { result = Some _; _ } -> 18
  | Query _ -> 17
  | Query_reply _ -> 34
  | Store _ -> 34
  | Store_ack _ -> 17
  | Batch msgs ->
    List.fold_left (fun acc m -> acc + 8 + encoded_size m) 9 msgs
  | Bye -> 1
  | Stats_req _ -> 9
  | Stats_reply { stats; _ } ->
    List.fold_left
      (fun acc (name, _) -> acc + 8 + String.length name + 8)
      17 stats
  | Store2 _ -> 23
  | Ack2 _ -> 6
  | Query2 _ -> 14
  | Query2_reply _ -> 15
  | Engine_hello _ -> 2
  | Resp_snap { values; _ } -> 17 + (8 * List.length values)
  | Reconfig _ -> 33
  | Reconfig_ack _ -> 18
  | Epoch_req _ -> 9
  | Epoch_reply _ -> 25
  | Nack _ -> 9

(* The encoder writes in place into one [Bytes] of exactly
   [encoded_size] bytes: each [put_*] writes at [pos] and returns the
   position after what it wrote.  Every write is bounds-checked. *)
let put_byte b pos c =
  Bytes.set b pos (Char.unsafe_chr c);
  pos + 1

let put_int b pos n =
  Bytes.set_int64_le b pos (Int64.of_int n);
  pos + 8

let put_bool b pos v = put_byte b pos (if v then 1 else 0)

let put_string b pos s =
  let n = String.length s in
  let pos = put_int b pos n in
  Bytes.blit_string s 0 b pos n;
  pos + n

let put_payload b pos pl =
  put_bool b (put_int b pos (Tagged.v pl)) (Tagged.tag pl)

(* The two-bit sublanguage keeps its link header deliberately small: a
   one-byte link id and a four-byte sequence number.  Out-of-range
   values would not survive a round-trip, so the encoder refuses them
   outright instead of truncating silently. *)
let put_lid b pos lid =
  if lid < 0 || lid >= max_lid then
    invalid_arg (Fmt.str "Wire.encode: link id %d out of range" lid);
  put_byte b pos lid

let put_seq b pos seq =
  if seq < 0 || seq >= max_link_seq then
    invalid_arg (Fmt.str "Wire.encode: link seq %d out of range" seq);
  Bytes.set_int32_le b pos (Int32.of_int seq);
  pos + 4

(* Multi-key ops are bounded like link fields: an over-long key list
   would be rejected by every receiver, so refuse it at the encoder. *)
let put_txn_count b pos n =
  if n > max_txn then
    invalid_arg (Fmt.str "Wire.encode: %d keys exceed max_txn (%d)" n max_txn);
  put_int b pos n

(* Reconfiguration fields are indices and epochs: never negative by
   construction, and a negative value on the wire could only be a
   forgery or corruption — refuse at both ends. *)
let put_nonneg b pos what n =
  if n < 0 then invalid_arg (Fmt.str "Wire.encode: negative %s %d" what n);
  put_int b pos n

let rec put_ints b pos = function
  | [] -> pos
  | v :: rest -> put_ints b (put_int b pos v) rest

let rec put_pairs b pos = function
  | [] -> pos
  | (key, value) :: rest ->
    put_pairs b (put_int b (put_int b pos key) value) rest

let rec put_stats b pos = function
  | [] -> pos
  | (name, v) :: rest -> put_stats b (put_int b (put_string b pos name) v) rest

(* The encoder's own consistency check: a body must end exactly where
   [encoded_size] said it would (a [Batch] item's length prefix is that
   size, written before the item). *)
let check_end what ~expected pos =
  if pos <> expected then
    failwith
      (Fmt.str "Wire.%s: wrote %d bytes where encoded_size promised %d" what
         pos expected)

let rec put_msg b pos = function
  | Hello { proc } -> put_int b (put_byte b pos 0) proc
  | Req { seq; op } ->
    let pos = put_int b (put_byte b pos 1) seq in
    (match op with
     | Read_k { key } -> put_int b (put_byte b pos 2) key
     | Write_k { key; value } ->
       put_int b (put_int b (put_byte b pos 3) key) value
     | Txn_k { writes } ->
       let pos = put_txn_count b (put_byte b pos 4) (List.length writes) in
       put_pairs b pos writes
     | Snap_k { keys } ->
       let pos = put_txn_count b (put_byte b pos 5) (List.length keys) in
       put_ints b pos keys)
  | Resp { seq; result } ->
    let pos = put_int b (put_byte b pos 2) seq in
    (match result with
     | None -> put_byte b pos 0
     | Some v -> put_int b (put_byte b pos 1) v)
  | Query { rid; reg } -> put_int b (put_int b (put_byte b pos 3) rid) reg
  | Query_reply { rid; reg; ts; pl } ->
    let pos = put_int b (put_int b (put_byte b pos 4) rid) reg in
    put_payload b (put_int b pos ts) pl
  | Store { rid; reg; ts; pl } ->
    let pos = put_int b (put_int b (put_byte b pos 5) rid) reg in
    put_payload b (put_int b pos ts) pl
  | Store_ack { rid; reg } -> put_int b (put_int b (put_byte b pos 6) rid) reg
  | Batch msgs ->
    let pos = put_int b (put_byte b pos 7) (List.length msgs) in
    put_items b pos msgs
  | Bye -> put_byte b pos 8
  | Stats_req { rid } -> put_int b (put_byte b pos 9) rid
  | Stats_reply { rid; stats } ->
    let pos = put_int b (put_byte b pos 10) rid in
    put_stats b (put_int b pos (List.length stats)) stats
  | Store2 { lid; seq; reg; pl } ->
    let pos = put_seq b (put_lid b (put_byte b pos 11) lid) seq in
    put_payload b (put_int b pos reg) pl
  | Ack2 { lid; seq } -> put_seq b (put_lid b (put_byte b pos 12) lid) seq
  | Query2 { lid; seq; reg } ->
    put_int b (put_seq b (put_lid b (put_byte b pos 13) lid) seq) reg
  | Query2_reply { lid; seq; pl } ->
    put_payload b (put_seq b (put_lid b (put_byte b pos 14) lid) seq) pl
  | Engine_hello { engine } ->
    if engine < 0 || engine > 255 then
      invalid_arg (Fmt.str "Wire.encode: engine code %d out of range" engine);
    put_byte b (put_byte b pos 15) engine
  | Resp_snap { seq; values } ->
    let pos = put_int b (put_byte b pos 16) seq in
    put_ints b (put_txn_count b pos (List.length values)) values
  | Reconfig { rid; key; to_shard; epoch } ->
    let pos = put_int b (put_byte b pos 17) rid in
    let pos = put_nonneg b pos "key" key in
    put_nonneg b (put_nonneg b pos "shard" to_shard) "epoch" epoch
  | Reconfig_ack { rid; epoch; ok } ->
    let pos = put_int b (put_byte b pos 18) rid in
    put_bool b (put_nonneg b pos "epoch" epoch) ok
  | Epoch_req { rid } -> put_int b (put_byte b pos 19) rid
  | Epoch_reply { rid; epoch; shards } ->
    let pos = put_int b (put_byte b pos 20) rid in
    put_nonneg b (put_nonneg b pos "epoch" epoch) "shards" shards
  | Nack { seq } -> put_int b (put_byte b pos 21) seq

(* Each item is prefixed by its length, written from [encoded_size]
   before the item itself, with no sub-buffer. *)
and put_items b pos = function
  | [] -> pos
  | m :: rest ->
    let n = encoded_size m in
    let start = put_int b pos n in
    let stop = put_msg b start m in
    check_end "encode (batch item)" ~expected:n (stop - start);
    put_items b stop rest

let encode m =
  let n = encoded_size m in
  let b = Bytes.create n in
  check_end "encode" ~expected:n (put_msg b 0 m);
  Bytes.unsafe_to_string b

(* The decoder reads in place through a cursor over [buf.(pos..stop)]:
   top-level readers, no closures, and an out-of-window read is the
   [Malformed "truncated"] error, never a read of the bytes around it.
   A connection keeps one cursor and re-points it at each frame. *)
type reader = { mutable buf : Bytes.t; mutable pos : int; mutable stop : int }

exception Malformed of string

let need c n = if c.pos + n > c.stop then raise (Malformed "truncated")

let get_int c =
  need c 8;
  let v = Int64.to_int (Bytes.get_int64_le c.buf c.pos) in
  c.pos <- c.pos + 8;
  v

let get_byte c =
  need c 1;
  let v = Char.code (Bytes.get c.buf c.pos) in
  c.pos <- c.pos + 1;
  v

let get_payload c =
  let v = get_int c in
  let t = get_byte c <> 0 in
  Tagged.make v t

let get_seq32 c =
  need c 4;
  let v = Int32.to_int (Bytes.get_int32_le c.buf c.pos) land 0xFFFFFFFF in
  c.pos <- c.pos + 4;
  v

(* stat names are copied out: a decoded message shares no storage with
   the buffer it was read from *)
let get_string c =
  let len = get_int c in
  if len < 0 || len > max_stat_name then raise (Malformed "bad string length");
  need c len;
  let s = Bytes.sub_string c.buf c.pos len in
  c.pos <- c.pos + len;
  s

let get_nonneg c what =
  let v = get_int c in
  if v < 0 then raise (Malformed ("negative " ^ what));
  v

(* List fields by direct recursion (their lengths are capped first). *)
let rec get_ints c n =
  if n = 0 then []
  else
    let v = get_int c in
    v :: get_ints c (n - 1)

let rec get_pairs c n =
  if n = 0 then []
  else
    let key = get_int c in
    let value = get_int c in
    (key, value) :: get_pairs c (n - 1)

let rec get_stats c n =
  if n = 0 then []
  else
    let name = get_string c in
    let v = get_int c in
    (name, v) :: get_stats c (n - 1)

let rec get_msg c depth =
  match get_byte c with
  | 0 -> Hello { proc = get_int c }
  | 1 ->
    let seq = get_int c in
    (match get_byte c with
     | 2 -> Req { seq; op = Read_k { key = get_int c } }
     | 3 ->
       let key = get_int c in
       Req { seq; op = Write_k { key; value = get_int c } }
     | 4 ->
       let n = get_int c in
       if n < 0 || n > max_txn then raise (Malformed "bad txn size");
       Req { seq; op = Txn_k { writes = get_pairs c n } }
     | 5 ->
       let n = get_int c in
       if n < 0 || n > max_txn then raise (Malformed "bad snapshot size");
       Req { seq; op = Snap_k { keys = get_ints c n } }
     | _ -> raise (Malformed "bad op kind"))
  | 2 ->
    let seq = get_int c in
    (match get_byte c with
     | 0 -> Resp { seq; result = None }
     | 1 -> Resp { seq; result = Some (get_int c) }
     | _ -> raise (Malformed "bad result kind"))
  | 3 ->
    let rid = get_int c in
    Query { rid; reg = get_int c }
  | 4 ->
    let rid = get_int c in
    let reg = get_int c in
    let ts = get_int c in
    Query_reply { rid; reg; ts; pl = get_payload c }
  | 5 ->
    let rid = get_int c in
    let reg = get_int c in
    let ts = get_int c in
    Store { rid; reg; ts; pl = get_payload c }
  | 6 ->
    let rid = get_int c in
    Store_ack { rid; reg = get_int c }
  | 7 ->
    (* cap the nesting depth: an adversarial frame must not be able
       to recurse the decoder arbitrarily deep *)
    if depth >= max_batch_depth then raise (Malformed "batch nested too deep");
    let n = get_int c in
    if n < 0 || n > max_batch then raise (Malformed "bad batch size");
    Batch (get_items c (depth + 1) n)
  | 8 -> Bye
  | 9 -> Stats_req { rid = get_int c }
  | 10 ->
    let rid = get_int c in
    let n = get_int c in
    if n < 0 || n > max_stats then raise (Malformed "bad stats size");
    Stats_reply { rid; stats = get_stats c n }
  | 11 ->
    let lid = get_byte c in
    let seq = get_seq32 c in
    let reg = get_int c in
    Store2 { lid; seq; reg; pl = get_payload c }
  | 12 ->
    let lid = get_byte c in
    Ack2 { lid; seq = get_seq32 c }
  | 13 ->
    let lid = get_byte c in
    let seq = get_seq32 c in
    Query2 { lid; seq; reg = get_int c }
  | 14 ->
    let lid = get_byte c in
    let seq = get_seq32 c in
    Query2_reply { lid; seq; pl = get_payload c }
  | 15 -> Engine_hello { engine = get_byte c }
  | 16 ->
    let seq = get_int c in
    let n = get_int c in
    if n < 0 || n > max_txn then raise (Malformed "bad snapshot size");
    Resp_snap { seq; values = get_ints c n }
  | 17 ->
    let rid = get_int c in
    let key = get_nonneg c "key" in
    let to_shard = get_nonneg c "shard" in
    Reconfig { rid; key; to_shard; epoch = get_nonneg c "epoch" }
  | 18 ->
    let rid = get_int c in
    let epoch = get_nonneg c "epoch" in
    (match get_byte c with
     | 0 -> Reconfig_ack { rid; epoch; ok = false }
     | 1 -> Reconfig_ack { rid; epoch; ok = true }
     | _ -> raise (Malformed "bad reconfig-ack flag"))
  | 19 -> Epoch_req { rid = get_int c }
  | 20 ->
    let rid = get_int c in
    let epoch = get_nonneg c "epoch" in
    Epoch_reply { rid; epoch; shards = get_nonneg c "shards" }
  | 21 -> Nack { seq = get_int c }
  | tag -> raise (Malformed (Fmt.str "unknown tag %d" tag))

and get_items c depth n =
  if n = 0 then []
  else begin
    let len = get_int c in
    if len < 0 then raise (Malformed "bad batch item length");
    let stop = c.pos + len in
    let m = get_msg c depth in
    if c.pos <> stop then raise (Malformed "batch item length mismatch");
    m :: get_items c depth (n - 1)
  end

let reader () = { buf = Bytes.empty; pos = 0; stop = 0 }

let read r buf ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length buf - len then
    invalid_arg "Wire.read: window outside the buffer";
  r.buf <- buf;
  r.pos <- off;
  r.stop <- off + len;
  let m = get_msg r 0 in
  if r.pos <> r.stop then raise (Malformed "trailing bytes");
  m

let decode_sub buf ~off ~len =
  match read (reader ()) buf ~off ~len with
  | m -> Ok m
  | exception Malformed e -> Error e

let decode s =
  decode_sub (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

(* Control metadata: the encoded bytes that are neither register index
   nor register payload — tags, request ids, timestamps, link headers,
   batching overhead.  This is the footprint the two-bit protocol
   shrinks: an ABD [Store] spends 17 control bytes (tag, rid, ts), the
   equivalent [Store2] spends 6 (tag, lid, 32-bit link seq). *)
let rec control_bytes m =
  let data =
    match m with
    | Hello _ | Bye | Stats_req _ | Stats_reply _ | Ack2 _ | Engine_hello _
    | Reconfig _ | Reconfig_ack _ | Epoch_req _ | Epoch_reply _ | Nack _ ->
      (* migration control frames carry no register data at all *)
      0
    | Resp { result = None; _ } -> 0
    | Req { op = Read_k _; _ } | Resp { result = Some _; _ } -> 8
    | Req { op = Write_k _; _ } -> 16
    | Req { op = Txn_k { writes }; _ } -> 16 * List.length writes
    | Req { op = Snap_k { keys }; _ } -> 8 * List.length keys
    | Resp_snap { values; _ } -> 8 * List.length values
    | Query _ | Store_ack _ | Query2 _ -> 8
    | Query_reply _ | Store _ | Store2 _ -> 17
    | Query2_reply _ -> 9
    | Batch msgs ->
      List.fold_left
        (fun acc sub -> acc + encoded_size sub - control_bytes sub)
        0 msgs
  in
  encoded_size m - data

let header_size = 8

let write_frame b ~pos ~src ~size m =
  Bytes.set_int32_le b pos (Int32.of_int size);
  Bytes.set_int32_le b (pos + 4) (Int32.of_int src);
  let body = pos + header_size in
  check_end "frame" ~expected:size (put_msg b body m - body)

(* The size is known before anything is written, so an oversized
   message is refused before its frame is allocated (the refusal
   builds only its message). *)
let frame ~src m =
  let n = encoded_size m in
  (* the receiver enforces [max_frame] on read; enforcing it here too
     turns an oversized message into a clean error at the sender
     instead of a length that the receiver rejects — and keeps the
     32-bit header length field from ever silently truncating *)
  if n > max_frame then
    invalid_arg
      ("Wire.frame: " ^ string_of_int n ^ "-byte message exceeds max_frame ("
     ^ string_of_int max_frame ^ ")");
  let b = Bytes.create (header_size + n) in
  write_frame b ~pos:0 ~src ~size:n m;
  b

let parse_header b =
  (Int32.to_int (Bytes.get_int32_le b 0), Int32.to_int (Bytes.get_int32_le b 4))

let pp_payload ppf pl = Registers.Tagged.pp Fmt.int ppf pl

let rec pp ppf = function
  | Hello { proc } -> Fmt.pf ppf "hello(proc=%d)" proc
  | Req { seq; op = Read_k { key } } -> Fmt.pf ppf "req#%d read[%d]" seq key
  | Req { seq; op = Write_k { key; value } } ->
    Fmt.pf ppf "req#%d write[%d](%d)" seq key value
  | Req { seq; op = Txn_k { writes } } ->
    Fmt.pf ppf "req#%d txn{%a}" seq
      Fmt.(list ~sep:(any ",") (pair ~sep:(any "=") int int))
      writes
  | Req { seq; op = Snap_k { keys } } ->
    Fmt.pf ppf "req#%d snap{%a}" seq Fmt.(list ~sep:(any ",") int) keys
  | Resp { seq; result = Some v } -> Fmt.pf ppf "resp#%d %d" seq v
  | Resp { seq; result = None } -> Fmt.pf ppf "resp#%d ack" seq
  | Query { rid; reg } -> Fmt.pf ppf "query#%d reg%d" rid reg
  | Query_reply { rid; reg; ts; pl } ->
    Fmt.pf ppf "query-reply#%d reg%d ts=%d %a" rid reg ts pp_payload pl
  | Store { rid; reg; ts; pl } ->
    Fmt.pf ppf "store#%d reg%d ts=%d %a" rid reg ts pp_payload pl
  | Store_ack { rid; reg } -> Fmt.pf ppf "store-ack#%d reg%d" rid reg
  | Batch msgs ->
    Fmt.pf ppf "batch[%a]" Fmt.(list ~sep:(any "; ") pp) msgs
  | Bye -> Fmt.pf ppf "bye"
  | Stats_req { rid } -> Fmt.pf ppf "stats-req#%d" rid
  | Stats_reply { rid; stats } ->
    Fmt.pf ppf "stats-reply#%d (%d entries)" rid (List.length stats)
  | Store2 { lid; seq; reg; pl } ->
    Fmt.pf ppf "store2@%d.%d reg%d %a" lid seq reg pp_payload pl
  | Ack2 { lid; seq } -> Fmt.pf ppf "ack2@%d.%d" lid seq
  | Query2 { lid; seq; reg } -> Fmt.pf ppf "query2@%d.%d reg%d" lid seq reg
  | Query2_reply { lid; seq; pl } ->
    Fmt.pf ppf "query2-reply@%d.%d %a" lid seq pp_payload pl
  | Engine_hello { engine } -> Fmt.pf ppf "engine-hello(%d)" engine
  | Resp_snap { seq; values } ->
    Fmt.pf ppf "resp-snap#%d {%a}" seq Fmt.(list ~sep:(any ",") int) values
  | Reconfig { rid; key; to_shard; epoch } ->
    Fmt.pf ppf "reconfig#%d key%d->shard%d@%d" rid key to_shard epoch
  | Reconfig_ack { rid; epoch; ok } ->
    Fmt.pf ppf "reconfig-ack#%d epoch=%d %s" rid epoch
      (if ok then "ok" else "nack")
  | Epoch_req { rid } -> Fmt.pf ppf "epoch-req#%d" rid
  | Epoch_reply { rid; epoch; shards } ->
    Fmt.pf ppf "epoch-reply#%d epoch=%d shards=%d" rid epoch shards
  | Nack { seq } -> Fmt.pf ppf "nack#%d" seq
