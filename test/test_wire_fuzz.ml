(* Property-based fuzzing of the wire protocol with a seeded
   [Random.State] generator: arbitrary messages (keyed ops, nested
   batches, stats tables, extreme ints) must round-trip through
   encode/decode, the decoder must be total on mutated and random
   bytes, and every documented cap must bite exactly at its
   boundary. *)

module W = Net.Wire

let tc = Helpers.tc

(* Full-range int: stitch three [Random.State.bits] calls so negative
   values, [min_int] neighbourhoods and high bits all occur. *)
let any_int rng =
  match Random.State.int rng 8 with
  | 0 -> 0
  | 1 -> max_int
  | 2 -> min_int
  | 3 -> -1
  | _ ->
    let b () = Random.State.bits rng in
    b () lor (b () lsl 30) lor (b () lsl 60)

let any_payload rng = Registers.Tagged.make (any_int rng) (Random.State.bool rng)

let any_name rng =
  let len = Random.State.int rng 24 in
  String.init len (fun _ -> Char.chr (Random.State.int rng 256))

(* Multi-key ops: the encoder caps only the key {e count} ([max_txn]),
   keys and values themselves are arbitrary ints. *)
let any_op rng =
  match Random.State.int rng 4 with
  | 0 -> W.Read_k { key = any_int rng }
  | 1 -> W.Write_k { key = any_int rng; value = any_int rng }
  | 2 ->
    let n = Random.State.int rng 8 in
    W.Txn_k { writes = List.init n (fun _ -> (any_int rng, any_int rng)) }
  | _ ->
    let n = Random.State.int rng 8 in
    W.Snap_k { keys = List.init n (fun _ -> any_int rng) }

(* Link-layer fields are range-checked by the encoder, so their
   generators stay in range (the boundary tests below cover the
   edges). *)
let any_lid rng =
  match Random.State.int rng 4 with
  | 0 -> 0
  | 1 -> W.max_lid - 1
  | _ -> Random.State.int rng W.max_lid

let any_seq rng =
  match Random.State.int rng 4 with
  | 0 -> 0
  | 1 -> W.max_link_seq - 1
  | _ ->
    (* 32 uniform bits ([Random.State.int] caps below 2^30) *)
    Random.State.bits rng lor (Random.State.int rng 4 lsl 30)

(* Reconfiguration fields (key, shard, epoch) are refused when
   negative by both encoder and decoder, so their generator stays
   non-negative (the boundary tests below cover the edges). *)
let any_nonneg rng =
  match Random.State.int rng 4 with
  | 0 -> 0
  | 1 -> max_int
  | _ -> Random.State.bits rng

(* [depth] counts enclosing batches: the decoder rejects a [Batch] tag
   at depth >= max_batch_depth, so generation stops nesting there. *)
let rec any_msg rng depth =
  let n_kinds = if depth < W.max_batch_depth then 22 else 21 in
  match Random.State.int rng n_kinds with
  | 0 -> W.Hello { proc = any_int rng }
  | 1 -> W.Req { seq = any_int rng; op = any_op rng }
  | 2 ->
    let result = if Random.State.bool rng then Some (any_int rng) else None in
    W.Resp { seq = any_int rng; result }
  | 3 -> W.Query { rid = any_int rng; reg = any_int rng }
  | 4 ->
    W.Query_reply
      { rid = any_int rng; reg = any_int rng; ts = any_int rng;
        pl = any_payload rng }
  | 5 ->
    W.Store
      { rid = any_int rng; reg = any_int rng; ts = any_int rng;
        pl = any_payload rng }
  | 6 -> W.Store_ack { rid = any_int rng; reg = any_int rng }
  | 7 -> W.Bye
  | 8 -> W.Stats_req { rid = any_int rng }
  | 9 ->
    let n = Random.State.int rng 5 in
    W.Stats_reply
      { rid = any_int rng;
        stats = List.init n (fun _ -> (any_name rng, any_int rng)) }
  | 10 ->
    W.Store2
      { lid = any_lid rng; seq = any_seq rng; reg = any_int rng;
        pl = any_payload rng }
  | 11 -> W.Ack2 { lid = any_lid rng; seq = any_seq rng }
  | 12 -> W.Query2 { lid = any_lid rng; seq = any_seq rng; reg = any_int rng }
  | 13 ->
    W.Query2_reply
      { lid = any_lid rng; seq = any_seq rng; pl = any_payload rng }
  | 14 -> W.Engine_hello { engine = Random.State.int rng 256 }
  | 15 ->
    let n = Random.State.int rng 8 in
    W.Resp_snap
      { seq = any_int rng; values = List.init n (fun _ -> any_int rng) }
  | 16 ->
    W.Reconfig
      { rid = any_int rng; key = any_nonneg rng; to_shard = any_nonneg rng;
        epoch = any_nonneg rng }
  | 17 ->
    W.Reconfig_ack
      { rid = any_int rng; epoch = any_nonneg rng;
        ok = Random.State.bool rng }
  | 18 -> W.Epoch_req { rid = any_int rng }
  | 19 ->
    W.Epoch_reply
      { rid = any_int rng; epoch = any_nonneg rng; shards = any_nonneg rng }
  | 20 -> W.Nack { seq = any_int rng }
  | _ ->
    let n = Random.State.int rng 4 in
    W.Batch (List.init n (fun _ -> any_msg rng (depth + 1)))

let fuzz_roundtrip () =
  let rng = Random.State.make [| 0xf02 |] in
  for i = 1 to 2_000 do
    let m = any_msg rng 0 in
    let s = W.encode m in
    (* the analytic size (the bench's allocation-free accounting) must
       agree with the real encoding, for every message shape *)
    if W.encoded_size m <> String.length s then
      Alcotest.failf "iteration %d: encoded_size %d <> length %d for %a" i
        (W.encoded_size m) (String.length s) W.pp m;
    if W.control_bytes m > String.length s then
      Alcotest.failf "iteration %d: control_bytes exceeds the frame for %a" i
        W.pp m;
    match W.decode s with
    | Ok m' ->
      if m' <> m then
        Alcotest.failf "iteration %d: decode (encode m) <> m for %a" i W.pp m
    | Error e ->
      Alcotest.failf "iteration %d: decode (encode m) = Error %s for %a" i e
        W.pp m
  done

let fuzz_mutations_total () =
  (* flip/insert/delete bytes of valid encodings: decode must return,
     never raise — and re-encoding any [Ok] must be stable *)
  let rng = Random.State.make [| 0xdead |] in
  for i = 1 to 2_000 do
    let s = Bytes.of_string (W.encode (any_msg rng 0)) in
    let s =
      if Bytes.length s = 0 then "\x07"
      else
        match Random.State.int rng 3 with
        | 0 ->
          let j = Random.State.int rng (Bytes.length s) in
          Bytes.set s j (Char.chr (Random.State.int rng 256));
          Bytes.to_string s
        | 1 ->
          let j = Random.State.int rng (Bytes.length s) in
          Bytes.to_string s ^ Bytes.to_string (Bytes.sub s 0 j)
        | _ ->
          let j = 1 + Random.State.int rng (Bytes.length s) in
          Bytes.to_string (Bytes.sub s 0 (Bytes.length s - j))
    in
    match W.decode s with
    | exception e ->
      Alcotest.failf "iteration %d: decode raised %s" i (Printexc.to_string e)
    | Error _ -> ()
    | Ok m -> (
      match W.decode (W.encode m) with
      | Ok m' when m' = m -> ()
      | _ -> Alcotest.failf "iteration %d: accepted mutant not stable" i)
  done

let fuzz_random_bytes_total () =
  let rng = Random.State.make [| 0xbeef |] in
  for i = 1 to 5_000 do
    let len = Random.State.int rng 64 in
    let s = String.init len (fun _ -> Char.chr (Random.State.int rng 256)) in
    match W.decode s with
    | exception e ->
      Alcotest.failf "iteration %d: decode raised %s" i (Printexc.to_string e)
    | Ok _ | Error _ -> ()
  done

(* Encoded sizes used by the boundary tests: Hello = tag + int = 9
   bytes, Bye = 1 byte, a batch adds an 8-byte length per item plus
   its own tag + count = 9 bytes. *)
let hello = W.Hello { proc = 0 }
let hello_sz = String.length (W.encode hello)
let item_sz = 8 + hello_sz

let frame_at_max_frame () =
  Alcotest.(check int) "Hello is 9 bytes" 9 hello_sz;
  (* pick n and pad with one Bye so the body lands exactly on
     max_frame: 9 + (8+1) + n*17 = 16 MiB *)
  let n = (W.max_frame - 9 - 9) / item_sz in
  Alcotest.(check int) "sizes divide exactly" 0 (W.max_frame - 9 - 9 - (n * item_sz));
  let body = W.Batch (W.Bye :: List.init n (fun _ -> hello)) in
  let exact = W.frame ~src:3 body in
  Alcotest.(check int) "body exactly max_frame"
    (W.max_frame + W.header_size) (Bytes.length exact);
  let len, src = W.parse_header exact in
  Alcotest.(check int) "header length" W.max_frame len;
  Alcotest.(check int) "header src" 3 src;
  (* one more item pushes the body over: the sender must refuse *)
  let over = W.Batch (W.Bye :: List.init (n + 1) (fun _ -> hello)) in
  match W.frame ~src:3 over with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "frame over max_frame accepted"

let batch_depth_boundary () =
  let rec nest d = if d = 0 then W.Bye else W.Batch [ nest (d - 1) ] in
  (match W.decode (W.encode (nest W.max_batch_depth)) with
  | Ok m ->
    Alcotest.(check bool) "max depth round-trips" true
      (m = nest W.max_batch_depth)
  | Error e -> Alcotest.failf "batch at max depth rejected: %s" e);
  match W.decode (W.encode (nest (W.max_batch_depth + 1))) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "batch beyond max depth accepted"

let stat_name_boundary () =
  let reply len =
    W.Stats_reply { rid = 1; stats = [ (String.make len 'x', 42) ] }
  in
  (match W.decode (W.encode (reply W.max_stat_name)) with
  | Ok m ->
    Alcotest.(check bool) "name at cap round-trips" true
      (m = reply W.max_stat_name)
  | Error e -> Alcotest.failf "stat name at cap rejected: %s" e);
  match W.decode (W.encode (reply (W.max_stat_name + 1))) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "stat name beyond cap accepted"

let stats_count_boundary () =
  let reply n =
    W.Stats_reply { rid = 1; stats = List.init n (fun i -> ("c", i)) }
  in
  (match W.decode (W.encode (reply W.max_stats)) with
  | Ok m ->
    Alcotest.(check bool) "stats at cap round-trip" true (m = reply W.max_stats)
  | Error e -> Alcotest.failf "stats at cap rejected: %s" e);
  match W.decode (W.encode (reply (W.max_stats + 1))) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "stats beyond cap accepted"

let batch_count_boundary () =
  let batch n = W.Batch (List.init n (fun _ -> W.Bye)) in
  (match W.decode (W.encode (batch W.max_batch)) with
  | Ok m -> Alcotest.(check bool) "batch at cap round-trips" true (m = batch W.max_batch)
  | Error e -> Alcotest.failf "batch at cap rejected: %s" e);
  match W.decode (W.encode (batch (W.max_batch + 1))) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "batch beyond cap accepted"

let link_field_boundaries () =
  let refused name m =
    match W.encode m with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted by the encoder" name
  in
  let ok name m =
    match W.decode (W.encode m) with
    | Ok m' when m' = m -> ()
    | _ -> Alcotest.failf "%s does not round-trip" name
  in
  ok "lid at cap" (W.Ack2 { lid = W.max_lid - 1; seq = 0 });
  ok "seq at cap" (W.Ack2 { lid = 0; seq = W.max_link_seq - 1 });
  ok "engine at cap" (W.Engine_hello { engine = 255 });
  refused "lid beyond cap" (W.Ack2 { lid = W.max_lid; seq = 0 });
  refused "negative lid" (W.Ack2 { lid = -1; seq = 0 });
  refused "seq beyond cap" (W.Ack2 { lid = 0; seq = W.max_link_seq });
  refused "negative seq" (W.Ack2 { lid = 0; seq = -1 });
  refused "engine beyond cap" (W.Engine_hello { engine = 256 });
  refused "negative engine" (W.Engine_hello { engine = -1 });
  refused "lid inside store2"
    (W.Store2 { lid = W.max_lid; seq = 0; reg = 0; pl = Registers.Tagged.initial 0 });
  refused "seq inside query2" (W.Query2 { lid = 0; seq = -1; reg = 0 })

let multi_key_boundary () =
  let refused name m =
    match W.encode m with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted by the encoder" name
  in
  let ok name m =
    match W.decode (W.encode m) with
    | Ok m' when m' = m -> ()
    | _ -> Alcotest.failf "%s does not round-trip" name
  in
  let txn n =
    W.Req { seq = 1; op = W.Txn_k { writes = List.init n (fun i -> (i, i)) } }
  in
  let snap n =
    W.Req { seq = 1; op = W.Snap_k { keys = List.init n Fun.id } }
  in
  let resp n = W.Resp_snap { seq = 1; values = List.init n Fun.id } in
  ok "txn at cap" (txn W.max_txn);
  ok "snapshot at cap" (snap W.max_txn);
  ok "snapshot reply at cap" (resp W.max_txn);
  refused "txn beyond cap" (txn (W.max_txn + 1));
  refused "snapshot beyond cap" (snap (W.max_txn + 1));
  refused "snapshot reply beyond cap" (resp (W.max_txn + 1))

(* The encoder refuses over-cap multi-key ops, so an attacker's frame
   must be built by hand: splice an oversize (or negative) count into
   otherwise well-formed bytes and check the decoder throws it out
   rather than allocating [max_txn + 1] entries. *)
let multi_key_forged_counts () =
  let add_int b n = Buffer.add_int64_le b (Int64.of_int n) in
  let forged_txn count =
    let b = Buffer.create 64 in
    Buffer.add_char b '\001' (* Req *);
    add_int b 7 (* seq *);
    Buffer.add_char b '\004' (* Txn_k *);
    add_int b count;
    for i = 0 to 2 do
      add_int b i;
      add_int b (i * 10)
    done;
    Buffer.contents b
  in
  let forged_snap count =
    let b = Buffer.create 64 in
    Buffer.add_char b '\001' (* Req *);
    add_int b 7 (* seq *);
    Buffer.add_char b '\005' (* Snap_k *);
    add_int b count;
    for i = 0 to 2 do
      add_int b i
    done;
    Buffer.contents b
  in
  let forged_resp count =
    let b = Buffer.create 64 in
    Buffer.add_char b '\016' (* Resp_snap *);
    add_int b 7 (* seq *);
    add_int b count;
    for i = 0 to 2 do
      add_int b i
    done;
    Buffer.contents b
  in
  (* sanity: an honest count through the same hand assembly decodes *)
  (match W.decode (forged_txn 3) with
  | Ok (W.Req { op = W.Txn_k { writes }; _ }) when List.length writes = 3 -> ()
  | _ -> Alcotest.fail "hand-built txn frame with honest count rejected");
  List.iter
    (fun count ->
      let name s = Fmt.str "%s with forged count %d" s count in
      (match W.decode (forged_txn count) with
      | Error _ -> ()
      | exception e ->
        Alcotest.failf "%s: decode raised %s" (name "txn")
          (Printexc.to_string e)
      | Ok _ -> Alcotest.failf "%s accepted" (name "txn"));
      (match W.decode (forged_snap count) with
      | Error _ -> ()
      | exception e ->
        Alcotest.failf "%s: decode raised %s" (name "snapshot")
          (Printexc.to_string e)
      | Ok _ -> Alcotest.failf "%s accepted" (name "snapshot"));
      match W.decode (forged_resp count) with
      | Error _ -> ()
      | exception e ->
        Alcotest.failf "%s: decode raised %s" (name "snapshot reply")
          (Printexc.to_string e)
      | Ok _ -> Alcotest.failf "%s accepted" (name "snapshot reply"))
    [ W.max_txn + 1; -1; max_int; min_int ]

(* Reconfiguration frames: indices and epochs are non-negative by
   construction — the encoder must refuse a negative field, and
   hand-built frames with spliced negative fields (or an out-of-range
   ack flag) must be thrown out by the decoder. *)
let reconfig_field_boundaries () =
  let refused name m =
    match W.encode m with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted by the encoder" name
  in
  let ok name m =
    match W.decode (W.encode m) with
    | Ok m' when m' = m -> ()
    | _ -> Alcotest.failf "%s does not round-trip" name
  in
  ok "reconfig at zero" (W.Reconfig { rid = -5; key = 0; to_shard = 0; epoch = 0 });
  ok "reconfig at max_int"
    (W.Reconfig { rid = 1; key = max_int; to_shard = max_int; epoch = max_int });
  ok "reconfig-ack nack" (W.Reconfig_ack { rid = 1; epoch = 0; ok = false });
  ok "reconfig-ack ok" (W.Reconfig_ack { rid = 1; epoch = max_int; ok = true });
  ok "epoch-req" (W.Epoch_req { rid = min_int });
  ok "epoch-reply" (W.Epoch_reply { rid = 0; epoch = 7; shards = 4 });
  refused "negative key" (W.Reconfig { rid = 1; key = -1; to_shard = 0; epoch = 0 });
  refused "negative shard" (W.Reconfig { rid = 1; key = 0; to_shard = -2; epoch = 0 });
  refused "negative epoch in reconfig"
    (W.Reconfig { rid = 1; key = 0; to_shard = 0; epoch = min_int });
  refused "negative epoch in ack" (W.Reconfig_ack { rid = 1; epoch = -1; ok = true });
  refused "negative epoch in reply"
    (W.Epoch_reply { rid = 1; epoch = -1; shards = 1 });
  refused "negative shards in reply"
    (W.Epoch_reply { rid = 1; epoch = 0; shards = -1 })

let reconfig_forged_fields () =
  let add_int b n = Buffer.add_int64_le b (Int64.of_int n) in
  let forged_reconfig ~key ~to_shard ~epoch =
    let b = Buffer.create 64 in
    Buffer.add_char b '\017' (* Reconfig *);
    add_int b 7 (* rid *);
    add_int b key;
    add_int b to_shard;
    add_int b epoch;
    Buffer.contents b
  in
  let forged_ack ~epoch ~flag =
    let b = Buffer.create 64 in
    Buffer.add_char b '\018' (* Reconfig_ack *);
    add_int b 7 (* rid *);
    add_int b epoch;
    Buffer.add_char b (Char.chr flag);
    Buffer.contents b
  in
  let forged_reply ~epoch ~shards =
    let b = Buffer.create 64 in
    Buffer.add_char b '\020' (* Epoch_reply *);
    add_int b 7 (* rid *);
    add_int b epoch;
    add_int b shards;
    Buffer.contents b
  in
  (* sanity: honest fields through the same hand assembly decode *)
  (match W.decode (forged_reconfig ~key:3 ~to_shard:1 ~epoch:0) with
  | Ok (W.Reconfig { key = 3; to_shard = 1; epoch = 0; _ }) -> ()
  | _ -> Alcotest.fail "hand-built reconfig frame with honest fields rejected");
  (match W.decode (forged_ack ~epoch:2 ~flag:1) with
  | Ok (W.Reconfig_ack { epoch = 2; ok = true; _ }) -> ()
  | _ -> Alcotest.fail "hand-built ack frame with honest fields rejected");
  let rejected name s =
    match W.decode s with
    | Error _ -> ()
    | exception e ->
      Alcotest.failf "%s: decode raised %s" name (Printexc.to_string e)
    | Ok _ -> Alcotest.failf "%s accepted" name
  in
  List.iter
    (fun bad ->
      rejected
        (Fmt.str "reconfig with forged key %d" bad)
        (forged_reconfig ~key:bad ~to_shard:0 ~epoch:0);
      rejected
        (Fmt.str "reconfig with forged shard %d" bad)
        (forged_reconfig ~key:0 ~to_shard:bad ~epoch:0);
      rejected
        (Fmt.str "reconfig with forged epoch %d" bad)
        (forged_reconfig ~key:0 ~to_shard:0 ~epoch:bad);
      rejected
        (Fmt.str "ack with forged epoch %d" bad)
        (forged_ack ~epoch:bad ~flag:0);
      rejected
        (Fmt.str "epoch-reply with forged epoch %d" bad)
        (forged_reply ~epoch:bad ~shards:1);
      rejected
        (Fmt.str "epoch-reply with forged shards %d" bad)
        (forged_reply ~epoch:0 ~shards:bad))
    [ -1; min_int ];
  (* a flag byte that is neither 0 nor 1 is a forgery, not a bool *)
  List.iter
    (fun flag ->
      rejected (Fmt.str "ack with flag byte %d" flag) (forged_ack ~epoch:0 ~flag))
    [ 2; 255 ]

(* Golden encodings: one message of every tag, every op kind, a nested
   [Batch] and one frame header, as bytes produced by the [Buffer]-based
   codec this in-place one replaced.  The wire format is frozen: any
   difference here is a protocol change, not a refactor. *)
let pl v t = Registers.Tagged.make v t

let golden_msgs =
  [
    ( "hello", W.Hello { proc = 3 },
      "000300000000000000" );
    ( "req read_k", W.Req { seq = 3; op = W.Read_k { key = 4096 } },
      "010300000000000000020010000000000000" );
    ( "req write_k",
      W.Req { seq = 4; op = W.Write_k { key = 7; value = max_int } },
      "010400000000000000030700000000000000ffffffffffffff3f" );
    ( "req txn_k",
      W.Req { seq = 5; op = W.Txn_k { writes = [ (1, 10); (2, -20) ] } },
      "01050000000000000004020000000000000001000000000000000a0000000000"
      ^ "00000200000000000000ecffffffffffffff" );
    ( "req snap_k", W.Req { seq = 6; op = W.Snap_k { keys = [ 4; 5; 6 ] } },
      "0106000000000000000503000000000000000400000000000000050000000000"
      ^ "00000600000000000000" );
    ( "resp ack", W.Resp { seq = 7; result = None },
      "02070000000000000000" );
    ( "resp value", W.Resp { seq = 8; result = Some min_int },
      "0208000000000000000100000000000000c0" );
    ( "query", W.Query { rid = 258; reg = 17 },
      "0302010000000000001100000000000000" );
    ( "query_reply",
      W.Query_reply { rid = 259; reg = 18; ts = 1 lsl 40; pl = pl (-2) true },
      "04030100000000000012000000000000000000000000010000feffffffffffff"
      ^ "ff01" );
    ( "store", W.Store { rid = 260; reg = 19; ts = 5; pl = pl 99 false },
      "0504010000000000001300000000000000050000000000000063000000000000"
      ^ "0000" );
    ( "store_ack", W.Store_ack { rid = 261; reg = 20 },
      "0605010000000000001400000000000000" );
    ( "batch",
      W.Batch
        [ W.Query { rid = 1; reg = 2 };
          W.Batch [ W.Bye; W.Store_ack { rid = 3; reg = 4 } ];
          W.Resp { seq = 9; result = Some 1 } ],
      "0703000000000000001100000000000000030100000000000000020000000000"
      ^ "00002b0000000000000007020000000000000001000000000000000811000000"
      ^ "0000000006030000000000000004000000000000001200000000000000020900"
      ^ "000000000000010100000000000000" );
    ( "bye", W.Bye,
      "08" );
    ( "stats_req", W.Stats_req { rid = 11 },
      "090b00000000000000" );
    ( "stats_reply",
      W.Stats_reply { rid = 12; stats = [ ("frames_sent", 12); ("", -1) ] },
      "0a0c0000000000000002000000000000000b000000000000006672616d65735f"
      ^ "73656e740c000000000000000000000000000000ffffffffffffffff" );
    ( "store2",
      W.Store2
        { lid = 255; seq = W.max_link_seq - 1; reg = 21; pl = pl 7 true },
      "0bffffffffff1500000000000000070000000000000001" );
    ( "ack2", W.Ack2 { lid = 1; seq = 65536 },
      "0c0100000100" );
    ( "query2", W.Query2 { lid = 2; seq = 3; reg = 22 },
      "0d02030000001600000000000000" );
    ( "query2_reply", W.Query2_reply { lid = 4; seq = 5; pl = pl 0 false },
      "0e0405000000000000000000000000" );
    ( "engine_hello", W.Engine_hello { engine = 1 },
      "0f01" );
    ( "resp_snap", W.Resp_snap { seq = 13; values = [ -1; 0; 1 ] },
      "100d000000000000000300000000000000ffffffffffffffff00000000000000"
      ^ "000100000000000000" );
    ( "reconfig",
      W.Reconfig { rid = 14; key = 3; to_shard = 1; epoch = 2 },
      "110e000000000000000300000000000000010000000000000002000000000000"
      ^ "00" );
    ( "reconfig_ack", W.Reconfig_ack { rid = 15; epoch = 3; ok = true },
      "120f00000000000000030000000000000001" );
    ( "epoch_req", W.Epoch_req { rid = 16 },
      "131000000000000000" );
    ( "epoch_reply", W.Epoch_reply { rid = 17; epoch = 4; shards = 8 },
      "14110000000000000004000000000000000800000000000000" );
    ( "nack", W.Nack { seq = 18 },
      "151200000000000000" );
  ]

let hex s =
  String.concat ""
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (String.to_seq s)))

let golden_encodings () =
  let tags =
    List.sort_uniq compare
      (List.map (fun (_, m, _) -> (W.encode m).[0]) golden_msgs)
  in
  Alcotest.(check int) "every tag covered" 22 (List.length tags);
  List.iter
    (fun (name, m, expected) ->
      Alcotest.(check string) name expected (hex (W.encode m));
      match W.decode (W.encode m) with
      | Ok m' when m' = m -> ()
      | _ -> Alcotest.failf "%s: golden message does not round-trip" name)
    golden_msgs

(* Op tags 0 and 1 were an unkeyed read and write of key 0, retired
   for [Read_k]/[Write_k]: their old encodings must now be refused. *)
let retired_op_tags () =
  let unhex h =
    String.init (String.length h / 2) (fun i ->
        Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))
  in
  List.iter
    (fun (name, h) ->
      match W.decode (unhex h) with
      | Error "bad op kind" -> ()
      | Error e -> Alcotest.failf "%s: refused as %S, not as an op kind" name e
      | Ok m -> Alcotest.failf "%s decoded as %a" name W.pp m)
    [
      ("op tag 0 (req read)", "01010000000000000000");
      ("op tag 1 (req write)", "01020000000000000001d6ffffffffffffff");
    ]

let golden_frame () =
  Alcotest.(check string) "frame ~src:5 (query)"
    "11000000050000000302010000000000001100000000000000"
    (hex (Bytes.to_string (W.frame ~src:5 (W.Query { rid = 258; reg = 17 }))))

(* [frame] writes its body in place; it must be [encode]'s bytes
   exactly, behind a header naming their length and the source. *)
let fuzz_frame_body_is_encode () =
  let rng = Random.State.make [| 0xf0a |] in
  for i = 1 to 2_000 do
    let m = any_msg rng 0 in
    let src = Random.State.int rng 1_000_000 in
    let f = W.frame ~src m in
    let body = W.encode m in
    let n = String.length body in
    if W.parse_header f <> (n, src) then
      Alcotest.failf "iteration %d: bad frame header for %a" i W.pp m;
    if Bytes.length f <> W.header_size + n
       || Bytes.sub_string f W.header_size n <> body
    then Alcotest.failf "iteration %d: frame body <> encode for %a" i W.pp m
  done

(* [decode_sub] reads a window of a larger buffer in place: it must
   agree with [decode] of the copied-out slice, never look outside the
   window, and stay total when the window cuts a message short. *)
let fuzz_decode_sub_window () =
  let rng = Random.State.make [| 0xf0b |] in
  let junk n = Bytes.init n (fun _ -> Char.chr (Random.State.int rng 256)) in
  let decode_sub buf ~off ~len =
    match W.decode_sub buf ~off ~len with
    | r -> r
    | exception e ->
      Alcotest.failf "decode_sub raised %s" (Printexc.to_string e)
  in
  for i = 1 to 2_000 do
    let m = any_msg rng 0 in
    let body = W.encode m in
    let len = String.length body in
    let off = Random.State.int rng 32 in
    let buf = junk (off + len + Random.State.int rng 32) in
    Bytes.blit_string body 0 buf off len;
    let r = decode_sub buf ~off ~len in
    if r <> W.decode (Bytes.sub_string buf off len) then
      Alcotest.failf "iteration %d: decode_sub <> decode of the slice" i;
    if r <> Ok m then
      Alcotest.failf "iteration %d: decode_sub does not round-trip %a" i W.pp m;
    (* rewrite every byte outside the window: same answer *)
    for j = 0 to Bytes.length buf - 1 do
      if j < off || j >= off + len then
        Bytes.set buf j (Char.chr (Random.State.int rng 256))
    done;
    if decode_sub buf ~off ~len <> r then
      Alcotest.failf "iteration %d: bytes outside the window mattered" i;
    (* a window cut short is an error, even when the bytes after it
       would complete the message *)
    let cut = Random.State.int rng len in
    (match decode_sub buf ~off ~len:cut with
     | Error _ -> ()
     | Ok _ -> Alcotest.failf "iteration %d: truncated window accepted" i);
    (* and a mutated window, like a mutated string, is never an
       exception, and agrees with [decode] of its slice *)
    Bytes.set buf (off + Random.State.int rng len)
      (Char.chr (Random.State.int rng 256));
    if decode_sub buf ~off ~len <> W.decode (Bytes.sub_string buf off len) then
      Alcotest.failf "iteration %d: mutated window <> decode of the slice" i
  done;
  match W.decode_sub (Bytes.create 4) ~off:2 ~len:3 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a window outside the buffer was accepted"

(* Allocation pins.  [words f] is the minor heap words [f ()] allocates,
   less what an empty measured interval costs. *)
let words f =
  let measure f =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. w0
  in
  ignore (measure f);
  measure f -. measure (fun () -> ())

(* a [Bytes] of [n] bytes: a header word plus [n / 8 + 1] data words *)
let bytes_words n = float_of_int (2 + (n / 8))

let query_store_batch =
  W.Batch
    (List.init 32 (fun i ->
         if i mod 2 = 0 then W.Query { rid = i; reg = 2 * i }
         else
           W.Store
             { rid = i; reg = 2 * i; ts = i lsl 20;
               pl = pl (1000 + i) (i mod 4 = 1) }))

let frame_allocates_only_the_frame () =
  let f = W.frame ~src:7 query_store_batch in
  let w = words (fun () -> W.frame ~src:7 query_store_batch) in
  let bound = bytes_words (Bytes.length f) +. 2. in
  if w > bound then
    Alcotest.failf
      "frame of a 32-item batch allocated %.0f words (at most %.0f)" w bound

let decode_sub_allocates_only_the_message () =
  let f = W.frame ~src:7 query_store_batch in
  let len = Bytes.length f - W.header_size in
  (match W.decode_sub f ~off:W.header_size ~len with
   | Ok m when m = query_store_batch -> ()
   | _ -> Alcotest.fail "batch does not round-trip through decode_sub");
  let w = words (fun () -> W.decode_sub f ~off:W.header_size ~len) in
  let bound = (12. *. 32.) +. 16. in
  if w > bound then
    Alcotest.failf
      "decode_sub of a 32-item batch allocated %.0f words (at most %.0f)" w
      bound

let oversize_refused_before_encoding () =
  (* one item more than fits: [frame] must size the message and refuse
     it without encoding a byte of it.  A 16 MiB encoding would go
     straight to the major heap, so count every allocated word, not
     just the minor ones. *)
  let n = ((W.max_frame - 9) / item_sz) + 1 in
  let over = W.Batch (List.init n (fun _ -> hello)) in
  let refuse () =
    match W.frame ~src:3 over with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "frame over max_frame accepted"
  in
  let allocated f =
    let b0 = Gc.allocated_bytes () in
    f ();
    (Gc.allocated_bytes () -. b0) /. float_of_int (Sys.word_size / 8)
  in
  ignore (allocated refuse);
  let w = allocated refuse -. allocated ignore in
  if w >= 64. then
    Alcotest.failf "refusing an oversized message allocated %.0f words" w

(* The reader is [decode_sub] without the per-frame cursor and [Ok]:
   one reader, reused across every body below, accepted or not, must
   give [decode_sub]'s verdict and message on each. *)
let read_result r buf ~off ~len =
  match W.read r buf ~off ~len with
  | m -> Ok m
  | exception W.Malformed e -> Error e

(* A message's encoding, each of its truncations, and mutants made as
   [fuzz_mutations_total] makes them. *)
let bodies_of rng m =
  let s = W.encode m in
  let n = String.length s in
  let cuts = List.init n (fun j -> String.sub s 0 j) in
  let mutants =
    List.init 8 (fun _ ->
        let b = Bytes.of_string s in
        match Random.State.int rng 3 with
        | 0 ->
          Bytes.set b (Random.State.int rng n)
            (Char.chr (Random.State.int rng 256));
          Bytes.to_string b
        | 1 -> s ^ String.sub s 0 (Random.State.int rng n)
        | _ -> String.sub s 0 (n - 1 - Random.State.int rng n))
  in
  (s :: cuts) @ mutants

let reader_agrees_with_decode_sub =
  let r = W.reader () in
  Helpers.qc ~count:500 "reader: agrees with decode_sub on every body"
    QCheck2.Gen.int
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let m = any_msg rng 0 in
      List.for_all
        (fun body ->
          let off = Random.State.int rng 8 in
          let len = String.length body in
          let buf =
            Bytes.init (off + len + Random.State.int rng 8) (fun _ ->
                Char.chr (Random.State.int rng 256))
          in
          Bytes.blit_string body 0 buf off len;
          let expected = W.decode_sub buf ~off ~len in
          read_result r buf ~off ~len = expected
          && (body != W.encode m || expected = Ok m))
        (bodies_of rng m))

let reader_reused_after_reject () =
  let r = W.reader () in
  let good = W.frame ~src:1 (W.Query { rid = 5; reg = 6 }) in
  let len = Bytes.length good - W.header_size in
  (match W.read r good ~off:W.header_size ~len:(len - 1) with
   | exception W.Malformed _ -> ()
   | _ -> Alcotest.fail "a truncated body was accepted");
  let junk = Bytes.of_string "\xff\x00\x01" in
  (match W.read r junk ~off:0 ~len:3 with
   | exception W.Malformed _ -> ()
   | _ -> Alcotest.fail "an unknown tag was accepted");
  Alcotest.(check bool) "the next frame decodes" true
    (W.read r good ~off:W.header_size ~len = W.Query { rid = 5; reg = 6 })

let reader_stays_in_window () =
  let rng = Random.State.make [| 0xf0c |] in
  let r = W.reader () in
  for i = 1 to 1_000 do
    let m = any_msg rng 0 in
    let f = W.frame ~src:i m in
    let n = Bytes.length f and pre = 1 + Random.State.int rng 16 in
    let buf = Bytes.create (pre + n + 1 + Random.State.int rng 16) in
    let garble () =
      for j = 0 to Bytes.length buf - 1 do
        if j < pre || j >= pre + n then
          Bytes.set buf j (Char.chr (Random.State.int rng 256))
      done
    in
    Bytes.blit f 0 buf pre n;
    garble ();
    let off = pre + W.header_size and len = n - W.header_size in
    if W.read r buf ~off ~len <> m then
      Alcotest.failf "iteration %d: a framed body inside garbage: %a" i W.pp m;
    garble ();
    if W.read r buf ~off ~len <> m then
      Alcotest.failf "iteration %d: the bytes around the window mattered" i;
    (* a window one byte short is refused even though the byte after
       it would complete the body *)
    match W.read r buf ~off ~len:(len - 1) with
    | exception W.Malformed _ -> ()
    | _ -> Alcotest.failf "iteration %d: read past its window" i
  done

let warm_reader_query_words () =
  let f = W.frame ~src:1 (W.Query { rid = 5; reg = 6 }) in
  let len = Bytes.length f - W.header_size in
  let r = W.reader () in
  let w =
    Helpers.words_per_call ~warmup:10 ~n:10_000 (fun _ ->
        ignore (Sys.opaque_identity (W.read r f ~off:W.header_size ~len)))
  in
  if w > 3.0 then
    Alcotest.failf "a Query body through a warm reader: %.1f words (at most 3)"
      w

let write_frame_query_words () =
  let m = W.Query { rid = 5; reg = 6 } in
  let size = W.encoded_size m in
  let b = Bytes.create 64 in
  let w =
    Helpers.words_per_call ~warmup:10 ~n:10_000 (fun _ ->
        W.write_frame b ~pos:0 ~src:1 ~size m)
  in
  Alcotest.(check string) "the frame's bytes"
    (Bytes.to_string (W.frame ~src:1 m))
    (Bytes.sub_string b 0 (W.header_size + size));
  Alcotest.(check (float 0.0)) "words per Query frame written in place" 0.0 w

let suite =
  [
    tc "fuzz: random messages round-trip" fuzz_roundtrip;
    tc "fuzz: mutated encodings never raise" fuzz_mutations_total;
    tc "fuzz: random bytes never raise" fuzz_random_bytes_total;
    tc "boundary: frame at exactly max_frame" frame_at_max_frame;
    tc "boundary: batch nesting depth" batch_depth_boundary;
    tc "boundary: stat name length" stat_name_boundary;
    tc "boundary: stats table size" stats_count_boundary;
    tc "boundary: batch length" batch_count_boundary;
    tc "boundary: link-layer fields" link_field_boundaries;
    tc "boundary: multi-key op size" multi_key_boundary;
    tc "boundary: forged multi-key counts" multi_key_forged_counts;
    tc "boundary: reconfiguration fields" reconfig_field_boundaries;
    tc "boundary: forged reconfiguration fields" reconfig_forged_fields;
    tc "golden: every tag and op kind encodes byte-identically"
      golden_encodings;
    tc "golden: frame header" golden_frame;
    tc "golden: retired op tags 0 and 1 decode as malformed" retired_op_tags;
    tc "fuzz: frame body equals encode" fuzz_frame_body_is_encode;
    tc "fuzz: decode_sub inside a window" fuzz_decode_sub_window;
    tc "alloc: frame of a 32-item batch is the frame"
      frame_allocates_only_the_frame;
    tc "alloc: decode_sub of a 32-item batch is the message"
      decode_sub_allocates_only_the_message;
    tc "alloc: oversize refused before encoding"
      oversize_refused_before_encoding;
    reader_agrees_with_decode_sub;
    tc "reader: reused after a rejected body, decodes the next"
      reader_reused_after_reject;
    tc "reader: a frame inside garbage is never read past its window"
      reader_stays_in_window;
    tc "alloc: a Query body through a warm reader: <= 3 words (parent 9)"
      warm_reader_query_words;
    tc "alloc: a Query frame written in place: 0 words (parent 5)"
      write_frame_query_words;
  ]
