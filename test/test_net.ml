(* The message-passing service: wire round-trips, replica semantics,
   and the simulated-transport stack model-checked under seeded fault
   schedules (drops, duplication, reordering, replica crash, partition)
   plus a real Unix-domain-socket smoke run.  Served histories are
   audited live by the server's Monitor and cross-validated with
   Fastcheck. *)

open Helpers
module W = Net.Wire
module E = Histories.Event
module Gen = QCheck2.Gen

(* ------------------------------------------------------------------ *)
(* Wire protocol                                                       *)

let payload_gen =
  Gen.map2
    (fun v t -> Registers.Tagged.make v t)
    (Gen.int_range (-1000000) 1000000)
    Gen.bool

(* exercise the boundary: full-width ints must survive the wire *)
let int_gen =
  Gen.oneof [ Gen.int; Gen.pure min_int; Gen.pure max_int; Gen.pure 0 ]

let msg_gen =
  let base =
    Gen.oneof
      [
        Gen.map (fun proc -> W.Hello { proc }) Gen.small_nat;
        Gen.map2
          (fun seq v ->
            W.Req
              {
                seq;
                op =
                  (if v < 0 then W.Read_k { key = 0 }
                   else W.Write_k { key = 0; value = v });
              })
          Gen.small_nat
          (Gen.int_range (-10) 1000000);
        Gen.map3
          (fun seq key v ->
            W.Req
              {
                seq;
                op =
                  (if v < 0 then W.Read_k { key }
                   else W.Write_k { key; value = v });
              })
          Gen.small_nat
          (Gen.oneof [ Gen.small_nat; Gen.pure 0; Gen.pure max_int ])
          (Gen.int_range (-10) 1000000);
        Gen.map2
          (fun seq r ->
            W.Resp { seq; result = (if r < 0 then None else Some r) })
          Gen.small_nat
          (Gen.int_range (-10) 1000000);
        Gen.map2 (fun rid reg -> W.Query { rid; reg }) Gen.small_nat
          (Gen.int_range 0 1);
        Gen.map3
          (fun rid ts pl -> W.Query_reply { rid; reg = rid mod 2; ts; pl })
          Gen.small_nat int_gen payload_gen;
        Gen.map3
          (fun rid ts pl -> W.Store { rid; reg = rid mod 2; ts; pl })
          Gen.small_nat int_gen payload_gen;
        Gen.map2 (fun rid reg -> W.Store_ack { rid; reg }) Gen.small_nat
          (Gen.int_range 0 1);
        Gen.map (fun rid -> W.Stats_req { rid }) Gen.small_nat;
        Gen.map (fun seq -> W.Nack { seq }) Gen.small_nat;
        Gen.map2
          (fun rid stats -> W.Stats_reply { rid; stats })
          Gen.small_nat
          (Gen.list_size (Gen.int_range 0 6)
             (Gen.pair
                (Gen.string_size ~gen:Gen.printable (Gen.int_range 0 24))
                int_gen));
        Gen.pure W.Bye;
      ]
  in
  (* batches nest (empty, and up to three levels deep) *)
  let batch g = Gen.map (fun l -> W.Batch l) (Gen.list_size (Gen.int_range 0 5) g) in
  Gen.oneof [ base; batch base; batch (Gen.oneof [ base; batch base ]) ]

let wire_roundtrip =
  QCheck2.Test.make ~name:"wire encode/decode round-trip" ~count:500
    ~print:(Fmt.str "%a" W.pp) msg_gen
    (fun m -> W.decode (W.encode m) = Ok m)

let wire_decode_total =
  (* the decoder is total: junk yields [Error], never an exception *)
  QCheck2.Test.make ~name:"wire: decode never raises on junk" ~count:2000
    Gen.(string_size (int_range 0 200))
    (fun s -> match W.decode s with Ok _ | Error _ -> true)

let wire_rejects_garbage () =
  (match W.decode "" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "empty input decoded");
  (match W.decode "\255garbage" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unknown tag decoded");
  let whole =
    W.encode (W.Req { seq = 3; op = W.Write_k { key = 0; value = 9 } })
  in
  for cut = 0 to String.length whole - 1 do
    match W.decode (String.sub whole 0 cut) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncation at %d decoded" cut
  done;
  match W.decode (whole ^ "x") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing bytes decoded"

let wire_frame () =
  let m = W.Store { rid = 7; reg = 1; ts = 42; pl = Registers.Tagged.make 5 true } in
  let f = W.frame ~src:31 m in
  let len, src = W.parse_header f in
  Alcotest.(check int) "src" 31 src;
  Alcotest.(check int) "len" (Bytes.length f - W.header_size) len;
  let body = Bytes.sub_string f W.header_size len in
  Alcotest.(check bool) "body" true (W.decode body = Ok m)

let rec deep_batch n = if n = 0 then W.Bye else W.Batch [ deep_batch (n - 1) ]

let wire_oversized_frame () =
  (* regression: [frame] used to stamp any length into the header
     unchecked, shipping a frame no receiver would ever accept *)
  let huge = W.Batch (List.init 1_100_000 (fun _ -> W.Hello { proc = 0 })) in
  (match W.frame ~src:0 huge with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "oversized frame accepted");
  ignore
    (W.frame ~src:0
       (W.Req { seq = 0; op = W.Write_k { key = 0; value = max_int } }))

let wire_batch_depth () =
  let m = deep_batch W.max_batch_depth in
  Alcotest.(check bool) "at the cap round-trips" true
    (W.decode (W.encode m) = Ok m);
  match W.decode (W.encode (deep_batch (W.max_batch_depth + 1))) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "over-deep batch decoded"

let wire_boundary_values () =
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Fmt.str "%a" W.pp m)
        true
        (W.decode (W.encode m) = Ok m))
    [
      W.Req { seq = max_int; op = W.Write_k { key = 0; value = min_int } };
      W.Resp { seq = 0; result = Some max_int };
      W.Query_reply
        { rid = max_int; reg = 1; ts = max_int;
          pl = Registers.Tagged.make min_int true };
      W.Batch [];
      W.Batch [ W.Batch []; W.Batch [ W.Batch [] ] ];
      W.Stats_req { rid = max_int };
      W.Stats_reply
        { rid = 0; stats = [ ("", min_int); ("frames_sent", max_int) ] };
      W.Req { seq = 0; op = W.Read_k { key = max_int } };
      W.Req { seq = max_int; op = W.Write_k { key = 0; value = min_int } };
    ]

(* keyed requests inside nested batch frames: the fast path the client
   batcher ships — must survive the wire at every nesting depth *)
let wire_keyed_in_nested_batch () =
  let keyed seq key =
    if seq mod 2 = 0 then W.Req { seq; op = W.Read_k { key } }
    else W.Req { seq; op = W.Write_k { key; value = (seq * 1009) - 17 } }
  in
  let inner = List.init 5 (fun i -> keyed i (i * 7919)) in
  let nested =
    W.Batch
      [
        keyed 100 0;
        W.Batch inner;
        W.Batch [ W.Batch (List.init 3 (fun i -> keyed (200 + i) max_int)) ];
      ]
  in
  Alcotest.(check bool) "nested keyed batch round-trips" true
    (W.decode (W.encode nested) = Ok nested);
  (* at the depth cap, still keyed *)
  let rec wrap n m = if n = 0 then m else W.Batch [ wrap (n - 1) m ] in
  let at_cap = wrap (W.max_batch_depth - 1) (W.Batch [ keyed 1 42 ]) in
  Alcotest.(check bool) "keyed at depth cap round-trips" true
    (W.decode (W.encode at_cap) = Ok at_cap);
  (match W.decode (W.encode (wrap W.max_batch_depth (W.Batch [ keyed 1 42 ]))) with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "over-deep keyed batch decoded");
  (* a batch of keyed requests big enough to blow max_frame must be
     refused at framing time, not shipped truncated *)
  let huge =
    W.Batch (List.init 1_100_000 (fun i -> keyed i i))
  in
  match W.frame ~src:0 huge with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "oversized keyed batch framed"

(* ------------------------------------------------------------------ *)
(* Shard map                                                           *)

let shard_map_basics () =
  let m = Net.Shard_map.create ~shards:4 () in
  Alcotest.(check int) "shards" 4 (Net.Shard_map.shards m);
  (* global_reg / key_of_reg are inverse on the key part *)
  for key = 0 to 100 do
    for bit = 0 to Net.Shard_map.regs_per_key - 1 do
      let g = Net.Shard_map.global_reg key bit in
      Alcotest.(check int) "key recovered" key (Net.Shard_map.key_of_reg g)
    done
  done;
  (* placement is total, in range, and deterministic *)
  for key = 0 to 1000 do
    let s = Net.Shard_map.shard_of_key m key in
    Alcotest.(check bool) "in range" true (s >= 0 && s < 4);
    Alcotest.(check int) "stable" s (Net.Shard_map.shard_of_key m key)
  done;
  (* every shard owns some keys (the mix actually spreads) *)
  let hit = Array.make 4 0 in
  for key = 0 to 255 do
    let s = Net.Shard_map.shard_of_key m key in
    hit.(s) <- hit.(s) + 1
  done;
  Array.iteri
    (fun s n -> Alcotest.(check bool) (Fmt.str "shard %d populated" s) true (n > 0))
    hit;
  (* a single shard owns everything *)
  let one = Net.Shard_map.create ~shards:1 () in
  for key = 0 to 50 do
    Alcotest.(check int) "single shard" 0 (Net.Shard_map.shard_of_key one key)
  done

let shard_map_groups () =
  let replicas = [ 10; 11; 12; 13; 14 ] in
  (* no group_size: every shard uses the whole pool *)
  let m = Net.Shard_map.create ~shards:3 () in
  for s = 0 to 2 do
    Alcotest.(check (list int)) "whole pool" replicas
      (Net.Shard_map.group m ~replicas s)
  done;
  (* group_size: a rotating window, distinct nodes, right size *)
  let m3 = Net.Shard_map.create ~shards:5 ~group_size:3 () in
  for s = 0 to 4 do
    let g = Net.Shard_map.group m3 ~replicas s in
    Alcotest.(check int) "window size" 3 (List.length g);
    Alcotest.(check int) "distinct" 3 (List.length (List.sort_uniq compare g));
    List.iter
      (fun r -> Alcotest.(check bool) "from pool" true (List.mem r replicas))
      g
  done;
  (match Net.Shard_map.create ~shards:0 () with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "zero shards accepted");
  match Net.Shard_map.global_reg (-1) 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative key accepted"

(* ------------------------------------------------------------------ *)
(* Replica                                                             *)

let pl v t = Registers.Tagged.make v t

let replica_monotone () =
  let r = Net.Replica.create ~init:0 () in
  let store rid ts v =
    replica_handle r ~src:9 (W.Store { rid; reg = 0; ts; pl = pl v false })
  in
  (match store 1 5 50 with
   | [ (9, W.Store_ack { rid = 1; reg = 0 }) ] -> ()
   | _ -> Alcotest.fail "store not acked");
  ignore (store 2 3 30);  (* stale: must not regress *)
  (match replica_handle r ~src:9 (W.Query { rid = 3; reg = 0 }) with
   | [ (9, W.Query_reply { ts = 5; pl = p; _ }) ] ->
     Alcotest.(check int) "kept newest" 50 (Registers.Tagged.v p)
   | _ -> Alcotest.fail "bad query reply");
  (* duplicate store is idempotent *)
  ignore (store 4 5 50);
  Alcotest.(check int) "ts stays" 5 (fst (Net.Replica.lookup_reg r 0))

let replica_open_keyspace () =
  (* registers materialize lazily: any index stores and reads back,
     untouched indices read as the initial pair *)
  let r = Net.Replica.create ~init:7 () in
  let ts, p = Net.Replica.lookup_reg r 1234 in
  Alcotest.(check int) "untouched ts" 0 ts;
  Alcotest.(check int) "untouched value" 7 (Registers.Tagged.v p);
  let g = Net.Shard_map.global_reg 617 0 in
  ignore
    (replica_handle r ~src:1 (W.Store { rid = 1; reg = g; ts = 3; pl = pl 99 true }));
  (match replica_handle r ~src:1 (W.Query { rid = 2; reg = g }) with
   | [ (1, W.Query_reply { ts = 3; pl = p; _ }) ] ->
     Alcotest.(check int) "stored far key" 99 (Registers.Tagged.v p)
   | _ -> Alcotest.fail "far key not served");
  Alcotest.(check int) "only one register materialized" 1
    (List.length (Net.Replica.contents r))

let replica_batch () =
  let r = Net.Replica.create ~init:0 () in
  let out =
    replica_handle r ~src:2
      (W.Batch [ W.Query { rid = 1; reg = 0 }; W.Query { rid = 2; reg = 1 } ])
  in
  Alcotest.(check int) "two replies" 2 (List.length out)

(* ------------------------------------------------------------------ *)
(* Quorum: when a read writes back                                     *)

(* [n] (default 3) volatile replicas behind a transport that holds
   every send until [deliver] releases it, and a log of what the
   engine's node (a bare engine, or a server) sent. *)
type held = {
  mutable queue : (int * int * W.msg) list;  (* oldest first *)
  mutable from_engine : (int * W.msg) list;  (* (dst, msg), newest first *)
  reps : Net.Replica.t array;
}

let engine_node = Net.Transport.server

let holding ?(n = 3) () =
  {
    queue = [];
    from_engine = [];
    reps = Array.init n (fun _ -> Net.Replica.create ~init:0 ());
  }

let held_transport h =
  let send ~src ~dst msg =
    if src = engine_node then h.from_engine <- (dst, msg) :: h.from_engine;
    h.queue <- h.queue @ [ (src, dst, msg) ]
  in
  { Net.Transport.null with Net.Transport.send }

let quorum_over ?metrics h =
  Net.Quorum.create ~transport:(held_transport h) ~me:engine_node
    ~replicas:(List.init (Array.length h.reps) Fun.id) ?metrics ()

(* Messages one phase sends to the three held replicas: a majority,
   the phase's first window. *)
let q3 = Net.Quorum.quorum_size (quorum_over (holding ()))

(* the oldest element accepted by [p], and the list without it *)
let rec take p = function
  | [] -> None
  | x :: xs when p x -> Some (x, xs)
  | x :: xs -> Option.map (fun (y, ys) -> (y, x :: ys)) (take p xs)

(* Deliver held messages accepted by [p], oldest first, including the
   replies they cause, until none is left.  The engine's node handles
   its messages with [on_engine]; those to client nodes are only
   logged. *)
let rec deliver ?(p = fun _ -> true) h on_engine =
  match take p h.queue with
  | None -> ()
  | Some ((src, dst, msg), rest) ->
    h.queue <- rest;
    if dst = engine_node then on_engine ~src msg
    else if dst < Array.length h.reps then
      List.iter
        (fun (d, m) -> h.queue <- h.queue @ [ (dst, d, m) ])
        (replica_handle h.reps.(dst) ~src msg);
    deliver ~p h on_engine

(* (queries, stores) the engine has sent since the last call *)
let sent h =
  let count f = List.length (List.filter (fun (_, m) -> f m) h.from_engine) in
  let n =
    ( count (function W.Query _ -> true | _ -> false),
      count (function W.Store _ -> true | _ -> false) )
  in
  h.from_engine <- [];
  n

let read_value h q =
  let got = ref None in
  Net.Quorum.read q ~reg:0 ~k:(fun p -> got := Some (Registers.Tagged.v p));
  deliver h (Net.Quorum.on_message q);
  !got

(* Store [v] at timestamp [v]: every test writes increasing values. *)
let write_value h q v =
  let acked = ref false in
  Net.Quorum.store q ~reg:0 ~ts:v ~value:(pl v false) ~k:(fun () ->
      acked := true);
  deliver h (Net.Quorum.on_message q);
  Alcotest.(check bool) "write acked" true !acked

let counts = Alcotest.(pair int int)

let quorum_read_of_stored_pair_skips_write_back () =
  let h = holding () in
  let q = quorum_over h in
  write_value h q 5;
  ignore (sent h);
  Alcotest.(check (option int)) "reads the write" (Some 5) (read_value h q);
  Alcotest.(check counts) "one window of queries, no store" (q3, 0) (sent h)

let quorum_read_overlapping_write_writes_back () =
  let h = holding () in
  let q = quorum_over h in
  write_value h q 5;
  (* a second write's store reaches its window, but no ack comes back:
     its pair is not yet known to be on a majority.  The read's window
     meets the store's, so the read sees the newer pair. *)
  Net.Quorum.store q ~reg:0 ~ts:6 ~value:(pl 6 false) ~k:ignore;
  deliver
    ~p:(fun (_, _, m) -> match m with W.Store _ -> true | _ -> false)
    h (Net.Quorum.on_message q);
  ignore (sent h);
  let got = ref None in
  Net.Quorum.read q ~reg:0 ~k:(fun p -> got := Some (Registers.Tagged.v p));
  deliver
    ~p:(fun (_, _, m) ->
      match m with W.Query _ | W.Query_reply _ -> true | _ -> false)
    h (Net.Quorum.on_message q);
  Alcotest.(check (option int)) "k waits for the write-back" None !got;
  Alcotest.(check counts) "the read writes back" (q3, q3) (sent h);
  deliver h (Net.Quorum.on_message q);
  Alcotest.(check (option int)) "then returns the newer value" (Some 6) !got

let quorum_fresh_engine_writes_back_once () =
  (* a restarted engine does not know which stores completed, so its
     first read of a stored register writes back *)
  let h = holding () in
  write_value h (quorum_over h) 5;
  let q = quorum_over h in
  ignore (sent h);
  Alcotest.(check (option int)) "first read" (Some 5) (read_value h q);
  Alcotest.(check counts) "writes back once" (q3, q3) (sent h);
  Alcotest.(check (option int)) "second read" (Some 5) (read_value h q);
  Alcotest.(check counts) "then skips" (q3, 0) (sent h)

(* ------------------------------------------------------------------ *)
(* Quorum: each phase goes to one rotating window                      *)

(* the replicas the engine sent to since the last call, with
   multiplicity *)
let sent_to h =
  let dsts = List.rev_map fst h.from_engine in
  h.from_engine <- [];
  dsts

let quorum_phase_reaches_one_majority () =
  List.iter
    (fun n ->
      let h = holding ~n () in
      let q = quorum_over h in
      let need = Net.Quorum.quorum_size q in
      for i = 1 to n do
        write_value h q i;
        Alcotest.(check counts) (Fmt.str "n=%d write %d: one window" n i)
          (0, need) (sent h);
        ignore (read_value h q);
        Alcotest.(check counts) (Fmt.str "n=%d read %d: one window" n i)
          (need, 0) (sent h)
      done)
    [ 3; 5 ]

let quorum_windows_rotate_evenly () =
  (* n consecutive phases hit every replica exactly q times: the
     windows start one replica further on per phase *)
  List.iter
    (fun n ->
      let h = holding ~n () in
      let q = quorum_over h in
      for i = 1 to n do
        write_value h q i
      done;
      let dsts = sent_to h in
      for r = 0 to n - 1 do
        Alcotest.(check int)
          (Fmt.str "n=%d: replica %d's share" n r)
          (Net.Quorum.quorum_size q)
          (List.length (List.filter (( = ) r) dsts))
      done)
    [ 3; 5 ]

let quorum_dead_window_member () =
  (* replica 0 is down: the first phase's window holds it, so the phase
     completes only after one resend widens it; replica 0 is then
     suspected, later windows pass over it, and its late replies clear
     the suspicion *)
  let h = holding () in
  let metrics = Net.Metrics.create () in
  let q = quorum_over ~metrics h in
  let alive (src, dst, _) = src <> 0 && dst <> 0 in
  let acked = ref false in
  Net.Quorum.store q ~reg:0 ~ts:1 ~value:(pl 1 false) ~k:(fun () ->
      acked := true);
  deliver ~p:alive h (Net.Quorum.on_message q);
  Alcotest.(check bool) "stalled on the dead member" false !acked;
  Alcotest.(check bool) "still outstanding" true (Net.Quorum.resend_pending q);
  deliver ~p:alive h (Net.Quorum.on_message q);
  Alcotest.(check bool) "acked after one resend" true !acked;
  let get = Net.Metrics.get metrics in
  Alcotest.(check int) "widened once" 1 (get "quorum_widened");
  Alcotest.(check int) "replica 0 suspected" 1 (get "quorum_suspected");
  let retrans = get "quorum_retransmissions" in
  ignore (sent_to h);
  for i = 2 to 7 do
    let acked = ref false in
    Net.Quorum.store q ~reg:0 ~ts:i ~value:(pl i false) ~k:(fun () ->
        acked := true);
    deliver ~p:alive h (Net.Quorum.on_message q);
    Alcotest.(check bool) (Fmt.str "write %d acked without a resend" i) true
      !acked
  done;
  Alcotest.(check bool) "no phase sent to the suspect" false
    (List.mem 0 (sent_to h));
  Alcotest.(check int) "no more retransmissions" retrans
    (get "quorum_retransmissions");
  (* replica 0 comes back and answers the stale phases it was sent *)
  deliver h (Net.Quorum.on_message q);
  for i = 8 to 10 do
    write_value h q i
  done;
  Alcotest.(check bool) "a late reply clears the suspicion" true
    (List.mem 0 (sent_to h));
  Alcotest.(check int) "suspected once in all" 1 (get "quorum_suspected")

(* ------------------------------------------------------------------ *)
(* Simulated transport: fault-schedule sweeps                          *)

let spec ~readers ~writes ~reads =
  Harness.Workload.unique_scripts
    { Harness.Workload.writers = 2; readers; writes_each = writes; reads_each = reads }

(* fates: replica [r] crashes at [t]; every replica is severed from
   the server during [[t0, t1)] *)
let crash r t = (t, Harness.Failure.Crash r)

let partition (cl : Net.Sim_run.cluster) (t0, t1) =
  let servers = [ Net.Transport.server ] in
  [
    (t0, Harness.Failure.Partition (cl.replica_nodes, servers));
    (t1, Harness.Failure.Heal);
  ]

let sim_reliable () =
  let o =
    Net.Sim_run.run
      (Net.Sim_run.create Net.Sim_run.default ~seed:1
         ~workload:(Net.Sim_run.singles (spec ~readers:2 ~writes:4 ~reads:6)))
  in
  check_clean "reliable" o;
  (* over a fault-free network nothing should ever be retransmitted *)
  Alcotest.(check int) "no retransmissions" 0
    o.quorum.Net.Engine.retransmissions

let sim_fault_sweep () =
  (* the model-check: sweep seeds x fault schedules; every served
     history must complete, audit clean and re-check atomic *)
  let schedules =
    [ Net.Sim_net.lossy ~drop:0.0 ~duplicate:0.0 ~min_delay:0.1 ~max_delay:3.0 ();
      Net.Sim_net.lossy ~drop:0.2 ~duplicate:0.0 ();
      Net.Sim_net.lossy ~drop:0.0 ~duplicate:0.3 ();
      Net.Sim_net.lossy ~drop:0.25 ~duplicate:0.15 ~min_delay:0.2 ~max_delay:4.0 () ]
  in
  List.iteri
    (fun i faults ->
      for seed = 0 to 9 do
        let o =
          Net.Sim_run.run
            (Net.Sim_run.create ~faults Net.Sim_run.default ~seed
               ~workload:
                 (Net.Sim_run.singles (spec ~readers:2 ~writes:3 ~reads:5)))
        in
        check_clean (Fmt.str "schedule %d seed %d" i seed) o
      done)
    schedules

let sim_windows () =
  (* pipelining depth must not affect correctness *)
  List.iter
    (fun window ->
      let o =
        Net.Sim_run.run
          (Net.Sim_run.create ~faults:(Net.Sim_net.lossy ())
             { Net.Sim_run.default with window } ~seed:5
             ~workload:
               (Net.Sim_run.singles (spec ~readers:3 ~writes:3 ~reads:4)))
      in
      check_clean (Fmt.str "window %d" window) o)
    [ 1; 2; 8; 32 ]

let sim_replica_crash () =
  for seed = 0 to 4 do
    let o =
      Net.Sim_run.run ~fates:[ crash 2 30.0 ]
        (Net.Sim_run.create ~faults:(Net.Sim_net.lossy ~drop:0.1 ())
           { Net.Sim_run.default with replicas = 3 } ~seed
           ~workload:(Net.Sim_run.singles (spec ~readers:2 ~writes:4 ~reads:6)))
    in
    check_clean (Fmt.str "crash seed %d" seed) o
  done

let sim_majority_crash_stalls () =
  (* killing two of three replicas destroys the quorum: the service
     must stall (liveness lost) but never lie (safety kept) *)
  let o =
    Net.Sim_run.run ~fates:[ crash 1 10.0; crash 2 12.0 ] ~max_steps:30_000
      (Net.Sim_run.create Net.Sim_run.default ~seed:3
         ~workload:
           (Net.Sim_run.singles
              [ { Registers.Vm.proc = 0;
                  script = List.init 4 (fun k -> E.Write (k + 1)) };
                { Registers.Vm.proc = 2;
                  script = List.init 6 (fun _ -> E.Read) } ]))
  in
  (* stalled, not completed; and the history prefix still atomic, as
     the verdict's audits and fastcheck come before its stall *)
  match o.verdict with
  | Net.Sim_run.Stalled { completed; expected } ->
    Alcotest.(check int) "the counts are the outcome's" o.expected expected;
    Alcotest.(check int) "answered so far" o.completed completed
  | v -> Alcotest.failf "want a stall, got %a" Net.Sim_run.pp_verdict v

(* One run can fail every way at once, and its verdict names the first
   failure in a fixed order: a torn batch, a key's live violation, a
   key the post-hoc fastcheck rejects, a stall.  The runs: a batch, a
   snapshot and racing writes and reads of key 0 over a lossy network,
   with two of three replicas crashed at time 30 (a stall), under the
   torn-batch and broken-read-quorum hooks, one of them, or none. *)
let sim_verdict_order () =
  let run bug seed =
    let cl =
      Net.Sim_run.create
        ~faults:(Net.Sim_net.lossy ~min_delay:0.1 ~max_delay:3.0 ())
        { Net.Sim_run.default with shards = 2; keys = 2; bug }
        ~seed
        ~workload:
          (let k key op = Net.Sim_run.Keyed (key, op) in
           [
             { Net.Sim_run.xproc = 0;
               xscript =
                 [ Net.Sim_run.Txn_w [ (0, 1001); (1, 1002) ];
                   k 0 (E.Write 1003); k 0 (E.Write 1004) ] };
             { Net.Sim_run.xproc = 1;
               xscript = [ k 0 (E.Write 2001); k 0 (E.Write 2002) ] };
             { Net.Sim_run.xproc = 2;
               xscript =
                 Net.Sim_run.Snap [ 0; 1 ] :: List.init 4 (fun _ -> k 0 E.Read)
             };
           ])
    in
    (Net.Sim_run.run ~fates:[ crash 1 30.0; crash 2 30.0 ] ~max_steps:30_000 cl,
     cl)
  in
  let stalled (o : Net.Sim_run.outcome) = o.completed < o.expected in
  let quorum_1 = { Net.Bug.none with read_quorum = Some 1 } in
  let o, _ = run { quorum_1 with torn_txn = true } 1 in
  Alcotest.(check bool) "torn, violated and stalled at once" true
    (o.txn_violations <> [] && o.key_violations <> [] && stalled o);
  Alcotest.check verdict "the torn batch first"
    (Net.Sim_run.Violation { key = None; message = List.hd o.txn_violations })
    o.verdict;
  let o, _ = run quorum_1 38 in
  Alcotest.(check bool) "violated and stalled at once" true
    (o.key_violations <> [] && stalled o);
  let key, message = List.hd o.key_violations in
  Alcotest.check verdict "then the live violation"
    (Net.Sim_run.Violation { key = Some key; message })
    o.verdict;
  let o, cl = run Net.Bug.none 38 in
  Alcotest.check verdict "then the stall"
    (Net.Sim_run.Stalled { completed = o.completed; expected = o.expected })
    o.verdict;
  let rejects = [ (1, Error "NOT ATOMIC: pinned") ] in
  Alcotest.check verdict "a post-hoc rejection comes before the stall"
    (Net.Sim_run.Violation { key = Some 1; message = "NOT ATOMIC: pinned" })
    (Net.Sim_run.judge ~fastcheck:rejects ~answered:(o.completed, o.expected)
       cl.Net.Sim_run.pool)

let sim_partition_heals () =
  (* sever all replicas from the server mid-run, then heal: the
     retransmission layer must finish every operation *)
  let cl =
    Net.Sim_run.create ~faults:(Net.Sim_net.lossy ~drop:0.1 ())
      Net.Sim_run.default ~seed:7
      ~workload:(Net.Sim_run.singles (spec ~readers:2 ~writes:3 ~reads:4))
  in
  let o = Net.Sim_run.run ~fates:(partition cl (25.0, 120.0)) cl in
  check_clean "partition+heal" o;
  Alcotest.(check bool) "partition actually bit" true
    (o.net.Net.Sim_net.blocked > 0)

let sim_deterministic () =
  let go () =
    Net.Sim_run.run ~fates:[ crash 0 35.0 ]
      (Net.Sim_run.create
         ~faults:(Net.Sim_net.lossy ~drop:0.2 ~duplicate:0.1 ())
         Net.Sim_run.default ~seed:11
         ~workload:(Net.Sim_run.singles (spec ~readers:2 ~writes:3 ~reads:4)))
  in
  let a = go () and b = go () in
  Alcotest.(check bool) "same history" true
    (a.Net.Sim_run.history = b.Net.Sim_run.history);
  Alcotest.(check int) "same steps" a.Net.Sim_run.steps b.Net.Sim_run.steps

let sim_random_schedules =
  QCheck2.Test.make ~name:"random fault schedules serve atomic histories"
    ~count:25
    Gen.(
      triple (int_bound 10_000)
        (map (fun n -> 0.25 *. (float_of_int n /. 1000.)) (int_bound 1000))
        (map (fun n -> 0.2 *. (float_of_int n /. 1000.)) (int_bound 1000)))
    (fun (seed, drop, duplicate) ->
      let o =
        Net.Sim_run.run
          (Net.Sim_run.create ~faults:(Net.Sim_net.lossy ~drop ~duplicate ())
             Net.Sim_run.default ~seed
             ~workload:
               (Net.Sim_run.singles (spec ~readers:2 ~writes:2 ~reads:3)))
      in
      o.Net.Sim_run.verdict = Net.Sim_run.Clean)

(* ------------------------------------------------------------------ *)
(* Sharded keyspace                                                    *)

let check_sharded ~what (o : Net.Sim_run.outcome) =
  check_clean what o;
  List.iter
    (fun (k, ok) ->
      Alcotest.(check bool) (Fmt.str "%s: key %d atomic" what k) true ok)
    o.key_fastcheck

let sim_sharded () =
  (* every key's history must be atomic, for each shard count *)
  List.iter
    (fun shards ->
      let o =
        Net.Sim_run.run
          (Net.Sim_run.create
             { Net.Sim_run.default with shards; window = 8; keys = shards }
             ~seed:13
             ~workload:
               (Net.Sim_run.singles (spec ~readers:2 ~writes:6 ~reads:9)))
      in
      check_sharded ~what:(Fmt.str "shards %d" shards) o;
      Alcotest.(check int)
        (Fmt.str "shards %d: every key audited" shards)
        shards
        (List.length o.key_fastcheck))
    [ 1; 2; 4; 8 ]

let sim_sharded_faults () =
  (* the model-check, sharded: drops, duplication, a replica crash *)
  for seed = 0 to 4 do
    let o =
      Net.Sim_run.run ~fates:[ crash 2 40.0 ]
        (Net.Sim_run.create
           ~faults:(Net.Sim_net.lossy ~drop:0.15 ~duplicate:0.1 ())
           { Net.Sim_run.default with shards = 4; window = 8; keys = 4 } ~seed
           ~workload:(Net.Sim_run.singles (spec ~readers:2 ~writes:4 ~reads:6)))
    in
    check_sharded ~what:(Fmt.str "sharded faults seed %d" seed) o
  done

let sim_sharded_deterministic () =
  let go () =
    Net.Sim_run.run
      (Net.Sim_run.create
         ~faults:(Net.Sim_net.lossy ~drop:0.2 ~duplicate:0.1 ())
         { Net.Sim_run.default with shards = 4; keys = 4 } ~seed:17
         ~workload:(Net.Sim_run.singles (spec ~readers:2 ~writes:3 ~reads:4)))
  in
  let a = go () and b = go () in
  Alcotest.(check bool) "same history" true
    (a.Net.Sim_run.history = b.Net.Sim_run.history);
  Alcotest.(check int) "same steps" a.Net.Sim_run.steps b.Net.Sim_run.steps

let sim_shard_metrics () =
  (* per-shard counters must account for exactly the served ops *)
  let o =
    Net.Sim_run.run
      (Net.Sim_run.create
         { Net.Sim_run.default with shards = 4; window = 8; keys = 4 } ~seed:3
         ~workload:(Net.Sim_run.singles (spec ~readers:2 ~writes:4 ~reads:6)))
  in
  let g = Net.Metrics.get o.Net.Sim_run.metrics in
  let per_shard = List.init 4 (fun s -> g (Fmt.str "shard%d_ops" s)) in
  Alcotest.(check int) "shard ops sum to served ops" o.Net.Sim_run.completed
    (List.fold_left ( + ) 0 per_shard);
  Alcotest.(check bool) "more than one shard saw traffic" true
    (List.length (List.filter (fun n -> n > 0) per_shard) > 1)

(* ------------------------------------------------------------------ *)
(* Metrics and tracing                                                 *)

let sim_metrics_reconcile () =
  (* every frame the transport accepts meets exactly one fate, so at
     quiescence sent = delivered + dropped + blocked (duplicates are
     extra sends and count on both sides) *)
  List.iter
    (fun (what, faults, cut) ->
      let cl =
        Net.Sim_run.create ~faults Net.Sim_run.default ~seed:3
          ~workload:(Net.Sim_run.singles (spec ~readers:2 ~writes:3 ~reads:4))
      in
      let fates = Option.fold ~none:[] ~some:(partition cl) cut in
      ignore (Net.Sim_run.run ~fates cl);
      let g = Net.Metrics.get cl.Net.Sim_run.metrics in
      Alcotest.(check int)
        (what ^ ": sent = delivered + dropped + blocked")
        (g "frames_sent")
        (g "frames_delivered" + g "frames_dropped" + g "frames_blocked");
      Alcotest.(check bool) (what ^ ": traffic counted") true (g "frames_sent" > 0))
    [
      ("reliable", Net.Sim_net.reliable, None);
      ("lossy", Net.Sim_net.lossy ~drop:0.2 ~duplicate:0.1 (), None);
      ("partitioned", Net.Sim_net.lossy ~drop:0.1 (), Some (20.0, 60.0));
    ]

let sim_trace_counts () =
  (* a trace record is built only when a trace is attached, at each of
     the simulator's trace points: a traced faulty run must hold one
     record per delivery, per drop (loss, dead node or partition) and
     per timer fire *)
  let trace = Net.Trace.create ~capacity:200_000 () in
  let cl =
    Net.Sim_run.create
      ~faults:(Net.Sim_net.lossy ~drop:0.2 ~duplicate:0.1 ()) ~trace
      Net.Sim_run.default ~seed:5
      ~workload:(Net.Sim_run.singles (spec ~readers:2 ~writes:3 ~reads:4))
  in
  let o = Net.Sim_run.run ~fates:(crash 2 30.0 :: partition cl (20.0, 60.0)) cl in
  Alcotest.(check int) "no wrap" 0 (Net.Trace.overwritten trace);
  let count p =
    List.length
      (List.filter (fun e -> p e.Net.Trace.kind) (Net.Trace.events trace))
  in
  let s = o.Net.Sim_run.net in
  Alcotest.(check bool) "every fate occurs" true
    (s.Net.Sim_net.delivered > 0 && s.dropped > 0 && s.blocked > 0
     && s.timer_fires > 0);
  Alcotest.(check int) "Deliver records = delivered" s.delivered
    (count (function Net.Trace.Deliver _ -> true | _ -> false));
  Alcotest.(check int) "Drop records = dropped + blocked"
    (s.dropped + s.blocked)
    (count (function Net.Trace.Drop _ -> true | _ -> false));
  Alcotest.(check int) "Timer_fire records = timer fires" s.timer_fires
    (count (function Net.Trace.Timer_fire _ -> true | _ -> false))

let trace_ring_wraps () =
  let tr = Net.Trace.create ~capacity:8 () in
  for k = 1 to 20 do
    Net.Trace.record tr ~time:(float_of_int k) (Net.Trace.Note (string_of_int k))
  done;
  Alcotest.(check int) "recorded" 20 (Net.Trace.recorded tr);
  Alcotest.(check int) "overwritten" 12 (Net.Trace.overwritten tr);
  match Net.Trace.events tr with
  | { Net.Trace.time = t0; _ } :: _ as evs ->
    Alcotest.(check int) "window size" 8 (List.length evs);
    Alcotest.(check (float 0.0)) "oldest survivor" 13.0 t0
  | [] -> Alcotest.fail "empty window"

let sim_trace_replay () =
  (* a faulty run's trace, dumped to JSONL and parsed back, must yield
     the exact served history — and re-check atomic offline *)
  let trace = Net.Trace.create ~capacity:200_000 () in
  let o =
    Net.Sim_run.run
      (Net.Sim_run.create
         ~faults:(Net.Sim_net.lossy ~drop:0.15 ~duplicate:0.1 ()) ~trace
         Net.Sim_run.default ~seed:2
         ~workload:(Net.Sim_run.singles (spec ~readers:2 ~writes:3 ~reads:4)))
  in
  Alcotest.(check int) "no wrap" 0 (Net.Trace.overwritten trace);
  Alcotest.(check bool) "in-memory history matches served" true
    (List.map snd (Net.Trace.keyed_history trace) = o.Net.Sim_run.history);
  let file = Filename.temp_file "bloom-trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Net.Trace.dump trace file;
      let parsed = List.map snd (Net.Trace.keyed_history_of_file file) in
      Alcotest.(check bool) "parsed history round-trips" true
        (parsed = o.Net.Sim_run.history);
      let ops = Histories.Operation.of_events_exn parsed in
      match Histories.Fastcheck.check_unique ~init:0 ops with
      | Histories.Fastcheck.Atomic _ -> ()
      | Histories.Fastcheck.Violation v ->
        Alcotest.failf "replayed history: %a"
          (Histories.Fastcheck.pp_violation Fmt.int)
          v)

(* ------------------------------------------------------------------ *)
(* The audit actually fires: feed the monitor a corrupted history      *)

let audit_catches_corruption () =
  (* not a service bug — a direct check that the live-audit plumbing
     rejects a new-old inversion if one were ever served *)
  let m = Histories.Monitor.create ~init:0 in
  let bad =
    [ ev_invoke 0 (write 1); ev_invoke 2 read; ev_respond 2 (Some 1);
      ev_invoke 3 read; ev_respond 3 (Some 0); ev_respond 0 None ]
  in
  (* reads overlap the write, but the second read starts after the
     first finished and still returns the older value *)
  match Histories.Monitor.observe_all m bad with
  | Histories.Monitor.Violation _ -> ()
  | Histories.Monitor.Ok_so_far -> Alcotest.fail "inversion not caught"

(* ------------------------------------------------------------------ *)
(* Socket transport                                                    *)

(* Replica nodes 0, 1 and 2 on [net], run as the service runs them;
   [storage r] makes replica [r] durable. *)
let socket_replicas ?(storage = fun _ -> None) net =
  let tr = Net.Socket_net.transport net in
  List.map
    (fun r ->
      let rep = Net.Replica.create ~init:0 ?storage:(storage r) () in
      Net.Socket_net.listen net r (Net.Replica.serve rep ~transport:tr ~me:r);
      rep)
    [ 0; 1; 2 ]

(* An audited server core, keeping its history, over
   [socket_replicas]. *)
let socket_cluster ?map () =
  let net = Net.Socket_net.create () in
  ignore (socket_replicas net);
  let server =
    Net.Server.create ~transport:(Net.Socket_net.transport net) ~audit:true
      ~metrics:(Net.Socket_net.metrics net) ?map ~history:true
      ~member:(solo_member ()) ~me:Net.Transport.server
      ~replicas:[ 0; 1; 2 ] ~init:0 ()
  in
  Net.Socket_net.listen net Net.Transport.server (Net.Server.on_message server);
  (net, server)

let socket_smoke () =
  let net, server = socket_cluster () in
  let processes = spec ~readers:2 ~writes:4 ~reads:6 in
  let expected =
    List.fold_left (fun n { Registers.Vm.script; _ } -> n + List.length script)
      0 processes
  in
  let threads =
    List.map
      (fun { Registers.Vm.proc; script } ->
        Thread.create
          (fun () ->
            let c = Net.Client.connect ~net ~server:Net.Transport.server ~proc () in
            ignore
              (Net.Client.run_keyed ~window:4 c
                 (List.map (fun op -> (0, op)) script));
            Net.Client.close c)
          ())
      processes
  in
  List.iter Thread.join threads;
  let history = Net.Server.history server in
  let violation = Net.Server.violations server in
  Net.Socket_net.shutdown net;
  (match violation with
   | [] -> ()
   | (_, v) :: _ ->
     Alcotest.failf "live audit: %a" (Histories.Fastcheck.pp_violation Fmt.int) v);
  let ops = Histories.Operation.of_events_exn history in
  Alcotest.(check int) "all ops served" (2 * expected) (List.length history);
  match Histories.Fastcheck.check_unique ~init:0 ops with
  | Histories.Fastcheck.Atomic _ -> ()
  | Histories.Fastcheck.Violation v ->
    Alcotest.failf "fastcheck: %a" (Histories.Fastcheck.pp_violation Fmt.int) v

let socket_replica_crash () =
  let net, server = socket_cluster () in
  let killer =
    Thread.create
      (fun () ->
        Thread.delay 0.05;
        Net.Socket_net.crash net 2)
      ()
  in
  let c0 = Net.Client.connect ~net ~server:Net.Transport.server ~proc:0 () in
  let c2 = Net.Client.connect ~net ~server:Net.Transport.server ~proc:2 () in
  for k = 1 to 10 do
    Net.Client.write_k c0 ~key:0 k;
    let v = Net.Client.read_k c2 ~key:0 in
    Alcotest.(check bool) (Fmt.str "read %d sane" k) true (v >= 0 && v <= k)
  done;
  Thread.join killer;
  let v = Net.Client.read_k c2 ~key:0 in
  Alcotest.(check int) "final value survives the crash" 10 v;
  (match Net.Server.violations server with
   | [] -> ()
   | _ :: _ -> Alcotest.fail "audit violation under replica crash");
  Net.Socket_net.shutdown net

let socket_reconnect_same_proc () =
  (* closing a client and reconnecting with the same processor id must
     yield a working session: the old endpoint and the peers' cached
     route to it are torn down by [close] *)
  let net, _server = socket_cluster () in
  let c0 = Net.Client.connect ~net ~server:Net.Transport.server ~proc:0 () in
  Net.Client.write_k c0 ~key:0 41;
  Net.Client.close c0;
  let c2 = Net.Client.connect ~net ~server:Net.Transport.server ~proc:2 () in
  Alcotest.(check int) "first session's write visible" 41
    (Net.Client.read_k c2 ~key:0);
  Net.Client.close c2;
  let c2' = Net.Client.connect ~net ~server:Net.Transport.server ~proc:2 () in
  Alcotest.(check int) "reconnected reader works" 41
    (Net.Client.read_k c2' ~key:0);
  let c0' = Net.Client.connect ~net ~server:Net.Transport.server ~proc:0 () in
  Net.Client.write_k c0' ~key:0 42;
  Alcotest.(check int) "reconnected writer works" 42
    (Net.Client.read_k c2' ~key:0);
  Net.Client.close c0';
  Net.Client.close c2';
  Net.Socket_net.shutdown net

let socket_timer_unregistered_dropped () =
  (* regression: the timer fallback used to run the callback anyway —
     outside any handler mutex — when its node was already gone *)
  let net = Net.Socket_net.create () in
  let tr = Net.Socket_net.transport net in
  let fired = Atomic.make false in
  tr.Net.Transport.set_timer ~node:77 ~delay:0.02 (fun () ->
      Atomic.set fired true);
  Thread.delay 0.2;
  let dropped = Net.Metrics.get (Net.Socket_net.metrics net) "timers_dropped" in
  Net.Socket_net.shutdown net;
  Alcotest.(check bool) "callback not fired" false (Atomic.get fired);
  Alcotest.(check int) "accounted as dropped" 1 dropped

let socket_connect_stall_does_not_block () =
  (* regression: get_conn used to hold the transport mutex across a
     blocking [Unix.connect]; one peer with a full accept backlog
     stalled every other send on the transport *)
  let net = Net.Socket_net.create () in
  let tr = Net.Socket_net.transport net in
  let got = Atomic.make false in
  (* completion hook: the handler rings a pipe so the test can block in
     [select] with a hard deadline instead of busy-polling the flag
     (stdlib [Condition] has no timed wait) *)
  let rd_done, wr_done = Unix.pipe () in
  Net.Socket_net.listen net 58 (fun ~src:_ _ ->
      Atomic.set got true;
      try ignore (Unix.write wr_done (Bytes.of_string "!") 0 1)
      with Unix.Unix_error _ -> ());
  (* a silent peer at node 57's address: listening, never accepting *)
  let addr = Unix.ADDR_UNIX (Net.Socket_net.path net 57) in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd addr;
  Unix.listen lfd 1;
  let fillers = ref [] in
  (try
     for _ = 1 to 16 do
       let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       Unix.set_nonblock fd;
       fillers := fd :: !fillers;
       Unix.connect fd addr
     done
   with
   | Unix.Unix_error
       ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINPROGRESS
         | Unix.ECONNREFUSED ),
         _,
         _ )
   -> ());
  let stall_sender =
    Thread.create (fun () -> tr.Net.Transport.send ~src:58 ~dst:57 W.Bye) ()
  in
  Thread.delay 0.05;
  (* a healthy send on the same transport must still get through *)
  tr.Net.Transport.send ~src:57 ~dst:58 W.Bye;
  (match Unix.select [ rd_done ] [] [] 5.0 with
  | [ _ ], _, _ -> ()
  | _ -> () (* timed out; the check below reports the failure *));
  Alcotest.(check bool) "healthy send delivered while peer stalls" true
    (Atomic.get got);
  Thread.join stall_sender;
  Unix.close rd_done;
  Unix.close wr_done;
  Alcotest.(check bool) "stall counted" true
    (Net.Metrics.get (Net.Socket_net.metrics net) "conn_stall" >= 1);
  List.iter (fun fd -> try Unix.close fd with _ -> ()) !fillers;
  Unix.close lfd;
  Net.Socket_net.shutdown net

let socket_stats_over_wire () =
  let net, _server = socket_cluster () in
  let c0 = Net.Client.connect ~net ~server:Net.Transport.server ~proc:0 () in
  Net.Client.write_k c0 ~key:0 7;
  Net.Client.write_k c0 ~key:0 8;
  Alcotest.(check int) "read back" 8 (Net.Client.read_k c0 ~key:0);
  let stats = Net.Client.stats c0 in
  let get name =
    match List.assoc_opt name stats with
    | Some v -> v
    | None -> Alcotest.failf "stat %s missing from the reply" name
  in
  Alcotest.(check int) "ops served" 3 (get "ops_served");
  Alcotest.(check int) "no decode errors" 0 (get "decode_errors");
  Alcotest.(check int) "one session" 1 (get "sessions");
  Alcotest.(check int) "no violation" 0 (get "audit_violation");
  (* each write makes one real read and one store; the writer's read
     goes through its copy of Reg0, and the tag sum points there, so it
     makes one real read; a read writes back only a pair the engine has
     not seen stored on a majority, which here is none *)
  Alcotest.(check int) "quorum queries" 3 (get "quorum_queries");
  Alcotest.(check int) "quorum stores" 2 (get "quorum_stores");
  Alcotest.(check int) "copy reads" 1 (get "copy_reads");
  Alcotest.(check bool) "rtt histogram populated" true
    (get "client_rtt_count" >= 3);
  Net.Client.close c0;
  Net.Socket_net.shutdown net

let socket_keyed_workload () =
  (* the sharded service over real sockets: windowed keyed scripts from
     concurrent writers + readers, every per-key audit must accept *)
  let nkeys = 6 in
  let net, server =
    socket_cluster ~map:(Net.Shard_map.create ~shards:4 ()) ()
  in
  let keyed proc script =
    List.mapi (fun i op -> (i mod nkeys, op)) script
    |> fun s -> (proc, s)
  in
  let workloads =
    List.map
      (fun { Registers.Vm.proc; script } -> keyed proc script)
      (spec ~readers:2 ~writes:6 ~reads:9)
  in
  let threads =
    List.map
      (fun (proc, script) ->
        Thread.create
          (fun () ->
            let c =
              Net.Client.connect ~net ~server:Net.Transport.server ~proc ()
            in
            ignore (Net.Client.run_keyed ~window:8 c script);
            Net.Client.close c)
          ())
      workloads
  in
  List.iter Thread.join threads;
  let violations = Net.Server.violations server in
  let keyed_history = Net.Server.keyed_history server in
  let keys = List.sort_uniq compare (List.map fst keyed_history) in
  Net.Socket_net.shutdown net;
  (match violations with
   | [] -> ()
   | (k, v) :: _ ->
     Alcotest.failf "key %d live audit: %a" k
       (Histories.Fastcheck.pp_violation Fmt.int)
       v);
  Alcotest.(check int) "all keys touched" nkeys (List.length keys);
  (* per-key post-hoc verification of the served histories *)
  List.iter
    (fun key ->
      let h =
        List.filter_map
          (fun (k, e) -> if k = key then Some e else None)
          keyed_history
      in
      let ops = Histories.Operation.of_events_exn h in
      match Histories.Fastcheck.check_unique ~init:0 ops with
      | Histories.Fastcheck.Atomic _ -> ()
      | Histories.Fastcheck.Violation v ->
        Alcotest.failf "key %d fastcheck: %a" key
          (Histories.Fastcheck.pp_violation Fmt.int)
          v)
    keys

let socket_keyed_single_ops () =
  let net, _server =
    socket_cluster ~map:(Net.Shard_map.create ~shards:4 ()) ()
  in
  let c0 = Net.Client.connect ~net ~server:Net.Transport.server ~proc:0 () in
  let c2 = Net.Client.connect ~net ~server:Net.Transport.server ~proc:2 () in
  Net.Client.write_k c0 ~key:3 33;
  Net.Client.write_k c0 ~key:5 55;
  Alcotest.(check int) "key 3 isolated" 33 (Net.Client.read_k c2 ~key:3);
  Alcotest.(check int) "key 5 isolated" 55 (Net.Client.read_k c2 ~key:5);
  Alcotest.(check int) "untouched key reads init" 0
    (Net.Client.read_k c2 ~key:11);
  Net.Client.close c0;
  Net.Client.close c2;
  Net.Socket_net.shutdown net

let socket_rejects_rogue_writer () =
  let net, _server = socket_cluster () in
  let c5 = Net.Client.connect ~net ~server:Net.Transport.server ~proc:5 () in
  (try
     Net.Client.write_k c5 ~key:0 99;
     Net.Socket_net.shutdown net;
     Alcotest.fail "write by proc 5 accepted"
   with Invalid_argument _ -> Net.Socket_net.shutdown net)

let socket_close_flushes_pending () =
  (* regression: [close] used to race the deadline flusher for the last
     partial batch — a Bye overtaking it on the wire made the server
     drop the queued ops of a then-dead session, silently.  Queue
     [batch_max - 1] ops (one short of an eager flush) and close
     immediately: every op must still reach the server. *)
  let net, server = socket_cluster () in
  (* the server admits each write as an Invoke event when it executes;
     poll until every value of a round is there (arrival races us).
     Waiting out each round before reconnecting also keeps one
     processor's ops sequential across sessions, as the audit
     requires — the close-vs-flusher race lives inside a round. *)
  let served () =
    List.filter_map
      (function E.Invoke (_, E.Write v) -> Some v | _ -> None)
      (Net.Server.history server)
  in
  let wait_served values =
    let deadline = Unix.gettimeofday () +. 5.0 in
    let rec go () =
      let got = served () in
      let missing = List.filter (fun v -> not (List.mem v got)) values in
      if missing = [] then ()
      else if Unix.gettimeofday () > deadline then
        Alcotest.failf "%d posted op(s) never reached the server (e.g. %d)"
          (List.length missing) (List.hd missing)
      else begin
        Thread.delay 0.005;
        go ()
      end
    in
    go ()
  in
  (* leg 1: no flusher thread at all — close alone must carry the batch *)
  let c0 =
    Net.Client.connect ~net ~server:Net.Transport.server ~proc:0 ~batch_max:8
      ~flush_every:0.0 ()
  in
  for v = 1 to 7 do
    Net.Client.post c0 (W.Write_k { key = 0; value = v })
  done;
  Net.Client.close c0;
  (match Net.Client.post c0 (W.Write_k { key = 0; value = 99 }) with
   | () -> Alcotest.fail "post after close should raise"
   | exception Invalid_argument _ -> ());
  wait_served [ 1; 2; 3; 4; 5; 6; 7 ];
  (* leg 2: race a tiny-deadline flusher over several rounds; whichever
     side ships the final batch, no op may be dropped *)
  let next = ref 7 in
  for _round = 1 to 8 do
    let c1 =
      Net.Client.connect ~net ~server:Net.Transport.server ~proc:1
        ~batch_max:64 ~flush_every:0.001 ()
    in
    let mine = ref [] in
    for _ = 1 to 5 do
      incr next;
      mine := !next :: !mine;
      Net.Client.post c1 (W.Write_k { key = 0; value = !next })
    done;
    Net.Client.close c1;
    wait_served !mine
  done;
  (match Net.Server.violations server with
   | [] -> ()
   | (_, v) :: _ ->
     Alcotest.failf "live audit: %a" (Histories.Fastcheck.pp_violation Fmt.int) v);
  Net.Socket_net.shutdown net

let socket_txn_snap_ops () =
  (* the multi-key surface over real sockets: an atomic batch spanning
     shards, snapshot reads returning a consistent cut in request
     order, and the server-side rejections (rogue session, malformed
     key sets) surfacing as Invalid_argument on the caller *)
  let net, server =
    socket_cluster ~map:(Net.Shard_map.create ~shards:4 ()) ()
  in
  let c0 = Net.Client.connect ~net ~server:Net.Transport.server ~proc:0 () in
  let c2 = Net.Client.connect ~net ~server:Net.Transport.server ~proc:2 () in
  Net.Client.txn_k c0 [ (0, 7); (1, 8); (5, 9) ];
  Alcotest.(check (list int))
    "snapshot sees the whole batch" [ 7; 8; 9 ]
    (Net.Client.snap_k c2 [ 0; 1; 5 ]);
  Alcotest.(check (list int))
    "untouched key reads init inside a snapshot" [ 7; 0 ]
    (Net.Client.snap_k c2 [ 0; 3 ]);
  (* a second batch over a subset: the snapshot must be the new cut *)
  Net.Client.txn_k c0 [ (0, 17); (1, 18) ];
  Alcotest.(check (list int))
    "second batch replaces the cut" [ 17; 18; 9 ]
    (Net.Client.snap_k c2 [ 0; 1; 5 ]);
  Alcotest.(check int) "point read sees batched write" 9
    (Net.Client.read_k c2 ~key:5);
  (* rejections, all surfacing on the calling session *)
  (match Net.Client.txn_k c0 [ (0, 1); (0, 2) ] with
   | () -> Alcotest.fail "duplicate txn keys accepted"
   | exception Invalid_argument _ -> ());
  (match Net.Client.snap_k c2 [] with
   | _ -> Alcotest.fail "empty snapshot accepted"
   | exception Invalid_argument _ -> ());
  (match Net.Client.txn_k c2 [ (0, 99) ] with
   | () -> Alcotest.fail "txn by a reader session accepted"
   | exception Invalid_argument _ -> ());
  let c5 = Net.Client.connect ~net ~server:Net.Transport.server ~proc:5 () in
  (match Net.Client.txn_k c5 [ (0, 99) ] with
   | () -> Alcotest.fail "txn by a rogue session accepted"
   | exception Invalid_argument _ -> ());
  Net.Client.close c5;
  Net.Client.close c0;
  Net.Client.close c2;
  let ts = Net.Txn.stats (Net.Server.txns server) in
  let tviol = Net.Server.txn_violations server in
  let viol = Net.Server.violations server in
  Net.Socket_net.shutdown net;
  Alcotest.(check int) "two batches committed" 2 ts.Net.Txn.txns_committed;
  Alcotest.(check int) "three snapshots served" 3 ts.Net.Txn.snaps_served;
  Alcotest.(check int) "nothing left in flight" 0 ts.Net.Txn.in_flight;
  Alcotest.(check (list string)) "no torn-batch verdicts" [] tviol;
  match viol with
  | [] -> ()
  | (k, v) :: _ ->
    Alcotest.failf "key %d live audit: %a" k
      (Histories.Fastcheck.pp_violation Fmt.int) v

let socket_close_seals_txn () =
  (* the PR 7 close-seal regression extended to multi-key frames: a
     [close] racing an in-flight prepare must fail the transaction
     deterministically — Invalid_argument on the caller, never a hang,
     never a torn pair visible afterwards *)
  let net, server =
    socket_cluster ~map:(Net.Shard_map.create ~shards:2 ()) ()
  in
  (* leg 1: sealed session fails multi-key ops outright *)
  let c0 = Net.Client.connect ~net ~server:Net.Transport.server ~proc:0 () in
  Net.Client.txn_k c0 [ (0, 10); (1, 11) ];
  Net.Client.close c0;
  (match Net.Client.txn_k c0 [ (0, 1); (1, 2) ] with
   | () -> Alcotest.fail "txn after close should raise"
   | exception Invalid_argument _ -> ());
  (match Net.Client.snap_k c0 [ 0; 1 ] with
   | _ -> Alcotest.fail "snapshot after close should raise"
   | exception Invalid_argument _ -> ());
  (* leg 2: close mid-stream — the writer loops paired batches until
     the seal lands; whichever txn it interrupts must abort cleanly *)
  let c1 = Net.Client.connect ~net ~server:Net.Transport.server ~proc:1 () in
  let acked = Atomic.make 1 in
  let writer =
    Thread.create
      (fun () ->
        try
          let i = ref 2 in
          while true do
            Net.Client.txn_k c1 [ (0, 10 * !i); (1, (10 * !i) + 1) ];
            Atomic.set acked !i;
            incr i
          done
        with Invalid_argument _ -> ())
      ()
  in
  Thread.delay 0.05;
  Net.Client.close c1;
  Thread.join writer;
  (* every cut a fresh reader can observe pairs key 1 with key 0 *)
  let c2 = Net.Client.connect ~net ~server:Net.Transport.server ~proc:2 () in
  (match Net.Client.snap_k c2 [ 0; 1 ] with
   | [ a; b ] ->
     Alcotest.(check int) "cut is an intact pair" (a + 1) b;
     Alcotest.(check bool)
       (Fmt.str "every acked batch visible (saw %d, acked %d)" (a / 10)
          (Atomic.get acked))
       true
       (a / 10 >= Atomic.get acked)
   | vs -> Alcotest.failf "snapshot arity %d" (List.length vs));
  Net.Client.close c2;
  let tviol = Net.Server.txn_violations server in
  Net.Socket_net.shutdown net;
  Alcotest.(check (list string)) "no torn-batch verdicts" [] tviol

(* Run [f] on its own thread and give it [secs] to finish: [None] if it
   is still blocked then (the thread is left parked), else its result,
   re-raising what it raised. *)
let within secs f =
  let result = Atomic.make None in
  let th =
    Thread.create
      (fun () ->
        Atomic.set result (Some (try Ok (f ()) with e -> Error e)))
      ()
  in
  let deadline = Unix.gettimeofday () +. secs in
  while Atomic.get result = None && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  match Atomic.get result with
  | None -> None
  | Some r ->
    Thread.join th;
    Some (Result.fold ~ok:Fun.id ~error:raise r)

let socket_control_on_closed_client () =
  (* a control request on a closed client must raise, not park on a
     reply that can never arrive *)
  let net, _server = socket_cluster () in
  let c = Net.Client.connect ~net ~server:Net.Transport.server ~proc:2 () in
  Net.Client.close c;
  let raises call () =
    try
      call ();
      false
    with Invalid_argument _ -> true
  in
  let verdicts =
    List.map
      (fun (name, call) -> (name, within 2.0 (raises call)))
      [
        ("stats", fun () -> ignore (Net.Client.stats c));
        ("epoch", fun () -> ignore (Net.Client.epoch c));
        ("reshard", fun () -> ignore (Net.Client.reshard c ~key:0 ~to_shard:0));
      ]
  in
  Net.Socket_net.shutdown net;
  List.iter
    (fun (name, verdict) ->
      Alcotest.(check (option bool))
        (name ^ " raised Invalid_argument within 2 s")
        (Some true) verdict)
    verdicts

let socket_one_table_no_crossed_replies () =
  (* operations and control requests share one reply table: the posted
     writes' [Resp]s must satisfy neither the stats wait nor the read's,
     and the stats request must leave no gap in the seqs the server
     admits in order *)
  let net, _server = socket_cluster () in
  let c =
    Net.Client.connect ~net ~server:Net.Transport.server ~proc:0
      ~flush_every:0.0 ()
  in
  for v = 1 to 5 do
    Net.Client.post c (W.Write_k { key = 0; value = v })
  done;
  match
    within 10.0 (fun () ->
        let stats = Net.Client.stats c in
        (List.assoc_opt "sessions" stats, Net.Client.read_k c ~key:0))
  with
  | None ->
    Net.Socket_net.shutdown net;
    Alcotest.fail "stats then read still blocked after 10 s"
  | Some (sessions, v) ->
    Net.Client.close c;
    Net.Socket_net.shutdown net;
    Alcotest.(check (option int)) "stats answered by a Stats_reply" (Some 1)
      sessions;
    Alcotest.(check int) "read returns the last posted write" 5 v

(* The tier-1 suite: pure wire/shard/replica units plus the fast
   simulator runs.  Everything that opens real sockets or sweeps many
   seeds lives in [slow_suite], run via [dune build @slow]. *)
(* ------------------------------------------------------------------ *)
(* Worker-domain pool and the batch fast path                          *)

(* A synchronous in-process cluster: every send recurses directly into
   the destination's handler on the calling thread, so a whole client
   batch runs as one deterministic call tree — which makes the commit
   accounting below exact instead of timing-dependent.  Replicas are
   mutex-wrapped because a Server_pool calls in from several worker
   domains. *)
let loopback_transport ~on_server ~on_client =
  let reps = Hashtbl.create 4 in
  let rec send ~src ~dst msg =
    if dst = Net.Transport.server then on_server ~src msg
    else if dst >= 200 then on_client ~src ~dst msg
    else begin
      let mu, rep =
        match Hashtbl.find_opt reps dst with
        | Some r -> r
        | None ->
          let r = (Mutex.create (), Net.Replica.create ~init:0 ()) in
          Hashtbl.replace reps dst r;
          r
      in
      let emits =
        Mutex.protect mu (fun () -> replica_handle rep ~src msg)
      in
      (* coalesce replies per destination, as the socket receivers do:
         a Batch of K queries answers as one Batch of K replies, so the
         server sees the whole round in one turn *)
      let dsts = List.sort_uniq compare (List.map fst emits) in
      List.iter
        (fun dst' ->
          match List.filter_map
                  (fun (d, m) -> if d = dst' then Some m else None)
                  emits
          with
          | [ m ] -> send ~src:dst ~dst:dst' m
          | ms -> send ~src:dst ~dst:dst' (W.Batch ms))
        dsts
    end
  in
  {
    Net.Transport.send;
    (* no timers: delivery is synchronous and lossless, so resends and
       flush deadlines have nothing to do *)
    set_timer = (fun ~node:_ ~delay:_ _ -> ());
    now = Unix.gettimeofday;
  }

(* A [domains]-worker pool behind [loopback_transport], and the count
   of responses the client has seen.  The last [Stats_reply]'s rows go
   into [stats]. *)
let loopback_pool ?storage ?map ?trace ?(stats = Atomic.make None) ~domains
    () =
  let resps = Atomic.make 0 in
  let pool = ref None in
  let tr =
    loopback_transport
      ~on_server:(fun ~src msg ->
        match !pool with
        | Some p -> Net.Server_pool.dispatch p ~src msg
        | None -> ())
      ~on_client:(fun ~src:_ ~dst:_ msg ->
        let note = function
          | W.Resp _ -> Atomic.incr resps
          | W.Stats_reply { stats = rows; _ } -> Atomic.set stats (Some rows)
          | _ -> ()
        in
        match msg with W.Batch ms -> List.iter note ms | m -> note m)
  in
  let p =
    Net.Server_pool.create ~transport:tr ~audit:true ?storage ?map ?trace
      ~domains ~me:Net.Transport.server ~replicas:[ 0; 1; 2 ] ~init:0 ()
  in
  pool := Some p;
  (tr, p, resps)

(* A [domains]-worker pool over real sockets and [socket_replicas], as
   the service deploys it. *)
let socket_pool ?engine ~shards ~domains () =
  let net = Net.Socket_net.create () in
  ignore (socket_replicas net);
  let pool =
    Net.Server_pool.create ~transport:(Net.Socket_net.transport net)
      ~audit:true ~metrics:(Net.Socket_net.metrics net) ?engine
      ~map:(Net.Shard_map.create ~shards ()) ~domains ~me:Net.Transport.server
      ~replicas:[ 0; 1; 2 ] ~init:0 ()
  in
  Net.Socket_net.listen net Net.Transport.server (Net.Server_pool.dispatch pool);
  (net, pool)

(* Poll until [resps] reaches [n] or 10 s pass: the workers answer on
   their own domains. *)
let await_resps resps n =
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Atomic.get resps < n && Unix.gettimeofday () < deadline do
    Thread.yield ()
  done

(* Poll until a [Stats_reply] lands in [stats] or 10 s pass. *)
let await_stats stats =
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Atomic.get stats = None && Unix.gettimeofday () < deadline do
    Thread.yield ()
  done

let batch_group_commit () =
  (* the batch fast path end to end: one client Batch of K same-shard
     writes (distinct keys, so they run concurrently — same-key ops
     serialize per-key and commit one by one), the corked core of a
     1-domain pool, group-commit store — the K wts appends must reach
     the backend in full batches, not as K singleton writes.  Each
     write's collect completes on the reply turn of the second of its
     window's two replicas, and windows rotate over the three replicas,
     so the K appends arrive in at most n - q + 1 = 2 turns: at most
     one partial batch per extra turn, ceil(K/batch_max) + n - q
     commits in all. *)
  let k = 32 and gc = 8 in
  let st =
    Net.Storage.create
      ~group_commit:{ Net.Storage.batch_max = gc; flush_every = 0.0 }
      (Net.Storage.Disk.backend (Net.Storage.Disk.create ()))
  in
  let tr, p, resps = loopback_pool ~storage:(fun _ -> Some st) ~domains:1 () in
  let cl = Net.Transport.client 0 in
  tr.Net.Transport.send ~src:cl ~dst:Net.Transport.server (W.Hello { proc = 0 });
  tr.Net.Transport.send ~src:cl ~dst:Net.Transport.server
    (W.Batch
       (List.init k (fun i ->
            W.Req { seq = i; op = W.Write_k { key = i; value = i + 1 } })));
  await_resps resps k;
  tr.Net.Transport.send ~src:cl ~dst:Net.Transport.server W.Bye;
  Net.Server_pool.stop p;
  Alcotest.(check int) "all writes served" k (Atomic.get resps);
  Alcotest.(check int) "all writes acknowledged" k
    (Net.Server_pool.ops_served p);
  let stats = Net.Storage.stats st in
  let bound = ((k + gc - 1) / gc) + (3 - q3) in
  Alcotest.(check bool)
    (Fmt.str "commits %d <= ceil(K/batch_max) + n - q = %d"
       stats.Net.Storage.batch_commits bound)
    true
    (stats.Net.Storage.batch_commits <= bound);
  Alcotest.(check int) "commits are full batches" gc stats.Net.Storage.max_batch;
  match Net.Server_pool.violations p with
  | [] -> ()
  | (key, v) :: _ ->
    Alcotest.failf "audit, key %d: %a" key
      (Histories.Fastcheck.pp_violation Fmt.int) v

let pool_worker_survives_raise () =
  (* a worker whose handler raises keeps serving: the exception is
     counted in [worker_exn], a later op on another key is answered,
     and [stop] re-raises it.  It is raised here by the send of op 0's
     reply, at the end of the worker's cork turn — the path an
     exception from [Wire.frame] would take. *)
  let metrics = Net.Metrics.create () in
  let resps = Atomic.make 0 in
  let pool = ref None in
  let rec poisoned = function
    | W.Resp { seq = 0; _ } -> true
    | W.Batch ms -> List.exists poisoned ms
    | _ -> false
  in
  let tr =
    loopback_transport
      ~on_server:(fun ~src msg ->
        match !pool with
        | Some p -> Net.Server_pool.dispatch p ~src msg
        | None -> ())
      ~on_client:(fun ~src:_ ~dst:_ msg ->
        if poisoned msg then failwith "poisoned reply";
        let count = function W.Resp _ -> Atomic.incr resps | _ -> () in
        match msg with W.Batch ms -> List.iter count ms | m -> count m)
  in
  let p =
    Net.Server_pool.create ~transport:tr ~metrics ~domains:1
      ~me:Net.Transport.server ~replicas:[ 0; 1; 2 ] ~init:0 ()
  in
  pool := Some p;
  let cl = Net.Transport.client 0 in
  let send m = tr.Net.Transport.send ~src:cl ~dst:Net.Transport.server m in
  send (W.Hello { proc = 0 });
  send (W.Req { seq = 0; op = W.Write_k { key = 1; value = 5 } });
  let deadline = Unix.gettimeofday () +. 10.0 in
  while
    Net.Metrics.get metrics "worker_exn" = 0 && Unix.gettimeofday () < deadline
  do
    Thread.yield ()
  done;
  Alcotest.(check int) "exception counted" 1
    (Net.Metrics.get metrics "worker_exn");
  send (W.Req { seq = 1; op = W.Read_k { key = 2 } });
  await_resps resps 1;
  Alcotest.(check int) "later op on another key answered" 1
    (Atomic.get resps);
  send W.Bye;
  Alcotest.check_raises "stop re-raises the worker's exception"
    (Failure "poisoned reply") (fun () -> Net.Server_pool.stop p);
  Alcotest.(check int) "counted once" 1 (Net.Metrics.get metrics "worker_exn")

let pool_mixed_shard_batch () =
  (* one client Batch interleaving keys on every shard, dispatched to a
     two-domain pool: every op must be served exactly once, per-session
     per-key order must hold, and every per-key Monitor must stay clean *)
  let shards = 4 and domains = 2 and nkeys = 8 and per_key = 6 in
  let trace = Net.Trace.create () in
  let tr, p, resps =
    loopback_pool ~map:(Net.Shard_map.create ~shards ()) ~trace ~domains ()
  in
  let cl = Net.Transport.client 0 in
  tr.Net.Transport.send ~src:cl ~dst:Net.Transport.server (W.Hello { proc = 0 });
  (* round-robin over the keys so consecutive ops always change shard *)
  let n = nkeys * per_key in
  tr.Net.Transport.send ~src:cl ~dst:Net.Transport.server
    (W.Batch
       (List.init n (fun i ->
            let key = i mod nkeys in
            let op =
              if i mod 3 = 2 then W.Read_k { key }
              else W.Write_k { key; value = i + 1 }
            in
            W.Req { seq = i; op })));
  await_resps resps n;
  tr.Net.Transport.send ~src:cl ~dst:Net.Transport.server W.Bye;
  Net.Server_pool.stop p;
  Alcotest.(check int) "every op answered exactly once" n (Atomic.get resps);
  Alcotest.(check int) "every op served" n (Net.Server_pool.ops_served p);
  Alcotest.(check int) "no rejects" 0 (Net.Server_pool.rejected p);
  (match Net.Server_pool.violations p with
   | [] -> ()
   | (key, v) :: _ ->
     Alcotest.failf "monitor violation on key %d: %a" key
       (Histories.Fastcheck.pp_violation Fmt.int) v);
  (* cross-check the per-key histories offline, from the shared trace;
     an empty or wrapped one would pass vacuously *)
  Alcotest.(check int) "trace kept whole" 0 (Net.Trace.overwritten trace);
  Alcotest.(check bool) "two trace events per op" true
    (Net.Trace.recorded trace >= 2 * n);
  List.iter
    (fun key ->
      let evs =
        List.filter_map
          (fun (k, ev) -> if k = key then Some ev else None)
          (Net.Trace.keyed_history trace)
      in
      match
        Histories.Fastcheck.check_unique ~init:0
          (Histories.Operation.of_events_exn evs)
      with
      | Histories.Fastcheck.Atomic _ -> ()
      | Histories.Fastcheck.Violation v ->
        Alcotest.failf "offline check, key %d: %a" key
          (Histories.Fastcheck.pp_violation Fmt.int) v)
    (List.init nkeys Fun.id)

let pool_soak_constant_memory () =
  (* the deployed pool's audit memory is constant per key: run N ops on
     a few keys, then 9N more on the same keys, and the live heap must
     not have grown with the op count.  A core that kept its history,
     or a monitor that never forgot a superseded write, grows by tens
     of words per op.  Two writers and a reader share the keys, so
     reads overlap the writes that supersede what they return *)
  let rounds = 50 and nkeys = 4 and window = 32 and procs = [ 0; 1; 2 ] in
  let tr, p, resps = loopback_pool ~domains:1 () in
  let send proc msg =
    tr.Net.Transport.send ~src:(Net.Transport.client proc)
      ~dst:Net.Transport.server msg
  in
  List.iter (fun proc -> send proc (W.Hello { proc })) procs;
  let seq = ref 0 and sent = ref 0 in
  let run rounds =
    for _ = 1 to rounds do
      List.iter
        (fun proc ->
          send proc
            (W.Batch
               (List.init window (fun i ->
                    let seq = !seq + i in
                    let key = seq mod nkeys in
                    W.Req
                      {
                        seq;
                        op =
                          (if proc = 2 then W.Read_k { key }
                           else W.Write_k { key; value = (2 * seq) + proc + 1 });
                      }))))
        procs;
      seq := !seq + window;
      sent := !sent + (window * List.length procs);
      await_resps resps !sent
    done
  in
  let live_words () =
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  run rounds;
  let base = live_words () in
  run (9 * rounds);
  let grown = live_words () - base in
  List.iter (fun proc -> send proc W.Bye) procs;
  Net.Server_pool.stop p;
  Alcotest.(check int) "every op served" !sent (Net.Server_pool.ops_served p);
  Alcotest.(check bool) "audit clean" true (Net.Server_pool.violations p = []);
  Alcotest.(check bool)
    (Fmt.str "heap grew %d words over the last %d ops (live %d before)"
       grown (!sent * 9 / 10) base)
    true
    (grown * 10 < base)

let socket_pool_domains () =
  (* the pool over real sockets: two worker domains, sharded keyspace,
     concurrent keyed clients — audits must stay clean and every op
     must be answered.  Each writer reads back every key it writes, so
     its reads go through its local copy on the key's owning domain. *)
  let nkeys = 8 in
  let net, pool = socket_pool ~shards:4 ~domains:2 () in
  let scripts =
    List.map
      (fun { Registers.Vm.proc; script } ->
        ( proc,
          List.concat
            (List.mapi
               (fun i op ->
                 let key = i mod nkeys in
                 if proc <= 1 then [ (key, op); (key, E.Read) ]
                 else [ (key, op) ])
               script) ))
      (spec ~readers:2 ~writes:20 ~reads:20)
  in
  let expected =
    List.fold_left (fun n (_, script) -> n + List.length script) 0 scripts
  in
  let threads =
    List.map
      (fun (proc, script) ->
        Thread.create
          (fun () ->
            let c =
              Net.Client.connect ~net ~server:Net.Transport.server
                ~batch_max:8 ~proc ()
            in
            ignore (Net.Client.run_keyed ~window:8 c script);
            Net.Client.close c)
          ())
      scripts
  in
  List.iter Thread.join threads;
  Net.Server_pool.stop pool;
  let served = Net.Server_pool.ops_served pool in
  let violations = Net.Server_pool.violations pool in
  let copy_reads = Net.Metrics.get (Net.Socket_net.metrics net) "copy_reads" in
  Net.Socket_net.shutdown net;
  Alcotest.(check int) "all ops served" expected served;
  Alcotest.(check int) "every writer read through its copy" 40 copy_reads;
  match violations with
  | [] -> ()
  | (key, v) :: _ ->
    Alcotest.failf "monitor violation on key %d: %a" key
      (Histories.Fastcheck.pp_violation Fmt.int) v

let socket_pool_txn_snap () =
  (* atomic batches + snapshot reads through the worker-domain pool
     over real sockets: two writers batch disjoint key pairs while two
     snapshot readers watch for torn cuts; the coordinator's own audit
     and the per-key monitors must both stay clean *)
  let rounds = 12 and snaps = 10 in
  let net, pool = socket_pool ~shards:4 ~domains:2 () in
  (* writer [p] owns keys [p] and [p + 2]; batch i writes the pair
     (base*i, base*i + 1), so any atomic cut pairs them exactly *)
  let writer proc =
    Thread.create
      (fun () ->
        let base = 100 * (proc + 1) in
        let c = Net.Client.connect ~net ~server:Net.Transport.server ~proc () in
        for i = 1 to rounds do
          Net.Client.txn_k c [ (proc, base * i); (proc + 2, (base * i) + 1) ]
        done;
        Net.Client.close c)
      ()
  in
  let torn = Atomic.make 0 in
  let reader proc =
    Thread.create
      (fun () ->
        let c = Net.Client.connect ~net ~server:Net.Transport.server ~proc () in
        for _ = 1 to snaps do
          match Net.Client.snap_k c [ 0; 1; 2; 3 ] with
          | [ a0; a1; a2; a3 ] ->
            if not ((a0 = 0 && a2 = 0) || a2 = a0 + 1) then
              Atomic.incr torn;
            if not ((a1 = 0 && a3 = 0) || a3 = a1 + 1) then
              Atomic.incr torn
          | _ -> Atomic.incr torn
        done;
        Net.Client.close c)
      ()
  in
  let threads = [ writer 0; writer 1; reader 2; reader 3 ] in
  List.iter Thread.join threads;
  Net.Server_pool.stop pool;
  let ts = Net.Txn.stats (Net.Server_pool.txns pool) in
  let tviol = Net.Server_pool.txn_violations pool in
  let violations = Net.Server_pool.violations pool in
  Net.Socket_net.shutdown net;
  Alcotest.(check int) "no torn cut observed by any reader" 0
    (Atomic.get torn);
  Alcotest.(check int) "every batch committed" (2 * rounds)
    ts.Net.Txn.txns_committed;
  Alcotest.(check int) "every snapshot served" (2 * snaps)
    ts.Net.Txn.snaps_served;
  Alcotest.(check (list string)) "coordinator audit clean" [] tviol;
  match violations with
  | [] -> ()
  | (key, v) :: _ ->
    Alcotest.failf "monitor violation on key %d: %a" key
      (Histories.Fastcheck.pp_violation Fmt.int) v

(* A server core keeping its history on the [held] rig, in the
   engine's place; a second call is a restart over the same replicas
   (and, given the same store, the same disk). *)
let held_server ?engine ?bug ?storage ?metrics h =
  Net.Server.create ~transport:(held_transport h) ~audit:true ?engine ?bug
    ?storage ?metrics ~history:true ~member:(solo_member ()) ~me:engine_node
    ~replicas:[ 0; 1; 2 ] ~init:0 ()

let pump h sv = deliver h (Net.Server.on_message sv)

(* the responses the server has sent to client node [dst] *)
let resps_to h dst =
  List.filter_map
    (fun (d, m) ->
      match m with
      | W.Resp { seq; result } when d = dst -> Some (seq, result)
      | _ -> None)
    h.from_engine

let no_violation sv =
  match Net.Server.violations sv with
  | [] -> ()
  | (_, v) :: _ ->
    Alcotest.failf "live audit: %a" (Histories.Fastcheck.pp_violation Fmt.int) v

let reconnect_keeps_processor_sequential () =
  (* regression: [Bye] dropped the session together with its per-key
     lanes, so a [Hello] from the same node started a second op on a
     key whose first op was still in flight — the live Monitor then
     raised "processor not sequential" out of [on_message].  Every
     send is held in a queue and delivered only by [pump], so the
     first write is provably in flight across the reconnect. *)
  let h = holding () in
  let sv = held_server h in
  let cl = Net.Transport.client 0 in
  let from_client msg = Net.Server.on_message sv ~src:cl msg in
  from_client (W.Hello { proc = 0 });
  from_client (W.Req { seq = 0; op = W.Write_k { key = 0; value = 1 } });
  Alcotest.(check bool) "first write in flight" true
    (Net.Server.ops_served sv = 0 && h.queue <> []);
  from_client W.Bye;
  from_client (W.Hello { proc = 0 });
  from_client (W.Req { seq = 0; op = W.Write_k { key = 0; value = 2 } });
  pump h sv;
  Alcotest.(check int) "both writes served" 2 (Net.Server.ops_served sv);
  Alcotest.(check int) "only the live session is answered" 1
    (List.length (resps_to h cl));
  Alcotest.(check bool) "writes ran one after the other" true
    (Net.Server.history sv
    = [
        E.Invoke (0, E.Write 1); E.Respond (0, None);
        E.Invoke (0, E.Write 2); E.Respond (0, None);
      ]);
  no_violation sv

let two_nodes_one_writer_role_sequential () =
  (* two client nodes both claim writer role 0: the paper's writer is
     sequential, so the second node's write to the key must not start
     (send a query) before the first node's write has responded *)
  let h = holding () in
  let sv = held_server h in
  let a = Net.Transport.client 0 and b = Net.Transport.client 1 in
  Net.Server.on_message sv ~src:a (W.Hello { proc = 0 });
  Net.Server.on_message sv ~src:b (W.Hello { proc = 0 });
  Net.Server.on_message sv ~src:a
    (W.Req { seq = 0; op = W.Write_k { key = 0; value = 1 } });
  Net.Server.on_message sv ~src:b
    (W.Req { seq = 0; op = W.Write_k { key = 0; value = 2 } });
  pump h sv;
  let rec queries_before_resp n = function
    | [] -> None
    | (_, W.Resp _) :: _ -> Some n
    | (_, W.Query _) :: rest -> queries_before_resp (n + 1) rest
    | _ :: rest -> queries_before_resp n rest
  in
  Alcotest.(check (option int)) "queries before the first response"
    (Some q3) (queries_before_resp 0 (List.rev h.from_engine));
  Alcotest.(check int) "both writes served" 2 (Net.Server.ops_served sv);
  Alcotest.(check bool) "writes ran one after the other" true
    (Net.Server.history sv
    = [
        E.Invoke (0, E.Write 1); E.Respond (0, None);
        E.Invoke (0, E.Write 2); E.Respond (0, None);
      ]);
  no_violation sv

(* A client of a [held_server]: each call runs one request to
   completion and returns its result with the real reads it cost (the
   engine's read count). *)
let held_client h sv ~proc =
  let node = Net.Transport.client proc in
  let seq = ref 0 in
  Net.Server.on_message !sv ~src:node (W.Hello { proc });
  fun op ->
    let reads () = (Net.Server.quorum_stats !sv).Net.Engine.reads in
    let before = reads () in
    h.from_engine <- [];
    Net.Server.on_message !sv ~src:node (W.Req { seq = !seq; op });
    pump h !sv;
    let result =
      match List.assoc_opt !seq (resps_to h node) with
      | Some result -> result
      | None -> Alcotest.failf "proc %d: op %d unanswered" proc !seq
    in
    incr seq;
    (result, reads () - before)

let read_k = W.Read_k { key = 0 }
let write_k v = W.Write_k { key = 0; value = v }
let cost = Alcotest.(pair (option int) int)

let writer_reads_through_copy engine () =
  (* Section 5's local copy at the service: a writer's read costs 1
     real read when the tag sum points at its own register, 2 when it
     points away; another processor's read still costs 3 *)
  let h = holding () in
  let m = Net.Metrics.create () in
  let sv = ref (held_server ~engine ~metrics:m h) in
  let w0 = held_client h sv ~proc:0 and w1 = held_client h sv ~proc:1 in
  let rd = held_client h sv ~proc:2 in
  Alcotest.(check cost) "read before any write: plain" (Some 0, 3) (w0 read_k);
  Alcotest.(check cost) "write: 1 real read" (None, 1) (w0 (write_k 10));
  Alcotest.(check cost) "home read" (Some 10, 1) (w0 read_k);
  ignore (w1 (write_k 20));
  Alcotest.(check cost) "away read" (Some 20, 2) (w0 read_k);
  Alcotest.(check cost) "the other writer's home read" (Some 20, 1) (w1 read_k);
  Alcotest.(check cost) "reader: 3 real reads" (Some 20, 3) (rd read_k);
  Alcotest.(check int) "copy reads" 3 (Net.Metrics.get m "copy_reads");
  Alcotest.(check int) "copy misses" 1 (Net.Metrics.get m "copy_misses");
  no_violation !sv

let restarted_server_reads_plainly () =
  (* the copy is never persisted: a restarted durable server's first
     read by a writer runs the plain program and returns the last
     acked write; the writer's next write makes a new copy *)
  let h = holding () in
  let disk = Net.Storage.Disk.create () in
  let open_server () =
    held_server ~storage:(Net.Storage.create (Net.Storage.Disk.backend disk)) h
  in
  let sv = ref (open_server ()) in
  let w0 = held_client h sv ~proc:0 in
  ignore (w0 (write_k 10));
  Alcotest.(check cost) "home read" (Some 10, 1) (w0 read_k);
  sv := open_server ();
  let w0 = held_client h sv ~proc:0 in
  Alcotest.(check cost) "first read after restart: plain" (Some 10, 3)
    (w0 read_k);
  ignore (w0 (write_k 11));
  Alcotest.(check cost) "then through the new copy" (Some 11, 1) (w0 read_k);
  no_violation !sv

(* A writer's write, its one-key transaction on the same key, then its
   read: what the read returns. *)
let read_after_txn bug =
  let h = holding () in
  let sv = ref (held_server ~bug h) in
  let w0 = held_client h sv ~proc:0 in
  ignore (w0 (write_k 10));
  ignore (w0 (W.Txn_k { writes = [ (0, 11) ] }));
  fst (w0 read_k)

let txn_write_refreshes_copy () =
  Alcotest.(check (option int)) "read returns the txn's value" (Some 11)
    (read_after_txn Net.Bug.none);
  (* the same check catches the deliberate bug *)
  Alcotest.(check (option int)) "stale copy returns the overwritten value"
    (Some 10)
    (read_after_txn { Net.Bug.none with stale_copy = true })

(* Compaction under in-flight snapshot reads: a held server whose own
   store snapshots after every append, both writers' [Txn_k] batches
   racing two readers' [Snap_k] reads over the same two key sets,
   every held message delivered in a seeded random order.  The
   coordinator's locks keep a batch and a snapshot on one key set
   apart, so a compaction under a running snapshot comes from a batch
   on the other set.  No read holds compaction off, and none needs to:
   every [Storage.find] after a step answers what the table held
   before it, updated only by the entries the step appended, whatever
   the step compacted. *)
let compaction_under_snapshot_reads () =
  let sets = [| [ 0; 1; 2 ]; [ 3; 4 ] |] and rounds = 6 in
  let regs =
    List.concat_map
      (fun k -> [ Net.Shard_map.global_reg k 0; Net.Shard_map.global_reg k 1 ])
      (List.concat (Array.to_list sets))
  in
  for seed = 1 to 5 do
    let rng = Random.State.make [| seed |] in
    let h = holding () in
    let disk = Net.Storage.Disk.create () in
    (* the entries each step commits, read back from the bytes the
       store hands its backend *)
    let appended = ref [] in
    let be = Net.Storage.Disk.backend disk in
    let be =
      { be with
        Net.Storage.append_wal =
          (fun b n ->
            let records, _ = Net.Storage.scan (Bytes.sub_string b 0 n) in
            List.iter
              (fun p ->
                appended := Option.get (Net.Storage.decode_entry p) :: !appended)
              records;
            be.Net.Storage.append_wal b n) }
    in
    let st = Net.Storage.create ~snapshot_every:1 be in
    let sv = held_server ~storage:st h in
    let absent = (-1, Registers.Tagged.make 0 false) in
    let find reg = Net.Storage.find st reg ~default:absent in
    let send p op seq =
      Net.Server.on_message sv ~src:(Net.Transport.client p)
        (W.Req { seq; op })
    in
    List.iter
      (fun p ->
        Net.Server.on_message sv ~src:(Net.Transport.client p)
          (W.Hello { proc = p }))
      [ 0; 1; 2; 3 ];
    for i = 0 to rounds - 1 do
      List.iter
        (fun p ->
          let writes =
            List.map
              (fun k -> (k, (1000 * (p + 1)) + (10 * i) + k + 1))
              sets.(i mod 2)
          in
          send p (W.Txn_k { writes }) i)
        [ 0; 1 ];
      List.iter
        (fun p -> send p (W.Snap_k { keys = sets.((i + p) mod 2) }) i)
        [ 2; 3 ]
    done;
    (* a reader's key read is in flight between its invoke and its
       respond in the server's history *)
    let reads_in_flight () =
      List.fold_left
        (fun n -> function
          | E.Invoke (p, E.Read) when p >= 2 -> n + 1
          | E.Respond (p, _) when p >= 2 -> n - 1
          | _ -> n)
        0 (Net.Server.history sv)
    in
    let compactions_under_reads = ref 0 in
    while h.queue <> [] do
      let i = Random.State.int rng (List.length h.queue) in
      let src, dst, msg = List.nth h.queue i in
      h.queue <- List.filteri (fun j _ -> j <> i) h.queue;
      let before = List.map find regs in
      let snaps = Net.Storage.Disk.snapshots disk in
      let in_flight = reads_in_flight () > 0 in
      appended := [];
      if dst = engine_node then Net.Server.on_message sv ~src msg
      else if dst < Array.length h.reps then
        List.iter
          (fun (d, m) -> h.queue <- h.queue @ [ (dst, d, m) ])
          (replica_handle h.reps.(dst) ~src msg);
      let compacted = Net.Storage.Disk.snapshots disk > snaps in
      if compacted && in_flight then incr compactions_under_reads;
      List.iter2
        (fun reg (ts, pl) ->
          let want =
            List.fold_left
              (fun (ts, pl) e ->
                if e.Net.Storage.reg = reg && e.Net.Storage.ts > ts then
                  (e.Net.Storage.ts, e.Net.Storage.pl)
                else (ts, pl))
              (ts, pl) (List.rev !appended)
          in
          if find reg <> want then
            Alcotest.failf "seed %d: reg %d moved across a compaction" seed
              reg)
        regs before
    done;
    let answered p =
      List.length
        (List.filter
           (fun (d, m) ->
             d = Net.Transport.client p
             && match m with W.Resp _ | W.Resp_snap _ -> true | _ -> false)
           h.from_engine)
    in
    List.iter
      (fun p ->
        Alcotest.(check int) (Fmt.str "seed %d: proc %d answered" seed p)
          rounds (answered p))
      [ 0; 1; 2; 3 ];
    Alcotest.(check bool)
      (Fmt.str "seed %d: compactions while a snapshot read ran" seed)
      true
      (!compactions_under_reads > 0);
    Alcotest.(check (list string)) (Fmt.str "seed %d: no torn batch" seed) []
      (Net.Server.txn_violations sv);
    no_violation sv;
    let reopened = Net.Storage.create (Net.Storage.Disk.backend disk) in
    Alcotest.(check bool) (Fmt.str "seed %d: reopened = live" seed) true
      (Net.Storage.contents reopened = Net.Storage.contents st)
  done

let socket_client_send_order () =
  (* regression: the deadline flusher and a batch-filling request each
     detached a batch under the client lock and sent it outside, so a
     later batch could overtake an earlier one on the wire; a
     presequenced pool core then silently dropped the lower sequence
     numbers and the client hung awaiting them.  A short flush deadline
     under a wide window makes the race likely; the watchdog turns a
     hang into a failure by closing the clients, which fails their
     blocked awaits. *)
  let n = 20_000 and window = 64 and nkeys = 16 in
  let net, pool = socket_pool ~shards:4 ~domains:1 () in
  let clients =
    List.init 2 (fun proc ->
        Net.Client.connect ~net ~server:Net.Transport.server ~proc
          ~flush_every:0.0005 ())
  in
  let finished = Atomic.make 0 and hung = Atomic.make false in
  let watchdog =
    Thread.create
      (fun () ->
        let deadline = Unix.gettimeofday () +. 120.0 in
        while Atomic.get finished < 2 && Unix.gettimeofday () < deadline do
          Thread.delay 0.05
        done;
        if Atomic.get finished < 2 then begin
          Atomic.set hung true;
          List.iter Net.Client.close clients
        end)
      ()
  in
  let load proc c =
    Thread.create
      (fun () ->
        (try
           ignore
             (Net.Client.run_keyed ~window c
                (List.init n (fun i ->
                     (i mod nkeys, E.Write ((1_000_000 * (proc + 1)) + i)))))
         with Invalid_argument _ -> ());
        Atomic.incr finished)
      ()
  in
  List.iter Thread.join (List.mapi load clients);
  Thread.join watchdog;
  if not (Atomic.get hung) then List.iter Net.Client.close clients;
  Net.Server_pool.stop pool;
  let served = Net.Server_pool.ops_served pool in
  let violations = Net.Server_pool.violations pool in
  Net.Socket_net.shutdown net;
  Alcotest.(check bool) "no client hung" false (Atomic.get hung);
  Alcotest.(check int) "every write served" (2 * n) served;
  match violations with
  | [] -> ()
  | (key, v) :: _ ->
    Alcotest.failf "monitor violation on key %d: %a" key
      (Histories.Fastcheck.pp_violation Fmt.int) v

let socket_timer_stale_incarnation () =
  (* the socket counterpart of Sim_run's incarnation check: a timer
     armed against one listen incarnation must not fire into a
     replacement endpoint registered at the same node id *)
  let net = Net.Socket_net.create () in
  let tr = Net.Socket_net.transport net in
  Net.Socket_net.listen net 91 (fun ~src:_ _ -> ());
  let fired = Atomic.make false in
  tr.Net.Transport.set_timer ~node:91 ~delay:0.05 (fun () ->
      Atomic.set fired true);
  (* replace the endpoint between arm and fire *)
  Net.Socket_net.unlisten net 91;
  Net.Socket_net.listen net 91 (fun ~src:_ _ -> ());
  Thread.delay 0.2;
  let dropped = Net.Metrics.get (Net.Socket_net.metrics net) "timers_dropped" in
  (* a fresh arm against the new incarnation still works *)
  let ok = Atomic.make false in
  tr.Net.Transport.set_timer ~node:91 ~delay:0.02 (fun () ->
      Atomic.set ok true);
  Thread.delay 0.2;
  Net.Socket_net.shutdown net;
  Alcotest.(check bool) "stale callback not fired" false (Atomic.get fired);
  Alcotest.(check bool) "stale timer accounted as dropped" true (dropped >= 1);
  Alcotest.(check bool) "fresh timer on the new incarnation fires" true
    (Atomic.get ok)

let socket_tiny_sndbuf () =
  (* regression for the EAGAIN path: with a tiny SO_SNDBUF every frame
     overflows the kernel buffer, so sends must park the remainder on
     the pending queue ([write_queued]) and the writability callback
     must deliver every byte in order — no drops below the cap, no
     decode errors from interleaved partial writes *)
  let n = 50 and width = 64 in
  (* 64 entries x 1 KiB names = a ~66 KiB frame, legal for the decoder
     ([max_stat_name] is 1 KiB) yet 16x SO_SNDBUF *)
  let payload = String.make 1024 'x' in
  let stats = List.init width (fun j -> (payload, j)) in
  let net = Net.Socket_net.create ~sndbuf:4096 () in
  let tr = Net.Socket_net.transport net in
  let mu = Mutex.create () and cv = Condition.create () in
  let got = ref 0 and bad = ref 0 in
  Net.Socket_net.listen net 61 (fun ~src:_ msg ->
      let count = function
        | W.Stats_reply { stats = s; rid }
          when rid >= 1 && rid <= n
               && List.length s = width
               && List.for_all (fun (nm, _) -> nm = payload) s ->
          incr got
        | _ -> incr bad
      in
      (match msg with W.Batch ms -> List.iter count ms | m -> count m);
      Mutex.protect mu (fun () -> Condition.broadcast cv));
  for i = 1 to n do
    tr.Net.Transport.send ~src:60 ~dst:61 (W.Stats_reply { rid = i; stats })
  done;
  let deadline = Unix.gettimeofday () +. 10.0 in
  Mutex.lock mu;
  while !got < n && Unix.gettimeofday () < deadline do
    Mutex.unlock mu;
    Thread.delay 0.01;
    Mutex.lock mu
  done;
  Mutex.unlock mu;
  let m = Net.Socket_net.metrics net in
  let queued = Net.Metrics.get m "write_queued" in
  let decode_errors = Net.Metrics.get m "decode_errors" in
  let dropped = Net.Metrics.get m "frames_dropped" in
  Net.Socket_net.shutdown net;
  Alcotest.(check int) "all frames delivered" n !got;
  Alcotest.(check int) "no mangled frames" 0 !bad;
  Alcotest.(check int) "no decode errors" 0 decode_errors;
  Alcotest.(check int) "no drops below the queue cap" 0 dropped;
  Alcotest.(check bool)
    (Fmt.str "short writes parked on the queue (saw %d)" queued)
    true (queued >= 1)

(* ------------------------------------------------------------------ *)
(* The send cork                                                       *)

let cork_coalesces () =
  (* a capturing transport under [Transport.cork]: what reaches the
     base, and when *)
  let sent = ref [] and timers = ref [] in
  let base =
    {
      Net.Transport.send =
        (fun ~src ~dst msg -> sent := (src, dst, msg) :: !sent);
      set_timer = (fun ~node:_ ~delay:_ f -> timers := f :: !timers);
      now = (fun () -> 0.0);
    }
  in
  let tr, cork = Net.Transport.cork base in
  let turn = Net.Transport.turn cork in
  let shipped () =
    let l = List.rev !sent in
    sent := [];
    l
  in
  let q i = W.Query { rid = i; reg = 0 } in
  let send dst i = tr.Net.Transport.send ~src:5 ~dst (q i) in
  let check what expected got =
    Alcotest.(check bool) what true (got = expected)
  in
  send 1 0;
  check "a send outside a turn passes straight through" [ (5, 1, q 0) ]
    (shipped ());
  turn (fun () ->
      send 1 1;
      send 2 2;
      turn (fun () -> send 1 3);
      check "nothing ships when an inner turn closes" [] (shipped ()));
  check
    "one frame per destination, a Batch only for two or more, in order, \
     destinations in first-send order"
    [ (5, 1, W.Batch [ q 1; q 3 ]); (5, 2, q 2) ]
    (shipped ());
  turn (fun () ->
      send 2 4;
      send 1 5);
  check "slots are reused, and ship in the new turn's order"
    [ (5, 2, q 4); (5, 1, q 5) ]
    (shipped ());
  let n = (2 * 2048) + 1 in
  turn (fun () ->
      for i = 1 to n do
        send 3 i
      done);
  (match shipped () with
   | [ (5, 3, W.Batch a); (5, 3, W.Batch b); (5, 3, last) ] ->
     Alcotest.(check (list int)) "burst split into 2048-message batches"
       [ 2048; 2048 ] [ List.length a; List.length b ];
     check "the split keeps send order" (List.init n (fun i -> q (i + 1)))
       (a @ b @ [ last ])
   | frames ->
     Alcotest.failf "%d-message burst shipped as %d frames" n
       (List.length frames));
  tr.Net.Transport.set_timer ~node:5 ~delay:1.0 (fun () ->
      send 4 1;
      send 4 2;
      check "a timer callback's sends wait for its turn to close" []
        (shipped ()));
  (match !timers with
   | [ fire ] -> fire ()
   | l -> Alcotest.failf "%d timers armed on the base" (List.length l));
  check "a timer callback runs as its own turn" [ (5, 4, W.Batch [ q 1; q 2 ]) ]
    (shipped ())

(* Worker 0 answers a two-domain pool's [Stats_req], but every core
   counts into the one shared registry: a reshard that worker 1 runs
   shows in the reply, and the reply's op and engine counts are the
   pool's own accessors'. *)
let pool_stats_reply () =
  let shards = 2 and domains = 2 in
  let map = Net.Shard_map.create ~shards () in
  let rec worker1_key k =
    if Net.Server.worker_of_key map ~domains k = 1 then k
    else worker1_key (k + 1)
  in
  let key = worker1_key 0 in
  let to_shard = (Net.Shard_map.shard_of_key map key + 1) mod shards in
  let net, pool = socket_pool ~shards ~domains () in
  let c = Net.Client.connect ~net ~server:Net.Transport.server ~proc:0 () in
  Net.Client.write_k c ~key 1;
  Alcotest.(check int) "reshard acked" 1 (Net.Client.reshard c ~key ~to_shard);
  Alcotest.(check int) "read after the handoff" 1 (Net.Client.read_k c ~key);
  let stats = Net.Client.stats c in
  Net.Client.close c;
  Net.Server_pool.stop pool;
  Net.Socket_net.shutdown net;
  let get name =
    match List.assoc_opt name stats with
    | Some v -> v
    | None -> Alcotest.failf "stat %s missing from the reply" name
  in
  Alcotest.(check int) "worker 1's migration completed" 1
    (get "reconfig_completed");
  Alcotest.(check int) "no violation" 0 (get "audit_violation");
  Alcotest.(check int) "ops served" (Net.Server_pool.ops_served pool)
    (get "ops_served");
  let fields (s : Net.Engine.stats) =
    [
      s.reads; s.writes; s.messages_sent; s.retransmissions; s.bytes_sent;
      s.control_bytes_sent;
    ]
  in
  Alcotest.(check (list int)) "engine stats"
    (fields (Net.Server_pool.quorum_stats pool))
    (fields (Net.Engine.stats_of Net.Engine.Abd get))

(* ------------------------------------------------------------------ *)
(* Quorum: a phase keeps a reply mask and a running maximum            *)

(* The tests below hand an engine its replies one at a time, through
   [on_message], leaving [holding]'s queue undelivered. *)
let query_reply ?(rid = 0) ?(ts = 0) ?(v = 0) () =
  W.Query_reply { rid; reg = 0; ts; pl = pl v false }

let store_ack ?(rid = 0) () = W.Store_ack { rid; reg = 0 }

let quorum_duplicate_replies_count_once () =
  let q = quorum_over (holding ()) in
  let got = ref None in
  Net.Quorum.read_ts q ~reg:0 ~k:(fun p -> got := Some p);
  let reply = query_reply () in
  Net.Quorum.on_message q ~src:0 reply;
  Net.Quorum.on_message q ~src:0 reply;
  Alcotest.(check bool) "a duplicate Query_reply does not complete" true
    (!got = None);
  Net.Quorum.on_message q ~src:1 reply;
  Alcotest.(check bool) "a second replica completes the collect" true
    (!got <> None);
  let acked = ref false in
  Net.Quorum.store q ~reg:0 ~ts:1 ~value:(pl 1 false) ~k:(fun () ->
      acked := true);
  let ack = store_ack ~rid:1 () in
  Net.Quorum.on_message q ~src:2 ack;
  Net.Quorum.on_message q ~src:2 ack;
  Alcotest.(check bool) "a duplicate Store_ack does not complete" false !acked;
  Net.Quorum.on_message q ~src:0 ack;
  Alcotest.(check bool) "a second replica completes the store" true !acked

let quorum_outsider_never_completes () =
  let q = quorum_over (holding ()) in
  let got = ref None in
  Net.Quorum.read_ts q ~reg:0 ~k:(fun p -> got := Some p);
  Net.Quorum.on_message q ~src:7 (query_reply ~ts:9 ~v:9 ());
  Net.Quorum.on_message q ~src:0 (query_reply ());
  Alcotest.(check bool) "an outsider's reply is not counted" true (!got = None);
  Net.Quorum.on_message q ~src:1 (query_reply ());
  (match !got with
   | Some (ts, _) -> Alcotest.(check int) "nor its timestamp" 0 ts
   | None -> Alcotest.fail "the group's replies did not complete");
  let acked = ref false in
  Net.Quorum.store q ~reg:0 ~ts:1 ~value:(pl 1 false) ~k:(fun () ->
      acked := true);
  let ack = store_ack ~rid:1 () in
  Net.Quorum.on_message q ~src:7 ack;
  Net.Quorum.on_message q ~src:8 ack;
  Net.Quorum.on_message q ~src:0 ack;
  Alcotest.(check bool) "outsiders' acks are not counted" false !acked;
  Net.Quorum.on_message q ~src:1 ack;
  Alcotest.(check bool) "the group's acks complete" true !acked

let quorum_tie_newest_reply_wins () =
  let q = quorum_over (holding ~n:5 ()) in
  let got = ref None in
  let collect replies =
    got := None;
    Net.Quorum.read_ts q ~reg:0 ~k:(fun (ts, p) ->
        got := Some (ts, Registers.Tagged.v p));
    List.iter (fun (src, m) -> Net.Quorum.on_message q ~src m) replies;
    !got
  in
  Alcotest.(check (option (pair int int))) "equal timestamps: newest reply"
    (Some (3, 30))
    (collect
       [ (0, query_reply ~ts:3 ~v:10 ()); (1, query_reply ~ts:3 ~v:20 ());
         (2, query_reply ~ts:3 ~v:30 ()) ]);
  Alcotest.(check (option (pair int int))) "a lower newer reply loses"
    (Some (5, 10))
    (collect
       [ (0, query_reply ~rid:1 ~ts:5 ~v:10 ());
         (1, query_reply ~rid:1 ~ts:3 ~v:20 ());
         (2, query_reply ~rid:1 ~ts:5 ~v:10 ()) ])

let quorum_resend_skips_answered () =
  let h = holding ~n:5 () in
  let q = quorum_over h in
  let resent () =
    ignore (sent_to h);
    ignore (Net.Quorum.resend_pending q);
    List.sort compare (sent_to h)
  in
  Net.Quorum.read_ts q ~reg:0 ~k:ignore;
  Net.Quorum.on_message q ~src:3 (query_reply ());
  Alcotest.(check (list int)) "collect: every replica but the one answered"
    [ 0; 1; 2; 4 ] (resent ());
  Net.Quorum.on_message q ~src:0 (query_reply ());
  Alcotest.(check (list int)) "collect: then the three left" [ 1; 2; 4 ]
    (resent ());
  Net.Quorum.store q ~reg:1 ~ts:1 ~value:(pl 1 false) ~k:ignore;
  Net.Quorum.on_message q ~src:2 (store_ack ~rid:1 ());
  Net.Quorum.on_message q ~src:4 (store_ack ~rid:1 ());
  ignore (sent_to h);
  ignore (Net.Quorum.resend_pending q);
  let stores =
    List.filter_map
      (fun (dst, m) -> match m with W.Store _ -> Some dst | _ -> None)
      h.from_engine
  in
  Alcotest.(check (list int)) "store: the replicas not yet acked" [ 0; 1; 3 ]
    (List.sort compare stores)

let quorum_partial_reply_allocates_nothing () =
  let n = 2_000 in
  let q =
    Net.Quorum.create ~transport:Net.Transport.null ~me:engine_node
      ~replicas:[ 0; 1; 2 ] ()
  in
  for _ = 1 to n do
    Net.Quorum.read_ts q ~reg:0 ~k:ignore
  done;
  let replies = Array.init n (fun rid -> query_reply ~rid ()) in
  let words =
    words_per_call ~warmup:100 ~n (fun rid ->
        Net.Quorum.on_message q ~src:1 replies.(rid))
  in
  Alcotest.(check (float 0.0)) "words per Query_reply short of a quorum" 0.0
    words

(* A warm engine over three replicas: phase [rid]'s window is replicas
   [rid mod 3] and [(rid + 1) mod 3].  Minor words of [start q] plus
   that window's two replies (built beforehand), after 100 unmeasured
   phases; [start]'s continuation counts into [completed]. *)
let words_per_phase ~completed start reply =
  let n = 2_000 in
  let q =
    Net.Quorum.create ~transport:Net.Transport.null ~me:engine_node
      ~replicas:[ 0; 1; 2 ] ()
  in
  let replies = Array.init n reply in
  let words =
    words_per_call ~warmup:100 ~n (fun rid ->
        start q;
        Net.Quorum.on_message q ~src:(rid mod 3) replies.(rid);
        Net.Quorum.on_message q ~src:((rid + 1) mod 3) replies.(rid))
  in
  Alcotest.(check int) "every phase completed" n !completed;
  words

let abd_read_phase_words () =
  let completed = ref 0 in
  let k _ = incr completed in
  let words =
    words_per_phase ~completed
      (fun q -> Net.Quorum.read q ~reg:0 ~k)
      (fun rid -> query_reply ~rid ())
  in
  Alcotest.(check bool)
    (Fmt.str "%.1f words per read phase <= 10" words)
    true (words <= 10.0)

let abd_write_phase_words () =
  let completed = ref 0 and value = pl 1 false in
  let k () = incr completed in
  let words =
    words_per_phase ~completed
      (fun q -> Net.Quorum.store q ~reg:1 ~ts:1 ~value ~k)
      (fun rid -> store_ack ~rid ())
  in
  Alcotest.(check bool)
    (Fmt.str "%.1f words per write phase <= 12" words)
    true (words <= 12.0)

(* An unaudited core over three replicas, built by [make] over a
   transport that keeps the turn's queries, as (replica, rid), and
   [answer reply], which hands the core [reply rid] from each of those
   replicas through [deliver]. *)
let query_catching make deliver =
  let qdst = Array.make 8 0 and qrid = Array.make 8 0 and nq = ref 0 in
  let tr =
    {
      Net.Transport.null with
      Net.Transport.send =
        (fun ~src:_ ~dst msg ->
          match msg with
          | W.Query { rid; _ } ->
            qdst.(!nq) <- dst;
            qrid.(!nq) <- rid;
            incr nq
          | _ -> ());
    }
  in
  let sv = make tr in
  let answer reply =
    while !nq > 0 do
      decr nq;
      deliver sv ~src:qdst.(!nq) (reply qrid.(!nq))
    done
  in
  (sv, answer)

let query_catching_server () =
  query_catching
    (fun tr ->
      Net.Server.create ~transport:tr ~audit:false ~member:(solo_member ())
        ~me:engine_node ~replicas:[ 0; 1; 2 ] ~init:0 ())
    Net.Server.on_message

(* A reader's [Req] read of a key it has read before, with its three
   phases' replies built beforehand, through [deliver]: the minor
   words from the [Req] to its [Resp], and the ops served. *)
let read_op_words (sv, answer) deliver served =
  let n = 2_000 in
  let cl = Net.Transport.client 2 in
  deliver sv ~src:cl (W.Hello { proc = 2 });
  let reqs = Array.init n (fun seq -> W.Req { seq; op = W.Read_k { key = 0 } })
  and replies = Array.init (3 * n) (fun rid -> query_reply ~rid ()) in
  let reply rid = replies.(rid) in
  let words =
    words_per_call ~warmup:100 ~n (fun seq ->
        deliver sv ~src:cl reqs.(seq);
        answer reply)
  in
  Alcotest.(check int) "every read answered" n (served sv);
  words

(* ... on a core over three replicas with its audit off *)
let server_read_op_words () =
  let words =
    read_op_words (query_catching_server ()) Net.Server.on_message
      Net.Server.ops_served
  in
  Alcotest.(check bool)
    (Fmt.str "%.1f words per read op <= 53" words)
    true (words <= 53.0)

(* A pool of no worker would serve nothing: [create] refuses it rather
   than run one worker under a banner that says otherwise. *)
let pool_refuses_no_domain () =
  List.iter
    (fun domains ->
      match
        Net.Server_pool.create ~transport:Net.Transport.null ~domains
          ~me:engine_node ~replicas:[ 0 ] ~init:0 ()
      with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "a pool of %d domains was built" domains)
    [ 0; -3 ]

(* The same read through a 1-worker pool as the simulator runs it: the
   pool's queue and its turn add no word to the core's. *)
let sim_pool_read_op_words () =
  let core =
    read_op_words (query_catching_server ()) Net.Server.on_message
      Net.Server.ops_served
  in
  let pool =
    query_catching
      (fun tr ->
        Net.Server_pool.create ~transport:tr ~audit:false
          ~run:(Net.Server_pool.Events (fun _ -> assert false))
          ~me:engine_node ~replicas:[ 0; 1; 2 ] ~init:0 ())
      Net.Server_pool.dispatch
  in
  let pooled =
    read_op_words pool Net.Server_pool.dispatch Net.Server_pool.ops_served
  in
  Alcotest.(check bool)
    (Fmt.str "%.1f words per pooled read op <= %.1f on the bare core" pooled
       core)
    true (pooled <= core)

let sim_step_allocates_nothing () =
  let n = 2_000 in
  let net = Net.Sim_net.create ~seed:1 ~faults:Net.Sim_net.reliable () in
  Net.Sim_net.register net 1 (fun ~src:_ _ -> ());
  let msg = W.Query { rid = 0; reg = 0 } in
  for _ = 1 to n do
    (Net.Sim_net.transport net).Net.Transport.send ~src:0 ~dst:1 msg
  done;
  let words =
    words_per_call ~warmup:100 ~n (fun _ -> ignore (Net.Sim_net.step net))
  in
  Alcotest.(check (float 0.0)) "words per delivery to a no-op handler" 0.0
    words

(* A pool worker's turn reaches every replica and every client it
   answers: finding a destination's slot must not cost a scan or an
   allocation, however many peers there are. *)
let cork_fan_out peers () =
  let shipped = Array.make peers (-1) and k = ref 0 in
  let base =
    {
      Net.Transport.null with
      send =
        (fun ~src:_ ~dst _ ->
          shipped.(!k) <- dst;
          incr k);
    }
  in
  let tr, cork = Net.Transport.cork base in
  let msgs = Array.init peers (fun rid -> W.Query { rid; reg = 0 }) in
  (* 7 is coprime to [peers]: every peer once, not in id order *)
  let fan_out () =
    for i = 0 to peers - 1 do
      tr.Net.Transport.send ~src:engine_node ~dst:(i * 7 mod peers) msgs.(i)
    done
  in
  let words =
    words_per_call ~warmup:10 ~n:2_000 (fun _ ->
        k := 0;
        Net.Transport.turn cork fan_out)
  in
  Alcotest.(check (list int)) "one frame per peer, in first-send order"
    (List.init peers (fun i -> i * 7 mod peers))
    (Array.to_list shipped);
  Alcotest.(check (float 0.0))
    (Fmt.str "words per turn sending one message to each of %d peers" peers)
    0.0 words

(* A server core with [n] reads in flight, one per key, each fed one
   [Query_reply]: one answer short of its phase's quorum of 2. *)
let server_partial_reply_allocates_nothing () =
  let n = 2_000 in
  let sent = ref [] in
  let tr =
    {
      Net.Transport.null with
      Net.Transport.send = (fun ~src:_ ~dst msg -> sent := (dst, msg) :: !sent);
    }
  in
  let sv =
    Net.Server.create ~transport:tr ~member:(solo_member ()) ~me:engine_node
      ~replicas:[ 0; 1; 2 ] ~init:0 ()
  in
  let cl = Net.Transport.client 2 in
  Net.Server.on_message sv ~src:cl (W.Hello { proc = 2 });
  for key = 0 to n - 1 do
    Net.Server.on_message sv ~src:cl
      (W.Req { seq = key; op = W.Read_k { key } })
  done;
  (* each phase's query went to two replicas: answer it from one *)
  let answered = Hashtbl.create n in
  let replies =
    List.rev !sent
    |> List.filter_map (function
         | dst, W.Query { rid; reg } when not (Hashtbl.mem answered rid) ->
           Hashtbl.replace answered rid dst;
           Some (dst, W.Query_reply { rid; reg; ts = 0; pl = pl 0 false })
         | _ -> None)
    |> Array.of_list
  in
  Alcotest.(check int) "one phase per read" n (Array.length replies);
  let words =
    words_per_call ~warmup:100 ~n (fun i ->
        let src, reply = replies.(i) in
        Net.Server.on_message sv ~src reply)
  in
  Alcotest.(check (float 0.0)) "words per Query_reply short of a quorum" 0.0
    words;
  (* the measured replies counted: a second one completes a phase *)
  let before = List.length !sent in
  (match !sent with
   | (_, W.Query { rid; reg }) :: _ ->
     let other =
       List.find_map
         (function
           | dst, W.Query { rid = r; _ }
             when r = rid && dst <> Hashtbl.find answered rid ->
             Some dst
           | _ -> None)
         !sent
     in
     Net.Server.on_message sv ~src:(Option.get other)
       (W.Query_reply { rid; reg; ts = 0; pl = pl 0 false })
   | _ -> Alcotest.fail "no query sent");
  Alcotest.(check bool) "a quorum moves the read on" true
    (List.length !sent > before)

(* Node 0's link to node 1 is immune; node 2's is not. *)
let immune_0_to_1 faults =
  Net.Sim_net.create ~seed:3
    ~faults:
      { faults with Net.Sim_net.immune = (fun ~src ~dst -> src = 0 && dst = 1) }
    ()

let req seq = W.Req { seq; op = W.Read_k { key = 0 } }

let sim_immune_link_is_fifo () =
  let net = immune_0_to_1 (Net.Sim_net.lossy ()) in
  let tr = Net.Sim_net.transport net in
  let got = ref [] in
  Net.Sim_net.register net 1 (fun ~src msg ->
      match msg with W.Req { seq; _ } -> got := (src, seq) :: !got | _ -> ());
  let n = 200 in
  for seq = 0 to n - 1 do
    tr.Net.Transport.send ~src:0 ~dst:1 (req seq);
    tr.Net.Transport.send ~src:2 ~dst:1 (req seq);
    (* let the clock move, so sends interleave with deliveries *)
    if seq mod 10 = 9 then
      for _ = 1 to 5 do
        ignore (Net.Sim_net.step net)
      done
  done;
  ignore (Net.Sim_net.run net);
  let from src =
    List.rev
      (List.filter_map (fun (s, q) -> if s = src then Some q else None) !got)
  in
  Alcotest.(check (list int)) "immune link: every message once, in send order"
    (List.init n Fun.id) (from 0);
  let other = from 2 in
  Alcotest.(check bool) "the other link still reorders" true
    (other <> List.sort compare other)

(* A task is one more choice: [pending] offers it as a delivery of its
   node (no timer, no message), it runs when fired or stepped, whatever
   the node's state, and it is no frame: no frame counter moves. *)
let sim_task_is_a_choice () =
  let metrics = Net.Metrics.create () in
  let net =
    Net.Sim_net.create ~seed:1 ~faults:Net.Sim_net.reliable ~metrics ()
  in
  let ran = ref 0 in
  Net.Sim_net.crash net 7;
  Net.Sim_net.task net 7 (fun () -> incr ran);
  Net.Sim_net.task net 7 (fun () -> incr ran);
  (match Net.Sim_net.pending net with
   | [ p; _ ] ->
     Alcotest.(check bool) "not a timer" false p.Net.Sim_net.timer;
     Alcotest.(check bool) "no message" true (p.Net.Sim_net.msg = None);
     Alcotest.(check (pair int int)) "its node" (7, 7)
       (p.Net.Sim_net.src, p.Net.Sim_net.dst);
     Alcotest.(check bool) "fired" true (Net.Sim_net.fire net p.Net.Sim_net.idx)
   | ps -> Alcotest.failf "%d pending, want 2" (List.length ps));
  ignore (Net.Sim_net.run net);
  Alcotest.(check int) "both ran on a crashed node" 2 !ran;
  List.iter
    (fun name -> Alcotest.(check int) name 0 (Net.Metrics.get metrics name))
    [ "frames_sent"; "frames_delivered"; "frames_dropped"; "timer_fires" ]

let sim_pending_offers_link_heads () =
  let net = immune_0_to_1 Net.Sim_net.reliable in
  let tr = Net.Sim_net.transport net in
  let got = ref [] in
  Net.Sim_net.register net 1 (fun ~src msg ->
      match msg with W.Req { seq; _ } -> got := (src, seq) :: !got | _ -> ());
  for seq = 0 to 2 do
    tr.Net.Transport.send ~src:0 ~dst:1 (req seq)
  done;
  for seq = 0 to 1 do
    tr.Net.Transport.send ~src:2 ~dst:1 (req seq)
  done;
  let srcs () =
    List.sort compare
      (List.map (fun p -> p.Net.Sim_net.src) (Net.Sim_net.pending net))
  in
  (* the newest pending delivery from [src] *)
  let fire_last src =
    let p =
      List.fold_left
        (fun acc p ->
          if p.Net.Sim_net.src <> src then acc
          else
            match acc with
            | Some q when q.Net.Sim_net.seq > p.Net.Sim_net.seq -> acc
            | _ -> Some p)
        None (Net.Sim_net.pending net)
    in
    Net.Sim_net.fire net (Option.get p).Net.Sim_net.idx
  in
  Alcotest.(check (list int)) "the immune link's head, all of the other's"
    [ 0; 2; 2 ] (srcs ());
  (* the other link's second message may go first; the immune link's
     next is offered only once its head is delivered *)
  Alcotest.(check bool) "fire the other link's newest" true (fire_last 2);
  Alcotest.(check bool) "fire the immune link's only offer" true (fire_last 0);
  Alcotest.(check (list (pair int int))) "delivered so far"
    [ (2, 1); (0, 0) ] (List.rev !got);
  Alcotest.(check (list int)) "then the immune link's next" [ 0; 2 ] (srcs ());
  ignore (Net.Sim_net.run net);
  Alcotest.(check (list int)) "the immune link delivered in send order"
    [ 0; 1; 2 ]
    (List.rev
       (List.filter_map (fun (s, q) -> if s = 0 then Some q else None) !got))

let durable_replica_query_words () =
  let st =
    Net.Storage.create (Net.Storage.Disk.backend (Net.Storage.Disk.create ()))
  in
  let r = Net.Replica.create ~init:0 ~storage:st () in
  ignore
    (replica_handle r ~src:9
       (W.Store { rid = 0; reg = 1; ts = 1; pl = pl 5 false }));
  let queries =
    Array.init 2_000 (fun rid -> W.Query { rid; reg = rid mod 2 })
  in
  let words =
    words_per_call ~warmup:100 ~n:2_000 (fun rid ->
        Net.Replica.handle_emit r ~src:9 ~emit:ignore queries.(rid))
  in
  (* a [Query_reply] is 5 words with its header, the emit tuple 3:
     [handle_emit] builds its curried wrapper once for one [emit], not
     a closure per call *)
  Alcotest.(check bool)
    (Fmt.str "%.1f words per Query <= 8" words)
    true (words <= 8.0);
  let emit _ _ = () in
  let curried =
    words_per_call ~warmup:100 ~n:2_000 (fun rid ->
        Net.Replica.handle r ~src:9 ~emit queries.(rid))
  in
  Alcotest.(check (float 0.0)) "words per Query through handle: the reply"
    5.0 curried

(* A fresh simulator, the [timers_dropped] count of its metrics, the
   names of the timers that fired (latest first), and [arm name delay]
   setting one on node 1. *)
let timer_probe () =
  let metrics = Net.Metrics.create () in
  let net =
    Net.Sim_net.create ~seed:1 ~faults:Net.Sim_net.reliable ~metrics ()
  in
  let dropped () = Net.Metrics.get metrics "timers_dropped" in
  let fired = ref [] in
  let arm name delay =
    (Net.Sim_net.transport net).Net.Transport.set_timer ~node:1 ~delay
      (fun () -> fired := name :: !fired)
  in
  (net, dropped, fired, arm)

let sim_amnesia_drops_timers () =
  let net, dropped, fired, arm = timer_probe () in
  (* restarted before the timer is due: it is still queued *)
  arm "queued" 5.0;
  Net.Sim_net.crash_amnesia net 1;
  Net.Sim_net.restart net 1;
  ignore (Net.Sim_net.run net);
  Alcotest.(check (list string)) "a queued timer never runs" [] !fired;
  Alcotest.(check int) "and is counted dropped" 1 (dropped ());
  (* restarted after the timer fell due: it waited, and is dropped *)
  arm "due" 1.0;
  Net.Sim_net.crash_amnesia net 1;
  Net.Sim_net.at net (Net.Sim_net.now net +. 3.0) (fun () ->
      Net.Sim_net.restart net 1);
  ignore (Net.Sim_net.run net);
  Alcotest.(check (list string)) "a due timer never runs" [] !fired;
  Alcotest.(check int) "and is counted dropped" 2 (dropped ());
  (* the new incarnation's own timers fire *)
  arm "new" 1.0;
  ignore (Net.Sim_net.run net);
  Alcotest.(check (list string)) "new incarnation's timer" [ "new" ] !fired

let sim_pause_defers_timers () =
  let net, dropped, fired, arm = timer_probe () in
  Net.Sim_net.crash net 1;
  (* armed a then b, due b then a *)
  arm "a" 2.0;
  arm "b" 1.0;
  Net.Sim_net.at net 1.5 (fun () -> fired := "at" :: !fired);
  ignore (Net.Sim_net.run net);
  Alcotest.(check (list string)) "only the at callback ran while paused"
    [ "at" ] !fired;
  Alcotest.(check bool) "held past both due times" true
    (Net.Sim_net.now net >= 2.0);
  Net.Sim_net.restart net 1;
  Alcotest.(check (list string)) "both fire at restart, in arming order"
    [ "b"; "a"; "at" ] !fired;
  ignore (Net.Sim_net.run net);
  Alcotest.(check int) "exactly once" 3 (List.length !fired);
  Alcotest.(check int) "nothing dropped" 0
    (dropped ())

(* ------------------------------------------------------------------ *)
(* The slot-array Sim_net against the entry-record one it replaced     *)
(* (test/sim_net_oracle.ml), driven by one random script of sends,     *)
(* timers, faults, steps and out-of-order fires.                       *)

type sim_cmd =
  | Send of int * int * int  (* src, dst, hops left to forward *)
  | Set_timer of int * float * int  (* node, delay, id *)
  | At of float * int  (* offset from now, id *)
  | Crash of int
  | Amnesia of int
  | Restart of int
  | Partition of int list * int list
  | Heal
  | Step
  | Fire of int  (* a random index, of the snapshot or past its end *)

let pp_sim_cmd ppf = function
  | Send (s, d, h) -> Fmt.pf ppf "send %d->%d hops %d" s d h
  | Set_timer (n, d, id) -> Fmt.pf ppf "timer node %d delay %g id %d" n d id
  | At (o, id) -> Fmt.pf ppf "at now%+g id %d" o id
  | Crash n -> Fmt.pf ppf "crash %d" n
  | Amnesia n -> Fmt.pf ppf "crash_amnesia %d" n
  | Restart n -> Fmt.pf ppf "restart %d" n
  | Partition (a, b) ->
    Fmt.pf ppf "partition %a | %a" Fmt.(Dump.list int) a Fmt.(Dump.list int) b
  | Heal -> Fmt.pf ppf "heal"
  | Step -> Fmt.pf ppf "step"
  | Fire i -> Fmt.pf ppf "fire %d" i

type sim_script = {
  nodes : int;
  lossy : (float * float) option;  (* drop, duplicate *)
  immune_pairs : int;  (* bit [src * 6 + dst] marks the link immune *)
  net_seed : int;
  cmds : sim_cmd list;
}

let pp_sim_script ppf s =
  Fmt.pf ppf "@[<v>%d nodes, %a, immune mask %#x, seed %d@,%a@]" s.nodes
    Fmt.(
      option ~none:(any "reliable") (fun ppf (d, u) ->
          pf ppf "lossy drop %g dup %g" d u))
    s.lossy s.immune_pairs s.net_seed
    Fmt.(list ~sep:cut pp_sim_cmd)
    s.cmds

let build_sim_script seed =
  let rng = Random.State.make [| seed; 0x51 |] in
  let int n = Random.State.int rng n in
  let nodes = 4 + int 3 in
  let node () = int nodes in
  let pick l = List.nth l (int (List.length l)) in
  (* delays from a small set, so that many events tie on time *)
  let delay () = pick [ 0.0; 0.5; 1.0; 1.0; 1.25; 2.0; 3.0 ] in
  let id = ref 0 in
  let next () =
    incr id;
    !id
  in
  let cmd () =
    match int 100 with
    | r when r < 30 -> Send (node (), node (), int 3)
    | r when r < 52 -> Step
    | r when r < 62 -> Fire (int 12)
    | r when r < 72 -> Set_timer (node (), delay (), next ())
    | r when r < 77 -> At (pick [ -1.0; 0.0; 0.5; 1.0; 2.5 ], next ())
    | r when r < 82 -> Crash (node ())
    | r when r < 86 -> Amnesia (node ())
    | r when r < 93 -> Restart (node ())
    | r when r < 97 ->
      let side = List.init nodes (fun _ -> Random.State.bool rng) in
      let group b =
        List.filteri (fun i _ -> List.nth side i = b) (List.init nodes Fun.id)
      in
      Partition (group true, group false)
    | _ -> Heal
  in
  {
    nodes;
    lossy =
      (if Random.State.bool rng then None
       else Some (pick [ 0.0; 0.1; 0.3 ], pick [ 0.0; 0.1; 0.3 ]));
    immune_pairs =
      (let bits () = Random.State.bits rng lor (Random.State.bits rng lsl 30) in
       bits () land bits ());
    net_seed = int 1000;
    cmds = List.init (40 + int 60) (fun _ -> cmd ());
  }

(* What the nodes' handlers, timers and hooks saw. *)
type sim_seen =
  | Got of int * int * int * int  (* node, src, rid, hops *)
  | Fired of int * int  (* node, timer id *)
  | Called of int  (* [at] id *)
  | Recovered of int

(* One simulator behind the script's interface, and what is compared. *)
type sim_face = {
  f_send : src:int -> dst:int -> W.msg -> unit;
  f_set_timer : node:int -> delay:float -> (unit -> unit) -> unit;
  f_at : float -> (unit -> unit) -> unit;
  f_now : unit -> float;
  f_crash : int -> unit;
  f_amnesia : int -> unit;
  f_restart : int -> unit;
  f_partition : int list -> int list -> unit;
  f_heal : unit -> unit;
  f_step : unit -> bool;
  f_fire : int -> bool;
  f_register : int -> (src:int -> W.msg -> unit) -> unit;
  f_on_restart : int -> (unit -> unit) -> unit;
  f_pending : unit -> (int * int * float * bool * int * int * string) list;
  f_peek : unit -> (int * W.msg option) option;
  f_stats : unit -> int * int * int * int * int;
  f_alive : int -> bool;
  f_counters : unit -> (string * int) list;
}

let immune_of s ~src ~dst = s.immune_pairs land (1 lsl ((src * 6) + dst)) <> 0

(* What [sim_face] needs of a simulator; both have it. *)
module type SIM = sig
  type faults = {
    drop : float;
    duplicate : float;
    min_delay : float;
    max_delay : float;
    immune : src:int -> dst:int -> bool;
  }

  type stats = {
    delivered : int;
    dropped : int;
    duplicated : int;
    blocked : int;
    timer_fires : int;
  }

  type pending_ev = {
    idx : int;
    seq : int;
    time : float;
    timer : bool;
    src : int;
    dst : int;
    msg : W.msg option;
    info : string Lazy.t;
  }

  type t

  val reliable : faults

  val lossy :
    ?drop:float ->
    ?duplicate:float ->
    ?min_delay:float ->
    ?max_delay:float ->
    unit ->
    faults

  val create :
    seed:int -> faults:faults -> ?metrics:Net.Metrics.t -> ?trace:Net.Trace.t ->
    unit -> t

  val transport : t -> Net.Transport.t
  val register : t -> int -> (src:int -> W.msg -> unit) -> unit
  val crash : t -> int -> unit
  val crash_amnesia : t -> int -> unit
  val on_restart : t -> int -> (unit -> unit) -> unit
  val restart : t -> int -> unit
  val alive : t -> int -> bool
  val partition : t -> int list -> int list -> unit
  val heal : t -> unit
  val at : t -> float -> (unit -> unit) -> unit
  val step : t -> bool
  val peek : t -> (int * W.msg option) option
  val pending : t -> pending_ev list
  val fire : t -> int -> bool
  val stats : t -> stats
end

module Face (S : SIM) = struct
  let make s =
    let faults =
      match s.lossy with
      | None -> S.reliable
      | Some (drop, duplicate) -> S.lossy ~drop ~duplicate ()
    in
    let metrics = Net.Metrics.create () in
    let net =
      S.create ~seed:s.net_seed ~faults:{ faults with S.immune = immune_of s }
        ~metrics ()
    in
    let tr = S.transport net in
    {
      f_send = tr.Net.Transport.send;
      f_set_timer = tr.Net.Transport.set_timer;
      f_at = S.at net;
      f_now = tr.Net.Transport.now;
      f_crash = S.crash net;
      f_amnesia = S.crash_amnesia net;
      f_restart = S.restart net;
      f_partition = S.partition net;
      f_heal = (fun () -> S.heal net);
      f_step = (fun () -> S.step net);
      f_fire = S.fire net;
      f_register = S.register net;
      f_on_restart = S.on_restart net;
      f_pending =
        (fun () ->
          List.map
            (fun (p : S.pending_ev) ->
              (p.idx, p.seq, p.time, p.timer, p.src, p.dst, Lazy.force p.info))
            (S.pending net));
      f_peek = (fun () -> S.peek net);
      f_stats =
        (fun () ->
          let st = S.stats net in
          ( st.delivered,
            st.dropped,
            st.duplicated,
            st.blocked,
            st.timer_fires ));
      f_alive = S.alive net;
      f_counters = (fun () -> Net.Metrics.counters metrics);
    }
end

module Real_face = Face (Net.Sim_net)
module Oracle_face = Face (Sim_net_oracle)

(* Install the script's nodes on [f] and return its command runner and
   its log of what the nodes saw, latest first.  A delivery with hops
   left is forwarded to the next node, a timer whose id is a multiple
   of 5 crashes its own node, and one whose id is a multiple of 3
   re-arms once: handlers send, arm and crash reentrantly. *)
let sim_drive s f =
  let seen = ref [] in
  let rec handler node ~src msg =
    match msg with
    | W.Query { rid; reg = hops } ->
      seen := Got (node, src, rid, hops) :: !seen;
      if hops > 0 then
        f.f_send ~src:node ~dst:((node + 1) mod s.nodes)
          (W.Query { rid; reg = hops - 1 })
    | _ -> ()
  and timer node id () =
    seen := Fired (node, id) :: !seen;
    if id mod 5 = 0 then f.f_crash node;
    if id mod 3 = 0 then f.f_set_timer ~node ~delay:1.0 (timer node (id + 1))
  in
  for node = 0 to s.nodes - 1 do
    f.f_register node (handler node);
    f.f_on_restart node (fun () ->
        seen := Recovered node :: !seen;
        f.f_register node (handler node))
  done;
  let rid = ref 0 in
  let run = function
    | Send (src, dst, hops) ->
      incr rid;
      f.f_send ~src ~dst (W.Query { rid = !rid; reg = hops });
      true
    | Set_timer (node, delay, id) ->
      f.f_set_timer ~node ~delay (timer node id);
      true
    | At (offset, id) ->
      f.f_at (f.f_now () +. offset) (fun () -> seen := Called id :: !seen);
      true
    | Crash n -> f.f_crash n; true
    | Amnesia n -> f.f_amnesia n; true
    | Restart n -> f.f_restart n; true
    | Partition (a, b) -> f.f_partition a b; true
    | Heal -> f.f_heal (); true
    | Step -> f.f_step ()
    | Fire i ->
      (* most picks name an offered event; index 10 may name a held-back
         delivery of an immune link or fall past the queue, 11 is out of
         range *)
      let offered =
        List.map (fun (idx, _, _, _, _, _, _) -> idx) (f.f_pending ())
      in
      let n = List.length offered in
      f.f_fire
        (if i < 10 && n > 0 then List.nth offered (i mod n)
         else if i = 10 then n + 2
         else -1)
  in
  (run, seen)

let sim_observe s f seen =
  ( !seen,
    f.f_pending (),
    f.f_peek (),
    f.f_now (),
    f.f_stats (),
    List.init s.nodes f.f_alive,
    f.f_counters () )

let sim_matches_oracle seed =
  let s = build_sim_script seed in
  let real = Real_face.make s and oracle = Oracle_face.make s in
  let run_real, seen_real = sim_drive s real
  and run_oracle, seen_oracle = sim_drive s oracle in
  let check what got want =
    if
      got <> want
      || sim_observe s real seen_real <> sim_observe s oracle seen_oracle
    then
      QCheck2.Test.fail_reportf "differs from the oracle after %s on:@.%a" what
        pp_sim_script s
  in
  List.iteri
    (fun i c ->
      let got = run_real c and want = run_oracle c in
      check (Fmt.str "command %d (%a)" i pp_sim_cmd c) got want)
    s.cmds;
  (* then drain, so paused and partitioned leftovers are compared too *)
  for n = 0 to s.nodes - 1 do
    real.f_restart n;
    oracle.f_restart n;
    check (Fmt.str "restarting node %d" n) true true
  done;
  let steps = ref 0 and more = ref true in
  while !more && !steps < 2_000 do
    incr steps;
    let got = real.f_step () and want = oracle.f_step () in
    check (Fmt.str "drain step %d" !steps) got want;
    more := got
  done;
  true

let sim_oracle_property =
  qc ~count:600 "sim: the slot queue matches the entry-record oracle"
    Gen.int sim_matches_oracle

(* The simulator's own share of a message: a send on a reliable link
   allocates only the RNG's boxed delay draw (12 words while the queue
   kept entry records). *)
let sim_send_words () =
  let n = 2_000 in
  let net = Net.Sim_net.create ~seed:1 ~faults:Net.Sim_net.reliable () in
  let tr = Net.Sim_net.transport net in
  Net.Sim_net.register net 1 (fun ~src:_ _ -> ());
  let msg = W.Query { rid = 0; reg = 0 } in
  let send _ = tr.Net.Transport.send ~src:0 ~dst:1 msg in
  (* grow the queue to [n] slots first, then free them *)
  for i = 1 to n do
    send i
  done;
  ignore (Net.Sim_net.run net);
  let words = words_per_call ~warmup:100 ~n send in
  Alcotest.(check bool)
    (Fmt.str "words per send (%.2f) at most the draw's 2" words)
    true (words <= 2.0)

(* The simulator's draw is [Random.State.float] re-formed from
   [bits64] so that it boxes nothing: every draw must equal the
   stdlib's bit for bit and consume the same bits, or every seeded run
   would move.  Spans: the drop and duplicate draws' 1.0, the reliable
   and lossy delay ranges, and a wide one. *)
let sim_uniform_is_stdlib_float () =
  let spans = [ 1.0; epsilon_float; 1.5 +. epsilon_float; 1e6 ] in
  List.iter
    (fun seed ->
      List.iter
        (fun span ->
          let a = Random.State.make [| seed; 0x6e657421 |] in
          let b = Random.State.copy a in
          for i = 1 to 100_000 do
            let x = Net.Sim_net.uniform a span
            and y = Random.State.float b span in
            if Int64.bits_of_float x <> Int64.bits_of_float y then
              Alcotest.failf "seed %d span %h draw %d: %h <> %h" seed span i
                x y
          done;
          Alcotest.(check int64)
            (Fmt.str "seed %d span %h: the streams stay in step" seed span)
            (Random.State.bits64 b) (Random.State.bits64 a))
        spans)
    [ 1; 2; 3; 42 ]

(* A lossy link's drop, delay and duplicate draws box nothing either:
   a warm send costs no minor word, whatever it draws. *)
let sim_lossy_send_words () =
  let n = 2_000 in
  let faults = Net.Sim_net.lossy ~drop:0.3 ~duplicate:0.3 () in
  let net = Net.Sim_net.create ~seed:1 ~faults () in
  let tr = Net.Sim_net.transport net in
  Net.Sim_net.register net 1 (fun ~src:_ _ -> ());
  let msg = W.Query { rid = 0; reg = 0 } in
  let send _ = tr.Net.Transport.send ~src:0 ~dst:1 msg in
  (* grow the queue past what [n] sends and their duplicates fill *)
  for i = 1 to 2 * n do
    send i
  done;
  ignore (Net.Sim_net.run net);
  let words = words_per_call ~warmup:100 ~n send in
  Alcotest.(check (float 0.0)) "words per lossy send" 0.0 words

(* A timer costs its caller's closure and nothing else: arming it
   fills a slot, firing it frees the slot (9 words with entry
   records). *)
let sim_timer_words () =
  let net = Net.Sim_net.create ~seed:1 ~faults:Net.Sim_net.reliable () in
  let tr = Net.Sim_net.transport net in
  let fire () = () in
  let words =
    words_per_call ~warmup:100 ~n:2_000 (fun _ ->
        tr.Net.Transport.set_timer ~node:1 ~delay:1.0 fire;
        ignore (Net.Sim_net.step net))
  in
  Alcotest.(check (float 0.0)) "words per timer armed and fired" 0.0 words

(* A [?history] server records each event into three flat arrays that
   double when full; past a few hundred events every growth is one
   major-heap block per array, so recording allocates no minor word
   (9 per event while the history was a list of tuples). *)
let server_history_words () =
  let n = 2_000 in
  let run history =
    let sv =
      Net.Server.create ~transport:Net.Transport.null ~member:(solo_member ())
        ~me:engine_node ~replicas:[ 0; 1; 2 ] ~init:0 ~history ()
    in
    let cl = Net.Transport.client 2 in
    Net.Server.on_message sv ~src:cl (W.Hello { proc = 2 });
    let reqs =
      Array.init n (fun key -> W.Req { seq = key; op = W.Read_k { key } })
    in
    let words =
      words_per_call ~warmup:300 ~n (fun i ->
          Net.Server.on_message sv ~src:cl reqs.(i))
    in
    (words, List.length (Net.Server.history sv))
  in
  let plain, _ = run false and kept, events = run true in
  Alcotest.(check int) "one invocation recorded per read" n events;
  Alcotest.(check (float 0.0)) "words per recorded event" 0.0 (kept -. plain)

(* The log against a list built beside it, at lengths around every
   chunk boundary up to three chunks of 4096: the three views, in
   order, with each event the very value appended.  One log grows
   through every length checked. *)
let history_log_views () =
  let module L = Net.History_log in
  (* the chunk sizes' running sums: 16, 48, ..., 8176, 12272, 16368 *)
  let rec bounds size total acc =
    if total > 3 * 4096 then List.rev acc
    else bounds (min 4096 (2 * size)) (total + size) ((total + size) :: acc)
  in
  let checked =
    0 :: 1 :: List.concat_map (fun b -> [ b - 1; b; b + 1 ]) (bounds 16 0 [])
  in
  let l = L.create () and want = ref [] in
  let same a b = List.length a = List.length b && List.for_all2 ( == ) a b in
  let check len =
    let want = List.rev !want in
    let what = Fmt.str "%d events" len in
    let evs = List.map (fun (_, _, e) -> e) want in
    Alcotest.(check int) (what ^ ": length") len (L.length l);
    Alcotest.(check bool) (what ^ ": events") true (same evs (L.events l));
    Alcotest.(check (list int)) (what ^ ": keys")
      (List.map (fun (_, k, _) -> k) want)
      (List.map fst (L.keyed l));
    Alcotest.(check bool) (what ^ ": keyed events") true
      (same evs (List.map snd (L.keyed l)));
    Alcotest.(check (list (float 0.0))) (what ^ ": times")
      (List.map (fun (t, _, _) -> t) want)
      (List.map fst (L.timed l));
    Alcotest.(check bool) (what ^ ": timed events") true
      (same evs (List.map snd (L.timed l)))
  in
  let last = List.fold_left max 0 checked in
  for i = 0 to last do
    if List.mem i checked then check i;
    if i < last then begin
      let ev =
        if i mod 2 = 0 then E.Invoke (i mod 3, E.Write i)
        else E.Respond (i mod 3, None)
      in
      let time = float_of_int i /. 4. and key = i * 7 mod 13 in
      L.append l time key ev;
      want := (time, key, ev) :: !want
    end
  done

(* A session's read invocations and write responses carry no value:
   the server builds each once, at [Hello], and records that one value
   for every op. *)
let server_shares_constant_events () =
  let cl =
    Net.Sim_run.create Net.Sim_run.default ~seed:1
      ~workload:(Net.Sim_run.singles (spec ~readers:2 ~writes:4 ~reads:6))
  in
  check_clean "shared events" (Net.Sim_run.run cl);
  let shared = Hashtbl.create 8 and count = ref 0 in
  List.iter
    (fun ev ->
      match ev with
      | E.Invoke (p, E.Read) | E.Respond (p, None) ->
        incr count;
        let k = (p, E.is_invoke ev) in
        (match Hashtbl.find_opt shared k with
         | None -> Hashtbl.replace shared k ev
         | Some first ->
           if first != ev then
             Alcotest.failf "proc %d: two values for one constant event" p)
      | _ -> ())
    (Net.Server.history cl.Net.Sim_run.server);
  Alcotest.(check bool)
    (Fmt.str "%d constant events, %d values" !count (Hashtbl.length shared))
    true
    (!count > 2 * Hashtbl.length shared)

(* What [Server.record] does with an event, alone: append it to the log
   and feed the key's monitor.  A writer and a reader take turns on one
   key; a write's [Respond] folds the monitor and a read's [Invoke]
   unfolds it, and both are a session's shared values. *)
let record_words () =
  let n = 1_000 in
  let log = Net.History_log.create ()
  and m = Histories.Monitor.create ~init:0 in
  let record ev =
    Net.History_log.append log 0.0 7 ev;
    ignore (Histories.Monitor.observe m ev)
  in
  let writes = Array.init n (fun i -> E.Invoke (0, E.Write (i + 1)))
  and reads = Array.init n (fun i -> E.Respond (2, Some (i + 1)))
  and invoke_read = E.Invoke (2, E.Read)
  and respond_write = E.Respond (0, None) in
  (* the log's chunks fill at 16, 48, ..., 8176 and 12272 events:
     round [i] appends events [7776 + 4i] to [7779 + 4i], so the rounds
     measured (100 and on) start a chunk of 4096 and stay inside it *)
  for _ = 1 to 7776 do
    Net.History_log.append log 0.0 0 invoke_read
  done;
  let words = Float.Array.make 2 0.0 in
  let measured i j ev =
    let w0 = Gc.minor_words () in
    record ev;
    let w = Gc.minor_words () -. w0 in
    if i >= 100 then Float.Array.set words j (Float.Array.get words j +. w)
  in
  for i = 0 to n - 1 do
    record writes.(i);
    measured i 0 respond_write;
    measured i 1 invoke_read;
    record reads.(i)
  done;
  (match Histories.Monitor.verdict m with
   | Histories.Monitor.Ok_so_far -> ()
   | Histories.Monitor.Violation _ ->
     Alcotest.fail "the audit flagged the run");
  let per i = Float.Array.get words i /. float_of_int (n - 100) in
  Alcotest.(check (float 0.0)) "words to record a write's Respond (a fold)" 0.0
    (per 0);
  Alcotest.(check (float 0.0)) "words to record a read's Invoke (an unfold)"
    0.0 (per 1)

(* A [Stats_reply] shows the audit's resident set (a key whose one
   write completed has folded) and the server's own store's commit
   causes, as [Storage.stats] counts them. *)
let stats_reply_resident_set_and_commits () =
  let h = holding () in
  let st =
    Net.Storage.create
      ~group_commit:{ Net.Storage.batch_max = 2; flush_every = 0.0 }
      (Net.Storage.Disk.backend (Net.Storage.Disk.create ()))
  in
  let sv = held_server ~storage:st h in
  let cl = Net.Transport.client 0 in
  let from_client msg = Net.Server.on_message sv ~src:cl msg in
  from_client (W.Hello { proc = 0 });
  from_client
    (W.Batch
       (List.init 6 (fun key ->
            W.Req { seq = key; op = W.Write_k { key; value = key + 1 } })));
  pump h sv;
  Alcotest.(check int) "every write served" 6 (Net.Server.ops_served sv);
  from_client (W.Stats_req { rid = 9 });
  let stats =
    match
      List.find_map
        (function
          | d, W.Stats_reply { rid = 9; stats } when d = cl -> Some stats
          | _ -> None)
        h.from_engine
    with
    | Some stats -> stats
    | None -> Alcotest.fail "no Stats_reply"
  in
  let get name =
    match List.assoc_opt name stats with
    | Some v -> v
    | None -> Alcotest.failf "stat %s missing from the reply" name
  in
  Alcotest.(check int) "keys audited" 6 (get "audit_keys");
  Alcotest.(check int) "monitors resident: every key folded" 0
    (get "audit_resident");
  let s = Net.Storage.stats st in
  Alcotest.(check bool) "the store committed" true
    (s.Net.Storage.batch_commits > 0);
  Alcotest.(check (list int)) "commit causes, as the store counts them"
    Net.Storage.[ s.cap_commits; s.deadline_commits; s.forced_commits ]
    (List.map get
       [
         "store_cap_commits"; "store_deadline_commits"; "store_forced_commits";
       ]);
  Alcotest.(check int) "causes sum to the commits" s.Net.Storage.batch_commits
    (get "store_cap_commits" + get "store_deadline_commits"
   + get "store_forced_commits");
  (* a write in flight holds its key's monitor resident *)
  from_client (W.Req { seq = 6; op = W.Write_k { key = 0; value = 7 } });
  from_client (W.Stats_req { rid = 10 });
  let resident =
    List.find_map
      (function
        | d, W.Stats_reply { rid = 10; stats } when d = cl ->
          List.assoc_opt "audit_resident" stats
        | _ -> None)
      h.from_engine
  in
  Alcotest.(check (option int)) "one monitor resident" (Some 1) resident

(* In a two-domain pool each worker has its own store; worker 0
   answers a [Stats_req] with the commit causes of both, summed. *)
let pool_stats_reply_sums_stores () =
  let domains = 2 and n = 8 in
  let stores =
    Array.init domains (fun _ ->
        Net.Storage.create
          ~group_commit:{ Net.Storage.batch_max = 2; flush_every = 0.0 }
          (Net.Storage.Disk.backend (Net.Storage.Disk.create ())))
  in
  let reply = Atomic.make None in
  let tr, p, resps =
    loopback_pool ~stats:reply
      ~storage:(fun d -> Some stores.(d))
      ~map:(Net.Shard_map.create ~shards:domains ())
      ~domains ()
  in
  let cl = Net.Transport.client 0 in
  let send m = tr.Net.Transport.send ~src:cl ~dst:Net.Transport.server m in
  send (W.Hello { proc = 0 });
  send
    (W.Batch
       (List.init n (fun key ->
            W.Req { seq = key; op = W.Write_k { key; value = key + 1 } })));
  await_resps resps n;
  send (W.Stats_req { rid = 1 });
  await_stats reply;
  send W.Bye;
  Net.Server_pool.stop p;
  let stats =
    match Atomic.get reply with
    | Some stats -> stats
    | None -> Alcotest.fail "no Stats_reply"
  in
  let causes (s : Net.Storage.stats) =
    [ s.cap_commits; s.deadline_commits; s.forced_commits ]
  in
  let per_store = Array.map (fun st -> causes (Net.Storage.stats st)) stores in
  Array.iteri
    (fun d c ->
      Alcotest.(check bool) (Fmt.str "worker %d's store committed" d) true
        (List.fold_left ( + ) 0 c > 0))
    per_store;
  Alcotest.(check (list int)) "commit causes, summed over the pool's stores"
    (List.map2 ( + ) per_store.(0) per_store.(1))
    (List.map
       (fun name ->
         match List.assoc_opt name stats with
         | Some v -> v
         | None -> Alcotest.failf "stat %s missing from the reply" name)
       [ "store_cap_commits"; "store_deadline_commits"; "store_forced_commits" ])

(* A reader's lanes hold about 14.5 words per key it touched.  Once
   it says [Bye] they must become unreachable from the core: no spare
   op record may keep the closed session, and through it the lanes. *)
let bye_frees_reader_lanes () =
  let keys = 512 in
  let sv, answer = query_catching_server () in
  let cl = Net.Transport.client 2 in
  Net.Server.on_message sv ~src:cl (W.Hello { proc = 2 });
  for key = 0 to keys - 1 do
    Net.Server.on_message sv ~src:cl
      (W.Req { seq = key; op = W.Read_k { key } });
    answer (fun rid ->
        W.Query_reply
          { rid; reg = Net.Shard_map.global_reg key 0; ts = 0; pl = pl 0 false })
  done;
  Alcotest.(check int) "every read answered" keys (Net.Server.ops_served sv);
  let before = Obj.reachable_words (Obj.repr sv) in
  Net.Server.on_message sv ~src:cl W.Bye;
  let freed = before - Obj.reachable_words (Obj.repr sv) in
  Alcotest.(check bool)
    (Fmt.str "%d words freed for %d keys' lanes" freed keys)
    true
    (freed >= 14 * keys)

(* ------------------------------------------------------------------ *)
(* The lean socket turn                                                *)

(* A base send that raises ends the cork's turn; the slots it had not
   reached yet must leave the turn with it, or every later send to
   their destinations would land in a slot that never ships. *)
let cork_raise_mid_turn () =
  let calls = ref 0 and got = ref [] in
  let base =
    {
      Net.Transport.null with
      send =
        (fun ~src:_ ~dst _ ->
          incr calls;
          if !calls = 2 then failwith "send refused";
          got := dst :: !got);
    }
  in
  let tr, cork = Net.Transport.cork base in
  let fan_out () =
    for dst = 0 to 2 do
      tr.Net.Transport.send ~src:engine_node ~dst
        (W.Query { rid = dst; reg = 0 })
    done
  in
  Alcotest.check_raises "the raise ends the turn" (Failure "send refused")
    (fun () -> Net.Transport.turn cork fan_out);
  Alcotest.(check (list int)) "shipped before the raise" [ 0 ] (List.rev !got);
  got := [];
  Net.Transport.turn cork fan_out;
  Alcotest.(check (list int)) "the next turn reaches all three peers"
    [ 0; 1; 2 ] (List.rev !got)

(* A shipped turn leaves nothing in its slots: once the turn closes,
   the messages it sent are garbage, whether they left alone or in a
   [Batch].  They are built and sent by a function of their own, so
   that no register or stack slot of the test still holds one. *)
let[@inline never] corked_probe_turn tr cork probe =
  Net.Transport.turn cork (fun () ->
      for i = 0 to Weak.length probe - 1 do
        let m = W.Query { rid = i; reg = i } in
        Weak.set probe i (Some m);
        (* two messages to peer 1, one to peer 2 *)
        tr.Net.Transport.send ~src:engine_node ~dst:(1 + (i / 2)) m
      done)

let cork_frees_shipped_messages () =
  let tr, cork = Net.Transport.cork Net.Transport.null in
  let probe = Weak.create 3 in
  corked_probe_turn tr cork probe;
  Gc.full_major ();
  for i = 0 to Weak.length probe - 1 do
    Alcotest.(check bool)
      (Fmt.str "message %d collectable once its turn shipped" i)
      false (Weak.check probe i)
  done;
  (* the cork itself stays reachable through the collection *)
  ignore (Sys.opaque_identity (tr, cork))

(* Everything a socket endpoint's handler receives, flattened, in
   arrival order; [wait n] polls until [n] messages are in or 10 s
   pass. *)
let collector net node =
  let mu = Mutex.create () and got = ref [] in
  Net.Socket_net.listen net node (fun ~src:_ msg ->
      Mutex.lock mu;
      (match msg with
       | W.Batch ms -> List.iter (fun m -> got := m :: !got) ms
       | m -> got := m :: !got);
      Mutex.unlock mu);
  let received () = Mutex.protect mu (fun () -> List.rev !got) in
  let wait n =
    let deadline = Unix.gettimeofday () +. 10.0 in
    while
      List.compare_length_with (received ()) n < 0
      && Unix.gettimeofday () < deadline
    do
      Thread.delay 0.001
    done;
    received ()
  in
  wait

let socket_unencodable_counted_apart () =
  let net = Net.Socket_net.create () in
  let tr = Net.Socket_net.transport net in
  let wait = collector net 61 in
  let query = W.Query { rid = 1; reg = 0 } in
  tr.Net.Transport.send ~src:60 ~dst:61 query;
  ignore (wait 1);
  tr.Net.Transport.send ~src:60 ~dst:61
    (W.Store2 { lid = 0; seq = W.max_link_seq; reg = 0; pl = pl 1 false });
  tr.Net.Transport.send ~src:60 ~dst:61 query;
  let got = wait 2 in
  let m = Net.Socket_net.metrics net in
  let get = Net.Metrics.get m in
  Net.Socket_net.shutdown net;
  Alcotest.(check int) "frames_unencodable" 1 (get "frames_unencodable");
  Alcotest.(check int) "frames_oversized" 0 (get "frames_oversized");
  Alcotest.(check int) "frames_sent" 2 (get "frames_sent");
  Alcotest.(check int) "frames_dropped" 0 (get "frames_dropped");
  Alcotest.(check int) "decode_errors" 0 (get "decode_errors");
  Alcotest.(check bool) "the next valid frame is delivered" true
    (got = [ query; query ])

(* The transport's handler on a 1-domain pool enqueues each frame as
   it arrived: no buckets, no rebuilt Batch, no queue cell. *)
let pool_dispatch_words () =
  let p =
    Net.Server_pool.create ~transport:Net.Transport.null ~domains:1
      ~me:Net.Transport.server ~replicas:[ 0; 1; 2 ] ~init:0 ()
  in
  let req = W.Req { seq = 0; op = W.Read_k { key = 3 } } in
  let cl = Net.Transport.client 2 in
  let w =
    words_per_call ~warmup:100 ~n:10_100 (fun _ ->
        Net.Server_pool.dispatch p ~src:cl req)
  in
  Net.Server_pool.stop p;
  (* a lock the worker holds at that moment costs the runtime a dozen
     words now and then (seen: 0 to 36 words over the 10000 calls),
     never a word per call *)
  if w >= 0.05 then
    Alcotest.failf "dispatch allocated %.4f words per call on the caller" w

(* Hold the worker inside its first reply, queue [n] more frames behind
   it, and read the pool's high-water mark back through a
   [Stats_reply], as [service stats] does. *)
let pool_queue_hwm_in_stats () =
  let n = 40 in
  let metrics = Net.Metrics.create () in
  let hold = Mutex.create () and blocked = Atomic.make false in
  let last = Atomic.make None in
  let pool = ref None in
  let tr =
    loopback_transport
      ~on_server:(fun ~src msg ->
        match !pool with
        | Some p -> Net.Server_pool.dispatch p ~src msg
        | None -> ())
      ~on_client:(fun ~src:_ ~dst:_ msg ->
        Atomic.set blocked true;
        Mutex.lock hold;
        Mutex.unlock hold;
        let note = function
          | W.Stats_reply { rid; stats } when rid = n ->
            Atomic.set last (Some stats)
          | _ -> ()
        in
        match msg with W.Batch ms -> List.iter note ms | m -> note m)
  in
  let p =
    Net.Server_pool.create ~transport:tr ~metrics ~domains:1
      ~me:Net.Transport.server ~replicas:[ 0; 1; 2 ] ~init:0 ()
  in
  pool := Some p;
  let cl = Net.Transport.client 0 in
  let send m = tr.Net.Transport.send ~src:cl ~dst:Net.Transport.server m in
  Mutex.lock hold;
  send (W.Stats_req { rid = 0 });
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Atomic.get blocked)) && Unix.gettimeofday () < deadline do
    Thread.yield ()
  done;
  for rid = 1 to n do
    send (W.Stats_req { rid })
  done;
  Mutex.unlock hold;
  await_stats last;
  Net.Server_pool.stop p;
  let hwm =
    match Atomic.get last with
    | Some stats -> List.assoc_opt "pool_queue_hwm" stats
    | None -> Alcotest.fail "no Stats_reply for the last request"
  in
  match hwm with
  | Some v ->
    Alcotest.(check bool)
      (Fmt.str "pool_queue_hwm %d >= %d" v n) true (v >= n)
  | None -> Alcotest.fail "pool_queue_hwm missing from the reply"

(* A raw peer's frames, written by hand to [node]'s socket. *)
let raw_peer net node =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX (Net.Socket_net.path net node));
  fd

let socket_frame_in_two_halves () =
  let net = Net.Socket_net.create () in
  let wait = collector net 71 in
  let m = W.Store { rid = 9; reg = 3; ts = 1 lsl 33; pl = pl 77 true } in
  let f = W.frame ~src:70 m in
  let fd = raw_peer net 71 in
  let half = Bytes.length f / 2 in
  ignore (Unix.write fd f 0 half);
  Thread.delay 0.05;
  let early = wait 0 in
  ignore (Unix.write fd f half (Bytes.length f - half));
  let got = wait 1 in
  Thread.delay 0.05;
  let after = wait 1 in
  Unix.close fd;
  let errors = Net.Metrics.get (Net.Socket_net.metrics net) "decode_errors" in
  Net.Socket_net.shutdown net;
  Alcotest.(check int) "nothing from half a frame" 0 (List.length early);
  Alcotest.(check bool) "the frame, whole" true (got = [ m ]);
  Alcotest.(check int) "delivered once" 1 (List.length after);
  Alcotest.(check int) "decode_errors" 0 errors

(* Past the 64 KiB read buffer and the 256 KiB budget of one readiness
   callback: every frame arrives, in order. *)
let socket_burst_in_order () =
  let n = 45_000 in
  let net = Net.Socket_net.create () in
  let wait = collector net 73 in
  let burst =
    Bytes.concat Bytes.empty
      (List.init n (fun rid -> W.frame ~src:72 (W.Query { rid; reg = 1 })))
  in
  Alcotest.(check bool) "the burst is over 1 MiB" true
    (Bytes.length burst > 1 lsl 20);
  let fd = raw_peer net 73 in
  let writer =
    Thread.create
      (fun () -> ignore (Unix.write fd burst 0 (Bytes.length burst)))
      ()
  in
  let got = wait n in
  Thread.join writer;
  Unix.close fd;
  let errors = Net.Metrics.get (Net.Socket_net.metrics net) "decode_errors" in
  Net.Socket_net.shutdown net;
  Alcotest.(check int) "every frame" n (List.length got);
  Alcotest.(check int) "decode_errors" 0 errors;
  List.iteri
    (fun i m ->
      if m <> W.Query { rid = i; reg = 1 } then
        Alcotest.failf "frame %d out of order: %a" i W.pp m)
    got

(* The tier-1 twin of the slow tiny-SO_SNDBUF test, with many small
   frames of mixed sizes: a short write's remainder must be copied out
   of the connection's reused buffer before the next frame is encoded
   into it. *)
let socket_tiny_sndbuf_small_frames () =
  let n = 4_000 in
  let net = Net.Socket_net.create ~sndbuf:4096 () in
  let tr = Net.Socket_net.transport net in
  let wait = collector net 63 in
  let msg i =
    if i mod 7 = 0 then
      W.Stats_reply { rid = i; stats = [ (String.make (i mod 300) 'n', i) ] }
    else W.Store { rid = i; reg = i mod 5; ts = i; pl = pl (-i) (i mod 2 = 0) }
  in
  for i = 0 to n - 1 do
    tr.Net.Transport.send ~src:62 ~dst:63 (msg i)
  done;
  let got = wait n in
  let m = Net.Socket_net.metrics net in
  let get = Net.Metrics.get m in
  Net.Socket_net.shutdown net;
  Alcotest.(check int) "every frame" n (List.length got);
  List.iteri
    (fun i g ->
      if g <> msg i then Alcotest.failf "frame %d mangled: %a" i W.pp g)
    got;
  Alcotest.(check int) "decode_errors" 0 (get "decode_errors");
  Alcotest.(check int) "frames_dropped" 0 (get "frames_dropped");
  Alcotest.(check bool)
    (Fmt.str "short writes parked on the queue (saw %d)" (get "write_queued"))
    true
    (get "write_queued" >= 1)

(* A refused op gets a [Nack], which the client raises on, whatever
   the session's role. *)
let socket_refused_op_nacked () =
  let net, server = socket_cluster () in
  let c0 = Net.Client.connect ~net ~server:Net.Transport.server ~proc:0 () in
  let refused what f =
    match f () with
    | _ -> Alcotest.failf "%s was answered as if served" what
    | exception Invalid_argument _ -> ()
  in
  refused "a writer's write to key -1" (fun () ->
      Net.Client.write_k c0 ~key:(-1) 5);
  refused "a read of key -1" (fun () ->
      ignore (Net.Client.read_k c0 ~key:(-1)));
  refused "a windowed script with a write to key -1" (fun () ->
      Net.Client.run_keyed c0 [ (1, E.Write 6); (-1, E.Write 7) ]);
  Net.Client.write_k c0 ~key:1 8;
  Alcotest.(check int) "a later write is served" 8
    (Net.Client.read_k c0 ~key:1);
  Net.Client.close c0;
  Net.Socket_net.shutdown net;
  Alcotest.(check int) "ops_rejected" 3 (Net.Server.rejected server)

let suite =
  [
    tc "wire: reject garbage" wire_rejects_garbage;
    tc "wire: framing" wire_frame;
    tc "wire: oversized frame rejected" wire_oversized_frame;
    tc "wire: batch depth capped" wire_batch_depth;
    tc "wire: boundary values round-trip" wire_boundary_values;
    tc "wire: keyed ops in nested batches" wire_keyed_in_nested_batch;
    QCheck_alcotest.to_alcotest wire_roundtrip;
    QCheck_alcotest.to_alcotest wire_decode_total;
    tc "shard map: placement" shard_map_basics;
    tc "shard map: replica groups" shard_map_groups;
    tc "replica: monotone timestamps" replica_monotone;
    tc "replica: open keyspace" replica_open_keyspace;
    tc "replica: batches" replica_batch;
    tc "quorum: a read of a stored pair skips the write-back"
      quorum_read_of_stored_pair_skips_write_back;
    tc "quorum: a read overlapping a write writes back"
      quorum_read_overlapping_write_writes_back;
    tc "quorum: a fresh engine writes back once, then skips"
      quorum_fresh_engine_writes_back_once;
    tc "sim: reliable run" sim_reliable;
    tc "sim: pipelining windows" sim_windows;
    tc "sim: minority replica crash" sim_replica_crash;
    tc "sim: majority loss stalls safely" sim_majority_crash_stalls;
    tc "sim: the verdict names the first failure" sim_verdict_order;
    tc "sim: partition then heal" sim_partition_heals;
    tc "sim: deterministic replay" sim_deterministic;
    QCheck_alcotest.to_alcotest sim_random_schedules;
    tc "sim: sharded keyspace atomic per key" sim_sharded;
    tc "sim: sharded deterministic" sim_sharded_deterministic;
    tc "sim: per-shard counters reconcile" sim_shard_metrics;
    tc "metrics: sim frame fates reconcile" sim_metrics_reconcile;
    tc "trace: ring wraps" trace_ring_wraps;
    tc "trace: dump, parse back, re-check" sim_trace_replay;
    tc "audit plumbing catches inversions" audit_catches_corruption;
    tc "socket: keyed single ops" socket_keyed_single_ops;
    tc "socket: rogue writer rejected" socket_rejects_rogue_writer;
    tc "socket: close flushes pending batch" socket_close_flushes_pending;
    tc "socket: txn batches + snapshot reads" socket_txn_snap_ops;
    tc "socket: close seals multi-key frames" socket_close_seals_txn;
    tc "socket: timer for gone node dropped" socket_timer_unregistered_dropped;
    tc "socket: stale timer across re-listen dropped"
      socket_timer_stale_incarnation;
    tc "server: two nodes in one writer role run one at a time"
      two_nodes_one_writer_role_sequential;
    tc "server: writer reads cost 1 or 2 real reads (abd)"
      (writer_reads_through_copy Net.Engine.abd);
    tc "server: writer reads cost 1 or 2 real reads (twobit)"
      (writer_reads_through_copy Net.Engine.twobit);
    tc "server: restarted server reads plainly, then through the copy"
      restarted_server_reads_plainly;
    tc "server: a txn write refreshes the writer's copy"
      txn_write_refreshes_copy;
    tc "server store: compaction under in-flight snapshot reads"
      compaction_under_snapshot_reads;
    tc "server: reconnect keeps a processor sequential"
      reconnect_keeps_processor_sequential;
    tc "cork: one frame per peer per turn" cork_coalesces;
    tc "batch fast path: group commits, not singletons" batch_group_commit;
    tc "pool: mixed-shard batch over two domains" pool_mixed_shard_batch;
    tc "pool: a worker whose handler raises keeps serving"
      pool_worker_survives_raise;
    tc "pool: keyed workload over sockets, two domains" socket_pool_domains;
    tc "pool: txn/snap workload over sockets, two domains" socket_pool_txn_snap;
    tc "quorum: each phase reaches one majority"
      quorum_phase_reaches_one_majority;
    tc "quorum: windows rotate evenly over the group"
      quorum_windows_rotate_evenly;
    tc "quorum: a dead window member costs one resend"
      quorum_dead_window_member;
    tc "trace: one record per delivery, drop and timer fire" sim_trace_counts;
    tc "socket: control requests on a closed client raise"
      socket_control_on_closed_client;
    tc "socket: one reply table never crosses answers"
      socket_one_table_no_crossed_replies;
    tc "pool: stats reply reads the whole pool's counters" pool_stats_reply;
    tc "quorum: duplicate replies count once"
      quorum_duplicate_replies_count_once;
    tc "quorum: a reply from outside the group never completes a phase"
      quorum_outsider_never_completes;
    tc "quorum: with equal timestamps the newest reply wins"
      quorum_tie_newest_reply_wins;
    tc "quorum: a resend reaches exactly the replicas not yet answered"
      quorum_resend_skips_answered;
    tc "quorum: a Query_reply short of a quorum allocates nothing"
      quorum_partial_reply_allocates_nothing;
    tc "sim: a delivery to a no-op handler allocates nothing"
      sim_step_allocates_nothing;
    tc "cork: a turn of single messages to 3 peers allocates nothing"
      (cork_fan_out 3);
    tc "server: a Query_reply short of a quorum allocates nothing"
      server_partial_reply_allocates_nothing;
    tc "sim: an immune link delivers in send order" sim_immune_link_is_fifo;
    tc "sim: pending offers only an immune link's oldest delivery"
      sim_pending_offers_link_heads;
    tc "sim: a task is a choice, not a frame or a timer" sim_task_is_a_choice;
    tc "replica: a durable Query allocates only its reply"
      durable_replica_query_words;
    tc "sim: an amnesia restart drops the old incarnation's timers"
      sim_amnesia_drops_timers;
    tc "sim: a paused node's due timers fire at its restart"
      sim_pause_defers_timers;
    tc "cork: a turn to 200 peers ships in order and allocates nothing"
      (cork_fan_out 200);
    tc "sim: a send on a reliable link allocates only the delay draw"
      sim_send_words;
    tc "sim: a timer armed and fired allocates nothing" sim_timer_words;
    tc "server: recording a history event allocates no minor word"
      server_history_words;
    sim_oracle_property;
    tc "quorum: a warm read phase with two replies: <= 10 words (28 with closures)"
      abd_read_phase_words;
    tc "quorum: a warm write phase with two acks: <= 12 words (20 with records)"
      abd_write_phase_words;
    tc "server: a Req read on a warm key: <= 53 words (203 with closures)"
      server_read_op_words;
    tc "history log: views equal a list at every chunk boundary"
      history_log_views;
    tc "server: a session's Invoke read and Respond write are shared"
      server_shares_constant_events;
    tc "server: recording a write's Respond or a read's Invoke: 0 words"
      record_words;
    tc "server: Stats_reply shows the resident set and store commit causes"
      stats_reply_resident_set_and_commits;
    tc "pool: Stats_reply sums every worker's store commit causes"
      pool_stats_reply_sums_stores;
    tc "server: Bye leaves a reader's lanes unreachable"
      bye_frees_reader_lanes;
    tc "cork: a send that raises mid-turn strands no slot" cork_raise_mid_turn;
    tc "cork: a shipped turn keeps no message alive"
      cork_frees_shipped_messages;
    tc "sim: the delay draw is Random.State.float bit for bit"
      sim_uniform_is_stdlib_float;
    tc "sim: a lossy send boxes no draw" sim_lossy_send_words;
    tc "socket: an unencodable frame is counted apart, the next delivered"
      socket_unencodable_counted_apart;
    tc "pool: dispatch of one Req on one domain: 0 words (parent about 11)"
      pool_dispatch_words;
    tc "pool: the queue high-water mark reaches Stats_reply"
      pool_queue_hwm_in_stats;
    tc "socket: a frame written in two halves is delivered once, whole"
      socket_frame_in_two_halves;
    tc "socket: a 1 MiB burst of small frames arrives complete, in order"
      socket_burst_in_order;
    tc "socket: small frames through a tiny SO_SNDBUF arrive whole, in order"
      socket_tiny_sndbuf_small_frames;
    tc "socket: a refused op is answered with a Nack" socket_refused_op_nacked;
    tc "sim: a 1-worker pool's read op costs no word more than its core's"
      sim_pool_read_op_words;
    tc "pool: fewer than one domain is refused" pool_refuses_no_domain;
  ]

let slow_suite =
  [
    tc_slow "sim: fault-schedule sweep" sim_fault_sweep;
    tc_slow "sim: sharded under faults + crash" sim_sharded_faults;
    tc_slow "socket: served workload atomic" socket_smoke;
    tc_slow "socket: replica crash mid-run" socket_replica_crash;
    tc_slow "socket: reconnect with same proc" socket_reconnect_same_proc;
    tc_slow "socket: keyed workload atomic per key" socket_keyed_workload;
    tc_slow "socket: stalled peer does not block the transport"
      socket_connect_stall_does_not_block;
    tc_slow "socket: stats over the wire" socket_stats_over_wire;
    tc_slow "socket: tiny SO_SNDBUF backpressure" socket_tiny_sndbuf;
    tc_slow "socket: client batches keep sequence order"
      socket_client_send_order;
    tc_slow "pool: audit memory constant per key" pool_soak_constant_memory;
  ]
