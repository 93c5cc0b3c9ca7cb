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
            W.Req { seq; op = (if v < 0 then W.Read else W.Write v) })
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
  let whole = W.encode (W.Req { seq = 3; op = W.Write 9 }) in
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
  ignore (W.frame ~src:0 (W.Req { seq = 0; op = W.Write max_int }))

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
      W.Req { seq = max_int; op = W.Write min_int };
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
    Net.Replica.handle r ~src:9 (W.Store { rid; reg = 0; ts; pl = pl v false })
  in
  (match store 1 5 50 with
   | [ (9, W.Store_ack { rid = 1; reg = 0 }) ] -> ()
   | _ -> Alcotest.fail "store not acked");
  ignore (store 2 3 30);  (* stale: must not regress *)
  (match Net.Replica.handle r ~src:9 (W.Query { rid = 3; reg = 0 }) with
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
    (Net.Replica.handle r ~src:1 (W.Store { rid = 1; reg = g; ts = 3; pl = pl 99 true }));
  (match Net.Replica.handle r ~src:1 (W.Query { rid = 2; reg = g }) with
   | [ (1, W.Query_reply { ts = 3; pl = p; _ }) ] ->
     Alcotest.(check int) "stored far key" 99 (Registers.Tagged.v p)
   | _ -> Alcotest.fail "far key not served");
  Alcotest.(check int) "only one register materialized" 1
    (List.length (Net.Replica.contents r))

let replica_batch () =
  let r = Net.Replica.create ~init:0 () in
  let out =
    Net.Replica.handle r ~src:2
      (W.Batch [ W.Query { rid = 1; reg = 0 }; W.Query { rid = 2; reg = 1 } ])
  in
  Alcotest.(check int) "two replies" 2 (List.length out)

(* ------------------------------------------------------------------ *)
(* Quorum: when a read writes back                                     *)

(* Three volatile replicas behind a transport that holds every send
   until [deliver] releases it, and a log of what the engine sent. *)
type held = {
  mutable queue : (int * int * W.msg) list;  (* oldest first *)
  mutable from_engine : W.msg list;
  reps : Net.Replica.t array;
}

let engine_node = Net.Transport.server

let holding () =
  {
    queue = [];
    from_engine = [];
    reps = Array.init 3 (fun _ -> Net.Replica.create ~init:0 ());
  }

let quorum_over h =
  let send ~src ~dst msg =
    if src = engine_node then h.from_engine <- msg :: h.from_engine;
    h.queue <- h.queue @ [ (src, dst, msg) ]
  in
  Net.Quorum.create
    ~transport:{ Net.Transport.null with Net.Transport.send }
    ~me:engine_node ~replicas:[ 0; 1; 2 ] ()

(* the oldest element accepted by [p], and the list without it *)
let rec take p = function
  | [] -> None
  | x :: xs when p x -> Some (x, xs)
  | x :: xs -> Option.map (fun (y, ys) -> (y, x :: ys)) (take p xs)

(* Deliver held messages accepted by [p], oldest first, including the
   replies they cause, until none is left. *)
let rec deliver ?(p = fun _ -> true) h q =
  match take p h.queue with
  | None -> ()
  | Some ((src, dst, msg), rest) ->
    h.queue <- rest;
    if dst = engine_node then Net.Quorum.on_message q ~src msg
    else
      List.iter
        (fun (d, m) -> h.queue <- h.queue @ [ (dst, d, m) ])
        (Net.Replica.handle h.reps.(dst) ~src msg);
    deliver ~p h q

(* (queries, stores) the engine has sent since the last call *)
let sent h =
  let count f = List.length (List.filter f h.from_engine) in
  let n =
    ( count (function W.Query _ -> true | _ -> false),
      count (function W.Store _ -> true | _ -> false) )
  in
  h.from_engine <- [];
  n

let read_value h q =
  let got = ref None in
  Net.Quorum.read q ~reg:0 ~k:(fun p -> got := Some (Registers.Tagged.v p));
  deliver h q;
  !got

let write_value h q v =
  let acked = ref false in
  Net.Quorum.write q ~reg:0 ~value:(pl v false) ~k:(fun () -> acked := true);
  deliver h q;
  Alcotest.(check bool) "write acked" true !acked

let counts = Alcotest.(pair int int)

let quorum_read_of_stored_pair_skips_write_back () =
  let h = holding () in
  let q = quorum_over h in
  write_value h q 5;
  ignore (sent h);
  Alcotest.(check (option int)) "reads the write" (Some 5) (read_value h q);
  Alcotest.(check counts) "3 queries, no store" (3, 0) (sent h)

let quorum_read_overlapping_write_writes_back () =
  let h = holding () in
  let q = quorum_over h in
  write_value h q 5;
  (* a second write reaches replica 0 only: its pair is not yet known
     to be on a majority *)
  Net.Quorum.write q ~reg:0 ~value:(pl 6 false) ~k:ignore;
  deliver
    ~p:(fun (_, dst, m) ->
      match m with W.Store _ -> dst = 0 | _ -> false)
    h q;
  ignore (sent h);
  let got = ref None in
  Net.Quorum.read q ~reg:0 ~k:(fun p -> got := Some (Registers.Tagged.v p));
  deliver
    ~p:(fun (src, dst, m) ->
      match m with
      | W.Query _ -> dst = 0 || dst = 1
      | W.Query_reply _ -> src = 0 || src = 1
      | _ -> false)
    h q;
  Alcotest.(check (option int)) "k waits for the write-back" None !got;
  Alcotest.(check counts) "the read writes back" (3, 3) (sent h);
  deliver h q;
  Alcotest.(check (option int)) "then returns the newer value" (Some 6) !got

let quorum_fresh_engine_writes_back_once () =
  (* a restarted engine recovers the timestamps it issued but not which
     stores completed, so its first read of a stored register writes
     back *)
  let h = holding () in
  write_value h (quorum_over h) 5;
  let q = quorum_over h in
  ignore (sent h);
  Alcotest.(check (option int)) "first read" (Some 5) (read_value h q);
  Alcotest.(check counts) "writes back once" (3, 3) (sent h);
  Alcotest.(check (option int)) "second read" (Some 5) (read_value h q);
  Alcotest.(check counts) "then skips" (3, 0) (sent h)

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

let check_outcome ~what (o : Net.Sim_run.outcome) =
  (match o.monitor_violation with
   | None -> ()
   | Some v -> Alcotest.failf "%s: live audit violation: %s" what v);
  Alcotest.(check bool) (what ^ ": fastcheck atomic") true o.fastcheck_ok;
  Alcotest.(check int) (what ^ ": all ops completed") o.expected o.completed

let sim_reliable () =
  let o =
    Net.Sim_run.run
      (Net.Sim_run.build ~seed:1 ~init:0
         ~processes:(spec ~readers:2 ~writes:4 ~reads:6) ())
  in
  check_outcome ~what:"reliable" o;
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
            (Net.Sim_run.build ~faults ~seed ~init:0
               ~processes:(spec ~readers:2 ~writes:3 ~reads:5) ())
        in
        check_outcome ~what:(Fmt.str "schedule %d seed %d" i seed) o
      done)
    schedules

let sim_windows () =
  (* pipelining depth must not affect correctness *)
  List.iter
    (fun window ->
      let o =
        Net.Sim_run.run
          (Net.Sim_run.build ~faults:(Net.Sim_net.lossy ()) ~window ~seed:5
             ~init:0 ~processes:(spec ~readers:3 ~writes:3 ~reads:4) ())
      in
      check_outcome ~what:(Fmt.str "window %d" window) o)
    [ 1; 2; 8; 32 ]

let sim_replica_crash () =
  for seed = 0 to 4 do
    let o =
      Net.Sim_run.run ~fates:[ crash 2 30.0 ]
        (Net.Sim_run.build ~faults:(Net.Sim_net.lossy ~drop:0.1 ()) ~replicas:3
           ~seed ~init:0 ~processes:(spec ~readers:2 ~writes:4 ~reads:6) ())
    in
    check_outcome ~what:(Fmt.str "crash seed %d" seed) o
  done

let sim_majority_crash_stalls () =
  (* killing two of three replicas destroys the quorum: the service
     must stall (liveness lost) but never lie (safety kept) *)
  let o =
    Net.Sim_run.run ~fates:[ crash 1 10.0; crash 2 12.0 ] ~max_steps:30_000
      (Net.Sim_run.build ~replicas:3 ~seed:3 ~init:0
         ~processes:
           [ { Registers.Vm.proc = 0;
               script = List.init 4 (fun k -> E.Write (k + 1)) };
             { Registers.Vm.proc = 2; script = List.init 6 (fun _ -> E.Read) } ]
         ())
  in
  Alcotest.(check bool) "stalled, not completed" true
    (o.completed < o.expected);
  (match o.monitor_violation with
   | None -> ()
   | Some v -> Alcotest.failf "stall must not violate atomicity: %s" v);
  Alcotest.(check bool) "history prefix still atomic" true o.fastcheck_ok

let sim_partition_heals () =
  (* sever all replicas from the server mid-run, then heal: the
     retransmission layer must finish every operation *)
  let cl =
    Net.Sim_run.build ~faults:(Net.Sim_net.lossy ~drop:0.1 ()) ~seed:7 ~init:0
      ~processes:(spec ~readers:2 ~writes:3 ~reads:4) ()
  in
  let o = Net.Sim_run.run ~fates:(partition cl (25.0, 120.0)) cl in
  check_outcome ~what:"partition+heal" o;
  Alcotest.(check bool) "partition actually bit" true
    (o.net.Net.Sim_net.blocked > 0)

let sim_deterministic () =
  let go () =
    Net.Sim_run.run ~fates:[ crash 0 35.0 ]
      (Net.Sim_run.build
         ~faults:(Net.Sim_net.lossy ~drop:0.2 ~duplicate:0.1 ())
         ~seed:11 ~init:0 ~processes:(spec ~readers:2 ~writes:3 ~reads:4) ())
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
          (Net.Sim_run.build ~faults:(Net.Sim_net.lossy ~drop ~duplicate ())
             ~seed ~init:0 ~processes:(spec ~readers:2 ~writes:2 ~reads:3) ())
      in
      o.Net.Sim_run.monitor_violation = None
      && o.Net.Sim_run.fastcheck_ok
      && o.Net.Sim_run.completed = o.Net.Sim_run.expected)

(* ------------------------------------------------------------------ *)
(* Sharded keyspace                                                    *)

let check_sharded ~what (o : Net.Sim_run.outcome) =
  (match o.key_violations with
   | [] -> ()
   | (k, v) :: _ ->
     Alcotest.failf "%s: live audit violation on key %d: %s" what k v);
  List.iter
    (fun (k, ok) ->
      Alcotest.(check bool) (Fmt.str "%s: key %d atomic" what k) true ok)
    o.key_fastcheck;
  Alcotest.(check int) (what ^ ": all ops completed") o.expected o.completed

let sim_sharded () =
  (* every key's history must be atomic, for each shard count *)
  List.iter
    (fun shards ->
      let o =
        Net.Sim_run.run
          (Net.Sim_run.build ~shards ~window:8 ~seed:13 ~init:0
             ~processes:(spec ~readers:2 ~writes:6 ~reads:9) ())
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
        (Net.Sim_run.build ~shards:4 ~window:8
           ~faults:(Net.Sim_net.lossy ~drop:0.15 ~duplicate:0.1 ())
           ~seed ~init:0 ~processes:(spec ~readers:2 ~writes:4 ~reads:6) ())
    in
    check_sharded ~what:(Fmt.str "sharded faults seed %d" seed) o
  done

let sim_sharded_deterministic () =
  let go () =
    Net.Sim_run.run
      (Net.Sim_run.build ~shards:4
         ~faults:(Net.Sim_net.lossy ~drop:0.2 ~duplicate:0.1 ())
         ~seed:17 ~init:0 ~processes:(spec ~readers:2 ~writes:3 ~reads:4) ())
  in
  let a = go () and b = go () in
  Alcotest.(check bool) "same history" true
    (a.Net.Sim_run.history = b.Net.Sim_run.history);
  Alcotest.(check int) "same steps" a.Net.Sim_run.steps b.Net.Sim_run.steps

let sim_shard_metrics () =
  (* per-shard counters must account for exactly the served ops *)
  let metrics = Net.Metrics.create () in
  let o =
    Net.Sim_run.run
      (Net.Sim_run.build ~shards:4 ~metrics ~window:8 ~seed:3 ~init:0
         ~processes:(spec ~readers:2 ~writes:4 ~reads:6) ())
  in
  let g = Net.Metrics.get metrics in
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
      let metrics = Net.Metrics.create () in
      let cl =
        Net.Sim_run.build ~faults ~metrics ~seed:3 ~init:0
          ~processes:(spec ~readers:2 ~writes:3 ~reads:4) ()
      in
      let fates = Option.fold ~none:[] ~some:(partition cl) cut in
      ignore (Net.Sim_run.run ~fates cl);
      let g = Net.Metrics.get metrics in
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
      (Net.Sim_run.build
         ~faults:(Net.Sim_net.lossy ~drop:0.15 ~duplicate:0.1 ())
         ~trace ~seed:2 ~init:0 ~processes:(spec ~readers:2 ~writes:3 ~reads:4)
         ())
  in
  Alcotest.(check int) "no wrap" 0 (Net.Trace.overwritten trace);
  Alcotest.(check bool) "in-memory history matches served" true
    (Net.Trace.history trace = o.Net.Sim_run.history);
  let file = Filename.temp_file "bloom-trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Net.Trace.dump trace file;
      let parsed = Net.Trace.history_of_file file in
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

(* A standalone audited server over [socket_replicas]. *)
let socket_cluster ?map () =
  let net = Net.Socket_net.create () in
  ignore (socket_replicas net);
  let server =
    Net.Server.create ~transport:(Net.Socket_net.transport net) ~audit:true
      ~metrics:(Net.Socket_net.metrics net) ?map ~me:Net.Transport.server
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
            ignore (Net.Client.run_script ~window:4 c script);
            Net.Client.close c)
          ())
      processes
  in
  List.iter Thread.join threads;
  let history = Net.Server.history server in
  let violation = Net.Server.violation server in
  Net.Socket_net.shutdown net;
  (match violation with
   | None -> ()
   | Some v ->
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
    Net.Client.write c0 k;
    let v = Net.Client.read c2 in
    Alcotest.(check bool) (Fmt.str "read %d sane" k) true (v >= 0 && v <= k)
  done;
  Thread.join killer;
  let v = Net.Client.read c2 in
  Alcotest.(check int) "final value survives the crash" 10 v;
  (match Net.Server.violation server with
   | None -> ()
   | Some _ -> Alcotest.fail "audit violation under replica crash");
  Net.Socket_net.shutdown net

let socket_reconnect_same_proc () =
  (* closing a client and reconnecting with the same processor id must
     yield a working session: the old endpoint and the peers' cached
     route to it are torn down by [close] *)
  let net, _server = socket_cluster () in
  let c0 = Net.Client.connect ~net ~server:Net.Transport.server ~proc:0 () in
  Net.Client.write c0 41;
  Net.Client.close c0;
  let c2 = Net.Client.connect ~net ~server:Net.Transport.server ~proc:2 () in
  Alcotest.(check int) "first session's write visible" 41 (Net.Client.read c2);
  Net.Client.close c2;
  let c2' = Net.Client.connect ~net ~server:Net.Transport.server ~proc:2 () in
  Alcotest.(check int) "reconnected reader works" 41 (Net.Client.read c2');
  let c0' = Net.Client.connect ~net ~server:Net.Transport.server ~proc:0 () in
  Net.Client.write c0' 42;
  Alcotest.(check int) "reconnected writer works" 42 (Net.Client.read c2');
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
  Net.Client.write c0 7;
  Net.Client.write c0 8;
  Alcotest.(check int) "read back" 8 (Net.Client.read c0);
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
  (* each write makes one real read and one store, and the read three
     real reads; a read writes back only a pair the engine has not seen
     stored on a majority, which here is none *)
  Alcotest.(check bool) "quorum counters live" true
    (get "quorum_queries" >= 5 && get "quorum_stores" >= 2);
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
  let keys = Net.Server.keys server in
  let keyed_history = Net.Server.keyed_history server in
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
     Net.Client.write c5 99;
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
  for v = 1 to 7 do Net.Client.post c0 (W.Write v) done;
  Net.Client.close c0;
  (match Net.Client.post c0 (W.Write 99) with
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
      Net.Client.post c1 (W.Write !next)
    done;
    Net.Client.close c1;
    wait_served !mine
  done;
  (match Net.Server.violation server with
   | None -> ()
   | Some v ->
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
        Mutex.protect mu (fun () -> Net.Replica.handle rep ~src msg)
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
   of responses the client has seen. *)
let loopback_pool ?storage ?map ?trace ~domains () =
  let resps = Atomic.make 0 in
  let pool = ref None in
  let tr =
    loopback_transport
      ~on_server:(fun ~src msg ->
        match !pool with
        | Some p -> Net.Server_pool.dispatch p ~src msg
        | None -> ())
      ~on_client:(fun ~src:_ ~dst:_ msg ->
        let count = function W.Resp _ -> Atomic.incr resps | _ -> () in
        match msg with W.Batch ms -> List.iter count ms | m -> count m)
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

let batch_group_commit () =
  (* the batch fast path end to end: one client Batch of K same-shard
     writes (distinct keys, so they run concurrently — same-key ops
     serialize per-key and commit one by one), the corked core of a
     1-domain pool, group-commit store — the K wts appends must reach
     the backend as ceil(K/batch_max) commits, each a full batch, not
     as K singleton writes *)
  let k = 32 and gc = 8 in
  let st =
    Net.Storage.create
      ~group_commit:{ Net.Storage.batch_max = gc; flush_every = 0.0 }
      (Net.Storage.mem_backend ())
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
  Alcotest.(check bool)
    (Fmt.str "commits %d <= ceil(K/batch_max) %d" stats.Net.Storage.batch_commits
       ((k + gc - 1) / gc))
    true
    (stats.Net.Storage.batch_commits <= (k + gc - 1) / gc);
  Alcotest.(check int) "commits are full batches" gc stats.Net.Storage.max_batch;
  match Net.Server_pool.violations p with
  | [] -> ()
  | (key, v) :: _ ->
    Alcotest.failf "audit, key %d: %a" key
      (Histories.Fastcheck.pp_violation Fmt.int) v

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
     must be answered *)
  let nkeys = 8 in
  let net, pool = socket_pool ~shards:4 ~domains:2 () in
  let processes = spec ~readers:2 ~writes:20 ~reads:20 in
  let expected =
    List.fold_left (fun n { Registers.Vm.script; _ } -> n + List.length script)
      0 processes
  in
  let threads =
    List.map
      (fun { Registers.Vm.proc; script } ->
        Thread.create
          (fun () ->
            let c =
              Net.Client.connect ~net ~server:Net.Transport.server
                ~batch_max:8 ~proc ()
            in
            ignore
              (Net.Client.run_keyed ~window:8 c
                 (List.mapi (fun i op -> (i mod nkeys, op)) script));
            Net.Client.close c)
          ())
      processes
  in
  List.iter Thread.join threads;
  Net.Server_pool.stop pool;
  let served = Net.Server_pool.ops_served pool in
  let violations = Net.Server_pool.violations pool in
  Net.Socket_net.shutdown net;
  Alcotest.(check int) "all ops served" expected served;
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

let reconnect_keeps_processor_sequential () =
  (* regression: [Bye] dropped the session together with its per-key
     lanes, so a [Hello] from the same node started a second op on a
     key whose first op was still in flight — the live Monitor then
     raised "processor not sequential" out of [on_message].  Every
     send is held in a queue and delivered only by [pump], so the
     first write is provably in flight across the reconnect. *)
  let held = Queue.create () in
  let replies = ref [] in
  let tr =
    {
      Net.Transport.send = (fun ~src ~dst msg -> Queue.add (src, dst, msg) held);
      set_timer = (fun ~node:_ ~delay:_ _ -> ());
      now = Unix.gettimeofday;
    }
  in
  let server = Net.Transport.server and cl = Net.Transport.client 0 in
  let sv =
    Net.Server.create ~transport:tr ~audit:true ~me:server
      ~replicas:[ 0; 1; 2 ] ~init:0 ()
  in
  let reps = Array.init 3 (fun _ -> Net.Replica.create ~init:0 ()) in
  let rec pump () =
    match Queue.take_opt held with
    | None -> ()
    | Some (src, dst, msg) ->
      if dst = server then Net.Server.on_message sv ~src msg
      else if dst = cl then replies := msg :: !replies
      else
        List.iter
          (fun (d, m) -> Queue.add (dst, d, m) held)
          (Net.Replica.handle reps.(dst) ~src msg);
      pump ()
  in
  let from_client msg = Net.Server.on_message sv ~src:cl msg in
  from_client (W.Hello { proc = 0 });
  from_client (W.Req { seq = 0; op = W.Write_k { key = 0; value = 1 } });
  Alcotest.(check bool) "first write in flight" true
    (Net.Server.ops_served sv = 0 && not (Queue.is_empty held));
  from_client W.Bye;
  from_client (W.Hello { proc = 0 });
  from_client (W.Req { seq = 0; op = W.Write_k { key = 0; value = 2 } });
  pump ();
  Alcotest.(check int) "both writes served" 2 (Net.Server.ops_served sv);
  Alcotest.(check int) "only the live session is answered" 1
    (List.length !replies);
  Alcotest.(check bool) "writes ran one after the other" true
    (Net.Server.history sv
    = [
        E.Invoke (0, E.Write 1); E.Respond (0, None);
        E.Invoke (0, E.Write 2); E.Respond (0, None);
      ]);
  match Net.Server.violation sv with
  | None -> ()
  | Some v ->
    Alcotest.failf "live audit: %a" (Histories.Fastcheck.pp_violation Fmt.int) v

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
  let tr, turn = Net.Transport.cork base in
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
  check "one frame per destination, a Batch only for two or more, in order"
    [ (5, 1, W.Batch [ q 1; q 3 ]); (5, 2, q 2) ]
    (List.sort compare (shipped ()));
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
    tc "server: reconnect keeps a processor sequential"
      reconnect_keeps_processor_sequential;
    tc "cork: one frame per peer per turn" cork_coalesces;
    tc "batch fast path: group commits, not singletons" batch_group_commit;
    tc "pool: mixed-shard batch over two domains" pool_mixed_shard_batch;
    tc "pool: keyed workload over sockets, two domains" socket_pool_domains;
    tc "pool: txn/snap workload over sockets, two domains" socket_pool_txn_snap;
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
