(* The engine seam: both replication protocols must serve the same
   workloads to the same (atomic) effect; the twobit engine must
   survive the schedule explorer exactly as ABD does, its deliberate
   link-disordering bug must be caught / shrunk / replayed through the
   JSONL artifact, mismatched bug hooks must be rejected at
   configuration time, and the replica's FIFO link receiver must park,
   re-answer and drain as specified. *)

module Ex = Net.Explore
module S = Modelcheck.Schedule
module W = Net.Wire

let tc = Helpers.tc
let tc_slow = Helpers.tc_slow

let w v = Histories.Event.Write v
let r = Histories.Event.Read
let proc p script = { Registers.Vm.proc = p; script }

let espec kind = { Net.Engine.kind }

(* --- cross-engine conformance ------------------------------------- *)

(* One keyed workload, run over a lossy/duplicating/reordering network
   by each engine in turn: every op must complete and every per-key
   audit must accept.  Same seeds, same faults — only the protocol
   under the server differs. *)
let conformance kind () =
  let processes =
    [
      proc 0 [ w 10; w 11; r; w 12 ];
      proc 1 [ w 20; r; w 21; w 22 ];
      proc 2 [ r; r; r; r ];
      proc 3 [ r; r; r; r ];
    ]
  in
  let faults =
    Net.Sim_net.lossy ~drop:0.15 ~duplicate:0.1 ~min_delay:0.2 ~max_delay:2.0
      ()
  in
  List.iter
    (fun seed ->
      let o =
        Net.Sim_run.run
          (Net.Sim_run.create ~faults
             { Net.Sim_run.default with shards = 2; keys = 4; engine = kind }
             ~seed ~workload:(Net.Sim_run.singles processes))
      in
      Alcotest.(check int)
        (Fmt.str "seed %d: all ops complete" seed)
        o.Net.Sim_run.expected o.Net.Sim_run.completed;
      (match o.Net.Sim_run.monitor_violation with
       | None -> ()
       | Some v -> Alcotest.failf "seed %d: live audit: %s" seed v);
      Alcotest.(check bool)
        (Fmt.str "seed %d: fastcheck atomic" seed)
        true o.Net.Sim_run.fastcheck_ok)
    [ 1; 2; 3; 4; 5 ]

(* Multi-key conformance: the same transaction/snapshot workload
   against both engines.  Writers own disjoint keyspans, so each key's
   write sequence is deterministic (one sequential session per key)
   and the audited histories must agree engine-for-engine: same
   per-key write order, same committed-txn and served-snapshot counts,
   zero per-key and torn-batch violations. *)

let xkeys = 4
let xv p i k = (10_000 * (p + 1)) + (i * xkeys) + k
let key_of_value v = v mod xkeys

let xconformance_workload =
  let txns p keyspan =
    List.init 6 (fun i ->
        Net.Sim_run.Txn_w (List.map (fun k -> (k, xv p i k)) keyspan))
  in
  let snaps n =
    List.init n (fun _ -> Net.Sim_run.Snap (List.init xkeys Fun.id))
  in
  [
    { Net.Sim_run.xproc = 0; xscript = txns 0 [ 0; 1 ] };
    { Net.Sim_run.xproc = 1; xscript = txns 1 [ 2; 3 ] };
    { Net.Sim_run.xproc = 2; xscript = snaps 6 };
    { Net.Sim_run.xproc = 3;
      xscript =
        snaps 3 @ [ Net.Sim_run.Single r; Net.Sim_run.Single r ] };
  ]

(* Per-key ordered write sequence of an audited history (written
   values are unique and name their key by construction). *)
let audited_writes (o : Net.Sim_run.outcome) =
  List.init xkeys (fun k ->
      List.filter_map
        (function
          | Histories.Event.Invoke (p, Histories.Event.Write v)
            when key_of_value v = k ->
            Some (p, v)
          | _ -> None)
        o.Net.Sim_run.history)

let xconformance () =
  let faults =
    Net.Sim_net.lossy ~drop:0.1 ~duplicate:0.05 ~min_delay:0.2 ~max_delay:2.0
      ()
  in
  List.iter
    (fun seed ->
      let leg kind =
        let cl =
          Net.Sim_run.create ~faults
            { Net.Sim_run.default with shards = 2; keys = xkeys; engine = kind }
            ~seed ~workload:xconformance_workload
        in
        let o = Net.Sim_run.run cl in
        let what = Fmt.str "seed %d %s" seed (Net.Engine.kind_name kind) in
        Alcotest.(check int) (what ^ ": all ops complete")
          o.Net.Sim_run.expected o.Net.Sim_run.completed;
        (match o.Net.Sim_run.monitor_violation with
         | None -> ()
         | Some v -> Alcotest.failf "%s: live audit: %s" what v);
        (match o.Net.Sim_run.txn_violations with
         | [] -> ()
         | v :: _ -> Alcotest.failf "%s: torn-batch audit: %s" what v);
        Alcotest.(check bool) (what ^ ": fastcheck atomic") true
          o.Net.Sim_run.fastcheck_ok;
        let ts = Net.Txn.stats (Net.Server.txns cl.Net.Sim_run.server) in
        Alcotest.(check int) (what ^ ": txns committed") 12
          ts.Net.Txn.txns_committed;
        Alcotest.(check int) (what ^ ": snapshots served") 9
          ts.Net.Txn.snaps_served;
        audited_writes o
      in
      let a = leg Net.Engine.Abd and t = leg Net.Engine.Twobit in
      if a <> t then
        Alcotest.failf
          "seed %d: engines disagree on the per-key write sequences" seed)
    [ 1; 2; 3 ]

(* The bench criterion, pinned as a test: on identical workloads the
   twobit engine must put strictly fewer bytes, and fewer control
   bytes, on the wire than ABD.  Both fan-outs are pinned exactly: over
   a reliable network nothing is re-sent, every ABD phase reaches one
   window of q replicas, and twobit broadcasts each [Store2] on all 3
   links but sends each [Query2] on one. *)
let twobit_cheaper_on_the_wire () =
  let processes = [ proc 0 [ w 1; r; w 2; r ]; proc 1 [ w 3; r; w 4; r ] ] in
  let run kind =
    Net.Sim_run.run
      (Net.Sim_run.create
         { Net.Sim_run.default with engine = kind } ~seed:7
         ~workload:(Net.Sim_run.singles processes))
  in
  let a = run Net.Engine.Abd and t = run Net.Engine.Twobit in
  Alcotest.(check int) "abd completes" a.Net.Sim_run.expected
    a.Net.Sim_run.completed;
  Alcotest.(check int) "twobit completes" t.Net.Sim_run.expected
    t.Net.Sim_run.completed;
  let ac = a.Net.Sim_run.quorum.Net.Engine.control_bytes_sent
  and tcb = t.Net.Sim_run.quorum.Net.Engine.control_bytes_sent in
  Alcotest.(check bool)
    (Fmt.str "control bytes: twobit %d < abd %d" tcb ac)
    true (tcb < ac);
  let ab = a.Net.Sim_run.quorum.Net.Engine.bytes_sent
  and tb = t.Net.Sim_run.quorum.Net.Engine.bytes_sent in
  Alcotest.(check bool)
    (Fmt.str "bytes: twobit %d < abd %d" tb ab)
    true (tb < ab);
  let phases =
    Net.Metrics.get a.Net.Sim_run.metrics "quorum_queries"
    + Net.Metrics.get a.Net.Sim_run.metrics "quorum_stores"
  in
  let q =
    Net.Quorum.quorum_size
      (Net.Quorum.create ~transport:Net.Transport.null
         ~me:Net.Transport.server ~replicas:[ 0; 1; 2 ] ())
  in
  Alcotest.(check int) "abd engine messages = q x phases" (q * phases)
    a.Net.Sim_run.quorum.Net.Engine.messages_sent;
  let get = Net.Metrics.get t.Net.Sim_run.metrics in
  Alcotest.(check int) "twobit engine messages = queries + 3 x stores"
    (get "twobit_queries" + (3 * get "twobit_stores"))
    t.Net.Sim_run.quorum.Net.Engine.messages_sent

(* One replica of three is down from the start.  A read that asks it
   waits out one resend deadline and is then widened to the other two
   links; at that same deadline its engine starts to suspect the dead
   link and sends no later read there.  So a sequential process is
   caught at most once per engine, and the widened reads are bounded
   by engines x processes, however many reads follow (without
   suspicion, about a third of the 72 engine reads here would widen).
   Widened [Query2]s are first sends, not retransmissions. *)
let twobit_crashed_replica () =
  let shards = 2 in
  let processes =
    [ proc 0 [ w 10; w 11; w 12; w 13 ]; proc 2 (List.init 24 (fun _ -> r)) ]
  in
  let o =
    Net.Sim_run.run
      ~fates:[ (0.0, Harness.Failure.Crash 0) ]
      (Net.Sim_run.create
         {
           Net.Sim_run.default with
           shards;
           keys = 2;
           window = 1;
           engine = Net.Engine.Twobit;
         }
         ~seed:1 ~workload:(Net.Sim_run.singles processes))
  in
  Alcotest.(check int) "all ops complete" o.Net.Sim_run.expected
    o.Net.Sim_run.completed;
  (match o.Net.Sim_run.monitor_violation with
   | None -> ()
   | Some v -> Alcotest.failf "live audit: %s" v);
  Alcotest.(check bool) "fastcheck atomic" true o.Net.Sim_run.fastcheck_ok;
  let get = Net.Metrics.get o.Net.Sim_run.metrics in
  let widened = get "twobit_widened" and reads = get "twobit_queries" in
  Alcotest.(check int) "widened reads" 3 widened;
  let bound = shards * List.length processes in
  Alcotest.(check bool)
    (Fmt.str "widened %d <= %d engines x processes, of %d reads" widened
       bound reads)
    true (widened <= bound);
  Alcotest.(check int) "the dead link suspected once per engine" shards
    (get "twobit_suspected");
  let s = o.Net.Sim_run.quorum in
  Alcotest.(check int) "messages = queries + 3 x stores + 2 x widened + resends"
    (reads + (3 * get "twobit_stores") + (2 * widened)
     + s.Net.Engine.retransmissions)
    s.Net.Engine.messages_sent

(* The engines meter their own sends: over every server-to-replica
   message the measure tap sees, the aggregated engine stats must
   equal the encoded sizes, the control-byte shares and the message
   count, on a reliable run and on a lossy one (whose resends are
   sends too).  Every message the server sends a replica is an
   engine's; the server's cork may ship several as one [Batch]
   frame, which the tap unfolds. *)
let engines_meter_their_sends () =
  let processes =
    [ proc 0 [ w 1; r; w 2; r ]; proc 1 [ w 3; r; w 4 ]; proc 2 [ r; r; r ] ]
  in
  let replicas = 3 in
  let leg kind (name, faults) =
    let bytes = ref 0 and cbytes = ref 0 and msgs = ref 0 in
    let rec measure ~src ~dst msg =
      match msg with
      | Net.Wire.Batch ms -> List.iter (measure ~src ~dst) ms
      | _ when src = Net.Transport.server && dst >= 0 && dst < replicas ->
        bytes := !bytes + Net.Wire.encoded_size msg;
        cbytes := !cbytes + Net.Wire.control_bytes msg;
        incr msgs
      | _ -> ()
    in
    let o =
      Net.Sim_run.run
        (Net.Sim_run.create ~faults ~measure
           {
             Net.Sim_run.default with
             replicas;
             shards = 2;
             keys = 4;
             engine = kind;
           }
           ~seed:11 ~workload:(Net.Sim_run.singles processes))
    in
    let what = Fmt.str "%s, %s" (Net.Engine.kind_name kind) name in
    Alcotest.(check int) (what ^ ": all ops complete") o.Net.Sim_run.expected
      o.Net.Sim_run.completed;
    let q = o.Net.Sim_run.quorum in
    Alcotest.(check int) (what ^ ": bytes_sent") !bytes q.Net.Engine.bytes_sent;
    Alcotest.(check int)
      (what ^ ": control_bytes_sent")
      !cbytes q.Net.Engine.control_bytes_sent;
    Alcotest.(check int)
      (what ^ ": messages_sent")
      !msgs q.Net.Engine.messages_sent
  in
  List.iter
    (fun kind ->
      List.iter (leg kind)
        [
          ("reliable", Net.Sim_net.reliable);
          ("lossy", Net.Sim_net.lossy ~drop:0.1 ());
        ])
    Net.Engine.all_kinds

(* --- twobit under the explorer ------------------------------------ *)

let singles = Net.Sim_run.singles
let twobit = { Net.Sim_run.default with engine = Net.Engine.Twobit }
let twobit1 = { twobit with replicas = 1 }
let two_writers = singles [ proc 0 [ w 7 ]; proc 1 [ w 9 ] ]
let writer_reader = singles [ proc 0 [ w 7 ]; proc 2 [ r ] ]

let twobit_exhaustive_two_writers () =
  let res =
    Ex.explore
      (Ex.config ~spec:twobit1 ~workload:two_writers ())
  in
  Alcotest.(check bool) "exhausted" true res.Ex.stats.S.exhausted;
  match res.Ex.counterexample with
  | None -> ()
  | Some ce -> Alcotest.failf "atomicity violation: %s" ce.Ex.message

let twobit_exhaustive_writer_reader () =
  let res =
    Ex.explore
      (Ex.config ~spec:twobit1 ~fastcheck:true ~workload:writer_reader ())
  in
  Alcotest.(check bool) "exhausted" true res.Ex.stats.S.exhausted;
  match res.Ex.counterexample with
  | None -> ()
  | Some ce -> Alcotest.failf "atomicity violation: %s" ce.Ex.message

(* The unordered-link bug needs >= 3 replicas to show: a write
   completes on a majority of acks while the third link's [Store2] is
   still in flight, and a later read's [Query2] — raced past that
   delayed store by the disordered receiver — is answered from stale
   state.  The read completes on that first (stale) reply, after the
   write completed in real time: a new-old inversion, in the exact
   mould of ABD's ?read_quorum hook.  (With 1 replica the hook is
   invisible: acked = applied, so the bug test pins the quorum gap.) *)
let inversion_prone =
  singles [ proc 0 [ w 1001 ]; proc 1 [ w 2001 ]; proc 2 [ r; r ] ]

let twobit_unordered_caught_shrunk_replayed () =
  let cfg =
    Ex.config
      ~spec:{ twobit with bug = { Net.Bug.none with unordered = true } }
      ~workload:inversion_prone ()
  in
  match (Ex.hunt ~walks:2000 ~seed:3 cfg).Ex.counterexample with
  | None -> Alcotest.fail "hunt missed the unordered-link violation"
  | Some ce ->
    let cfg', ce' = Ex.shrink cfg ce in
    Alcotest.(check bool) "schedule no longer" true
      (List.length ce'.Ex.schedule <= List.length ce.Ex.schedule);
    let o = Ex.replay cfg' ce'.Ex.schedule in
    Alcotest.(check bool) "shrunk schedule still violates" true
      (o.Net.Sim_run.key_violations <> []);
    let file = Filename.temp_file "explore-twobit" ".jsonl" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
      (fun () ->
        Ex.save ~file cfg' ce';
        let cfg'', sched, o' = Ex.replay_file ~file in
        Alcotest.(check bool) "engine survives the artifact" true
          (cfg''.Ex.spec.engine = Net.Engine.Twobit);
        Alcotest.(check bool) "bug hook survives the artifact" true
          cfg''.Ex.spec.bug.unordered;
        Alcotest.(check (list int)) "schedule survives" ce'.Ex.schedule sched;
        Alcotest.(check bool) "artifact replays to a violation" true
          (o'.Net.Sim_run.key_violations <> []))

let twobit_ordered_hunt_clean () =
  (* same workload and replica count, honest FIFO links: the hunt that
     nails the unordered bug must come up empty *)
  match
    (Ex.hunt ~walks:2000 ~seed:3
       (Ex.config ~spec:twobit ~workload:inversion_prone ()))
      .Ex.counterexample
  with
  | None -> ()
  | Some ce -> Alcotest.failf "honest twobit config flagged: %s" ce.Ex.message

let twobit_torture_small () =
  let rep = Ex.torture ~engine:Net.Engine.Twobit ~runs:20 ~seed:11 () in
  Alcotest.(check int) "all runs executed" 20 rep.Ex.runs;
  Alcotest.(check int) "no violations" 0 rep.Ex.violations;
  Alcotest.(check int) "no stalls" 0 rep.Ex.stalled;
  Alcotest.(check bool) "work happened" true (rep.Ex.ops_completed > 0)

(* --- configuration validation ------------------------------------- *)

let invalid_arg_raised name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

let config_validation () =
  (* satellite: a read quorum larger than the replica set (or below 1)
     must be refused up front, not hang or fail deep inside a run *)
  let hooked ?(spec = Net.Sim_run.default) bug =
    Ex.config ~spec:{ spec with bug } ~workload:two_writers ()
  in
  let none = Net.Bug.none in
  invalid_arg_raised "read_quorum > replicas" (fun () ->
      hooked { none with read_quorum = Some 4 });
  invalid_arg_raised "read_quorum < 1" (fun () ->
      hooked { none with read_quorum = Some 0 });
  invalid_arg_raised "read_quorum is not a twobit hook" (fun () ->
      hooked ~spec:twobit { none with read_quorum = Some 1 });
  invalid_arg_raised "unordered is not an abd hook" (fun () ->
      hooked { none with unordered = true });
  invalid_arg_raised "twobit is crash-stop only" (fun () ->
      Ex.config ~spec:twobit ~amnesia:[ 0 ] ~max_amnesia:1
        ~workload:two_writers ());
  (* boundary cases stay legal *)
  ignore (hooked { none with read_quorum = Some 3 });
  ignore
    (Ex.config ~spec:twobit ~crashable:[ 0 ] ~max_crashes:1
       ~workload:two_writers ())

(* [Sim_run.validate] is the one place hooks are checked, against the
   cluster they break: every layer below takes the [Bug.t] as given. *)
let engines_reject_mismatched_hooks () =
  let check ?(migration = false) engine bug =
    Net.Sim_run.validate
      ?reconfig:
        (if migration then
           Some { Net.Sim_run.key = 0; to_shard = 0; at = None }
         else None)
      { Net.Sim_run.default with engine; bug }
  in
  let none = Net.Bug.none in
  invalid_arg_raised "abd + unordered" (fun () ->
      check Net.Engine.Abd { none with unordered = true });
  invalid_arg_raised "twobit + read_quorum" (fun () ->
      check Net.Engine.Twobit { none with read_quorum = Some 1 });
  invalid_arg_raised "twobit + skip_write_back" (fun () ->
      check Net.Engine.Twobit { none with skip_write_back = true });
  invalid_arg_raised "skip_dual_write without a migration" (fun () ->
      check Net.Engine.Abd { none with skip_dual_write = true });
  check Net.Engine.Abd { none with read_quorum = Some 1 };
  check Net.Engine.Twobit { none with unordered = true };
  check ~migration:true Net.Engine.Twobit { none with skip_dual_write = true };
  (* the artifact encoding round-trips, and an absent field is off *)
  let bug = { none with read_quorum = Some 2; skip_write_back = true } in
  let cfg =
    Ex.config ~spec:{ Net.Sim_run.default with bug } ~workload:two_writers ()
  in
  let file = Filename.temp_file "explore-hooks" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Ex.save ~file cfg { Ex.schedule = []; key = 0; message = "" };
      Alcotest.(check bool) "fields round-trip" true
        ((fst (Ex.load ~file)).Ex.spec.bug = bug);
      let strip line =
        List.fold_left Test_explore.strip_field line
          [ "read_quorum"; "unordered"; "torn_txn"; "skip_dual_write";
            "skip_write_back"; "stale_copy" ]
      in
      Test_explore.(write_lines file (List.map strip (read_lines file)));
      Alcotest.(check bool) "no fields, no bug" true
        ((fst (Ex.load ~file)).Ex.spec.bug = none))

(* --- the replica's link receiver ---------------------------------- *)

let lid = 0
let pl v = Registers.Tagged.make v false
let store ~seq v = Net.Wire.Store2 { lid; seq; reg = 0; pl = pl v }
let query ~seq = Net.Wire.Query2 { lid; seq; reg = 0 }
let src = Net.Transport.server

let value_of rep =
  let _, p = Net.Replica.lookup_reg rep 0 in
  Registers.Tagged.v p

let link_receiver_parks_and_drains () =
  let rep = Net.Replica.create ~init:0 () in
  (* seq 1 before seq 0: parked, no reply, no state change *)
  Alcotest.(check (list (pair int (testable Net.Wire.pp ( = )))))
    "gap parked silently" []
    (Helpers.replica_handle rep ~src (store ~seq:1 22));
  Alcotest.(check int) "nothing applied yet" 0 (value_of rep);
  (* seq 0 arrives: both frames apply in order, both acks drain out *)
  let replies = Helpers.replica_handle rep ~src (store ~seq:0 11) in
  Alcotest.(check (list (pair int (testable Net.Wire.pp ( = )))))
    "both acks, in sequence order"
    [ (src, Net.Wire.Ack2 { lid; seq = 0 }); (src, Net.Wire.Ack2 { lid; seq = 1 }) ]
    replies;
  Alcotest.(check int) "last store wins" 22 (value_of rep)

let link_receiver_reanswers_duplicates () =
  let rep = Net.Replica.create ~init:0 () in
  ignore (Helpers.replica_handle rep ~src (store ~seq:0 11));
  ignore (Helpers.replica_handle rep ~src (store ~seq:1 22));
  (* a retransmitted old store is re-acked but NOT re-applied *)
  Alcotest.(check (list (pair int (testable Net.Wire.pp ( = )))))
    "duplicate re-acked"
    [ (src, Net.Wire.Ack2 { lid; seq = 0 }) ]
    (Helpers.replica_handle rep ~src (store ~seq:0 11));
  Alcotest.(check int) "state unchanged by the duplicate" 22 (value_of rep);
  (* a duplicate query is answered from *current* state *)
  (match Helpers.replica_handle rep ~src (query ~seq:2) with
   | [ (_, Net.Wire.Query2_reply { seq = 2; pl; _ }) ] ->
     Alcotest.(check int) "query sees current value" 22 (Registers.Tagged.v pl)
   | _ -> Alcotest.fail "expected one Query2_reply");
  match Helpers.replica_handle rep ~src (query ~seq:2) with
  | [ (_, Net.Wire.Query2_reply { seq = 2; pl; _ }) ] ->
    Alcotest.(check int) "re-answered from current state" 22
      (Registers.Tagged.v pl)
  | _ -> Alcotest.fail "expected one Query2_reply"

let link_receiver_unordered_bug () =
  (* the deliberate bug: arrival order IS apply order, so the stale
     frame overwrites the fresh one *)
  let rep = Net.Replica.create ~init:0 ~unordered:true () in
  ignore (Helpers.replica_handle rep ~src (store ~seq:1 22));
  Alcotest.(check int) "out-of-order frame applied immediately" 22
    (value_of rep);
  ignore (Helpers.replica_handle rep ~src (store ~seq:0 11));
  Alcotest.(check int) "stale frame clobbers the fresh value" 11
    (value_of rep)

(* The replica ignores [Engine_hello], which bench/e2e's socket leg
   still sends to every replica at startup. *)
let engine_hello_ignored () =
  let rep = Net.Replica.create ~init:0 () in
  Alcotest.(check (list (pair int (testable Net.Wire.pp ( = )))))
    "hello has no reply" []
    (Helpers.replica_handle rep ~src (Net.Wire.Engine_hello { engine = 1 }))

(* --- slow --- *)

let twobit_torture_long () =
  let rep = Ex.torture ~engine:Net.Engine.Twobit ~runs:200 ~seed:2 () in
  Alcotest.(check int) "no violations" 0 rep.Ex.violations;
  Alcotest.(check int) "no stalls" 0 rep.Ex.stalled

let twobit_bigger_hunt_clean () =
  let cfg =
    Ex.config ~spec:{ twobit with keys = 2 }
      ~workload:
        (singles [ proc 0 [ w 1; w 2 ]; proc 1 [ w 3 ]; proc 2 [ r; r; r ] ])
      ()
  in
  match (Ex.hunt ~walks:300 ~seed:5 cfg).Ex.counterexample with
  | None -> ()
  | Some ce -> Alcotest.failf "honest twobit config flagged: %s" ce.Ex.message

(* --- the registry: one timestamp authority -------------------------- *)

let tagged v = Registers.Tagged.make v false
let batched = Some { Net.Storage.batch_max = 64; flush_every = 0.0 }

(* A registry of two shards over one 3-replica group and [store], whose
   transport keeps the (reg, ts) of every ABD [Store] sent. *)
let registry_over kind store =
  let stamps = ref [] in
  let send ~src:_ ~dst:_ = function
    | Net.Wire.Store { reg; ts; _ } -> stamps := (reg, ts) :: !stamps
    | _ -> ()
  in
  let r =
    Net.Registry.create
      ~transport:{ Net.Transport.null with Net.Transport.send }
      ~me:Net.Transport.server ~replicas:[ 0; 1; 2 ]
      ~map:(Net.Shard_map.create ~shards:2 ())
      ~engine:(espec kind) ~storage:store ()
  in
  (r, stamps)

(* A registry reopened on its store's files writes above every
   timestamp the first one issued — by a write, or by a [write_at]
   that raised the floor. *)
let registry_restart kind group_commit () =
  Test_storage.with_dir @@ fun dir ->
  let open_store () =
    Net.Storage.create ?group_commit (Net.Storage.file_backend ~dir ())
  in
  let reg0 = Net.Shard_map.global_reg 0 0
  and reg1 = Net.Shard_map.global_reg 1 0 in
  let st = open_store () in
  let r, _ = registry_over kind st in
  List.iter
    (fun v -> Net.Registry.write r ~key:0 ~reg:0 ~value:(tagged v) ~k:ignore)
    [ 1; 2; 3 ];
  Net.Registry.write_at r ~shard:(Net.Registry.shard_of_key r 1) ~reg:reg1
    ~ts:50 ~value:(tagged 9) ~k:ignore;
  Net.Storage.close st;
  let st = open_store () in
  let r, stamps = registry_over kind st in
  Net.Registry.write r ~key:0 ~reg:0 ~value:(tagged 4) ~k:ignore;
  Net.Registry.write r ~key:1 ~reg:0 ~value:(tagged 10) ~k:ignore;
  Net.Storage.close st;
  let ts reg = fst (Net.Storage.find st reg ~default:(0, tagged 0)) in
  Alcotest.(check int) "above the recovered writes" 4 (ts reg0);
  Alcotest.(check int) "above the raised floor" 51 (ts reg1);
  if kind = Net.Engine.Abd then
    Alcotest.(check (list (pair int int))) "the Stores carry them"
      [ (reg0, 4); (reg1, 51) ]
      (List.sort_uniq compare !stamps)

(* Words reachable from a registry of 8 shards, less its store's, per
   register its store recovers (8192 of them) over an empty store: one
   table of floors for all shards, not one per shard's engine (60.0
   words for ABD and 36.0 for twobit while each engine recovered its
   own). *)
let registry_floor_words kind () =
  let n = 8192 in
  let kept entries =
    let st = Net.Storage.create (Net.Storage.mem_backend ()) in
    List.iter (Net.Storage.append st) entries;
    let r =
      Net.Registry.create ~transport:Net.Transport.null
        ~me:Net.Transport.server ~replicas:[ 0; 1; 2 ]
        ~map:(Net.Shard_map.create ~shards:8 ())
        ~engine:(espec kind) ~storage:st ()
    in
    Obj.reachable_words (Obj.repr r) - Obj.reachable_words (Obj.repr st)
  in
  let entries =
    List.init n (fun reg ->
        { Net.Storage.reg; ts = 1 + (reg mod 5); pl = tagged reg })
  in
  let words = float_of_int (kept entries - kept []) /. float_of_int n in
  Alcotest.(check bool)
    (Fmt.str "%.1f words per recovered register <= 12" words)
    true (words <= 12.0)

(* The twobit link id of shard [s] on worker [w] of a [d]-worker pool
   is [s * d + w]: for every domain count 1-4 and shard counts up to
   [d * shards = Wire.max_lid], each (worker, shard) engine's writes
   carry a link id that routes home by [lid mod d], no two engines of
   the pool share one, and the registry acks a write by the [Ack2] of
   its own link id only.  One replica, so one ack is a quorum. *)
let twobit_link_ids_route_home () =
  List.iter
    (fun d ->
      List.iter
        (fun shards ->
          let map = Net.Shard_map.create ~shards () in
          (* a key in each shard *)
          let key_of = Array.make shards (-1) in
          let k = ref 0 in
          while Array.exists (fun key -> key < 0) key_of do
            let s = Net.Shard_map.shard_of_key map !k in
            if key_of.(s) < 0 then key_of.(s) <- !k;
            incr k
          done;
          let seen = Hashtbl.create 64 in
          for worker = 0 to d - 1 do
            let sent = ref [] in
            let send ~src:_ ~dst:_ msg = sent := msg :: !sent in
            let registry =
              Net.Registry.create
                ~transport:{ Net.Transport.null with Net.Transport.send }
                ~me:Net.Transport.server ~replicas:[ 0 ] ~map
                ~engine:(espec Net.Engine.Twobit) ~worker:(worker, d) ()
            in
            for s = 0 to shards - 1 do
              let what =
                Fmt.str "%d domains, %d shards, worker %d, shard %d" d shards
                  worker s
              in
              sent := [];
              let acked = ref false in
              Net.Registry.write registry ~key:key_of.(s) ~reg:0
                ~value:(Registers.Tagged.make (s + 1) false)
                ~k:(fun () -> acked := true);
              match !sent with
              | [ W.Store2 { lid; seq; _ } ] ->
                Alcotest.(check int) (what ^ ": lid mod domains") worker
                  (lid mod d);
                if d = 1 then Alcotest.(check int) (what ^ ": lid") s lid;
                if Hashtbl.mem seen lid then
                  Alcotest.failf "%s: lid %d shared" what lid;
                Hashtbl.replace seen lid ();
                (* another worker's engine on this shard *)
                let foreign = (s * d) + ((worker + 1) mod d) in
                if foreign <> lid then begin
                  Net.Registry.on_message registry ~src:0
                    (W.Ack2 { lid = foreign; seq });
                  Alcotest.(check bool) (what ^ ": foreign ack ignored") false
                    !acked
                end;
                Net.Registry.on_message registry ~src:0 (W.Ack2 { lid; seq });
                Alcotest.(check bool) (what ^ ": own ack delivered") true
                  !acked
              | _ -> Alcotest.failf "%s: expected one Store2" what
            done
          done;
          Alcotest.(check int)
            (Fmt.str "%d domains, %d shards: one lid per engine" d shards)
            (d * shards) (Hashtbl.length seen))
        (List.sort_uniq compare [ 1; 2; 3; W.max_lid / d ]))
    [ 1; 2; 3; 4 ]

let suite =
  [
    tc "conformance: abd serves the keyed workload" (conformance Net.Engine.Abd);
    tc "conformance: twobit serves the keyed workload"
      (conformance Net.Engine.Twobit);
    tc "conformance: txn/snap workload identical across engines"
      xconformance;
    tc "twobit puts fewer (control) bytes on the wire"
      twobit_cheaper_on_the_wire;
    tc "twobit exhaustive: two writers atomic" twobit_exhaustive_two_writers;
    tc "twobit exhaustive: writer + reader atomic"
      twobit_exhaustive_writer_reader;
    tc "twobit unordered links: caught, shrunk, replayed"
      twobit_unordered_caught_shrunk_replayed;
    tc "twobit ordered links: same hunt clean" twobit_ordered_hunt_clean;
    tc "twobit torture: small seeded batch clean" twobit_torture_small;
    tc "config validation fails fast" config_validation;
    tc "engines reject mismatched bug hooks" engines_reject_mismatched_hooks;
    tc "link receiver parks gaps and drains in order"
      link_receiver_parks_and_drains;
    tc "link receiver re-answers duplicates from current state"
      link_receiver_reanswers_duplicates;
    tc "link receiver unordered bug applies arrival order"
      link_receiver_unordered_bug;
    tc "engine hello is ignored" engine_hello_ignored;
    tc "twobit crashed replica: reads widen once per engine"
      twobit_crashed_replica;
    tc "engines meter their own sends" engines_meter_their_sends;
    tc "registry restart: abd writes above recovered floors"
      (registry_restart Net.Engine.Abd None);
    tc "registry restart: abd, group commit"
      (registry_restart Net.Engine.Abd batched);
    tc "registry restart: twobit writes above recovered floors"
      (registry_restart Net.Engine.Twobit None);
    tc "registry restart: twobit, group commit"
      (registry_restart Net.Engine.Twobit batched);
    tc "registry floors: abd holds them once, not per shard"
      (registry_floor_words Net.Engine.Abd);
    tc "registry floors: twobit holds them once, not per shard"
      (registry_floor_words Net.Engine.Twobit);
    tc "twobit link ids route home" twobit_link_ids_route_home;
  ]

let slow_suite =
  [
    tc_slow "twobit torture: long run clean" twobit_torture_long;
    tc_slow "twobit hunt: bigger honest config clean" twobit_bigger_hunt_clean;
  ]
