(* The engine seam: both replication protocols must serve the same
   workloads to the same (atomic) effect; the twobit engine must
   survive the schedule explorer exactly as ABD does, its deliberate
   link-disordering bug must be caught / shrunk / replayed through the
   JSONL artifact, mismatched bug hooks must be rejected at
   configuration time, and the replica's FIFO link receiver must park,
   re-answer and drain as specified. *)

module Ex = Net.Explore
module S = Modelcheck.Schedule

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
          (Net.Sim_run.build ~faults ~replicas:3 ~shards:2 ~keys:4 ~window:4
             ~engine:(espec kind) ~seed ~init:0 ~processes ())
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
          Net.Sim_run.build ~faults ~replicas:3 ~shards:2 ~keys:xkeys
            ~window:4 ~engine:(espec kind) ~seed ~init:0 ~processes:[]
            ~xprocesses:xconformance_workload ()
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

(* The ISSUE's bench criterion, pinned as a test: on identical
   workloads the twobit engine must put strictly fewer control bytes —
   and fewer bytes overall — on the wire per completed op than ABD. *)
let twobit_cheaper_on_the_wire () =
  let processes = [ proc 0 [ w 1; r; w 2; r ]; proc 1 [ w 3; r; w 4; r ] ] in
  let run kind =
    Net.Sim_run.run
      (Net.Sim_run.build ~replicas:3 ~engine:(espec kind) ~seed:7 ~init:0
         ~processes ())
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
    (Fmt.str "total bytes: twobit %d < abd %d" tb ab)
    true (tb < ab)

(* --- twobit under the explorer ------------------------------------ *)

let singles = Net.Sim_run.singles
let two_writers = singles [ proc 0 [ w 7 ]; proc 1 [ w 9 ] ]
let writer_reader = singles [ proc 0 [ w 7 ]; proc 2 [ r ] ]

let twobit_exhaustive_two_writers () =
  let res =
    Ex.explore
      (Ex.config ~engine:Net.Engine.Twobit ~replicas:1 ~workload:two_writers ())
  in
  Alcotest.(check bool) "exhausted" true res.Ex.stats.S.exhausted;
  match res.Ex.counterexample with
  | None -> ()
  | Some ce -> Alcotest.failf "atomicity violation: %s" ce.Ex.message

let twobit_exhaustive_writer_reader () =
  let res =
    Ex.explore
      (Ex.config ~engine:Net.Engine.Twobit ~replicas:1 ~fastcheck:true
         ~workload:writer_reader ())
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
    Ex.config ~engine:Net.Engine.Twobit ~unordered:true ~replicas:3
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
          (cfg''.Ex.engine = Net.Engine.Twobit);
        Alcotest.(check bool) "bug hook survives the artifact" true
          cfg''.Ex.bug.Net.Bug.unordered;
        Alcotest.(check (list int)) "schedule survives" ce'.Ex.schedule sched;
        Alcotest.(check bool) "artifact replays to a violation" true
          (o'.Net.Sim_run.key_violations <> []))

let twobit_ordered_hunt_clean () =
  (* same workload and replica count, honest FIFO links: the hunt that
     nails the unordered bug must come up empty *)
  match
    (Ex.hunt ~walks:2000 ~seed:3
       (Ex.config ~engine:Net.Engine.Twobit ~replicas:3
          ~workload:inversion_prone ()))
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
  invalid_arg_raised "read_quorum > replicas" (fun () ->
      Ex.config ~replicas:3 ~read_quorum:4 ~workload:two_writers ());
  invalid_arg_raised "read_quorum < 1" (fun () ->
      Ex.config ~replicas:3 ~read_quorum:0 ~workload:two_writers ());
  invalid_arg_raised "read_quorum is not a twobit hook" (fun () ->
      Ex.config ~engine:Net.Engine.Twobit ~replicas:3 ~read_quorum:1
        ~workload:two_writers ());
  invalid_arg_raised "unordered is not an abd hook" (fun () ->
      Ex.config ~replicas:3 ~unordered:true ~workload:two_writers ());
  invalid_arg_raised "twobit is crash-stop only" (fun () ->
      Ex.config ~engine:Net.Engine.Twobit ~replicas:3 ~amnesia:[ 0 ]
        ~max_amnesia:1 ~workload:two_writers ());
  (* boundary cases stay legal *)
  ignore (Ex.config ~replicas:3 ~read_quorum:3 ~workload:two_writers ());
  ignore
    (Ex.config ~engine:Net.Engine.Twobit ~replicas:3 ~crashable:[ 0 ]
       ~max_crashes:1 ~workload:two_writers ())

(* [Bug.make] is the one place hooks are validated: every layer below
   takes the value it returns as given. *)
let engines_reject_mismatched_hooks () =
  let mk ?read_quorum ?skip_write_back ?unordered ?skip_dual_write
      ?(migration = false) engine =
    Net.Bug.make ?read_quorum ?skip_write_back ?unordered ?skip_dual_write
      ~engine ~replicas:3 ~migration ()
  in
  invalid_arg_raised "abd + unordered" (fun () ->
      mk ~unordered:true Net.Engine.Abd);
  invalid_arg_raised "twobit + read_quorum" (fun () ->
      mk ~read_quorum:1 Net.Engine.Twobit);
  invalid_arg_raised "twobit + skip_write_back" (fun () ->
      mk ~skip_write_back:true Net.Engine.Twobit);
  invalid_arg_raised "skip_dual_write without a migration" (fun () ->
      mk ~skip_dual_write:true Net.Engine.Abd);
  ignore (mk ~read_quorum:1 Net.Engine.Abd);
  ignore (mk ~unordered:true Net.Engine.Twobit);
  ignore (mk ~skip_dual_write:true ~migration:true Net.Engine.Twobit);
  (* the artifact encoding round-trips, and an absent field is off *)
  let b = mk ~read_quorum:2 ~skip_write_back:true Net.Engine.Abd in
  let decode fields =
    Net.Bug.of_fields
      (fun k -> List.assoc_opt k fields)
      ~engine:Net.Engine.Abd ~replicas:3 ~migration:false
  in
  Alcotest.(check bool) "fields round-trip" true (decode (Net.Bug.fields b) = b);
  Alcotest.(check bool) "no fields, no bug" true (decode [] = Net.Bug.none)

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
    (Net.Replica.handle rep ~src (store ~seq:1 22));
  Alcotest.(check int) "nothing applied yet" 0 (value_of rep);
  (* seq 0 arrives: both frames apply in order, both acks drain out *)
  let replies = Net.Replica.handle rep ~src (store ~seq:0 11) in
  Alcotest.(check (list (pair int (testable Net.Wire.pp ( = )))))
    "both acks, in sequence order"
    [ (src, Net.Wire.Ack2 { lid; seq = 0 }); (src, Net.Wire.Ack2 { lid; seq = 1 }) ]
    replies;
  Alcotest.(check int) "last store wins" 22 (value_of rep)

let link_receiver_reanswers_duplicates () =
  let rep = Net.Replica.create ~init:0 () in
  ignore (Net.Replica.handle rep ~src (store ~seq:0 11));
  ignore (Net.Replica.handle rep ~src (store ~seq:1 22));
  (* a retransmitted old store is re-acked but NOT re-applied *)
  Alcotest.(check (list (pair int (testable Net.Wire.pp ( = )))))
    "duplicate re-acked"
    [ (src, Net.Wire.Ack2 { lid; seq = 0 }) ]
    (Net.Replica.handle rep ~src (store ~seq:0 11));
  Alcotest.(check int) "state unchanged by the duplicate" 22 (value_of rep);
  (* a duplicate query is answered from *current* state *)
  (match Net.Replica.handle rep ~src (query ~seq:2) with
   | [ (_, Net.Wire.Query2_reply { seq = 2; pl; _ }) ] ->
     Alcotest.(check int) "query sees current value" 22 (Registers.Tagged.v pl)
   | _ -> Alcotest.fail "expected one Query2_reply");
  match Net.Replica.handle rep ~src (query ~seq:2) with
  | [ (_, Net.Wire.Query2_reply { seq = 2; pl; _ }) ] ->
    Alcotest.(check int) "re-answered from current state" 22
      (Registers.Tagged.v pl)
  | _ -> Alcotest.fail "expected one Query2_reply"

let link_receiver_unordered_bug () =
  (* the deliberate bug: arrival order IS apply order, so the stale
     frame overwrites the fresh one *)
  let rep = Net.Replica.create ~init:0 ~unordered:true () in
  ignore (Net.Replica.handle rep ~src (store ~seq:1 22));
  Alcotest.(check int) "out-of-order frame applied immediately" 22
    (value_of rep);
  ignore (Net.Replica.handle rep ~src (store ~seq:0 11));
  Alcotest.(check int) "stale frame clobbers the fresh value" 11
    (value_of rep)

let engine_hello_recorded () =
  let rep = Net.Replica.create ~init:0 () in
  Alcotest.(check (option int)) "no engine before hello" None
    (Net.Replica.engine rep);
  Alcotest.(check (list (pair int (testable Net.Wire.pp ( = )))))
    "hello has no reply" []
    (Net.Replica.handle rep ~src (Net.Wire.Engine_hello { engine = 1 }));
  Alcotest.(check (option int)) "engine recorded" (Some 1)
    (Net.Replica.engine rep)

(* --- slow --- *)

let twobit_torture_long () =
  let rep = Ex.torture ~engine:Net.Engine.Twobit ~runs:200 ~seed:2 () in
  Alcotest.(check int) "no violations" 0 rep.Ex.violations;
  Alcotest.(check int) "no stalls" 0 rep.Ex.stalled

let twobit_bigger_hunt_clean () =
  let cfg =
    Ex.config ~engine:Net.Engine.Twobit ~replicas:3 ~keys:2
      ~workload:
        (singles [ proc 0 [ w 1; w 2 ]; proc 1 [ w 3 ]; proc 2 [ r; r; r ] ])
      ()
  in
  match (Ex.hunt ~walks:300 ~seed:5 cfg).Ex.counterexample with
  | None -> ()
  | Some ce -> Alcotest.failf "honest twobit config flagged: %s" ce.Ex.message

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
    tc "engine hello recorded" engine_hello_recorded;
  ]

let slow_suite =
  [
    tc_slow "twobit torture: long run clean" twobit_torture_long;
    tc_slow "twobit hunt: bigger honest config clean" twobit_bigger_hunt_clean;
  ]
