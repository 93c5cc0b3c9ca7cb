(* The schedule explorer: exhaustive enumeration of small
   configurations must exhaust with every audit clean; the deliberate
   broken-read-quorum, skipped-write-back and stale-copy variants must
   yield a violation whose shrunk, saved trace replays to the same
   verdict; the raw controlled-stepping API and the generic ddmin must
   behave. *)

module E = Net.Explore
module S = Modelcheck.Schedule

let tc = Helpers.tc
let tc_slow = Helpers.tc_slow

(* the default cluster; every config below names only what it changes *)
let default = Net.Sim_run.default
let no_bug = Net.Bug.none

let w v = Histories.Event.Write v
let r = Histories.Event.Read
let proc p script =
  { Net.Sim_run.xproc = p;
    xscript = List.map (fun op -> Net.Sim_run.Single op) script }

(* Two writers, one key, one replica: small enough to enumerate every
   schedule.  (With >= 2 replicas the multi-phase quorum programs blow
   past any reasonable leaf budget; replica count is not what the
   adversary's reorderings exercise.) *)
let two_writers = [ proc 0 [ w 7 ]; proc 1 [ w 9 ] ]
let writer_reader = [ proc 0 [ w 7 ]; proc 2 [ r ] ]

(* The broken-quorum witness workload.  A single concurrent read can
   never witness a stale collect — it overlaps both writes, so any
   value is linearizable.  Two *sequential* reads from one process can:
   read 1 returns the fresh value, read 2's quorum-of-1 collect hits
   the replica that missed the store, a new-old inversion. *)
let inversion_prone =
  [ proc 0 [ w 1001 ]; proc 1 [ w 2001 ]; proc 2 [ r; r ] ]

(* Pinned for both engines: `mcheck net --replicas 1 --readers 0`,
   with and without `--engine twobit`.  Each client has one op, so
   FIFO client links removed no interleaving here. *)
let exhaustive_two_writers engine expected () =
  let res =
    E.explore
      (E.config ~spec:{ default with replicas = 1; engine }
         ~workload:two_writers ())
  in
  let s = res.E.stats in
  Alcotest.(check bool) "exhausted" true s.S.exhausted;
  Alcotest.(check int) "schedule count" expected s.S.schedules;
  Alcotest.(check bool) "pruning fired" true (s.S.pruned > 0);
  match res.E.counterexample with
  | None -> ()
  | Some ce -> Alcotest.failf "atomicity violation: %s" ce.E.message

let exhaustive_writer_reader () =
  let res =
    E.explore
      (E.config ~spec:{ default with replicas = 1 } ~fastcheck:true
         ~workload:writer_reader ())
  in
  Alcotest.(check bool) "exhausted" true res.E.stats.S.exhausted;
  match res.E.counterexample with
  | None -> ()
  | Some ce -> Alcotest.failf "atomicity violation: %s" ce.E.message

let pruning_only_prunes () =
  (* sleep sets must cut the tree, not change its verdict *)
  let cfg prune =
    E.config ~spec:{ default with replicas = 1 } ~prune ~workload:two_writers ()
  in
  let pruned = E.explore (cfg true) in
  let full = E.explore (cfg false) in
  Alcotest.(check bool) "both exhausted" true
    (pruned.E.stats.S.exhausted && full.E.stats.S.exhausted);
  Alcotest.(check bool) "both clean" true
    (pruned.E.counterexample = None && full.E.counterexample = None);
  Alcotest.(check bool) "pruning shrinks the tree" true
    (pruned.E.stats.S.schedules < full.E.stats.S.schedules)

let budget_respected () =
  let res =
    E.explore
      (E.config ~spec:{ default with replicas = 1 } ~max_schedules:50
         ~workload:inversion_prone ())
  in
  Alcotest.(check bool) "not exhausted" false res.E.stats.S.exhausted;
  Alcotest.(check int) "stopped at the budget" 50 res.E.stats.S.schedules

let broken workload =
  E.config
    ~spec:{ default with bug = { no_bug with read_quorum = Some 1 } }
    ~workload ()

let broken_quorum_found () =
  (* the regression this module exists for: a read quorum of 1 with 3
     replicas must be caught as non-atomic *)
  let res = E.hunt ~seed:42 (broken inversion_prone) in
  match res.E.counterexample with
  | None -> Alcotest.fail "hunt missed the broken-quorum violation"
  | Some ce ->
    Alcotest.(check bool) "non-empty schedule" true (ce.E.schedule <> []);
    Alcotest.(check bool) "names a key" true (ce.E.key >= 0)

let honest_quorum_clean () =
  (* same workload, honest majority quorum: the same hunt must stay
     clean *)
  let cfg = E.config ~workload:inversion_prone () in
  let res = E.hunt ~walks:500 ~seed:42 cfg in
  match res.E.counterexample with
  | None -> ()
  | Some ce -> Alcotest.failf "honest config flagged: %s" ce.E.message

let hunt_deterministic () =
  let go () = E.hunt ~seed:42 (broken inversion_prone) in
  match ((go ()).E.counterexample, (go ()).E.counterexample) with
  | Some a, Some b ->
    Alcotest.(check (list int)) "same schedule" a.E.schedule b.E.schedule;
    Alcotest.(check string) "same message" a.E.message b.E.message
  | _ -> Alcotest.fail "hunt missed the violation"

let shrink_and_replay_file () =
  let cfg = broken inversion_prone in
  match (E.hunt ~seed:42 cfg).E.counterexample with
  | None -> Alcotest.fail "hunt missed the violation"
  | Some ce ->
    let cfg', ce' = E.shrink cfg ce in
    Alcotest.(check bool) "schedule no longer" true
      (List.length ce'.E.schedule <= List.length ce.E.schedule);
    let ops c =
      List.fold_left
        (fun n p -> n + List.length p.Net.Sim_run.xscript)
        0 c.E.workload
    in
    Alcotest.(check bool) "workload no larger" true (ops cfg' <= ops cfg);
    (* the shrunk counterexample must itself replay to a violation *)
    let o = E.replay cfg' ce'.E.schedule in
    Alcotest.(check bool) "shrunk schedule still violates" true
      (o.Net.Sim_run.key_violations <> []);
    (* ... and survive the trip through the JSONL artifact *)
    let file = Filename.temp_file "explore" ".jsonl" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
      (fun () ->
        E.save ~file cfg' ce';
        let cfg'', sched, o' = E.replay_file ~file in
        Alcotest.(check (list int)) "schedule survives" ce'.E.schedule sched;
        Alcotest.(check bool) "workload survives" true
          (cfg'.E.workload = cfg''.E.workload);
        Alcotest.(check bool) "artifact replays to a violation" true
          (o'.Net.Sim_run.key_violations <> []))

(* A read that returns its freshest pair without writing it back
   leaves the register regular: read 1 can return a write's value from
   the one replica its store has reached, and read 2's majority can miss
   that replica — the same new-old inversion, with an honest quorum. *)
let skip_write_back_caught_shrunk_replayed () =
  let cfg =
    E.config
      ~spec:{ default with bug = { no_bug with skip_write_back = true } }
      ~workload:inversion_prone ()
  in
  (* seed 42 finds it on walk 1864; 10000 walks cover the worst of
     seeds 1-20 (6758, EXPERIMENTS) *)
  match (E.hunt ~walks:10_000 ~seed:42 cfg).E.counterexample with
  | None -> Alcotest.fail "hunt missed the skipped write-back"
  | Some ce ->
    let cfg', ce' = E.shrink cfg ce in
    Alcotest.(check bool) "schedule no longer" true
      (List.length ce'.E.schedule <= List.length ce.E.schedule);
    let o = E.replay cfg' ce'.E.schedule in
    Alcotest.(check bool) "shrunk schedule still violates" true
      (o.Net.Sim_run.key_violations <> []);
    let file = Filename.temp_file "explore-write-back" ".jsonl" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
      (fun () ->
        E.save ~file cfg' ce';
        let cfg'', sched, o' = E.replay_file ~file in
        Alcotest.(check bool) "bug hook survives the artifact" true
          cfg''.E.spec.bug.skip_write_back;
        Alcotest.(check (list int)) "schedule survives" ce'.E.schedule sched;
        Alcotest.(check bool) "artifact replays to a violation" true
          (o'.Net.Sim_run.key_violations <> []))

(* --- a writer's read through its local copy ------------------------ *)

(* Each writer writes, then reads: the only workload shape where the
   server runs the local-copy read.  Both engines' schedule counts are
   pinned, like the plain two-writer exhaust's 76.  Each writer's two
   answers can be in flight at once, and a FIFO client link delivers
   them in send order only. *)
let writers_read = [ proc 0 [ w 1000; r ]; proc 1 [ w 2000; r ] ]

let exhaustive_writers_read engine expected () =
  let res =
    E.explore
      (E.config ~spec:{ default with replicas = 1; engine }
         ~workload:writers_read ())
  in
  let s = res.E.stats in
  Alcotest.(check bool) "exhausted" true s.S.exhausted;
  Alcotest.(check int) "schedule count" expected s.S.schedules;
  match res.E.counterexample with
  | None -> ()
  | Some ce -> Alcotest.failf "atomicity violation: %s" ce.E.message

(* One writer: a write (which makes its copy), a one-key transaction
   on the same key, then a read through the copy.  With the
   stale-copy hook the transaction leaves the copy at the first write,
   so the read returns an overwritten value on every schedule. *)
let copy_xprocs =
  [
    { Net.Sim_run.xproc = 0;
      xscript =
        [ Net.Sim_run.Single (w 1000); Net.Sim_run.Txn_w [ (0, 100_000) ];
          Net.Sim_run.Single r ] };
  ]

let stale_copy_caught_shrunk_replayed () =
  let cfg =
    E.config
      ~spec:{ default with bug = { no_bug with stale_copy = true } }
      ~workload:copy_xprocs ()
  in
  match (E.hunt ~seed:42 cfg).E.counterexample with
  | None -> Alcotest.fail "hunt missed the stale copy"
  | Some ce ->
    let cfg', ce' = E.shrink cfg ce in
    let o = E.replay cfg' ce'.E.schedule in
    Alcotest.(check bool) "shrunk schedule still violates" true
      (o.Net.Sim_run.key_violations <> []);
    let file = Filename.temp_file "explore-stale-copy" ".jsonl" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
      (fun () ->
        E.save ~file cfg' ce';
        let cfg'', sched, o' = E.replay_file ~file in
        Alcotest.(check bool) "bug hook survives the artifact" true
          cfg''.E.spec.bug.stale_copy;
        Alcotest.(check (list int)) "schedule survives" ce'.E.schedule sched;
        Alcotest.(check bool) "artifact replays to a violation" true
          (o'.Net.Sim_run.key_violations <> []))

(* One schedule: the writer's three requests leave in one frame and
   run one after another on one key, and its FIFO link delivers the
   three answers in send order. *)
let honest_copy_exhausts_clean () =
  let res =
    E.explore
      (E.config ~spec:{ default with replicas = 1 } ~workload:copy_xprocs ())
  in
  Alcotest.(check bool) "exhausted" true res.E.stats.S.exhausted;
  Alcotest.(check int) "schedule count" 1 res.E.stats.S.schedules;
  match res.E.counterexample with
  | None -> ()
  | Some ce -> Alcotest.failf "atomicity violation: %s" ce.E.message

let ddmin_minimizes () =
  (* failure = contains both 3 and 7: ddmin must land on exactly that
     pair, in order *)
  let test l = List.mem 3 l && List.mem 7 l in
  Alcotest.(check (list int)) "pair found" [ 3; 7 ]
    (S.ddmin ~test [ 1; 2; 3; 4; 5; 6; 7; 8 ]);
  (* monotone-by-construction cases *)
  Alcotest.(check (list int)) "singleton" [ 9 ]
    (S.ddmin ~test:(fun l -> List.mem 9 l) [ 0; 9; 0; 0 ]);
  Alcotest.(check (list int)) "already minimal" [ 5 ]
    (S.ddmin ~test:(fun l -> l = [ 5 ]) [ 5 ])

let pending_fire_restart () =
  (* the controlled-stepping primitives under the explorer *)
  let net = Net.Sim_net.create ~seed:0 ~faults:Net.Sim_net.reliable () in
  let tr = Net.Sim_net.transport net in
  let got = ref [] in
  Net.Sim_net.register net 1 (fun ~src:_ m -> got := m :: !got);
  tr.Net.Transport.send ~src:0 ~dst:1 Net.Wire.Bye;
  tr.Net.Transport.send ~src:0 ~dst:1 (Net.Wire.Hello { proc = 0 });
  let p = Net.Sim_net.pending net in
  Alcotest.(check int) "two pending events" 2 (List.length p);
  Alcotest.(check bool) "canonical order" true
    (match p with
    | [ a; b ] -> a.Net.Sim_net.seq < b.Net.Sim_net.seq
    | _ -> false);
  Alcotest.(check bool) "fire out of range" false (Net.Sim_net.fire net 2);
  (* fire the *second* event first: out-of-order delivery *)
  Alcotest.(check bool) "fire second" true (Net.Sim_net.fire net 1);
  Alcotest.(check bool) "got the Hello" true
    (!got = [ Net.Wire.Hello { proc = 0 } ]);
  Net.Sim_net.crash net 1;
  Alcotest.(check bool) "fire to dead node" true (Net.Sim_net.fire net 0);
  Alcotest.(check bool) "dead node got nothing more" true
    (List.length !got = 1);
  Net.Sim_net.restart net 1;
  tr.Net.Transport.send ~src:0 ~dst:1 Net.Wire.Bye;
  Alcotest.(check bool) "fire after restart" true (Net.Sim_net.fire net 0);
  Alcotest.(check int) "restarted node receives again" 2 (List.length !got)

(* Fate branch points, exhausted around one write, each schedule count
   pinned: the fate paths of the explorer. *)
let fates_exhaust_clean expected ?crashable ?amnesia ~replicas ~cuts () =
  let res =
    E.explore
      (E.config ~spec:{ default with replicas } ?crashable ~max_crashes:1
         ?amnesia ~max_amnesia:1
         ~cuts ~max_partitions:1
         ~workload:[ proc 0 [ w 7 ] ] ())
  in
  let s = res.E.stats in
  Alcotest.(check bool) "exhausted" true s.S.exhausted;
  Alcotest.(check int) "schedule count" expected s.S.schedules;
  match res.E.counterexample with
  | None -> ()
  | Some ce -> Alcotest.failf "fate exploration flagged: %s" ce.E.message

(* 3 replicas: replica 0 may crash once and be cut off from the other
   two once (then heal). *)
let explore_with_fates_clean () =
  fates_exhaust_clean 6200 ~replicas:3 ~crashable:[ 0 ]
    ~cuts:[ ([ 0 ], [ 1; 2 ]) ]
    ()

(* 1 replica: it may reboot once, and a cut may sever it from the
   server (node 100) until a heal. *)
let explore_reboot_and_cut () =
  fates_exhaust_clean 104 ~replicas:1 ~amnesia:[ 0 ] ~cuts:[ ([ 0 ], [ 100 ]) ]
    ()

(* slow: every fate kind — on 3 replicas replica 0 may crash, replica
   1 may reboot, and a cut may sever replica 0 from the others. *)
let explore_every_fate_kind () =
  fates_exhaust_clean 98344 ~replicas:3 ~crashable:[ 0 ] ~amnesia:[ 1 ]
    ~cuts:[ ([ 0 ], [ 1; 2 ]) ]
    ()

(* Three replicas, any one of which may crash: the only exhaustive
   config at n = 3, so the only one in which a phase's window is a
   strict subset of the group.  A crashed window member stalls its
   phase until the retransmission timer widens it, and the crashed
   replica is suspected from then on.  One writer writes, then reads
   back: `mcheck net --replicas 3 --writers 1 --readers 0 --writes 1
   --writer-reads 1 --crashes 1`.  The count is pinned like the
   others. *)
let exhaustive_three_replicas_one_crash () =
  let res =
    E.explore
      (E.config ~crashable:[ 0; 1; 2 ] ~max_crashes:1
         ~workload:[ proc 0 [ w 1000; r ] ] ())
  in
  let s = res.E.stats in
  Alcotest.(check bool) "exhausted" true s.S.exhausted;
  Alcotest.(check int) "schedule count" 490 s.S.schedules;
  match res.E.counterexample with
  | None -> ()
  | Some ce -> Alcotest.failf "atomicity violation: %s" ce.E.message

(* The amnesia bug: one replica, one writer, one reader, and one
   reboot budget on the replica.  Without durability the adversary can
   let the write commit (quorum-of-1), deliver the read's query AFTER
   rebooting the replica — which forgot the acked store — and serve a
   stale value: a new-old inversion between the write and the
   sequential read.  With durability the reboot recovers from the WAL
   and the very same bounded exploration exhausts clean. *)
let amnesia_cfg ~durable =
  E.config
    ~spec:
      {
        default with
        replicas = 1;
        store = (if durable then default.store else None);
      }
    ~amnesia:[ 0 ] ~max_amnesia:1
    ~workload:[ proc 0 [ w 7 ]; proc 2 [ r ] ]
    ()

let amnesia_bug_found_and_replayable () =
  let cfg = amnesia_cfg ~durable:false in
  match (E.hunt ~walks:2000 ~seed:1 cfg).E.counterexample with
  | None -> Alcotest.fail "hunt missed the amnesia violation"
  | Some ce ->
    let cfg', ce' = E.shrink cfg ce in
    Alcotest.(check bool) "schedule no longer" true
      (List.length ce'.E.schedule <= List.length ce.E.schedule);
    let o = E.replay cfg' ce'.E.schedule in
    Alcotest.(check bool) "shrunk schedule still violates" true
      (o.Net.Sim_run.key_violations <> []);
    let file = Filename.temp_file "explore-amnesia" ".jsonl" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
      (fun () ->
        E.save ~file cfg' ce';
        let _, sched, o' = E.replay_file ~file in
        Alcotest.(check (list int)) "schedule survives" ce'.E.schedule sched;
        Alcotest.(check bool) "artifact replays to a violation" true
          (o'.Net.Sim_run.key_violations <> []))

let amnesia_durable_hunt_clean () =
  (* same workload and reboot budget, durability on: the hunt that
     finds the volatile bug instantly must come up empty *)
  match
    (E.hunt ~walks:2000 ~seed:1 (amnesia_cfg ~durable:true)).E.counterexample
  with
  | None -> ()
  | Some ce -> Alcotest.failf "durable config flagged: %s" ce.E.message

(* The payoff in full — durability on, the WHOLE schedule space of the
   same config, every leaf atomic: `mcheck net --replicas 1 --writers
   1 --readers 1 --writes 1 --reads 1 --amnesia 1`.  One op per
   client, so FIFO client links left the count as it was. *)
let amnesia_durable_exhausts_clean () =
  let res = E.explore (amnesia_cfg ~durable:true) in
  Alcotest.(check bool) "exhausted" true res.E.stats.S.exhausted;
  Alcotest.(check int) "schedule count" 4418 res.E.stats.S.schedules;
  match res.E.counterexample with
  | None -> ()
  | Some ce -> Alcotest.failf "durable config flagged: %s" ce.E.message

let amnesia_without_reboot_budget_clean () =
  (* sanity: with durability off but no reboot budget the same config
     is just the honest single-replica service — must exhaust clean *)
  let res =
    E.explore
      (E.config ~spec:{ default with replicas = 1; store = None }
         ~workload:[ proc 0 [ w 7 ]; proc 2 [ r ] ]
         ())
  in
  Alcotest.(check bool) "exhausted" true res.E.stats.S.exhausted;
  Alcotest.(check bool) "clean" true (res.E.counterexample = None)

(* --- multi-key transactions and snapshots -------------------------- *)

(* The PR's headline config: 2 shards x 2 keys, a whole-keyspace
   atomic batch interleaved with a whole-keyspace snapshot read.  The
   torn-batch hook (the Txn coordinator skipping its per-key locks)
   must be caught by the cross-key audit, shrunk, and replayed through
   the artifact; honest locking must survive the same search. *)
let txn_xprocs =
  [
    { Net.Sim_run.xproc = 0;
      xscript = [ Net.Sim_run.Txn_w [ (0, 71); (1, 72) ] ] };
    { Net.Sim_run.xproc = 2; xscript = [ Net.Sim_run.Snap [ 0; 1 ] ] };
  ]

let txn_cfg ?(engine = Net.Engine.Abd) ?(torn_txn = false) ?max_schedules () =
  E.config
    ~spec:
      {
        default with
        replicas = 1;
        shards = 2;
        keys = 2;
        engine;
        bug = { no_bug with torn_txn };
      }
    ?max_schedules ~workload:txn_xprocs ()

let torn_txn_caught_shrunk_replayed () =
  let cfg = txn_cfg ~torn_txn:true () in
  match (E.hunt ~walks:2000 ~seed:3 cfg).E.counterexample with
  | None -> Alcotest.fail "hunt missed the torn-batch violation"
  | Some ce ->
    Alcotest.(check int) "cross-key sentinel key" (-1) ce.E.key;
    let cfg', ce' = E.shrink cfg ce in
    Alcotest.(check bool) "schedule no longer" true
      (List.length ce'.E.schedule <= List.length ce.E.schedule);
    let xops c =
      List.fold_left
        (fun n (p : Net.Sim_run.xprocess) ->
          n + List.length p.Net.Sim_run.xscript)
        0 c.E.workload
    in
    Alcotest.(check bool) "workload no larger" true (xops cfg' <= xops cfg);
    let o = E.replay cfg' ce'.E.schedule in
    Alcotest.(check bool) "shrunk schedule still tears" true
      (o.Net.Sim_run.txn_violations <> []);
    let file = Filename.temp_file "explore-torn" ".jsonl" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
      (fun () ->
        E.save ~file cfg' ce';
        let cfg'', sched, o' = E.replay_file ~file in
        Alcotest.(check bool) "bug hook survives the artifact" true
          cfg''.E.spec.bug.torn_txn;
        Alcotest.(check int) "extended workload survives" (xops cfg')
          (xops cfg'');
        Alcotest.(check (list int)) "schedule survives" ce'.E.schedule sched;
        Alcotest.(check bool) "artifact replays to the torn-batch verdict"
          true
          (o'.Net.Sim_run.txn_violations <> []))

let txn_honest_hunt_clean () =
  (* same config, locks on: the hunt that nails the torn hook must
     come up empty *)
  match (E.hunt ~walks:500 ~seed:3 (txn_cfg ())).E.counterexample with
  | None -> ()
  | Some ce -> Alcotest.failf "honest txn config flagged: %s" ce.E.message

let txn_bounded_explore_clean () =
  (* a budgeted slice of the exhaustive enumeration stays atomic (the
     full twobit exhaust lives in the slow suite) *)
  let res = E.explore (txn_cfg ~max_schedules:500 ()) in
  Alcotest.(check int) "budget consumed" 500 res.E.stats.S.schedules;
  match res.E.counterexample with
  | None -> ()
  | Some ce -> Alcotest.failf "bounded txn exploration flagged: %s" ce.E.message

let xworkload_validation () =
  let bad name xscript =
    match
      E.config ~spec:{ default with shards = 2; keys = 2 }
        ~workload:[ { Net.Sim_run.xproc = 0; xscript } ]
        ()
    with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  bad "duplicate txn keys" [ Net.Sim_run.Txn_w [ (0, 1); (0, 2) ] ];
  bad "negative txn key" [ Net.Sim_run.Txn_w [ (-1, 1) ] ];
  bad "empty txn" [ Net.Sim_run.Txn_w [] ];
  bad "empty snapshot" [ Net.Sim_run.Snap [] ];
  bad "duplicate snapshot keys" [ Net.Sim_run.Snap [ 1; 1 ] ];
  (* the boundary stays legal *)
  ignore (txn_cfg ())

(* Rewriting a saved artifact into an older grammar. *)

let read_lines file =
  let ic = open_in file in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  List.rev !lines

let write_lines file lines =
  let oc = open_out file in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc

let find_sub s pat =
  let n = String.length s and m = String.length pat in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = pat then Some i
    else go (i + 1)
  in
  go 0

(* [s] with its first [pat] replaced by [by] *)
let subst ~pat ~by s =
  match find_sub s pat with
  | None -> s
  | Some i ->
    let j = i + String.length pat in
    String.sub s 0 i ^ by ^ String.sub s j (String.length s - j)

(* drop a [ field=V] config entry; the absent-migration sentinel is -1,
   so the value scan accepts a leading sign *)
let strip_field s field =
  let pat = " " ^ field ^ "=" in
  match find_sub s pat with
  | None -> s
  | Some i ->
    let n = String.length s in
    let j = ref (i + String.length pat) in
    while
      !j < n && match s.[!j] with '0' .. '9' | '-' -> true | _ -> false
    do
      incr j
    done;
    String.sub s 0 i ^ String.sub s !j (n - !j)

let xproc_note = "\"text\":\"xproc "
let as_proc_line = subst ~pat:xproc_note ~by:"\"text\":\"proc "

let old_artifact_loads () =
  (* artifacts written by older versions must load and replay to their
     verdict: (1) before the txn layer, with no shards/torn_txn config
     fields; (2) before every workload was saved as xproc lines, with
     plain proc lines and the retired init/max_timer_fires fields;
     (3) with both proc and xproc lines, as migration and txn dumps
     were, where only the xproc lines hold the workload; (4) before
     the stale_copy field *)
  let cfg = broken inversion_prone in
  match (E.hunt ~seed:42 cfg).E.counterexample with
  | None -> Alcotest.fail "hunt missed the broken-quorum violation"
  | Some ce ->
    let file = Filename.temp_file "explore-compat" ".jsonl" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
      (fun () ->
        E.save ~file cfg ce;
        let saved = read_lines file in
        let is_xproc l = find_sub l xproc_note <> None in
        let xprocs = List.filter is_xproc saved in
        let pre_txn l = strip_field (strip_field l "shards") "torn_txn" in
        let pre_xproc l =
          as_proc_line l
          |> subst ~pat:" engine=" ~by:" init=0 engine="
          |> subst ~pat:" max_depth=" ~by:" max_timer_fires=64 max_depth="
        in
        (* every xproc line doubled as a proc line, ahead of the first *)
        let both l =
          if l == List.hd xprocs then List.map as_proc_line xprocs @ [ l ]
          else [ l ]
        in
        let rewrites =
          [
            ("pre-txn", List.map pre_txn);
            ("proc lines", List.map pre_xproc);
            ("proc and xproc lines", List.concat_map both);
            ("pre-local-copy", List.map (fun l -> strip_field l "stale_copy"));
          ]
        in
        List.iter
          (fun (what, rewrite) ->
            write_lines file (rewrite saved);
            let cfg', sched, o' = E.replay_file ~file in
            Alcotest.(check int) (what ^ ": shards") 1 cfg'.E.spec.shards;
            Alcotest.(check bool) (what ^ ": torn_txn off") false
              cfg'.E.spec.bug.torn_txn;
            Alcotest.(check bool) (what ^ ": stale_copy off") false
              cfg'.E.spec.bug.stale_copy;
            Alcotest.(check bool) (what ^ ": workload") true
              (cfg'.E.workload = cfg.E.workload);
            Alcotest.(check (list int))
              (what ^ ": schedule") ce.E.schedule sched;
            Alcotest.(check bool) (what ^ ": replays to its verdict") true
              (o'.Net.Sim_run.key_violations <> []))
          rewrites)

let torture_small () =
  let rep = E.torture ~runs:30 ~seed:11 () in
  Alcotest.(check int) "all runs executed" 30 rep.E.runs;
  Alcotest.(check int) "no violations" 0 rep.E.violations;
  Alcotest.(check int) "no stalls" 0 rep.E.stalled;
  Alcotest.(check bool) "work happened" true (rep.E.ops_completed > 0)

(* --- slow --- *)

let torture_long () =
  let rep = E.torture ~runs:400 ~seed:1 () in
  Alcotest.(check int) "no violations" 0 rep.E.violations;
  Alcotest.(check int) "no stalls" 0 rep.E.stalled

let torture_deterministic () =
  let go seed = E.torture ~runs:60 ~seed () in
  let a = go 5 and b = go 5 and c = go 6 in
  Alcotest.(check int) "same seed, same ops" a.E.ops_completed b.E.ops_completed;
  Alcotest.(check bool) "different seed, different workloads" true
    (a.E.ops_completed <> c.E.ops_completed)

let bounded_hunt_bigger_config () =
  (* honest 3-replica cluster with a writer pair and a two-read reader
     under random walks: no schedule may fail the audit *)
  let cfg =
    E.config ~spec:{ default with keys = 2 }
      ~workload:[ proc 0 [ w 1; w 2 ]; proc 1 [ w 3 ]; proc 2 [ r; r; r ] ]
      ()
  in
  match (E.hunt ~walks:300 ~seed:3 cfg).E.counterexample with
  | None -> ()
  | Some ce -> Alcotest.failf "honest config flagged: %s" ce.E.message

(* slow: the acceptance criterion in full — the twobit engine halves
   the messages per op, which is what makes exhausting the 2-shard x
   2-key batch/snapshot config feasible (8400 schedules, depth <= 22;
   the ABD variant blows past any reasonable budget).  The batch and
   the snapshot each send one query per key to the one replica in the
   same turn, which the server's cork ships as one frame: one
   delivery, not two to interleave. *)
let txn_twobit_exhausts_clean () =
  let res = E.explore (txn_cfg ~engine:Net.Engine.Twobit ()) in
  Alcotest.(check bool) "exhausted" true res.E.stats.S.exhausted;
  Alcotest.(check int) "schedule count" 8400 res.E.stats.S.schedules;
  match res.E.counterexample with
  | None -> ()
  | Some ce -> Alcotest.failf "txn/snap schedule not atomic: %s" ce.E.message

let txn_twobit_torn_exhaustive_found () =
  (* the same exhaustive search with the torn hook on must find the
     counterexample.  [exhausted] is not asserted either way: the
     flag records depth/budget truncation only, and a search stopped
     by its first violating schedule may well have been cut by
     neither. *)
  let res = E.explore (txn_cfg ~engine:Net.Engine.Twobit ~torn_txn:true ()) in
  match res.E.counterexample with
  | None -> Alcotest.fail "exhaustive search missed the torn-batch bug"
  | Some ce ->
    Alcotest.(check int) "cross-key sentinel key" (-1) ce.E.key;
    Alcotest.(check bool) "the violating schedule is recorded" true
      (ce.E.schedule <> [])

(* --- live reconfiguration ------------------------------------------
   The migration handoff as a schedulable event: with 2 replicas in
   disjoint singleton groups (group_size 1) and one keyed write racing
   the migration, the state space closes — the twobit engine exhausts
   in seconds, ABD in the slow suite.  The [skip_dual_write] hook drops
   the incoming-group leg of each dual write; the hunt must catch the
   resulting lost ack, ddmin it, and replay it through the artifact. *)

let reconfig_write_only =
  [ { Net.Sim_run.xproc = 0; xscript = [ Net.Sim_run.Keyed (3, w 7) ] } ]

let reconfig_write_read =
  [
    { Net.Sim_run.xproc = 0; xscript = [ Net.Sim_run.Keyed (3, w 7) ] };
    { Net.Sim_run.xproc = 2; xscript = [ Net.Sim_run.Keyed (3, r) ] };
  ]

(* the writer reads the migrating key back through its local copy,
   which must survive the handoff *)
let reconfig_writer_reads =
  [
    { Net.Sim_run.xproc = 0;
      xscript = [ Net.Sim_run.Keyed (3, w 1000); Net.Sim_run.Keyed (3, r) ] };
  ]

let reconfig_cfg ?(engine = Net.Engine.Abd) ?(skip_dual_write = false)
    ?max_schedules ~workload () =
  E.config
    ~spec:
      {
        default with
        replicas = 2;
        shards = 2;
        group_size = Some 1;
        keys = 4;
        window = 1;
        engine;
        bug = { no_bug with skip_dual_write };
      }
    ?max_schedules ~reconfig:(3, 1) ~workload ()

let reconfig_bounded_explore_clean () =
  (* a budgeted slice of the write+read enumeration on both engines;
     the full exhausts live in the slow suite *)
  List.iter
    (fun engine ->
      let res =
        E.explore
          (reconfig_cfg ~engine ~max_schedules:500
             ~workload:reconfig_write_read ())
      in
      Alcotest.(check int)
        (Net.Engine.kind_name engine ^ ": budget consumed")
        500 res.E.stats.S.schedules;
      match res.E.counterexample with
      | None -> ()
      | Some ce ->
        Alcotest.failf "bounded %s reconfig exploration flagged: %s"
          (Net.Engine.kind_name engine) ce.E.message)
    [ Net.Engine.Abd; Net.Engine.Twobit ]

let reconfig_skip_dual_write_caught_shrunk_replayed () =
  let cfg =
    reconfig_cfg ~skip_dual_write:true ~workload:reconfig_write_read ()
  in
  match (E.hunt ~walks:2000 ~seed:3 cfg).E.counterexample with
  | None -> Alcotest.fail "hunt missed the dropped dual-write leg"
  | Some ce ->
    Alcotest.(check int) "violation lands on the migrating key" 3 ce.E.key;
    let cfg', ce' = E.shrink cfg ce in
    Alcotest.(check bool) "schedule no longer" true
      (List.length ce'.E.schedule <= List.length ce.E.schedule);
    let o = E.replay cfg' ce'.E.schedule in
    Alcotest.(check bool) "shrunk schedule still loses the ack" true
      (o.Net.Sim_run.key_violations <> []);
    let file = Filename.temp_file "explore-reshard" ".jsonl" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
      (fun () ->
        E.save ~file cfg' ce';
        let cfg'', sched, o' = E.replay_file ~file in
        Alcotest.(check bool) "bug hook survives the artifact" true
          cfg''.E.spec.bug.skip_dual_write;
        Alcotest.(check bool) "migration survives the artifact" true
          (cfg''.E.reconfig = Some (3, 1));
        Alcotest.(check (list int)) "schedule survives" ce'.E.schedule sched;
        Alcotest.(check bool) "artifact replays to the lost ack" true
          (o'.Net.Sim_run.key_violations <> []))

let reconfig_honest_hunt_clean () =
  (* dual writes on: the hunt that nails the hook must come up empty *)
  match
    (E.hunt ~walks:500 ~seed:3
       (reconfig_cfg ~workload:reconfig_write_read ()))
      .E.counterexample
  with
  | None -> ()
  | Some ce -> Alcotest.failf "honest reconfig config flagged: %s" ce.E.message

let reconfig_validation () =
  let bad name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  bad "hook without a migration" (fun () ->
      E.config
        ~spec:
          {
            default with
            shards = 2;
            bug = { no_bug with skip_dual_write = true };
          }
        ~workload:two_writers ());
  bad "migration target out of range" (fun () ->
      E.config ~spec:{ default with shards = 2 } ~reconfig:(0, 2)
        ~workload:two_writers ());
  bad "negative migration key" (fun () ->
      E.config ~spec:{ default with shards = 2 } ~reconfig:(-1, 0)
        ~workload:two_writers ());
  bad "non-positive group size" (fun () ->
      E.config ~spec:{ default with shards = 2; group_size = Some 0 }
        ~workload:two_writers ());
  (* the boundary stays legal *)
  ignore (reconfig_cfg ~workload:reconfig_write_only ())

(* A spec with no replica, shard, key or window slot can run no op,
   so every verdict on it would hold vacuously: the spec validator
   refuses it, for the explorer and the simulator alike. *)
let degenerate_clusters_refused () =
  List.iter
    (fun (what, spec) ->
      (match E.config ~spec ~workload:two_writers () with
       | exception Invalid_argument _ -> ()
       | _ -> Alcotest.failf "Explore.config accepted %s" what);
      match Net.Sim_run.create spec ~seed:0 ~workload:two_writers with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "Sim_run.create accepted %s" what)
    [
      ("0 replicas", { default with replicas = 0 });
      ("0 shards", { default with shards = 0 });
      ("0 keys", { default with keys = 0 });
      ("window 0", { default with window = 0 });
      ("0 domains", { default with domains = 0 });
      ( "twobit link ids past the wire's",
        { default with engine = Net.Engine.Twobit; shards = 129; domains = 2 }
      );
      ("group size 0", { default with group_size = Some 0 });
    ]

(* Counterexamples dumped by an earlier build and committed under
   test/golden (the CI amnesia, torn-txn and reshard hunts): each must
   still replay to its violation, and saving the loaded config and
   schedule again must rewrite the file byte for byte.  Found from the
   test directory (as dune runs the suite) or the repository root. *)
let committed_artifacts_replay () =
  List.iter
    (fun name ->
      let file =
        List.find Sys.file_exists
          [ Filename.concat "golden" name; Filename.concat "test/golden" name ]
      in
      let cfg, schedule, o = E.replay_file ~file in
      Alcotest.(check bool) (name ^ ": replays to its violation") true
        (o.Net.Sim_run.key_violations <> []
        || o.Net.Sim_run.txn_violations <> []);
      let copy = Filename.temp_file "explore-golden" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> Sys.remove copy)
        (fun () ->
          E.save ~file:copy cfg { E.schedule; key = 0; message = "" };
          let bytes f = In_channel.with_open_bin f In_channel.input_all in
          Alcotest.(check string) (name ^ ": rewritten byte for byte")
            (bytes file) (bytes copy)))
    [ "amnesia-ce.jsonl"; "txn-ce.jsonl"; "reshard-ce.jsonl" ]

let pre_reconfig_artifact_loads () =
  (* artifacts written before this layer carry no group_size/reconfig/
     skip_dual_write fields: loading one must default them to off *)
  let cfg = broken inversion_prone in
  match (E.hunt ~seed:42 cfg).E.counterexample with
  | None -> Alcotest.fail "hunt missed the broken-quorum violation"
  | Some ce ->
    let file = Filename.temp_file "explore-reshard-compat" ".jsonl" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
      (fun () ->
        E.save ~file cfg ce;
        (* rewrite the artifact into the pre-reconfig config grammar *)
        let strip s =
          List.fold_left strip_field s
            [ "group_size"; "reconfig_key"; "reconfig_to"; "skip_dual_write" ]
        in
        write_lines file (List.map strip (read_lines file));
        let cfg', _, o' = E.replay_file ~file in
        Alcotest.(check bool) "group_size defaulted" true
          (cfg'.E.spec.group_size = None);
        Alcotest.(check bool) "reconfig defaulted" true
          (cfg'.E.reconfig = None);
        Alcotest.(check bool) "skip_dual_write defaulted" false
          cfg'.E.spec.bug.skip_dual_write;
        Alcotest.(check bool) "old artifact still replays to its verdict"
          true
          (o'.Net.Sim_run.key_violations <> []))

let fates_artifact_round_trip () =
  (* a config's fate sets travel in the artifact's [crashable],
     [amnesia] and [cut] note lines and load back unchanged *)
  let cfg =
    E.config ~crashable:[ 0; 2 ] ~max_crashes:1 ~amnesia:[ 1 ]
      ~max_amnesia:1
      ~cuts:[ ([ 0 ], [ 1; 2 ]); ([ 1; 2 ], [ 0; 100 ]) ]
      ~max_partitions:2
      ~workload:[ proc 0 [ w 7 ] ] ()
  in
  let ce = { E.schedule = [ 1; 0; 2 ]; key = 0; message = "" } in
  let file = Filename.temp_file "explore-fates" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      E.save ~file cfg ce;
      let notes =
        List.filter_map Net.Trace.note_of_line (read_lines file)
      in
      List.iter
        (fun line ->
          Alcotest.(check bool) ("note " ^ line) true (List.mem line notes))
        [ "crashable 0,2"; "amnesia 1"; "cut 0|1,2"; "cut 1,2|0,100" ];
      let cfg', sched = E.load ~file in
      Alcotest.(check (list int)) "schedule" ce.E.schedule sched;
      Alcotest.(check bool) "cuts" true (cfg'.E.cuts = cfg.E.cuts);
      Alcotest.(check (list int)) "crashable" cfg.E.crashable
        cfg'.E.crashable;
      Alcotest.(check (list int)) "amnesia" cfg.E.amnesia cfg'.E.amnesia;
      Alcotest.(check (list int)) "budgets"
        [ cfg.E.max_crashes; cfg.E.max_amnesia; cfg.E.max_partitions ]
        [ cfg'.E.max_crashes; cfg'.E.max_amnesia; cfg'.E.max_partitions ])

(* slow: the acceptance criterion in full — both engines exhaust the
   single-write migration config (disjoint singleton groups, one keyed
   write racing the handoff) with every schedule atomic.  The twobit
   engine closes the space in seconds; ABD takes ~40k schedules.  The
   migration's copy step reads the key's two registers from the old
   group's one replica in one turn, which the server's cork ships as
   one frame. *)
let reconfig_exhausts_clean engine workload expected () =
  let res = E.explore (reconfig_cfg ~engine ~workload ()) in
  Alcotest.(check bool) "exhausted" true res.E.stats.S.exhausted;
  Alcotest.(check int) "schedule count" expected res.E.stats.S.schedules;
  match res.E.counterexample with
  | None -> ()
  | Some ce -> Alcotest.failf "reconfig schedule not atomic: %s" ce.E.message

(* --- a pool of two workers -------------------------------------------
   The simulator runs the service's pool: at two workers each worker's
   turn is a schedulable event, so the explorer also chooses which
   worker runs next and how many queued frames one turn drains.  Under
   2 shards keys 0 and 1 sit on shards 0 and 1, hence on workers 0 and
   1; key 3 sits on shard 0.  Each config must exhaust clean, and its
   default schedule must complete every op. *)

let pool_exhausts ?reconfig ~what spec workload expected =
  let cfg = E.config ~spec:{ spec with domains = 2 } ?reconfig ~workload () in
  let res = E.explore cfg in
  Alcotest.(check bool) (what ^ ": exhausted") true res.E.stats.S.exhausted;
  Alcotest.(check int) (what ^ ": schedule count") expected
    res.E.stats.S.schedules;
  (match res.E.counterexample with
   | None -> ()
   | Some ce -> Alcotest.failf "%s: %s" what ce.E.message);
  let o = E.replay cfg [] in
  Alcotest.(check int) (what ^ ": the default schedule completes every op")
    o.Net.Sim_run.expected o.Net.Sim_run.completed;
  o

let keyed p key op =
  { Net.Sim_run.xproc = p; xscript = [ Net.Sim_run.Keyed (key, op) ] }

(* two writers, one on each worker's key *)
let pool_writers_exhaust engine expected () =
  ignore
    (pool_exhausts ~what:"writers on two workers"
       { default with replicas = 1; shards = 2; keys = 2; engine }
       [ keyed 0 0 (w 7); keyed 1 1 (w 9) ]
       expected)

(* one batch over both workers' keys: each owner runs its key, the
   shared coordinator posts across workers *)
let pool_txn_exhausts engine expected () =
  ignore
    (pool_exhausts ~what:"a batch across two workers"
       { default with replicas = 1; shards = 2; keys = 2; engine }
       [
         { Net.Sim_run.xproc = 0;
           xscript = [ Net.Sim_run.Txn_w [ (0, 1); (1, 2) ] ] };
       ]
       expected)

(* worker 0 migrates key 3 onto shard 1 while worker 1 writes key 1 on
   shard 1: worker 0 drives an engine of a shard worker 1 owns, over the
   same replica, and every reply must come back to the worker that
   sent the request *)
let pool_reshard_exhausts engine expected () =
  let o =
    pool_exhausts ~what:"a reshard onto the other worker's shard"
      ~reconfig:(3, 1)
      { default with replicas = 2; shards = 2; group_size = Some 1; keys = 4;
        window = 1; engine }
      [ keyed 1 1 (w 9) ]
      expected
  in
  Alcotest.(check (option bool)) "the default schedule acks the migration"
    (Some true) o.Net.Sim_run.reconfig_acked;
  Alcotest.(check int) "epoch advanced once" 1 o.Net.Sim_run.epoch

(* The per-worker sleep-set nodes prune without hiding a bug: with the
   read quorum broken, the exhaustive search of a two-worker config
   finds the new-old inversion on key 0 (worker 0) while worker 1
   serves a write of key 1, and the schedule replays to it. *)
let pool_pruning_keeps_a_bug () =
  let cfg =
    E.config
      ~spec:
        { default with replicas = 3; shards = 2; keys = 2; domains = 2;
          bug = { no_bug with read_quorum = Some 1 } }
      ~workload:
        [
          keyed 0 0 (w 7);
          { Net.Sim_run.xproc = 2;
            xscript = [ Net.Sim_run.Keyed (0, r); Net.Sim_run.Keyed (0, r) ] };
          keyed 1 1 (w 9);
        ]
      ()
  in
  match (E.explore cfg).E.counterexample with
  | None -> Alcotest.fail "the pruned search missed the broken read quorum"
  | Some ce ->
    Alcotest.(check int) "violation on key 0" 0 ce.E.key;
    Alcotest.(check bool) "its schedule replays to it" true
      ((E.replay cfg ce.E.schedule).Net.Sim_run.key_violations <> [])

(* An artifact names its worker count on a [domains] note line, only
   when it is not 1, and loads it back; an artifact without one loads
   as one worker. *)
let domains_note_round_trip () =
  let notes cfg =
    let file = Filename.temp_file "explore-domains" ".jsonl" in
    Fun.protect
      ~finally:(fun () -> Sys.remove file)
      (fun () ->
        E.save ~file cfg { E.schedule = []; key = 0; message = "" };
        let cfg', _ = E.load ~file in
        ( List.filter_map Net.Trace.note_of_line (read_lines file),
          cfg'.E.spec.domains ))
  in
  let spec = { default with shards = 2; keys = 2 } in
  let one, d1 = notes (E.config ~spec ~workload:two_writers ()) in
  Alcotest.(check int) "one worker loads as one" 1 d1;
  Alcotest.(check bool) "no domains note at one worker" false
    (List.exists (fun n -> find_sub n "domains" = Some 0) one);
  let two, d2 =
    notes (E.config ~spec:{ spec with domains = 2 } ~workload:two_writers ())
  in
  Alcotest.(check int) "two workers load as two" 2 d2;
  Alcotest.(check bool) "a domains note at two workers" true
    (List.mem "domains 2" two)

let suite =
  [
    tc "exhaustive: two writers, all schedules atomic"
      (exhaustive_two_writers Net.Engine.Abd 76);
    tc "exhaustive: two writers on twobit, all schedules atomic"
      (exhaustive_two_writers Net.Engine.Twobit 60);
    tc "exhaustive: writer + reader, all schedules atomic"
      exhaustive_writer_reader;
    tc "pruning cuts the tree, same verdict" pruning_only_prunes;
    tc "leaf budget respected" budget_respected;
    tc "broken read quorum: violation found" broken_quorum_found;
    tc "honest quorum: same hunt stays clean" honest_quorum_clean;
    tc "hunt is deterministic in its seed" hunt_deterministic;
    tc "shrink + save: artifact replays to the violation"
      shrink_and_replay_file;
    tc "skipped write-back: caught, shrunk, replayed"
      skip_write_back_caught_shrunk_replayed;
    tc "writers read: abd exhausts every schedule atomic"
      (exhaustive_writers_read Net.Engine.Abd 2088);
    tc "writers read: twobit exhausts every schedule atomic"
      (exhaustive_writers_read Net.Engine.Twobit 684);
    tc "stale local copy: caught, shrunk, replayed"
      stale_copy_caught_shrunk_replayed;
    tc "honest local copy: same config exhausts clean"
      honest_copy_exhausts_clean;
    tc "ddmin minimizes" ddmin_minimizes;
    tc "sim: pending/fire/restart primitives" pending_fire_restart;
    tc "fate branch points stay clean" explore_with_fates_clean;
    tc "fate branch points: reboot and cut exhaust clean"
      explore_reboot_and_cut;
    tc "fate notes: save then load keeps the fate sets"
      fates_artifact_round_trip;
    tc "three replicas, one crash: exhausts every schedule atomic"
      exhaustive_three_replicas_one_crash;
    tc "amnesia without durability: caught, shrunk, replayed"
      amnesia_bug_found_and_replayable;
    tc "amnesia with durability: same hunt clean" amnesia_durable_hunt_clean;
    tc "amnesia with durability: full schedule space exhausts clean"
      amnesia_durable_exhausts_clean;
    tc "volatile but no reboot budget: exhausts clean"
      amnesia_without_reboot_budget_clean;
    tc "torn batch: caught, shrunk, replayed" torn_txn_caught_shrunk_replayed;
    tc "honest txn locks: same hunt stays clean" txn_honest_hunt_clean;
    tc "txn/snap config: bounded exploration clean" txn_bounded_explore_clean;
    tc "extended workloads validated at config time" xworkload_validation;
    tc "pre-txn artifacts load with defaults" old_artifact_loads;
    tc "reconfig: bounded exploration clean, both engines"
      reconfig_bounded_explore_clean;
    tc "reconfig: dropped dual write caught, shrunk, replayed"
      reconfig_skip_dual_write_caught_shrunk_replayed;
    tc "reconfig: honest dual writes, same hunt stays clean"
      reconfig_honest_hunt_clean;
    tc "reconfig: bug hooks validated at config time" reconfig_validation;
    tc "degenerate clusters are refused" degenerate_clusters_refused;
    tc "committed artifacts replay and rewrite byte for byte"
      committed_artifacts_replay;
    tc "pre-reconfig artifacts load with defaults" pre_reconfig_artifact_loads;
    tc "torture: small seeded batch clean" torture_small;
    tc "two workers: writers on both exhaust clean, abd"
      (pool_writers_exhaust Net.Engine.Abd 152);
    tc "two workers: writers on both exhaust clean, twobit"
      (pool_writers_exhaust Net.Engine.Twobit 152);
    tc "two workers: a batch across both exhausts clean, abd"
      (pool_txn_exhausts Net.Engine.Abd 2816);
    tc "two workers: a batch across both exhausts clean, twobit"
      (pool_txn_exhausts Net.Engine.Twobit 2816);
    tc "two workers: reshard onto the other's shard exhausts clean, abd"
      (pool_reshard_exhausts Net.Engine.Abd 2418);
    tc "two workers: reshard onto the other's shard exhausts clean, twobit"
      (pool_reshard_exhausts Net.Engine.Twobit 2394);
    tc "domains note: written at two workers, loaded back"
      domains_note_round_trip;
    tc "two workers: the pruned search still finds a broken read quorum"
      pool_pruning_keeps_a_bug;
  ]

let slow_suite =
  [
    tc_slow "torture: long run clean" torture_long;
    tc_slow "torture: deterministic in seed" torture_deterministic;
    tc_slow "hunt: bigger honest config clean" bounded_hunt_bigger_config;
    tc_slow "txn/snap config: twobit exhausts every schedule atomic"
      txn_twobit_exhausts_clean;
    tc_slow "txn/snap config: torn hook found exhaustively"
      txn_twobit_torn_exhaustive_found;
    tc_slow "reconfig: twobit exhausts every schedule atomic"
      (reconfig_exhausts_clean Net.Engine.Twobit reconfig_write_only 3122);
    tc_slow "reconfig: abd exhausts every schedule atomic"
      (reconfig_exhausts_clean Net.Engine.Abd reconfig_write_only 40438);
    tc_slow "reconfig: writer reading through its copy, twobit exhausts"
      (reconfig_exhausts_clean Net.Engine.Twobit reconfig_writer_reads 9776);
    tc_slow "fate branch points: every fate kind exhausts clean"
      explore_every_fate_kind;
  ]
