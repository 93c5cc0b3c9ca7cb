open Helpers
module M = Histories.Monitor

let ok = function
  | M.Ok_so_far -> true
  | M.Violation _ -> false

let feed events =
  let m = M.create ~init:0 in
  M.observe_all m events

let sequential_ok () =
  Alcotest.(check bool) "ok" true
    (ok
       (feed
          [ ev_invoke 0 (write 1); ev_respond 0 None; ev_invoke 2 read;
            ev_respond 2 (Some 1); ev_invoke 1 (write 2); ev_respond 1 None;
            ev_invoke 2 read; ev_respond 2 (Some 2) ]))

let stale_read_caught () =
  Alcotest.(check bool) "violation" false
    (ok
       (feed
          [ ev_invoke 0 (write 1); ev_respond 0 None; ev_invoke 2 read;
            ev_respond 2 (Some 0) ]))

let new_old_inversion_caught () =
  Alcotest.(check bool) "violation" false
    (ok
       (feed
          [ ev_invoke 0 (write 1);
            ev_invoke 2 read; ev_respond 2 (Some 1);
            ev_invoke 2 read; ev_respond 2 (Some 0);
            ev_respond 0 None ]))

let overlap_tolerated () =
  Alcotest.(check bool) "old value under overlap ok" true
    (ok
       (feed
          [ ev_invoke 0 (write 1); ev_invoke 2 read; ev_respond 2 (Some 0);
            ev_respond 0 None ]))

let violation_is_sticky () =
  let m = M.create ~init:0 in
  ignore
    (M.observe_all m
       [ ev_invoke 0 (write 1); ev_respond 0 None; ev_invoke 2 read;
         ev_respond 2 (Some 0) ]);
  Alcotest.(check bool) "violated" false (ok (M.verdict m));
  (* further legal events do not reset it *)
  ignore (M.observe m (ev_invoke 2 read));
  Alcotest.(check bool) "still violated" false (ok (M.verdict m))

let duplicate_write_caught () =
  Alcotest.(check bool) "duplicate" false
    (ok
       (feed
          [ ev_invoke 0 (write 1); ev_respond 0 None; ev_invoke 1 (write 1) ]))

let thin_air_caught () =
  match feed [ ev_invoke 2 read; ev_respond 2 (Some 42) ] with
  | M.Violation (Histories.Fastcheck.Unknown_value 42) -> ()
  | M.Violation v ->
    Alcotest.failf "wrong verdict: %a" (Histories.Fastcheck.pp_violation Fmt.int) v
  | M.Ok_so_far -> Alcotest.fail "thin air accepted"

let cross_reader_inversion_caught () =
  (* rule d across two readers *)
  Alcotest.(check bool) "violation" false
    (ok
       (feed
          [ ev_invoke 0 (write 1); ev_respond 0 None;
            ev_invoke 1 (write 2);
            ev_invoke 2 read; ev_respond 2 (Some 2);
            ev_invoke 3 read; ev_respond 3 (Some 1);
            ev_respond 1 None ]))

let read_before_write_caught () =
  (* rule c: a read entirely before a write forces the read's source
     before that write; combined with the write completing before a
     re-read of the source, it cycles *)
  Alcotest.(check bool) "violation" false
    (ok
       (feed
          [ ev_invoke 0 (write 1); ev_respond 0 None;
            (* read 1, then write 2 completes, then read 1 again *)
            ev_invoke 2 read; ev_respond 2 (Some 1);
            ev_invoke 1 (write 2); ev_respond 1 None;
            ev_invoke 2 read; ev_respond 2 (Some 1) ]))

let long_history_live_bound () =
  (* each write is superseded by the next and no read is left pending,
     so pruning keeps the live graph at the initial node plus the
     frontier write, however long the history runs *)
  let m = M.create ~init:0 in
  let n = 2000 in
  for k = 1 to n do
    ignore (M.observe m (ev_invoke 0 (write k)));
    ignore (M.observe m (ev_respond 0 None));
    ignore (M.observe m (ev_invoke 2 read));
    ignore (M.observe m (ev_respond 2 (Some k)))
  done;
  Alcotest.(check bool) "still ok" true (ok (M.verdict m));
  let nodes, edges = M.stats m in
  Alcotest.(check bool)
    (Fmt.str "live graph bounded (%d nodes, %d edges)" nodes edges)
    true
    (nodes <= 2 && edges <= 1)

let bloom_runs_monitored_ok () =
  for seed = 1 to 100 do
    let trace =
      run_bloom ~seed
        (Harness.Workload.unique_scripts
           { Harness.Workload.writers = 2; readers = 2; writes_each = 5;
             reads_each = 6 })
    in
    let history = Registers.Vm.history_of_trace trace in
    if not (ok (feed history)) then
      Alcotest.failf "monitor flagged a correct run (seed %d)" seed
  done

let figure5_monitored_violation () =
  let reg = Core.Tournament.flat ~init:'a' ~other_init:'b' () in
  let trace =
    Registers.Run_coarse.run_scheduled
      ~schedule:Core.Tournament.figure5_schedule reg
      Core.Tournament.figure5_scripts
  in
  let m = M.create ~init:'a' in
  match M.observe_all m (Registers.Vm.history_of_trace trace) with
  | M.Violation _ -> ()
  | M.Ok_so_far -> Alcotest.fail "monitor must catch Figure 5"

let superseded_write_pruned () =
  (* write 1 is overwritten by 2 while a read is pending: that read may
     still return 1, so 1 must outlive its leaving the frontier *)
  let m = M.create ~init:0 in
  let observe evs = M.observe_all m evs in
  ignore
    (observe
       [ ev_invoke 0 (write 1); ev_respond 0 None; ev_invoke 2 read;
         ev_invoke 1 (write 2); ev_respond 1 None ]);
  Alcotest.(check bool) "overlapping read of a superseded write ok" true
    (ok (observe [ ev_respond 2 (Some 1) ]));
  (* once write 3 completes with no read pending, 1 and 2 are gone *)
  ignore (observe [ ev_invoke 1 (write 3); ev_respond 1 None ]);
  Alcotest.(check int) "superseded writes dropped" 2 (fst (M.stats m));
  (* a read begun after 1 was overwritten must not return it *)
  match observe [ ev_invoke 2 read; ev_respond 2 (Some 1) ] with
  | M.Violation (Histories.Fastcheck.Unknown_value 1) -> ()
  | M.Violation v ->
    Alcotest.failf "wrong verdict: %a" (Histories.Fastcheck.pp_violation Fmt.int) v
  | M.Ok_so_far -> Alcotest.fail "read of an overwritten write accepted"

let live_predecessor_keeps_write () =
  (* write 2 is superseded by 3 with no read pending, but the pending
     write 1 precedes it (a read of 1 finished before a read of 2
     began).  Dropping 2 would lose the path 1 -> 2 -> 3, and with it
     the cycle the last read closes by returning 1 after 3 completed *)
  let events =
    [ ev_invoke 0 (write 1);
      ev_invoke 2 read; ev_respond 2 (Some 1);
      ev_invoke 1 (write 2);
      ev_invoke 3 read;
      ev_respond 1 None;
      ev_respond 3 (Some 2);
      ev_invoke 1 (write 3); ev_respond 1 None;
      ev_invoke 2 read; ev_respond 2 (Some 1) ]
  in
  Alcotest.(check bool) "not atomic offline" false
    (Histories.Fastcheck.is_atomic ~init:0 (ops_of_events events));
  match feed events with
  | M.Violation (Histories.Fastcheck.Cycle _) -> ()
  | M.Violation v ->
    Alcotest.failf "wrong verdict: %a" (Histories.Fastcheck.pp_violation Fmt.int) v
  | M.Ok_so_far -> Alcotest.fail "cycle through a dropped write missed"

let non_sequential_rejected () =
  let m = M.create ~init:0 in
  ignore (M.observe m (ev_invoke 0 (write 1)));
  Alcotest.check_raises "double invoke"
    (Invalid_argument "Monitor.observe: processor not sequential") (fun () ->
      ignore (M.observe m (ev_invoke 0 (write 2))))

(* A single-key monitor, warmed up, serving a sequential write then a
   read of it: every buffer has grown, so the four events allocate
   nothing. *)
let write_then_read_allocates_nothing () =
  let n = 2_000 in
  let events =
    Array.init n (fun i ->
        [| ev_invoke 0 (write (i + 1)); ev_respond 0 None; ev_invoke 2 read;
           ev_respond 2 (Some (i + 1)) |])
  in
  let m = M.create ~init:0 in
  let words =
    words_per_call ~warmup:100 ~n (fun i ->
        let evs = events.(i) in
        ignore (M.observe m evs.(0));
        ignore (M.observe m evs.(1));
        ignore (M.observe m evs.(2));
        ignore (M.observe m evs.(3)))
  in
  Alcotest.(check bool) "still ok" true (ok (M.verdict m));
  Alcotest.(check (float 0.0)) "words per write then read" 0.0 words

(* An idle key's monitor is one small record: its graph is built by the
   first event. *)
let create_is_small () =
  let words =
    words_per_call ~warmup:10 ~n:1_000 (fun _ ->
        ignore (Sys.opaque_identity (M.create ~init:0)))
  in
  Alcotest.(check bool) (Fmt.str "%.1f words per create, at most 4" words)
    true (words <= 4.0)

(* A sequential writer on one key: each write's response folds the
   monitor and the next invocation unfolds it, on a domain whose stack
   holds the spare core from the first fold. *)
let fold_unfold_allocates_nothing () =
  let n = 2_000 in
  let writes = Array.init n (fun i -> ev_invoke 0 (write (i + 1)))
  and ack = ev_respond 0 None in
  let m = M.create ~init:0 in
  let folds = ref 0 in
  let words =
    words_per_call ~warmup:100 ~n (fun i ->
        ignore (M.observe m writes.(i));
        if M.resident m then begin
          ignore (M.observe m ack);
          if not (M.resident m) then incr folds
        end)
  in
  Alcotest.(check bool) "still ok" true (ok (M.verdict m));
  Alcotest.(check int) "every write's response folded" n !folds;
  Alcotest.(check (pair int int)) "folded: node 0 and the last write" (2, 0)
    (M.stats m);
  Alcotest.(check (float 0.0)) "words per fold and unfold" 0.0 words

let suite =
  [
    tc "sequential history ok" sequential_ok;
    tc "stale read caught" stale_read_caught;
    tc "new-old inversion caught" new_old_inversion_caught;
    tc "overlapping old value tolerated" overlap_tolerated;
    tc "violations are sticky" violation_is_sticky;
    tc "duplicate write caught" duplicate_write_caught;
    tc "thin-air value caught" thin_air_caught;
    tc "cross-reader inversion caught (rule d)" cross_reader_inversion_caught;
    tc "read-before-write constraint caught (rule c)" read_before_write_caught;
    tc "live graph bounded on long runs" long_history_live_bound;
    tc "correct protocol runs stay clean" bloom_runs_monitored_ok;
    tc "Figure 5 caught online" figure5_monitored_violation;
    tc "non-sequential input rejected" non_sequential_rejected;
    tc "superseded write kept for reads" superseded_write_pruned;
    tc "live predecessor keeps a write" live_predecessor_keeps_write;
    tc "a warm write then read allocates nothing (was 200 words)"
      write_then_read_allocates_nothing;
    tc "create allocates at most 4 words (was 157)" create_is_small;
    tc "a fold and an unfold allocate nothing once a spare core is warm"
      fold_unfold_allocates_nothing;
  ]
