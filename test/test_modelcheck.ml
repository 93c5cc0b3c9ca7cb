open Helpers
module Vm = Registers.Vm
module E = Modelcheck.Explorer

let w1r1 =
  [ { Vm.proc = 0; script = [ write 10 ] };
    { Vm.proc = 2; script = [ read ] } ]

let w2r2 =
  [ { Vm.proc = 0; script = [ write 10 ] };
    { Vm.proc = 1; script = [ write 20 ] };
    { Vm.proc = 2; script = [ read ] };
    { Vm.proc = 3; script = [ read ] } ]

let interleavings_formula () =
  Alcotest.(check int) "trivial" 1 (E.interleavings [ 5 ]);
  Alcotest.(check int) "2+3" 10 (E.interleavings [ 2; 3 ]);
  Alcotest.(check int) "2,2,3,3" 25200 (E.interleavings [ 2; 2; 3; 3 ]);
  Alcotest.(check int) "empty" 1 (E.interleavings [])

let explorer_count_matches_formula () =
  let n = E.explore (bloom ()) w1r1 ~on_leaf:(fun _ -> ()) in
  Alcotest.(check int) "(2,3) leaves" (E.interleavings [ 2; 3 ]) n;
  let n = E.explore (bloom ()) w2r2 ~on_leaf:(fun _ -> ()) in
  Alcotest.(check int) "(2,2,3,3) leaves" 25200 n

let every_leaf_is_a_complete_run () =
  ignore
    (E.explore (bloom ()) w1r1 ~on_leaf:(fun trace ->
         let ops = history_ops trace in
         Alcotest.(check int) "two ops" 2 (List.length ops);
         List.iter
           (fun o ->
             Alcotest.(check bool) "completed" false
               (Histories.Operation.is_pending o))
           ops))

let bloom_exhaustively_atomic_small () =
  match E.find_violation ~init:0 (bloom ()) w2r2 with
  | None -> ()
  | Some v ->
    Alcotest.failf "violation after %d executions: %a"
      v.E.executions_checked
      (Histories.Event.pp_history Fmt.int)
      v.E.trace_events

let bloom_exhaustively_atomic_two_ops () =
  (* 2 writers x 2 writes + 1 reader x 2 reads: 210210 executions *)
  let procs =
    [ { Vm.proc = 0; script = [ write 10; write 11 ] };
      { Vm.proc = 1; script = [ write 20; write 21 ] };
      { Vm.proc = 2; script = [ read; read ] } ]
  in
  Alcotest.(check int) "size" 210210 (E.interleavings [ 4; 4; 6 ]);
  match E.find_violation ~init:0 (bloom ()) procs with
  | None -> ()
  | Some v -> Alcotest.failf "violation after %d" v.E.executions_checked

let bloom_exhaustively_atomic_big_slow () =
  (* 2 writers x 2 writes + 2 readers x 1 read: 4.2M executions *)
  let procs =
    [ { Vm.proc = 0; script = [ write 10; write 11 ] };
      { Vm.proc = 1; script = [ write 20; write 21 ] };
      { Vm.proc = 2; script = [ read ] };
      { Vm.proc = 3; script = [ read ] } ]
  in
  match E.find_violation ~init:0 (bloom ()) procs with
  | None -> ()
  | Some v -> Alcotest.failf "violation after %d" v.E.executions_checked

let bloom_exhaustively_atomic_huge_slow () =
  (* 2 writers x 3 writes + 1 reader x 2 reads: 17.2M executions *)
  let procs =
    [ { Vm.proc = 0; script = [ write 10; write 11; write 12 ] };
      { Vm.proc = 1; script = [ write 20; write 21; write 22 ] };
      { Vm.proc = 2; script = [ read; read ] } ]
  in
  Alcotest.(check int) "size" 17_153_136 (E.interleavings [ 6; 6; 6 ]);
  match E.find_violation ~init:0 (bloom ()) procs with
  | None -> ()
  | Some v -> Alcotest.failf "violation after %d" v.E.executions_checked

let lemmas_hold_exhaustively () =
  (* Figure 3 / Figure 4: the proof's lemmas as exhaustively-checked
     invariants, plus the certifier on every execution *)
  ignore
    (E.explore (bloom ()) w2r2 ~on_leaf:(fun trace ->
         let g = Core.Gamma.analyse ~init:0 trace in
         (match Core.Gamma.check_lemmas g with
          | Ok () -> ()
          | Error e -> Alcotest.fail e);
         match Core.Certifier.certify g with
         | Core.Certifier.Certified _ -> ()
         | Core.Certifier.Failed m -> Alcotest.fail m))

let tournament_violation_found () =
  let procs =
    [ { Vm.proc = 0; script = [ write 10 ] };
      { Vm.proc = 1; script = [ write 20 ] };
      { Vm.proc = 3; script = [ write 30 ] };
      { Vm.proc = 4; script = [ read ] } ]
  in
  let reg = Core.Tournament.flat ~init:0 ~other_init:0 () in
  match E.find_violation ~init:0 reg procs with
  | None -> Alcotest.fail "the tournament bug must be found"
  | Some v ->
    Alcotest.(check bool) "found quickly" true (v.E.executions_checked < 100_000)

let tournament_violation_needs_three_writers () =
  (* with only the two same-group writers the tournament cannot fail *)
  let procs =
    [ { Vm.proc = 2; script = [ write 10 ] };
      { Vm.proc = 3; script = [ write 20 ] };
      { Vm.proc = 4; script = [ read ] } ]
  in
  let reg = Core.Tournament.flat ~init:0 ~other_init:0 () in
  match E.find_violation ~init:0 reg procs with
  | None -> ()
  | Some _ -> Alcotest.fail "two same-pair writers are just the 2-writer protocol"

(* A Bloom variant whose writer always writes tag 0. *)
let broken_tag () =
  {
    Vm.spec =
      [| Vm.atomic_cell (Registers.Tagged.initial 0);
         Vm.atomic_cell (Registers.Tagged.initial 0) |];
    Vm.read = (fun ~proc:_ -> Core.Protocol.read_prog ());
    write =
      (fun ~proc v ->
        Vm.bind (Vm.read (1 - proc)) (fun _ ->
            Vm.write proc (Registers.Tagged.make v false)));
  }

let broken_tag_protocol_caught () =
  (* model checking finds the bug *)
  match E.find_violation ~init:0 (broken_tag ()) w2r2 with
  | None -> Alcotest.fail "broken protocol must be caught"
  | Some _ -> ()

let broken_reader_order_caught () =
  (* reader reads Reg1 first: breaks the proof's asymmetry *)
  let broken =
    {
      Vm.spec =
        [| Vm.atomic_cell (Registers.Tagged.initial 0);
           Vm.atomic_cell (Registers.Tagged.initial 0) |];
      Vm.read =
        (fun ~proc:_ ->
          Vm.bind (Vm.read 1) (fun c1 ->
              Vm.bind (Vm.read 0) (fun c0 ->
                  let r = Registers.Tagged.tag_sum c0 c1 in
                  Vm.bind (Vm.read r) (fun c2 ->
                      Vm.return (Registers.Tagged.v c2)))));
      write = (fun ~proc v -> Core.Protocol.write_prog ~level:0 ~proc v);
    }
  in
  (* NB the paper (footnote 5) says the first two reads could even be
     performed in parallel, so reversing them is still atomic — the
     model checker confirms rather than refutes here, including at the
     depth that kills the NAND synthesis artifacts. *)
  (match E.find_violation ~init:0 broken w2r2 with
   | None -> ()
   | Some v ->
     Alcotest.failf "reversed reader order failed after %d"
       v.E.executions_checked);
  let depth3 =
    [ { Vm.proc = 0; script = [ write 10; write 11; write 12 ] };
      { Vm.proc = 1; script = [ write 20; write 21 ] };
      { Vm.proc = 2; script = [ read ] } ]
  in
  match E.find_violation ~init:0 broken depth3 with
  | None -> ()
  | Some v -> Alcotest.failf "reversed reader failed at depth 3 after %d"
                v.E.executions_checked

let crash_exhaustive () =
  (* claim C4, exhaustively: for every crash point of writer 0 and
     every interleaving, the crashed execution is atomic and certified *)
  for k = 0 to 2 do
    let n =
      E.explore ~crash:[ (0, k) ] (bloom ()) w2r2 ~on_leaf:(fun trace ->
          let g = Core.Gamma.analyse ~init:0 trace in
          (match Core.Certifier.certify g with
           | Core.Certifier.Certified _ -> ()
           | Core.Certifier.Failed m ->
             Alcotest.failf "crash %d: certifier failed: %s" k m);
          let ops = history_ops trace in
          if not (Histories.Linearize.is_atomic ~init:0 ops) then
            Alcotest.failf "crash %d: non-atomic execution" k)
    in
    Alcotest.(check bool) (Fmt.str "crash %d explored" k) true (n > 0)
  done

let crash_both_writers_exhaustive () =
  match
    E.find_violation ~crash:[ (0, 1); (1, 1) ] ~init:0 (bloom ()) w2r2
  with
  | None -> ()
  | Some v -> Alcotest.failf "violation after %d" v.E.executions_checked

let crashed_value_never_resurrects () =
  (* a write crashed before its real write must never be read, on any
     schedule *)
  ignore
    (E.explore ~crash:[ (0, 1) ] (bloom ()) w2r2 ~on_leaf:(fun trace ->
         List.iter
           (function
             | Registers.Vm.Sim (Histories.Event.Respond (_, Some v))
               when v = 10 ->
               Alcotest.fail "crashed write's value was read"
             | _ -> ())
           trace))

let crash_reader_exhaustive () =
  (* killing a reader mid-read never perturbs anyone else *)
  for k = 0 to 3 do
    match E.find_violation ~crash:[ (2, k) ] ~init:0 (bloom ()) w2r2 with
    | None -> ()
    | Some v ->
      Alcotest.failf "reader crash %d: violation after %d" k
        v.E.executions_checked
  done

let crash_cached_writer_exhaustive () =
  (* the local-copy writer performs 3 accesses per write (read other,
     real write, private update); crash between the real write and the
     private update must stay atomic *)
  let cached () = Core.Protocol.bloom_cached ~init:0 ~other_init:0 () in
  let procs =
    [ { Vm.proc = 0; script = [ write 10; read ] };
      { Vm.proc = 1; script = [ write 20 ] };
      { Vm.proc = 2; script = [ read ] } ]
  in
  for k = 0 to 4 do
    match E.find_violation ~crash:[ (0, k) ] ~init:0 (cached ()) procs with
    | None -> ()
    | Some v ->
      Alcotest.failf "cached crash %d: violation after %d" k
        v.E.executions_checked
  done

let parallel_matches_sequential () =
  let g1, t1 = E.count_atomic ~init:0 (bloom ()) w2r2 in
  let g2, t2 = E.count_atomic_parallel ~domains:2 ~init:0 (bloom ()) w2r2 in
  Alcotest.(check (pair int int)) "same verdict" (g1, t1) (g2, t2)

let parallel_finds_violations () =
  let procs =
    [ { Vm.proc = 0; script = [ write 10 ] };
      { Vm.proc = 1; script = [ write 20 ] };
      { Vm.proc = 3; script = [ write 30 ] };
      { Vm.proc = 4; script = [ read ] } ]
  in
  match
    E.find_violation_parallel ~domains:2 ~init:0
      (Core.Tournament.flat ~init:0 ~other_init:0 ())
      procs
  with
  | Some v ->
    Alcotest.(check bool) "history non-empty" true
      (v.E.trace_events <> [])
  | None -> Alcotest.fail "parallel search must find the tournament bug"

let parallel_none_on_correct_protocol () =
  match E.find_violation_parallel ~domains:2 ~init:0 (bloom ()) w2r2 with
  | None -> ()
  | Some _ -> Alcotest.fail "no violation exists"

let early_stop_counts () =
  (* Stop aborts the exploration *)
  let seen = ref 0 in
  let n =
    E.explore (bloom ()) w1r1 ~on_leaf:(fun _ ->
        incr seen;
        if !seen >= 3 then raise E.Stop)
  in
  Alcotest.(check int) "stopped at 3" 3 n

let count_atomic_totals () =
  let good, total = E.count_atomic ~init:0 (bloom ()) w1r1 in
  Alcotest.(check int) "all atomic" total good;
  Alcotest.(check int) "total = formula" (E.interleavings [ 2; 3 ]) total

(* The parallel entry points build the same machine as the sequential
   ones, so weak cells are refused there too. *)
let parallel_refuses_weak_cells () =
  let procs =
    [ { Vm.proc = 0; script = [ write true ] };
      { Vm.proc = 1; script = [ read ] } ]
  in
  let weak () = Registers.Regular_of_safe.build ~init:false in
  let refused name f =
    match f () with
    | exception Registers.Run_coarse.Not_atomic_cells -> ()
    | _ -> Alcotest.failf "%s explored weak cells" name
  in
  refused "count_atomic" (fun () ->
      ignore (E.count_atomic ~init:false (weak ()) procs));
  refused "count_atomic_parallel" (fun () ->
      ignore (E.count_atomic_parallel ~domains:1 ~init:false (weak ()) procs));
  refused "find_violation_parallel" (fun () ->
      ignore (E.find_violation_parallel ~domains:1 ~init:false (weak ()) procs))

(* Refactor guard: a digest of every leaf trace, in visit order.  A
   change to any trace, to a leaf count or to the visit order moves
   it. *)
let leaf_string trace =
  Fmt.str "%a"
    (Fmt.list ~sep:Fmt.sp
       (Vm.pp_trace_event (Registers.Tagged.pp Fmt.int) Fmt.int))
    trace

let visit_digest ?crash procs =
  let d = ref "" in
  let leaves =
    E.explore ?crash (bloom ()) procs ~on_leaf:(fun trace ->
        d := Digest.string (!d ^ leaf_string trace))
  in
  (leaves, Digest.to_hex !d)

let explorer_visits_pinned () =
  let check name ?crash (leaves, digest) =
    Alcotest.(check (pair int string)) name (leaves, digest)
      (visit_digest ?crash w2r2)
  in
  check "w2r2" (25200, "c9fd36c64f25d80485a35d6b5a53a799");
  check "w2r2, writer 0 crashed after 1 access" ~crash:[ (0, 1) ]
    (5040, "2b05de643afcbfcce84f21eddbe81948");
  (* The parallel entry points report only verdict counts, so the
     split's leaves are compared through those, on a workload where
     some leaves are atomic and some are not. *)
  let good, total = E.count_atomic ~init:0 (broken_tag ()) w2r2 in
  Alcotest.(check bool) "mixed verdicts" true (0 < good && good < total);
  List.iter
    (fun domains ->
      Alcotest.(check (pair int int))
        (Fmt.str "parallel on %d domains" domains)
        (good, total)
        (E.count_atomic_parallel ~domains ~init:0 (broken_tag ()) w2r2))
    [ 1; 2 ]

let suite =
  [
    tc "interleavings formula" interleavings_formula;
    tc "explorer visits exactly the multinomial" explorer_count_matches_formula;
    tc "every leaf is a complete run" every_leaf_is_a_complete_run;
    tc "Bloom exhaustively atomic (25200 executions)"
      bloom_exhaustively_atomic_small;
    tc "Bloom exhaustively atomic (210210 executions)"
      bloom_exhaustively_atomic_two_ops;
    tc_slow "Bloom exhaustively atomic (4.2M executions)"
      bloom_exhaustively_atomic_big_slow;
    tc_slow "Bloom exhaustively atomic (17.2M executions)"
      bloom_exhaustively_atomic_huge_slow;
    tc "lemmas 1-2 and the certifier hold on every execution"
      lemmas_hold_exhaustively;
    tc "tournament violation found automatically" tournament_violation_found;
    tc "two same-pair writers cannot fail" tournament_violation_needs_three_writers;
    tc "broken tag choice caught" broken_tag_protocol_caught;
    tc "reversed reader order is still atomic (footnote 5)"
      broken_reader_order_caught;
    tc "crash injection, exhaustively certified (claim C4)" crash_exhaustive;
    tc "both writers crashing, exhaustively atomic" crash_both_writers_exhaustive;
    tc "crashed value never resurrects on any schedule"
      crashed_value_never_resurrects;
    tc "crashing a reader never disturbs anyone (exhaustive)"
      crash_reader_exhaustive;
    tc "crashing a cached writer at every point stays atomic (exhaustive)"
      crash_cached_writer_exhaustive;
    tc "parallel explorer matches the sequential one"
      parallel_matches_sequential;
    tc "parallel explorer finds violations" parallel_finds_violations;
    tc "parallel explorer agrees on correct protocols"
      parallel_none_on_correct_protocol;
    tc "early stop" early_stop_counts;
    tc "count_atomic totals" count_atomic_totals;
    tc "parallel explorer refuses weak cells" parallel_refuses_weak_cells;
    tc "explorer visits pinned by digest" explorer_visits_pinned;
  ]
