open Helpers
module W = Harness.Workload
module S = Harness.Stats
module F = Harness.Failure

let unique_scripts_are_unique () =
  let spec = { W.writers = 2; readers = 3; writes_each = 10; reads_each = 5 } in
  let scripts = W.unique_scripts spec in
  Alcotest.(check int) "5 processes" 5 (List.length scripts);
  let values = W.values_written scripts in
  Alcotest.(check int) "20 writes" 20 (List.length values);
  Alcotest.(check int) "all distinct" 20
    (List.length (List.sort_uniq compare values));
  Alcotest.(check bool) "none is the initial value" false (List.mem 0 values)

let random_scripts_respect_roles () =
  let scripts =
    W.random_scripts ~seed:3 ~procs:4 ~ops_each:20 ~writer:(fun p -> p < 2)
  in
  List.iter
    (fun (p : int Registers.Vm.process) ->
      if p.Registers.Vm.proc >= 2 then
        List.iter
          (function
            | Histories.Event.Write _ -> Alcotest.fail "reader wrote"
            | Histories.Event.Read -> ())
          p.Registers.Vm.script)
    scripts;
  let values = W.values_written scripts in
  Alcotest.(check int) "unique writes" (List.length values)
    (List.length (List.sort_uniq compare values))

let recorder_single_domain_order () =
  let r = Harness.Recorder.create () in
  let b = Harness.Recorder.buffer r in
  Harness.Recorder.wrap_write b ~proc:0 ~value:1 (fun () -> ());
  ignore (Harness.Recorder.wrap_read b ~proc:0 (fun () -> 1));
  match Harness.Recorder.history r with
  | [ Histories.Event.Invoke (0, Histories.Event.Write 1);
      Histories.Event.Respond (0, None);
      Histories.Event.Invoke (0, Histories.Event.Read);
      Histories.Event.Respond (0, Some 1) ] -> ()
  | h -> Alcotest.failf "unexpected history (%d events)" (List.length h)

let recorder_multidomain_input_correct () =
  let r = Harness.Recorder.create () in
  let bufs = List.init 4 (fun _ -> Harness.Recorder.buffer r) in
  let ds =
    List.mapi
      (fun p b ->
        Domain.spawn (fun () ->
            for k = 1 to 200 do
              Harness.Recorder.wrap_write b ~proc:p ~value:k (fun () -> ())
            done))
      bufs
  in
  List.iter Domain.join ds;
  match Histories.Operation.of_events (Harness.Recorder.history r) with
  | Ok ops -> Alcotest.(check int) "800 ops" 800 (List.length ops)
  | Error e -> Alcotest.failf "merge broke matching: %a"
                 Histories.Operation.pp_error e

let recorder_preserves_real_time_order () =
  (* sequential phases across domains must stay ordered *)
  let r = Harness.Recorder.create () in
  let b1 = Harness.Recorder.buffer r and b2 = Harness.Recorder.buffer r in
  let d1 =
    Domain.spawn (fun () ->
        Harness.Recorder.wrap_write b1 ~proc:1 ~value:7 (fun () -> ()))
  in
  Domain.join d1;
  let d2 =
    Domain.spawn (fun () ->
        ignore (Harness.Recorder.wrap_read b2 ~proc:2 (fun () -> 7)))
  in
  Domain.join d2;
  let ops = Histories.Operation.of_events_exn (Harness.Recorder.history r) in
  match ops with
  | [ w; rd ] ->
    Alcotest.(check bool) "write precedes read" true
      (Histories.Operation.precedes w rd)
  | _ -> Alcotest.fail "expected two ops"

let access_summary_claims () =
  (* C1: on any run, reads cost exactly 3+0 and writes exactly 1+1 *)
  let spec = { W.writers = 2; readers = 2; writes_each = 5; reads_each = 8 } in
  let trace = run_bloom ~seed:11 (W.unique_scripts spec) in
  let s = S.summarise_accesses trace in
  Alcotest.(check (pair int int)) "read: 3 reads" (3, 3) s.S.op_reads;
  Alcotest.(check (pair int int)) "read: 0 writes" (0, 0) s.S.op_read_writes;
  Alcotest.(check (pair int int)) "write: 1 read" (1, 1) s.S.wr_reads;
  Alcotest.(check (pair int int)) "write: 1 write" (1, 1) s.S.wr_writes;
  Alcotest.(check int) "16 reads" 16 s.S.n_reads;
  Alcotest.(check int) "10 writes" 10 s.S.n_writes

let percentile_and_mean () =
  let xs = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 3.0 (S.mean xs);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (S.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p50" 3.0 (S.percentile xs 50.0);
  Alcotest.(check (float 1e-9)) "p100" 5.0 (S.percentile xs 100.0);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty")
    (fun () -> ignore (S.percentile [||] 50.0))

let percentile_opt_total () =
  (* regression: the bench used to compute percentiles of an empty
     latency sample (a zero-op run) and report garbage; the total
     variant must answer [None] instead *)
  Alcotest.(check (option (float 1e-9))) "empty is None" None
    (S.percentile_opt [||] 99.0);
  Alcotest.(check (option (float 1e-9))) "singleton" (Some 7.0)
    (S.percentile_opt [| 7.0 |] 99.0);
  Alcotest.(check (option (float 1e-9))) "agrees when non-empty"
    (Some (S.percentile [| 5.0; 1.0; 3.0 |] 50.0))
    (S.percentile_opt [| 5.0; 1.0; 3.0 |] 50.0)

let crash_everywhere_write_fate () =
  (* C4: crash at every point of a write; the write either happened
     entirely or not at all, and the run always certifies *)
  let processes =
    [ { Registers.Vm.proc = 0; script = [ write 10 ] };
      { Registers.Vm.proc = 1; script = [ write 20; write 21 ] };
      { Registers.Vm.proc = 2; script = [ read; read; read ] } ]
  in
  let results =
    F.crash_writer_everywhere ~seed:5 ~init:0 ~victim:0 ~processes
      ~build:(fun () -> bloom ())
  in
  Alcotest.(check int) "crash points 0,1,2" 3 (List.length results);
  List.iter
    (fun (k, fate, trace) ->
      (match k, fate with
       | 0, F.Never_happened | 1, F.Never_happened -> ()
       | 2, F.Took_effect -> ()
       | _, _ -> Alcotest.failf "crash at %d: wrong fate" k);
      ignore (check_certified ~what:(Fmt.str "crash@%d" k) trace);
      (* the value is readable iff the real write happened *)
      let cells = Registers.Run_coarse.cells_after (bloom ()) trace in
      let visible =
        Registers.Tagged.v cells.(0) = 10 || Registers.Tagged.v cells.(1) = 10
      in
      Alcotest.(check bool) (Fmt.str "visibility@%d" k)
        (fate = F.Took_effect) visible)
    results

let fate_none_when_victim_completes () =
  let trace =
    run_bloom ~seed:2 [ { Registers.Vm.proc = 0; script = [ write 10 ] } ]
  in
  Alcotest.(check bool) "no pending write" true
    (F.fate_of_crashed_write ~victim:0 trace = None)

let timeline_rendering () =
  let trace =
    Registers.Run_coarse.run_scheduled ~schedule:[ 0; 1; 1; 0 ]
      (bloom ())
      [ { Registers.Vm.proc = 0; script = [ write 10 ] };
        { Registers.Vm.proc = 1; script = [ write 20 ] } ]
  in
  match Harness.Timeline.render trace with
  | [ (0, row0); (1, row1) ] ->
    (* trace: [Inv0; r0; Inv1; r1; w1; Resp1; w0; Resp0] *)
    Alcotest.(check string) "writer 0 row" "[r....w]" row0;
    Alcotest.(check string) "writer 1 row" "  [rw]  " row1
  | rows -> Alcotest.failf "expected two rows, got %d" (List.length rows)

let timeline_rows_align () =
  let trace =
    run_bloom ~seed:5
      (Harness.Workload.unique_scripts
         { Harness.Workload.writers = 2; readers = 2; writes_each = 3; reads_each = 3 })
  in
  let rows = Harness.Timeline.render trace in
  Alcotest.(check int) "four processors" 4 (List.length rows);
  List.iter
    (fun (_, row) ->
      Alcotest.(check int) "row spans the trace" (List.length trace)
        (String.length row))
    rows

let trace_io_roundtrip () =
  let trace =
    run_bloom ~seed:13
      (Harness.Workload.unique_scripts
         { Harness.Workload.writers = 2; readers = 2; writes_each = 3;
           reads_each = 3 })
  in
  let text = Harness.Trace_io.to_string trace in
  Alcotest.(check bool) "round trip" true
    (Harness.Trace_io.of_string text = trace)

let trace_io_comments_and_blanks () =
  let parsed =
    Harness.Trace_io.of_string
      "# a comment\n\ninv 0 write 5\n*w 0 0 5 1\nresp 0\n"
  in
  Alcotest.(check int) "three events" 3 (List.length parsed)

let trace_io_rejects_garbage () =
  (match Harness.Trace_io.of_string "inv zero read" with
   | exception Failure msg ->
     Alcotest.(check bool) "names the line" true
       (Helpers.Astring_like.contains msg "line 1")
   | _ -> Alcotest.fail "expected Failure")

(* The reservoir as it was before its buffer grew on demand: the whole
   [capacity] allocated up front.  Same RNG, same algorithm. *)
module Fixed_reservoir = struct
  type t = {
    buf : float array;
    cap : int;
    rng : Random.State.t;
    mutable n : int;
  }

  let create ~capacity ~seed =
    {
      buf = Array.make capacity 0.0;
      cap = capacity;
      rng = Random.State.make [| seed; 0x7265731b |];
      n = 0;
    }

  let add r x =
    if r.n < r.cap then r.buf.(r.n) <- x
    else begin
      let j = Random.State.full_int r.rng (r.n + 1) in
      if j < r.cap then r.buf.(j) <- x
    end;
    r.n <- r.n + 1

  let samples r = Array.sub r.buf 0 (min r.n r.cap)
end

(* Below, at and above capacity, the growing buffer keeps the samples
   the fixed one keeps (past capacity, which sample each draw replaces
   shows the two draw alike), and summarises alike. *)
let reservoir_matches_fixed_oracle () =
  List.iter
    (fun (capacity, n) ->
      let what = Fmt.str "capacity %d, %d observations" capacity n in
      let r = S.Reservoir.create ~capacity ~seed:7 () in
      let o = Fixed_reservoir.create ~capacity ~seed:7 in
      let rng = Random.State.make [| capacity; n |] in
      let sum = ref 0.0 and max_x = ref neg_infinity in
      for _ = 1 to n do
        let x = Random.State.float rng 1000.0 in
        sum := !sum +. x;
        max_x := Float.max !max_x x;
        S.Reservoir.add r x;
        Fixed_reservoir.add o x
      done;
      let got = S.Reservoir.samples r and want = Fixed_reservoir.samples o in
      Alcotest.(check (array (float 0.0))) (what ^ ": samples") want got;
      Alcotest.(check int) (what ^ ": count") n (S.Reservoir.count r);
      List.iter
        (fun p ->
          Alcotest.(check (option (float 0.0)))
            (Fmt.str "%s: p%.0f" what p)
            (S.percentile_opt want p) (S.percentile_opt got p))
        [ 50.0; 90.0; 99.0 ];
      Alcotest.(check (float 0.0)) (what ^ ": sum") !sum (S.Reservoir.sum r);
      Alcotest.(check (float 0.0)) (what ^ ": max")
        (if n = 0 then nan else !max_x)
        (S.Reservoir.max_value r))
    [ (100, 0); (100, 1); (100, 16); (100, 17); (100, 99); (100, 100);
      (100, 101); (100, 5_000); (2048, 2047); (2048, 2049); (2048, 20_000);
      (5, 3); (5, 50) ]

let suite =
  [
    tc "unique workloads really are unique" unique_scripts_are_unique;
    tc "random workloads respect reader/writer roles"
      random_scripts_respect_roles;
    tc "recorder: single-domain order" recorder_single_domain_order;
    tc "recorder: multi-domain merge is input-correct"
      recorder_multidomain_input_correct;
    tc "recorder: real-time order preserved across domains"
      recorder_preserves_real_time_order;
    tc "access summary matches claims C1 exactly" access_summary_claims;
    tc "percentile and mean" percentile_and_mean;
    tc "percentile_opt total on empty samples" percentile_opt_total;
    tc "crash at every point: write is all-or-nothing (claim C4)"
      crash_everywhere_write_fate;
    tc "no fate when the victim completed" fate_none_when_victim_completes;
    tc "timeline rendering" timeline_rendering;
    tc "timeline rows align with the trace" timeline_rows_align;
    tc "trace file round-trip" trace_io_roundtrip;
    tc "trace parser skips comments and blanks" trace_io_comments_and_blanks;
    tc "trace parser reports bad lines" trace_io_rejects_garbage;
    tc "reservoir: growing buffer keeps the fixed one's samples"
      reservoir_matches_fixed_oracle;
  ]
