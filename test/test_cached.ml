open Helpers
module Vm = Registers.Vm
module P = Core.Protocol

let p proc script = { Vm.proc; script }

let cached () = P.bloom_cached ~init:0 ~other_init:0 ()

let sequential_semantics () =
  (* writer 1 reads its own fresh write through the cache *)
  let trace =
    Registers.Run_coarse.run_scheduled
      ~schedule:[ 1; 1; 1; 1; 1 ]
      (cached ())
      [ p 1 [ write 5; read ] ]
  in
  (match List.rev (Registers.Vm.history_of_trace trace) with
   | Histories.Event.Respond (1, Some 5) :: _ -> ()
   | _ -> Alcotest.fail "cached self-read should return 5");
  (* and writer 0 sees writer 1's value through its second real read *)
  let trace =
    Registers.Run_coarse.run_scheduled
      ~schedule:[ 1; 1; 1; 0; 0; 0 ]
      (cached ())
      [ p 0 [ read ]; p 1 [ write 5 ] ]
  in
  match List.rev (Registers.Vm.history_of_trace trace) with
  | Histories.Event.Respond (0, Some 5) :: _ -> ()
  | _ -> Alcotest.fail "cached cross-read should return 5"

let real_access_costs () =
  let real_reads trace proc_filter =
    List.length
      (List.filter
         (function
           | Vm.Prim_read (q, c, _) -> proc_filter q && not (P.is_local_cell c)
           | _ -> false)
         trace)
  in
  (* home read: 1 real read *)
  let trace =
    Registers.Run_coarse.run_scheduled ~schedule:[ 0; 0; 0; 0; 0 ]
      (cached ())
      [ p 0 [ write 5; read ] ]
  in
  (* write: 1 real read; home read: 1 real read (sum points at Reg0) *)
  Alcotest.(check int) "2 real reads total" 2 (real_reads trace (fun q -> q = 0));
  (* away read: 2 real reads *)
  let trace =
    Registers.Run_coarse.run_scheduled
      ~schedule:[ 1; 1; 1; 0; 0; 0 ]
      (cached ())
      [ p 0 [ read ]; p 1 [ write 5 ] ]
  in
  Alcotest.(check int) "away read = 2 real reads" 2
    (real_reads trace (fun q -> q = 0))

let exhaustive_writer_readers () =
  (* both writers interleave a write and a cached read, one standard
     reader: the paper's unproven claim, verified exhaustively *)
  let procs =
    [ p 0 [ write 10; read ]; p 1 [ write 20; read ]; p 2 [ read ] ]
  in
  match Modelcheck.Explorer.find_violation ~init:0 (cached ()) procs with
  | None -> ()
  | Some v ->
    Alcotest.failf "cached protocol violated after %d executions:@.%a"
      v.Modelcheck.Explorer.executions_checked
      (Histories.Event.pp_history Fmt.int)
      v.Modelcheck.Explorer.trace_events

let exhaustive_read_first () =
  (* cached reads before any own write: the cache still holds the
     correct initial contents *)
  let procs =
    [ p 0 [ read; write 10 ]; p 1 [ write 20; read ]; p 2 [ read ] ]
  in
  match Modelcheck.Explorer.find_violation ~init:0 (cached ()) procs with
  | None -> ()
  | Some v ->
    Alcotest.failf "violated after %d executions" v.Modelcheck.Explorer.executions_checked

let exhaustive_depth_three_slow () =
  (* the depth that kills the NAND synthesis artifacts *)
  let procs =
    [ p 0 [ write 10; write 11; write 12 ]; p 1 [ write 20 ];
      p 2 [ read; read ] ]
  in
  match Modelcheck.Explorer.find_violation ~init:0 (cached ()) procs with
  | None -> ()
  | Some v ->
    Alcotest.failf "cached failed at depth 3 after %d"
      v.Modelcheck.Explorer.executions_checked

(* The open question: a writer read that returns its one real read of
   the other register when the tag sum points away.  Small
   configurations are evidence, not a proof. *)
let single_read_small_configs () =
  let reg = P.bloom_cached_single_read ~init:0 ~other_init:0 () in
  List.iter
    (fun procs ->
      match Modelcheck.Explorer.find_violation ~init:0 reg procs with
      | None -> ()
      | Some v ->
        Alcotest.failf "single-read variant violated after %d executions:@.%a"
          v.Modelcheck.Explorer.executions_checked
          (Histories.Event.pp_history Fmt.int)
          v.Modelcheck.Explorer.trace_events)
    [
      [ p 0 [ write 10; read ]; p 1 [ write 20; read ]; p 2 [ read ] ];
      [ p 0 [ read; write 10 ]; p 1 [ write 20; read ]; p 2 [ read ] ];
    ]

let random_runs_atomic () =
  let open Histories.Event in
  for seed = 1 to 300 do
    let procs =
      [ p 0 [ Write 10; Read; Write 11; Read ];
        p 1 [ Read; Write 20; Read; Write 21 ];
        p 2 [ Read; Read; Read; Read ];
        p 3 [ Read; Read; Read; Read ] ]
    in
    let trace = Registers.Run_coarse.run ~seed (cached ()) procs in
    if not (Histories.Fastcheck.is_atomic ~init:0 (history_ops trace)) then
      Alcotest.failf "cached run not atomic (seed %d)" seed
  done

let mixed_cached_and_plain_readers () =
  (* standard readers are untouched by the optimisation: exactly 3 real
     reads each, even in cached runs *)
  let open Histories.Event in
  let trace =
    Registers.Run_coarse.run ~seed:9 (cached ())
      [ p 0 [ Write 10 ]; p 1 [ Write 20 ]; p 2 [ Read; Read ] ]
  in
  List.iter
    (fun (q, op, r, w) ->
      if q = 2 then begin
        Alcotest.(check bool) "reader op is a read" true (op = Read);
        Alcotest.(check int) "3 real reads" 3 r;
        Alcotest.(check int) "0 writes" 0 w
      end)
    (Registers.Vm.prim_counts trace)

let suite =
  [
    tc "cached register: sequential semantics" sequential_semantics;
    tc "cached reads cost 1 or 2 real reads (claim C5, model)"
      real_access_costs;
    tc "cached protocol exhaustively atomic (writers read too)"
      exhaustive_writer_readers;
    tc "cached protocol exhaustively atomic (read before write)"
      exhaustive_read_first;
    tc "cached protocol: random longer runs atomic" random_runs_atomic;
    tc "single-read variant: small configs exhaustively atomic"
      single_read_small_configs;
    tc_slow "cached protocol exhaustively atomic at depth 3"
      exhaustive_depth_three_slow;
    tc "plain readers unaffected by the optimisation"
      mixed_cached_and_plain_readers;
  ]
