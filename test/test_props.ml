open Helpers
module Gen = QCheck2.Gen

(* ------------------------------------------------------------------ *)
(* Random histories with unique written values.                        *)
(*                                                                     *)
(* A stateful builder simulates sequential processors and an adversary *)
(* that picks read results from the whole value pool — including       *)
(* values not written yet and one thin-air value — so both atomic and  *)
(* non-atomic histories are produced.                                  *)

let build_history ~procs ~steps seed =
  let rng = Random.State.make [| seed |] in
  let next_value = ref 1 in
  let pool = ref [ 0 ] in
  (* state per proc: None = idle, Some op = in flight *)
  let inflight = Array.make procs None in
  let events = ref [] in
  for _ = 1 to steps do
    let p = Random.State.int rng procs in
    match inflight.(p) with
    | None ->
      let op =
        if p < 2 && Random.State.bool rng then begin
          let v = !next_value in
          incr next_value;
          pool := v :: !pool;
          Histories.Event.Write v
        end
        else Histories.Event.Read
      in
      inflight.(p) <- Some op;
      events := ev_invoke p op :: !events
    | Some op ->
      inflight.(p) <- None;
      let resp =
        match op with
        | Histories.Event.Write _ -> None
        | Histories.Event.Read ->
          (* mostly plausible values, occasionally thin air *)
          if Random.State.int rng 20 = 0 then Some 999_999
          else
            Some (List.nth !pool (Random.State.int rng (List.length !pool)))
      in
      events := ev_respond p resp :: !events
  done;
  List.rev !events

let gen_history = Gen.map (build_history ~procs:4 ~steps:40) Gen.int
let gen_history_long = Gen.map (build_history ~procs:6 ~steps:120) Gen.int

let fast_equals_brute =
  qc ~count:2000 "fastcheck agrees with brute force on unique-value histories"
    gen_history
    (fun events ->
      let ops = ops_of_events events in
      let fast = Histories.Fastcheck.is_atomic ~init:0 ops in
      let brute = Histories.Linearize.is_atomic ~init:0 ops in
      if fast <> brute then
        QCheck2.Test.fail_reportf "fast=%b brute=%b on:@.%a" fast brute
          (Histories.Event.pp_history Fmt.int)
          events
      else true)

let fast_witness_legal =
  qc ~count:500 "fastcheck witnesses are sequentially legal" gen_history
    (fun events ->
      match Histories.Fastcheck.check_unique ~init:0 (ops_of_events events) with
      | Histories.Fastcheck.Atomic w ->
        Histories.Seq_spec.is_legal ~init:0 w
      | Histories.Fastcheck.Violation _ -> true)

let brute_witness_legal =
  qc ~count:500 "brute-force witnesses are sequentially legal" gen_history
    (fun events ->
      match Histories.Linearize.check ~init:0 (ops_of_events events) with
      | Histories.Linearize.Atomic w -> Histories.Seq_spec.is_legal ~init:0 w
      | Histories.Linearize.Not_atomic -> true)

(* ------------------------------------------------------------------ *)
(* The theorem, probabilistically: every execution certifies.          *)

let gen_workload =
  Gen.map
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let spec =
        {
          Harness.Workload.writers = 2;
          readers = 1 + Random.State.int rng 3;
          writes_each = 1 + Random.State.int rng 4;
          reads_each = 1 + Random.State.int rng 4;
        }
      in
      (seed, Harness.Workload.unique_scripts spec))
    Gen.int

let every_execution_certifies =
  qc ~count:400 "every Bloom execution is certified by the proof" gen_workload
    (fun (seed, scripts) ->
      let trace = run_bloom ~seed scripts in
      match certify_trace trace with
      | Core.Certifier.Certified _ -> true
      | Core.Certifier.Failed m -> QCheck2.Test.fail_reportf "%s" m)

let every_execution_fastchecks =
  qc ~count:400 "every Bloom execution passes the independent checker"
    gen_workload
    (fun (seed, scripts) ->
      let trace = run_bloom ~seed scripts in
      Histories.Fastcheck.is_atomic ~init:0 (history_ops trace))

let certificate_order_respects_intervals =
  qc ~count:150 "certified linearizations respect operation intervals"
    gen_workload
    (fun (seed, scripts) ->
      let trace = run_bloom ~seed scripts in
      match certify_trace trace with
      | Core.Certifier.Failed m -> QCheck2.Test.fail_reportf "%s" m
      | Core.Certifier.Certified c ->
        (* the certified order, restricted per processor, matches each
           processor's own operation order *)
        let lin = Core.Certifier.linearization c in
        let per_proc = Hashtbl.create 8 in
        List.iter
          (fun (o : int Histories.Operation.t) ->
            let prev =
              Option.value ~default:[] (Hashtbl.find_opt per_proc o.proc)
            in
            Hashtbl.replace per_proc o.proc (o :: prev))
          lin;
        (* a processor's operations appear in program order: writes by
           writer 0 must carry increasing values (workload encodes
           program order in values) *)
        Hashtbl.fold
          (fun _ ops acc ->
            let writes =
              List.rev ops
              |> List.filter_map (fun o -> Histories.Operation.value_written o)
            in
            acc && List.sort compare writes = writes)
          per_proc true)

let crash_injection_certifies =
  qc ~count:300 "crashed executions still certify" gen_workload
    (fun (seed, scripts) ->
      let victim = seed land 1 in
      let k = (seed land 0xffff) mod 5 in
      let trace = run_bloom ~crash:[ (victim, k) ] ~seed scripts in
      match certify_trace trace with
      | Core.Certifier.Certified _ -> true
      | Core.Certifier.Failed m -> QCheck2.Test.fail_reportf "%s" m)

(* ------------------------------------------------------------------ *)
(* Weak-register sanity: atomic => regular => safe (for SWMR runs).    *)

let gen_swmr_history =
  Gen.map
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let reg =
        {
          Registers.Vm.spec =
            [| { Registers.Vm.sem = Registers.Vm.Regular; init = 0; domain = [] } |];
          read = (fun ~proc:_ -> Registers.Vm.read 0);
          write = (fun ~proc:_ v -> Registers.Vm.write 0 v);
        }
      in
      let procs =
        [ { Registers.Vm.proc = 0;
            script = List.init 4 (fun k -> write (k + 1)) };
          { Registers.Vm.proc = 1;
            script = List.init (2 + Random.State.int rng 4) (fun _ -> read) } ]
      in
      Registers.Vm.history_of_trace (Registers.Run_fine.run ~seed reg procs))
    Gen.int

let atomic_implies_regular_implies_safe =
  qc ~count:500 "atomic => regular => safe on SWMR histories"
    gen_swmr_history
    (fun events ->
      let ops = ops_of_events events in
      let atomic = Histories.Linearize.is_atomic ~init:0 ops in
      let regular = Histories.Weakcheck.is_regular ~init:0 ops in
      let safe = Histories.Weakcheck.is_safe ~init:0 ops in
      (not atomic || regular) && (not regular || safe))

let regular_cell_always_regular =
  qc ~count:500 "regular cells yield regular histories" gen_swmr_history
    (fun events ->
      Histories.Weakcheck.is_regular ~init:0 (ops_of_events events))

let fast_equals_brute_long =
  qc ~count:300 "fastcheck agrees with brute force on longer histories"
    gen_history_long
    (fun events ->
      let ops = ops_of_events events in
      Histories.Fastcheck.is_atomic ~init:0 ops
      = Histories.Linearize.is_atomic ~init:0 ops)

let monitor_equals_fastcheck_long =
  qc ~count:300 "online monitor agrees with fastcheck on longer histories"
    gen_history_long
    (fun events ->
      let m = Histories.Monitor.create ~init:0 in
      let online =
        match Histories.Monitor.observe_all m events with
        | Histories.Monitor.Ok_so_far -> true
        | Histories.Monitor.Violation _ -> false
      in
      Histories.Fastcheck.is_atomic ~init:0 (ops_of_events events) = online)

let monitor_equals_fastcheck =
  qc ~count:2000 "online monitor agrees with fastcheck" gen_history
    (fun events ->
      let offline =
        Histories.Fastcheck.is_atomic ~init:0 (ops_of_events events)
      in
      let m = Histories.Monitor.create ~init:0 in
      let online =
        match Histories.Monitor.observe_all m events with
        | Histories.Monitor.Ok_so_far -> true
        | Histories.Monitor.Violation _ -> false
      in
      if offline <> online then
        QCheck2.Test.fail_reportf "offline=%b online=%b on:@.%a" offline online
          (Histories.Event.pp_history Fmt.int)
          events
      else true)

let monitor_prefix_monotone =
  qc ~count:300 "monitor verdicts are monotone along prefixes" gen_history
    (fun events ->
      let m = Histories.Monitor.create ~init:0 in
      let violated = ref false in
      List.for_all
        (fun ev ->
          match Histories.Monitor.observe m ev with
          | Histories.Monitor.Ok_so_far -> not !violated
          | Histories.Monitor.Violation _ ->
            violated := true;
            true)
        events)

(* The slot-array monitor against the list-based one it replaced, after
   every event: the same verdict, cycle payloads included, and the same
   live node count. *)
let monitor_equals_oracle_stepwise events =
  let m = Histories.Monitor.create ~init:0 in
  let o = Monitor_oracle.create ~init:0 in
  let verdict = function
    | Histories.Monitor.Ok_so_far -> None
    | Histories.Monitor.Violation v -> Some v
  and oracle = function
    | Monitor_oracle.Ok_so_far -> None
    | Monitor_oracle.Violation v -> Some v
  in
  let pp =
    Fmt.(option ~none:(any "ok") (Histories.Fastcheck.pp_violation int))
  in
  List.iteri
    (fun i ev ->
      let got = verdict (Histories.Monitor.observe m ev)
      and want = oracle (Monitor_oracle.observe o ev) in
      let nodes = fst (Histories.Monitor.stats m)
      and want_nodes = fst (Monitor_oracle.stats o) in
      if got <> want || nodes <> want_nodes then
        QCheck2.Test.fail_reportf
          "after event %d: %a with %d nodes, oracle %a with %d nodes, on:@.%a" i
          pp got nodes pp want want_nodes
          (Histories.Event.pp_history Fmt.int)
          events)
    events;
  true

let monitor_equals_oracle =
  qc ~count:2000 "monitor matches the list-based oracle after every event"
    gen_history monitor_equals_oracle_stepwise

let monitor_equals_oracle_long =
  qc ~count:300
    "monitor matches the list-based oracle after every event, longer histories"
    gen_history_long monitor_equals_oracle_stepwise

(* Histories in rounds, the monitor quiescent between them: each round
   a random set of processors runs one op each, invocations and
   responses interleaved at random, and the first round is a write
   alone, which leaves the monitor foldable.  A read mostly returns the
   newest value a completed op wrote or read, sometimes the value of a
   write still in flight (which then counts as read), and with
   probability [wild] / 1000 the value that was newest before (a
   new-old inversion, if a read saw the newer), any value written so
   far, or one never written. *)
let build_quiescent_history ~procs ~rounds ~wild seed =
  let rng = Random.State.make [| seed |] in
  let next_value = ref 1 and pool = ref [ 0 ] and latest = ref 0 in
  let previous = ref 0 in
  let set_latest v =
    if v <> !latest then begin
      previous := !latest;
      latest := v
    end
  in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let events = ref [] in
  for round = 0 to rounds - 1 do
    let active =
      if round = 0 then [ 0 ]
      else
        List.filter
          (fun _ -> Random.State.int rng 3 = 0)
          (List.init procs Fun.id)
    in
    (* per active processor: its op, and whether it was invoked *)
    let ops =
      List.map
        (fun p ->
          let op =
            if p < 2 && (round = 0 || Random.State.bool rng) then begin
              let v = !next_value in
              incr next_value;
              Histories.Event.Write v
            end
            else Histories.Event.Read
          in
          (p, op, ref false))
        active
    in
    let in_flight = ref [] and left = ref ops in
    while !left <> [] do
      let i = Random.State.int rng (List.length !left) in
      let p, op, invoked = List.nth !left i in
      if not !invoked then begin
        invoked := true;
        (match op with
         | Histories.Event.Write v ->
           pool := v :: !pool;
           in_flight := v :: !in_flight
         | Histories.Event.Read -> ());
        events := ev_invoke p op :: !events
      end
      else begin
        left := List.filteri (fun j _ -> j <> i) !left;
        let resp =
          match op with
          | Histories.Event.Write v ->
            in_flight := List.filter (( <> ) v) !in_flight;
            set_latest v;
            None
          | Histories.Event.Read ->
            let k = Random.State.int rng 1000 in
            if k < wild / 2 then Some !previous
            else if k < 3 * wild / 4 then Some (pick !pool)
            else if k < wild then Some 999_999
            else if !in_flight <> [] && k < wild + 200 then begin
              set_latest (pick !in_flight);
              Some !latest
            end
            else Some !latest
        in
        events := ev_respond p resp :: !events
      end
    done
  done;
  List.rev !events

(* The folding monitor after every event: against the list-based
   oracle, the same verdict, cycle payloads included, and the same live
   node count (that oracle keeps an obligation edge per read where the
   monitor keeps one per source, so its edge counts differ); against
   the slot-array monitor that never folds, the same verdict and the
   same (nodes, edges); no edge while folded; and it did fold. *)
let folding_monitor_equals_oracle events =
  let m = Histories.Monitor.create ~init:0 in
  let o = Monitor_oracle.create ~init:0 in
  let u = Monitor_slots_oracle.create ~init:0 in
  let verdict = function
    | Histories.Monitor.Ok_so_far -> None
    | Histories.Monitor.Violation v -> Some v
  and oracle = function
    | Monitor_oracle.Ok_so_far -> None
    | Monitor_oracle.Violation v -> Some v
  and unfolded = function
    | Monitor_slots_oracle.Ok_so_far -> None
    | Monitor_slots_oracle.Violation v -> Some v
  in
  let pp =
    Fmt.(option ~none:(any "ok") (Histories.Fastcheck.pp_violation int))
  in
  let folds = ref 0 in
  List.iteri
    (fun i ev ->
      let got = verdict (Histories.Monitor.observe m ev)
      and want = oracle (Monitor_oracle.observe o ev)
      and want_u = unfolded (Monitor_slots_oracle.observe u ev) in
      let nodes, edges = Histories.Monitor.stats m
      and want_nodes = fst (Monitor_oracle.stats o)
      and want_nodes_u, want_edges_u = Monitor_slots_oracle.stats u in
      let folded = not (Histories.Monitor.resident m) in
      if folded then incr folds;
      if
        got <> want || nodes <> want_nodes || got <> want_u
        || (nodes, edges) <> (want_nodes_u, want_edges_u)
        || (folded && edges <> 0)
      then
        QCheck2.Test.fail_reportf
          "after event %d: %a with (%d, %d)%s; oracle %a with %d nodes; \
           unfolded %a with (%d, %d); on:@.%a"
          i pp got nodes edges
          (if folded then " folded" else "")
          pp want want_nodes pp want_u want_nodes_u want_edges_u
          (Histories.Event.pp_history Fmt.int)
          events)
    events;
  if !folds = 0 then QCheck2.Test.fail_report "the monitor never folded";
  true

let folding_monitor_matches_oracle =
  qc ~count:2000 "folding monitor matches the oracle after every event"
    (Gen.map (build_quiescent_history ~procs:4 ~rounds:12 ~wild:60) Gen.int)
    folding_monitor_equals_oracle

let folding_monitor_matches_oracle_long =
  qc ~count:300
    "folding monitor matches the oracle after every event, longer histories"
    (Gen.map (build_quiescent_history ~procs:6 ~rounds:60 ~wild:6) Gen.int)
    folding_monitor_equals_oracle

let suite =
  [
    fast_equals_brute;
    fast_equals_brute_long;
    monitor_equals_fastcheck;
    monitor_equals_fastcheck_long;
    monitor_equals_oracle;
    monitor_equals_oracle_long;
    monitor_prefix_monotone;
    fast_witness_legal;
    brute_witness_legal;
    every_execution_certifies;
    every_execution_fastchecks;
    certificate_order_respects_intervals;
    crash_injection_certifies;
    atomic_implies_regular_implies_safe;
    regular_cell_always_regular;
    folding_monitor_matches_oracle;
    folding_monitor_matches_oracle_long;
  ]
