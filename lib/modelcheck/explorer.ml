module Vm = Registers.Vm
module M = Registers.Run_coarse

exception Stop

(* Every schedule from the state [prefix] leads to, depth first, each
   processor's step undone before its next sibling's.  The prefix's
   events head every leaf's trace. *)
let explore_from ?crash built processes ~prefix ~on_leaf =
  let m = M.machine ?crash built processes in
  let trace = List.fold_left (fun trace i -> fst (M.step m i) @ trace) [] prefix in
  let leaves = ref 0 in
  let rec go trace_rev =
    let any = ref false in
    for i = 0 to M.size m - 1 do
      if M.runnable m i then begin
        any := true;
        let events, undo = M.step m i in
        (* [events] is newest-first, like [trace_rev] *)
        go (events @ trace_rev);
        M.undo m undo
      end
    done;
    if not !any then begin
      incr leaves;
      on_leaf (List.rev trace_rev)
    end
  in
  (try go trace with Stop -> ());
  !leaves

let explore ?crash built processes ~on_leaf =
  explore_from ?crash built processes ~prefix:[] ~on_leaf

let interleavings ks =
  let result = ref 1 and n = ref 0 in
  List.iter
    (fun k ->
      if k < 0 then invalid_arg "Explorer.interleavings: negative";
      for j = 1 to k do
        incr n;
        let r = !result * !n in
        if !n <> 0 && r / !n <> !result then
          invalid_arg "Explorer.interleavings: overflow";
        result := r / j
      done)
    ks;
  !result

type 'v violation = {
  trace_events : 'v Histories.Event.t list;
  executions_checked : int;
}

let values_unique ~init processes =
  let vals = ref [] in
  let ok = ref true in
  List.iter
    (fun (p : 'v Vm.process) ->
      List.iter
        (function
          | Histories.Event.Write v ->
            if v = init || List.mem v !vals then ok := false
            else vals := v :: !vals
          | Histories.Event.Read -> ())
        p.Vm.script)
    processes;
  !ok

let leaf_atomic ~init ~unique trace =
  let history = Vm.history_of_trace trace in
  match Histories.Operation.of_events history with
  | Error _ -> true (* non-input-correct: vacuously legitimate *)
  | Ok ops ->
    if unique then Histories.Fastcheck.is_atomic ~init ops
    else Histories.Linearize.is_atomic ~init ops

let find_violation ?crash ~init built processes =
  let unique = values_unique ~init processes in
  let found = ref None in
  let checked = ref 0 in
  let on_leaf trace =
    incr checked;
    if not (leaf_atomic ~init ~unique trace) then begin
      found :=
        Some
          {
            trace_events = Vm.history_of_trace trace;
            executions_checked = !checked;
          };
      raise Stop
    end
  in
  ignore (explore ?crash built processes ~on_leaf);
  !found

let count_atomic ~init built processes =
  let unique = values_unique ~init processes in
  let good = ref 0 in
  let total =
    explore built processes ~on_leaf:(fun trace ->
        if leaf_atomic ~init ~unique trace then incr good)
  in
  (!good, total)

(* ------------------------------------------------------------------ *)
(* Parallel exploration                                                 *)

(* The realizable schedules (sequences of processor indices) of length
   [depth], in the order a depth-first walk reaches them; executions
   that finish earlier are handed to [on_short] with their trace. *)
let prefixes built processes ~depth ~on_short =
  let m = M.machine built processes in
  let rec alive i = i < M.size m && (M.runnable m i || alive (i + 1)) in
  let acc = ref [] in
  let rec walk prefix trace d =
    if d = 0 then acc := List.rev prefix :: !acc
    else
      for i = 0 to M.size m - 1 do
        if M.runnable m i then begin
          let events, undo = M.step m i in
          let trace = events @ trace in
          if alive 0 then walk (i :: prefix) trace (d - 1)
          else on_short (List.rev trace);
          M.undo m undo
        end
      done
  in
  walk [] [] depth;
  !acc

let default_domains () = max 1 (Domain.recommended_domain_count () - 1)

let run_parallel ?domains ~init built processes ~keep_searching =
  let n_domains = match domains with Some d -> max 1 d | None -> default_domains () in
  let unique = values_unique ~init processes in
  let short_results = ref [] in
  let tasks =
    prefixes built processes ~depth:3 ~on_short:(fun trace ->
        short_results := trace :: !short_results)
  in
  let checked = Atomic.make 0 in
  let found : (int Atomic.t * Mutex.t) = (Atomic.make 0, Mutex.create ()) in
  let stop_flag, found_mutex = found in
  let first_violation = ref None in
  let good = Atomic.make 0 in
  let check trace =
    ignore (Atomic.fetch_and_add checked 1);
    if leaf_atomic ~init ~unique trace then ignore (Atomic.fetch_and_add good 1)
    else begin
      Mutex.lock found_mutex;
      if !first_violation = None then
        first_violation :=
          Some
            {
              trace_events = Vm.history_of_trace trace;
              executions_checked = Atomic.get checked;
            };
      Mutex.unlock found_mutex;
      Atomic.set stop_flag 1;
      if not keep_searching then raise Stop
    end
  in
  (* short executions (finished within the split depth) *)
  List.iter (fun t -> try check t with Stop -> ()) !short_results;
  let task_queue = Atomic.make 0 in
  let tasks_arr = Array.of_list tasks in
  let worker () =
    let continue = ref true in
    while !continue do
      if (not keep_searching) && Atomic.get stop_flag = 1 then continue := false
      else begin
        let idx = Atomic.fetch_and_add task_queue 1 in
        if idx >= Array.length tasks_arr then continue := false
        else
          ignore
            (explore_from built processes ~prefix:tasks_arr.(idx)
               ~on_leaf:check)
      end
    done
  in
  let ds = List.init n_domains (fun _ -> Domain.spawn worker) in
  List.iter Domain.join ds;
  (Atomic.get good, Atomic.get checked, !first_violation)

let count_atomic_parallel ?domains ~init built processes =
  let good, total, _ =
    run_parallel ?domains ~init built processes ~keep_searching:true
  in
  (good, total)

let find_violation_parallel ?domains ~init built processes =
  let _, _, v =
    run_parallel ?domains ~init built processes ~keep_searching:false
  in
  v
