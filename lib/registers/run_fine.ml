type 'c pending_read = {
  r_cell : int;
  mutable candidates : 'c list;  (** values a regular read may return *)
  mutable overlapped : bool;
}

type 'c cell = {
  spec : 'c Vm.cell_spec;
  mutable committed : 'c;
  mutable inflight : 'c list;  (** values of writes begun, not committed *)
  mutable watchers : 'c pending_read list;
}

(* What a processor is about to do / in the middle of doing. *)
type ('c, 'v) phase =
  | Ready of ('c, 'v option) Vm.prog
  | Mid_read of 'c pending_read * ('c -> ('c, 'v option) Vm.prog)
  | Mid_write of int * 'c * (unit -> ('c, 'v option) Vm.prog)

type ('c, 'v) proc_state = {
  proc : Histories.Event.proc;
  mutable script : 'v Histories.Event.op list;
  mutable phase : ('c, 'v) phase option;
}

let exec ?(max_steps = max_int) ~pick ~choose (built : ('c, 'v) Vm.built)
    processes =
  let cells =
    Array.map
      (fun (s : 'c Vm.cell_spec) ->
        { spec = s; committed = s.Vm.init; inflight = []; watchers = [] })
      built.Vm.spec
  in
  let states =
    List.map
      (fun (p : 'v Vm.process) ->
        { proc = p.Vm.proc; script = p.Vm.script; phase = None })
      processes
  in
  let trace = ref [] in
  let emit e = trace := e :: !trace in
  let runnable st = st.phase <> None || st.script <> [] in
  (* After finishing a primitive access, either park at the next one or
     acknowledge the simulated operation. *)
  let settle st prog =
    match prog with
    | Vm.Ret r ->
      st.phase <- None;
      emit (Vm.Sim (Histories.Event.Respond (st.proc, r)))
    | (Vm.Read _ | Vm.Write _) as p -> st.phase <- Some (Ready p)
  in
  let begin_read st c k =
    let cell = cells.(c) in
    let pr =
      {
        r_cell = c;
        candidates = cell.committed :: cell.inflight;
        overlapped = cell.inflight <> [];
      }
    in
    cell.watchers <- pr :: cell.watchers;
    st.phase <- Some (Mid_read (pr, k))
  in
  let end_read st pr k =
    let cell = cells.(pr.r_cell) in
    cell.watchers <- List.filter (fun w -> w != pr) cell.watchers;
    let v =
      match cell.spec.Vm.sem with
      | Vm.Atomic -> cell.committed
      | Vm.Regular ->
        if pr.overlapped then choose pr.candidates else cell.committed
      | Vm.Safe ->
        if not pr.overlapped then cell.committed
        else if cell.spec.Vm.domain = [] then choose pr.candidates
        else choose cell.spec.Vm.domain
    in
    emit (Vm.Prim_read (st.proc, pr.r_cell, v));
    settle st (k v)
  in
  let begin_write st c v k =
    let cell = cells.(c) in
    cell.inflight <- v :: cell.inflight;
    List.iter
      (fun w ->
        w.candidates <- v :: w.candidates;
        w.overlapped <- true)
      cell.watchers;
    st.phase <- Some (Mid_write (c, v, k))
  in
  let end_write st c v k =
    let cell = cells.(c) in
    cell.committed <- v;
    cell.inflight <-
      (* remove one occurrence of [v] *)
      (let rec drop = function
         | [] -> []
         | x :: rest -> if x = v then rest else x :: drop rest
       in
       drop cell.inflight);
    emit (Vm.Prim_write (st.proc, c, v));
    settle st (k ())
  in
  let step st =
    let phase =
      match st.phase with
      | Some ph -> ph
      | None ->
        (match st.script with
         | [] -> assert false
         | op :: rest ->
           st.script <- rest;
           emit (Vm.Sim (Histories.Event.Invoke (st.proc, op)));
           Ready (Vm.op_prog built ~proc:st.proc op))
    in
    match phase with
    | Ready (Vm.Ret r) ->
      st.phase <- None;
      emit (Vm.Sim (Histories.Event.Respond (st.proc, r)))
    | Ready (Vm.Read (c, k)) -> begin_read st c k
    | Ready (Vm.Write (c, v, k)) -> begin_write st c v k
    | Mid_read (pr, k) -> end_read st pr k
    | Mid_write (c, v, k) -> end_write st c v k
  in
  let rec loop n =
    if n < max_steps then
      match pick (List.filter runnable states) with
      | None -> ()
      | Some st ->
        if runnable st then begin
          step st;
          loop (n + 1)
        end
        else
          invalid_arg
            (Fmt.str "Run_fine: processor %d cannot take a step" st.proc)
  in
  loop 0;
  List.rev !trace

let run ?max_steps ~seed built processes =
  let rng = Random.State.make [| seed |] in
  let choose = function
    | [] -> invalid_arg "Run_fine: empty choice"
    | [ v ] -> v
    | vs -> List.nth vs (Random.State.int rng (List.length vs))
  in
  let pick = function
    | [] -> None
    | live -> Some (List.nth live (Random.State.int rng (List.length live)))
  in
  exec ?max_steps ~pick ~choose built processes

let run_scheduled ~schedule ~choices built processes =
  let remaining_sched = ref schedule in
  let remaining_choices = ref choices in
  let by_proc = Hashtbl.create 8 in
  let pick live =
    List.iter (fun st -> Hashtbl.replace by_proc st.proc st) live;
    match !remaining_sched with
    | [] -> None
    | p :: rest ->
      remaining_sched := rest;
      (match Hashtbl.find_opt by_proc p with
       | Some st -> Some st
       | None -> invalid_arg (Fmt.str "Run_fine: unknown processor %d" p))
  in
  let choose candidates =
    match !remaining_choices with
    | [] -> invalid_arg "Run_fine: out of adversary choices"
    | c :: rest ->
      remaining_choices := rest;
      if not (List.mem c candidates) then
        invalid_arg "Run_fine: choice is not a legal candidate";
      c
  in
  exec ~pick ~choose built processes
