exception Not_atomic_cells

(* A processor's state.  Immutable, so an undo restores it by value. *)
type ('c, 'v) pstate = {
  proc : Histories.Event.proc;
  script : 'v Histories.Event.op list;
  cur : ('c, 'v option) Vm.prog option;  (* never [Some (Ret _)] *)
  prims : int;  (* primitive accesses performed so far *)
  crashed : bool;
}

type ('c, 'v) machine = {
  built : ('c, 'v) Vm.built;
  cells : 'c array;
  procs : ('c, 'v) pstate array;
  limits : int array;  (* crash after this many accesses; [max_int]: never *)
}

type ('c, 'v) undo =
  | Unstep of int * ('c, 'v) pstate
  | Unwrite of int * ('c, 'v) pstate * int * 'c

let machine ?(crash = []) (built : ('c, 'v) Vm.built) processes =
  Array.iter
    (fun (s : 'c Vm.cell_spec) ->
      match s.Vm.sem with
      | Vm.Atomic -> ()
      | Vm.Safe | Vm.Regular -> raise Not_atomic_cells)
    built.Vm.spec;
  let limit p =
    List.fold_left (fun acc (q, k) -> if q = p then k else acc) max_int crash
  in
  let procs = Array.of_list processes in
  {
    built;
    cells = Array.map (fun (s : 'c Vm.cell_spec) -> s.Vm.init) built.Vm.spec;
    procs =
      Array.map
        (fun (p : 'v Vm.process) ->
          let proc = p.Vm.proc in
          { proc; script = p.Vm.script; cur = None; prims = 0;
            crashed = limit proc = 0 })
        procs;
    limits = Array.map (fun (p : 'v Vm.process) -> limit p.Vm.proc) procs;
  }

let size m = Array.length m.procs

let runnable m i =
  match m.procs.(i) with
  | { crashed = true; _ } | { cur = None; script = []; _ } -> false
  | _ -> true

(* One glued step of processor [i]: start its next operation if idle
   (Invoke), perform one primitive access, acknowledge (Respond) if that
   completed the operation. *)
let step m i =
  let st = m.procs.(i) in
  let prog, pre, script =
    match st with
    | { crashed = false; cur = Some p; script; _ } -> (p, [], script)
    | { crashed = false; cur = None; script = op :: script; _ } ->
      ( Vm.op_prog m.built ~proc:st.proc op,
        [ Vm.Sim (Histories.Event.Invoke (st.proc, op)) ],
        script )
    | _ ->
      invalid_arg (Fmt.str "Run_coarse: processor %d cannot take a step" st.proc)
  in
  let respond r events = Vm.Sim (Histories.Event.Respond (st.proc, r)) :: events in
  let finish events next =
    let prims = st.prims + 1 in
    if prims >= m.limits.(i) then begin
      m.procs.(i) <- { st with script; cur = None; prims; crashed = true };
      events
    end
    else
      match next with
      | Vm.Ret r ->
        m.procs.(i) <- { st with script; cur = None; prims };
        respond r events
      | (Vm.Read _ | Vm.Write _) as p ->
        m.procs.(i) <- { st with script; cur = Some p; prims };
        events
  in
  match prog with
  | Vm.Ret r ->
    (* an operation with no primitive accesses *)
    m.procs.(i) <- { st with script; cur = None };
    (respond r pre, Unstep (i, st))
  | Vm.Read (c, k) ->
    let v = m.cells.(c) in
    (finish (Vm.Prim_read (st.proc, c, v) :: pre) (k v), Unstep (i, st))
  | Vm.Write (c, v, k) ->
    let old = m.cells.(c) in
    m.cells.(c) <- v;
    (finish (Vm.Prim_write (st.proc, c, v) :: pre) (k ()), Unwrite (i, st, c, old))

let undo m = function
  | Unstep (i, st) -> m.procs.(i) <- st
  | Unwrite (i, st, c, old) ->
    m.procs.(i) <- st;
    m.cells.(c) <- old

let run ?crash ?(max_steps = max_int) ~seed built processes =
  let m = machine ?crash built processes in
  let rng = Random.State.make [| seed |] in
  let rec loop n trace =
    match List.filter (runnable m) (List.init (size m) Fun.id) with
    | live when n < max_steps && live <> [] ->
      let i = List.nth live (Random.State.int rng (List.length live)) in
      loop (n + 1) (fst (step m i) @ trace)
    | _ -> trace
  in
  List.rev (loop 0 [])

let run_scheduled ~schedule built processes =
  let m = machine built processes in
  let index p =
    match Array.find_index (fun st -> st.proc = p) m.procs with
    | Some i -> i
    | None -> invalid_arg (Fmt.str "Run_coarse: unknown or finished processor %d" p)
  in
  List.rev
    (List.fold_left (fun trace p -> fst (step m (index p)) @ trace) [] schedule)

let cells_after (built : ('c, 'v) Vm.built) trace =
  let cells = Array.map (fun (s : 'c Vm.cell_spec) -> s.Vm.init) built.Vm.spec in
  List.iter
    (function
      | Vm.Prim_write (_, c, v) -> cells.(c) <- v
      | Vm.Prim_read _ | Vm.Sim _ -> ())
    trace;
  cells
