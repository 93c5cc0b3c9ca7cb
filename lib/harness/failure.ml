module Vm = Registers.Vm

(* Fault schedules for the message-passing service.  Nodes are plain
   ints ({!Transport.node} values) because harness sits below net in
   the dependency order. *)
type net_fate =
  | Crash of int
  | Crash_amnesia of int
  | Restart of int
  | Reboot of int
  | Partition of int list * int list
  | Heal

let pp_net_fate ppf = function
  | Crash r -> Fmt.pf ppf "crash %d" r
  | Crash_amnesia r -> Fmt.pf ppf "crash-amnesia %d" r
  | Restart r -> Fmt.pf ppf "restart %d" r
  | Reboot r -> Fmt.pf ppf "reboot %d" r
  | Partition (a, b) ->
    Fmt.pf ppf "partition [%a|%a]" Fmt.(list ~sep:comma int) a
      Fmt.(list ~sep:comma int) b
  | Heal -> Fmt.string ppf "heal"

let random_net_fates ~rng ~replicas ~server ~span ?max_crashes () =
  let n = List.length replicas in
  let minority = (n - 1) / 2 in
  let max_crashes =
    match max_crashes with None -> minority | Some m -> min m minority
  in
  let t_in lo hi = lo +. Random.State.float rng (Float.max epsilon_float (hi -. lo)) in
  let fates = ref [] in
  (* crashes: distinct victims, never more than a minority in total, so
     every quorum stays reachable and the run must complete *)
  let victims =
    List.filteri (fun i _ -> i < max_crashes)
      (List.sort
         (fun _ _ -> if Random.State.bool rng then 1 else -1)
         replicas)
  in
  let crashes = if victims = [] then 0 else Random.State.int rng (List.length victims + 1) in
  List.iteri
    (fun i r ->
      if i < crashes then begin
        let tc = t_in 0.0 (span *. 0.8) in
        (* half the crashes are amnesiac — the process really died and
           must restart from stable storage (or from nothing, which a
           durable harness should then catch) *)
        let fate = if Random.State.bool rng then Crash_amnesia r else Crash r in
        fates := (tc, fate) :: !fates;
        if Random.State.bool rng then
          fates := (t_in tc span, Restart r) :: !fates
      end)
    victims;
  (* at most one partition window, always healed before [span] *)
  if n >= 2 && Random.State.bool rng then begin
    let cut =
      List.filter (fun _ -> Random.State.bool rng) replicas
    in
    let cut = if cut = [] || List.length cut = n then [ List.hd replicas ] else cut in
    let rest =
      server :: List.filter (fun r -> not (List.mem r cut)) replicas
    in
    let t0 = t_in 0.0 (span *. 0.7) in
    let t1 = t_in t0 span in
    fates := (t0, Partition (cut, rest)) :: (t1, Heal) :: !fates
  end;
  List.sort (fun (a, _) (b, _) -> Float.compare a b) !fates

type write_fate =
  | Never_happened
  | Took_effect

let fate_of_crashed_write ~victim trace =
  (* Find the victim's last Invoke; if it has no matching Respond, the
     operation is the interrupted one: its fate is decided by whether a
     primitive write by the victim follows the Invoke. *)
  let events = Array.of_list trace in
  let n = Array.length events in
  let last_inv = ref None and responded = ref true in
  Array.iteri
    (fun i ev ->
      match ev with
      | Vm.Sim (Histories.Event.Invoke (p, _)) when p = victim ->
        last_inv := Some i;
        responded := false
      | Vm.Sim (Histories.Event.Respond (p, _)) when p = victim ->
        responded := true
      | Vm.Sim _ | Vm.Prim_read _ | Vm.Prim_write _ -> ())
    events;
  match !last_inv, !responded with
  | None, _ | Some _, true -> None
  | Some inv, false ->
    let wrote = ref false in
    for i = inv + 1 to n - 1 do
      match events.(i) with
      | Vm.Prim_write (p, _, _) when p = victim -> wrote := true
      | Vm.Prim_write _ | Vm.Prim_read _ | Vm.Sim _ -> ()
    done;
    Some (if !wrote then Took_effect else Never_happened)

let crash_writer_everywhere ~seed ~init ~victim ~processes ~build =
  ignore init;
  let victim_accesses =
    (* run once uncrashed to count the victim's accesses *)
    let trace = Registers.Run_coarse.run ~seed (build ()) processes in
    List.fold_left
      (fun n ev ->
        match ev with
        | Vm.Prim_read (p, _, _) | Vm.Prim_write (p, _, _) when p = victim ->
          n + 1
        | Vm.Prim_read _ | Vm.Prim_write _ | Vm.Sim _ -> n)
      0 trace
  in
  List.init (victim_accesses + 1) (fun k ->
      let trace =
        Registers.Run_coarse.run ~crash:[ (victim, k) ] ~seed (build ())
          processes
      in
      let fate =
        match fate_of_crashed_write ~victim trace with
        | Some f -> f
        | None -> Never_happened (* victim finished everything before k *)
      in
      (k, fate, trace))
