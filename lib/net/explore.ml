module E = Histories.Event
module Sched = Modelcheck.Schedule
module F = Harness.Failure

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)

type config = {
  spec : Sim_run.spec;
  workload : Sim_run.xprocess list;
  reconfig : (int * int) option;
  crashable : int list;
  max_crashes : int;
  amnesia : int list;
  max_amnesia : int;
  cuts : (int list * int list) list;
  max_partitions : int;
  max_depth : int;
  max_schedules : int;
  prune : bool;
  fastcheck : bool;
}

let migration (key, to_shard) = { Sim_run.key; to_shard; at = None }

(* Fail fast, at configuration time, on requests no run could honour:
   a deep [invalid_arg] out of [reset] would only surface once the
   explorer starts (or worse, from inside every walk).  A budget with
   no set to spend it on is zeroed. *)
let validated cfg =
  Sim_run.validate ?reconfig:(Option.map migration cfg.reconfig) cfg.spec;
  (match cfg.reconfig with
   | Some (key, to_shard) ->
     if key < 0 then invalid_arg "Explore.config: negative reconfig key";
     if to_shard < 0 || to_shard >= cfg.spec.shards then
       invalid_arg "Explore.config: reconfig target shard out of range"
   | None -> ());
  (* an artifact records only [durable=], so a store it cannot name
     would not replay *)
  if not (List.mem cfg.spec.store [ None; Some Sim_run.default_store ]) then
    invalid_arg "Explore.config: a store must be Sim_run.default_store";
  if cfg.spec.engine = Engine.Twobit && cfg.amnesia <> [] && cfg.max_amnesia > 0
  then
    invalid_arg
      "Explore.config: the twobit engine is crash-stop only — its link \
       sequence state is volatile, so an amnesia reboot deadlocks the \
       links; use crashable instead";
  let invalid_keys = function
    | Sim_run.Single _ -> false
    | Sim_run.Keyed (k, _) -> k < 0
    | Sim_run.Txn_w ws -> not (Txn.valid_keys (List.map fst ws))
    | Sim_run.Snap ks -> not (Txn.valid_keys ks)
  in
  if
    List.exists
      (fun xp -> List.exists invalid_keys xp.Sim_run.xscript)
      cfg.workload
  then invalid_arg "Explore.config: a workload op names invalid keys";
  {
    cfg with
    max_crashes = (if cfg.crashable = [] then 0 else cfg.max_crashes);
    max_amnesia = (if cfg.amnesia = [] then 0 else cfg.max_amnesia);
    max_partitions = (if cfg.cuts = [] then 0 else cfg.max_partitions);
  }

let config ?(spec = Sim_run.default) ?reconfig ?(crashable = [])
    ?(max_crashes = 0) ?(amnesia = []) ?(max_amnesia = 0) ?(cuts = [])
    ?(max_partitions = 0) ?(max_depth = 2_000) ?(max_schedules = max_int)
    ?(prune = true) ?(fastcheck = false) ~workload () =
  validated
    { spec; workload; reconfig; crashable; max_crashes; amnesia; max_amnesia;
      cuts; max_partitions; max_depth; max_schedules; prune; fastcheck }

(* ------------------------------------------------------------------ *)
(* The system presented to the generic explorer                        *)

(* Every explored run may fire at most this many timers (see [pump]). *)
let max_timer_fires = 64

type action =
  | Fire of int  (* index into the Sim_net.pending snapshot *)
  | Fate of F.net_fate

type st = {
  cfg : config;
  cl : Sim_run.cluster;
  one_server : bool;  (* every server event takes the server's node *)
  mutable crashes_left : int;
  mutable amnesia_left : int;
  mutable cuts_left : int;
  mutable cut_active : bool;
  mutable timer_budget : int;
  mutable actions : action array;  (* choice table of the last [enabled] *)
}

let reset ?trace cfg =
  let cl =
    Sim_run.create ~faults:Sim_net.reliable
      ?reconfig:(Option.map migration cfg.reconfig)
      ?trace cfg.spec ~seed:0 ~workload:cfg.workload
  in
  let multi_key = function
    | Sim_run.Txn_w _ | Sim_run.Snap _ -> true
    | Sim_run.Single _ | Sim_run.Keyed _ -> false
  in
  {
    cfg;
    cl;
    one_server =
      cfg.spec.domains = 1
      || List.exists
           (fun xp -> List.exists multi_key xp.Sim_run.xscript)
           cfg.workload;
    crashes_left = cfg.max_crashes;
    amnesia_left = cfg.max_amnesia;
    cuts_left = cfg.max_partitions;
    cut_active = false;
    timer_budget = max_timer_fires;
    actions = [||];
  }

(* Timers are not branch points: the adversary's power is the delivery
   order, so timers fire deterministically (earliest first) and only
   when no delivery is pending — "a timeout happens only when the
   system is stalled".  [max_timer_fires] bounds retransmission loops
   (a partitioned server would otherwise re-arm forever); when the
   budget runs out a stalled state becomes a leaf, which still owes
   its ops to the completion tail ([finish]).  Deliveries to crashed
   nodes (crashes are permanent within an exploration — restart is a
   torture-mode fate) and dead nodes' timers are no-ops, so they are
   drained off the queue without branching. *)
let rec pump st =
  let net = st.cl.Sim_run.net in
  let pend = Sim_net.pending net in
  let noop p =
    Sim_net.(not (alive net p.dst)) && (not p.timer || p.src >= 0)
  in
  match List.find_opt noop pend with
  | Some p ->
    ignore (Sim_net.fire net p.Sim_net.idx);
    pump st
  | None ->
    let deliveries = List.filter (fun p -> not p.Sim_net.timer) pend in
    if deliveries <> [] then deliveries
    else begin
      match List.find_opt (fun p -> p.Sim_net.timer) pend with
      | Some p when st.timer_budget > 0 ->
        st.timer_budget <- st.timer_budget - 1;
        ignore (Sim_net.fire net p.Sim_net.idx);
        pump st
      | _ -> []
    end

(* The sleep-set node of a pending delivery or worker turn.  A pool
   worker's turn touches its own queue and core alone, and so does a
   server delivery whose frame the pool queues to that worker alone:
   both take the worker's node, so two workers' events commute, as two
   replicas' do.  A frame for several workers touches several queues:
   node -1.  With one worker, or with multi-key ops in the workload
   (a turn then posts to other workers' queues and shares the
   coordinator's table), every server event takes the server's node
   instead. *)
let node st (p : Sim_net.pending_ev) =
  match p.msg with
  | Some m when p.dst = Transport.server && not st.one_server ->
    (match Server_pool.worker_of_frame st.cl.Sim_run.pool m with
     | Some w -> Sim_run.worker_node w
     | None -> -1)
  | None when st.one_server -> Transport.server
  | _ -> p.dst

(* Fates are conservatively dependent on everything (node -1): a crash
   or cut changes which sends get through globally, so we never prune
   across them. *)
let enabled st =
  let deliveries = pump st in
  let acts = ref [] and keys = ref [] in
  let push a k =
    acts := a :: !acts;
    keys := k :: !keys
  in
  let fate f tag = push (Fate f) { Sched.node = -1; tag } in
  let alive r = Sim_net.alive st.cl.Sim_run.net r in
  List.iter
    (fun p ->
      (* seq is a stable, replay-deterministic identity for the message
         — cheap, and exactly as precise as the payload for sleep-set
         membership *)
      push (Fire p.Sim_net.idx)
        { Sched.node = node st p; tag = string_of_int p.Sim_net.seq })
    deliveries;
  if deliveries <> [] then begin
    if st.crashes_left > 0 then
      List.iter
        (fun r -> if alive r then fate (F.Crash r) (Fmt.str "crash%d" r))
        st.cfg.crashable;
    (* a reboot is atomic (amnesia-crash + restart-with-recovery), so
       the node is alive again before the next choice: runs stay
       complete, and the branch point is purely "does the replica
       forget here" — harmless when durable, a bug source when not *)
    if st.amnesia_left > 0 then
      List.iter
        (fun r -> if alive r then fate (F.Reboot r) (Fmt.str "amnesia%d" r))
        st.cfg.amnesia;
    if (not st.cut_active) && st.cuts_left > 0 then
      List.iteri
        (fun i (a, b) -> fate (F.Partition (a, b)) (Fmt.str "cut%d" i))
        st.cfg.cuts
  end;
  (* a heal is offered even when stalled — it is the only way a
     partitioned run resumes *)
  if st.cut_active then fate F.Heal "heal";
  st.actions <- Array.of_list (List.rev !acts);
  List.rev !keys

(* A fate spends its budget; [Sim_run.apply_fate] plays it. *)
let apply st i =
  match st.actions.(i) with
  | Fire idx -> ignore (Sim_net.fire st.cl.Sim_run.net idx)
  | Fate f ->
    (match f with
     | F.Crash _ -> st.crashes_left <- st.crashes_left - 1
     | F.Reboot _ -> st.amnesia_left <- st.amnesia_left - 1
     | F.Partition _ ->
       st.cuts_left <- st.cuts_left - 1;
       st.cut_active <- true
     | F.Heal -> st.cut_active <- false
     | F.Crash_amnesia _ | F.Restart _ -> ());
    Sim_run.apply_fate st.cl f

let system ?trace cfg =
  { Sched.reset = (fun () -> reset ?trace cfg); enabled; apply }

(* ------------------------------------------------------------------ *)
(* Leaves                                                              *)

(* The completion tail's event bound (DESIGN_NET § 8): each op, and a
   migration, × 6 quorum phases × [replicas + 1] rounds × a round's
   timer fire and, per replica, message, reply and worker turn. *)
let tail_steps st =
  let r = st.cfg.spec.replicas in
  let ops = st.cl.Sim_run.expected + if st.cfg.reconfig = None then 0 else 1 in
  ops * 6 * (r + 1) * ((3 * r) + 1)

(* Every explored run ends as every simulated run does, through
   {!Sim_run.finish}.  Only a [max_depth] cut can leave a cut active,
   and a heal is then all the explorer would offer, so it plays first. *)
let finish st =
  if st.cut_active then Sim_run.apply_fate st.cl F.Heal;
  Sim_run.finish ~max_steps:(tail_steps st) st.cl

let verdict st =
  ignore (finish st);
  Sim_run.verdict ~fastcheck:st.cfg.fastcheck st.cl

(* Walk on from [depth], taking [choose n] of the [n] enabled choices,
   until none is enabled or [max_depth]: the choices, last first, and
   the depth reached. *)
let rec walk st ~choose taken depth =
  match if depth < st.cfg.max_depth then enabled st else [] with
  | [] -> (taken, depth)
  | keys ->
    let i = choose (List.length keys) in
    apply st i;
    walk st ~choose (i :: taken) (depth + 1)

(* ------------------------------------------------------------------ *)
(* Exploration                                                         *)

type counterexample = { schedule : int list; verdict : Sim_run.verdict }

type result = { stats : Sched.stats; counterexample : counterexample option }

let explore cfg =
  let found = ref None in
  let stats =
    Sched.explore ~max_schedules:cfg.max_schedules ~max_depth:cfg.max_depth
      ~prune:cfg.prune (system cfg)
      ~on_leaf:(fun st schedule ->
        match verdict st with
        | Sim_run.Clean -> `Continue
        | verdict ->
          found := Some { schedule; verdict };
          `Stop)
  in
  { stats; counterexample = !found }

(* Seeded random schedule walks: the complement of the exhaustive DFS.
   Depth-first backtracking varies the end of the schedule first, so a
   bug that needs an early event held back (a store starved past a
   later query) sits exponentially far from the first leaf; a uniform
   random walk reorders everywhere at once and stumbles on such races
   within a few hundred walks.  Every walk is replayable: its recorded
   choice indices are exact. *)
let hunt ?(walks = 2_000) ~seed cfg =
  let found = ref None in
  let transitions = ref 0 in
  let deepest = ref 0 in
  let walks_done = ref 0 in
  (try
     for w = 0 to walks - 1 do
       incr walks_done;
       let rng = Random.State.make [| seed; w; 0x68756e74 |] in
       let st = reset cfg in
       let taken, depth = walk st ~choose:(Random.State.int rng) [] 0 in
       transitions := !transitions + depth;
       if depth > !deepest then deepest := depth;
       match verdict st with
       | Sim_run.Clean -> ()
       | verdict ->
         found := Some { schedule = List.rev taken; verdict };
         raise Exit
     done
   with Exit -> ());
  {
    stats =
      {
        Sched.schedules = !walks_done;
        transitions = !transitions;
        pruned = 0;
        max_depth_seen = !deepest;
        exhausted = false;
      };
    counterexample = !found;
  }

(* Loose replay: out-of-range indices are skipped, so any int list is a
   valid (deterministic) schedule — that totality is what lets ddmin
   chop schedules freely.  After the explicit prefix the run walks on
   with the default choice (earliest event) and ends as a leaf does. *)
let replay ?trace cfg schedule =
  let st = reset ?trace cfg in
  let depth = ref 0 in
  List.iter
    (fun i ->
      let n = List.length (enabled st) in
      if i >= 0 && i < n then begin
        apply st i;
        incr depth
      end)
    schedule;
  let _, depth = walk st ~choose:(fun _ -> 0) [] !depth in
  let tail = finish st in
  Sim_run.collect ~fastcheck:cfg.fastcheck st.cl ~steps:(depth + tail)

let failing cfg schedule =
  (replay cfg schedule).Sim_run.verdict <> Sim_run.Clean

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)

(* Walk budget for each re-finding attempted while shrinking the
   workload: enough to re-find a violation the hunt found quickly,
   cheap enough to try many candidate workloads. *)
let shrink_walks = 400

let drop_nth xs n = List.filteri (fun i _ -> i <> n) xs

(* Candidate workloads: drop one op from one process (whole processes
   disappear when their script empties). *)
let smaller_workloads workload =
  List.concat
    (List.mapi
       (fun pi (p : Sim_run.xprocess) ->
         List.mapi
           (fun oi _ ->
             let xscript = drop_nth p.Sim_run.xscript oi in
             if xscript = [] then List.filteri (fun i _ -> i <> pi) workload
             else
               List.mapi
                 (fun i q -> if i = pi then { q with Sim_run.xscript } else q)
                 workload)
           p.Sim_run.xscript)
       workload)

let shrink cfg ce =
  let minimize cfg schedule =
    Sched.ddmin
      ~test:(failing cfg)
      schedule
  in
  (* Re-find a violation on a reduced workload: the old schedule often
     still triggers it under loose replay (cheap, try first); otherwise
     a bounded hunt. *)
  let refind cfg schedule =
    if failing cfg schedule then Some schedule
    else
      match (hunt ~walks:shrink_walks ~seed:0 cfg).counterexample with
      | Some ce -> Some ce.schedule
      | None -> None
  in
  let rec fix cfg schedule =
    let candidates =
      List.filter_map
        (fun workload ->
          if workload = [] then None else Some { cfg with workload })
        (smaller_workloads cfg.workload)
    in
    let smaller =
      List.find_map
        (fun cfg' ->
          match refind cfg' schedule with
          | Some schedule' -> Some (cfg', schedule')
          | None -> None)
        candidates
    in
    match smaller with
    | Some (cfg', schedule') -> fix cfg' schedule'
    | None -> (cfg, schedule)
  in
  let schedule = minimize cfg ce.schedule in
  let cfg', schedule = fix cfg schedule in
  let schedule = minimize cfg' schedule in
  (* fix/minimize only accept failing candidates *)
  (cfg', { schedule; verdict = (replay cfg' schedule).Sim_run.verdict })

(* ------------------------------------------------------------------ *)
(* Counterexample artifacts                                            *)

(* A counterexample dumps as Trace JSONL: note lines carrying the
   config, the workload scripts and the schedule, then the full traced
   replay (sends, deliveries, invokes, responds), then the verdict.
   The note grammar keeps to [a-z0-9 ,|=_-] so the JSONL needs no
   escaping games on the way back in. *)

(* Workload scripts keep to an escape-free token grammar: [r] / [wV]
   for singles, [kKr] / [kKwV] for explicitly keyed ops, [tK=V,K=V] for
   transactions, [sK,K] for snapshots. *)
let xscript_tokens xscript =
  String.concat " "
    (List.map
       (function
         | Sim_run.Single E.Read -> "r"
         | Sim_run.Single (E.Write v) -> Fmt.str "w%d" v
         | Sim_run.Keyed (k, E.Read) -> Fmt.str "k%dr" k
         | Sim_run.Keyed (k, E.Write v) -> Fmt.str "k%dw%d" k v
         | Sim_run.Txn_w ws ->
           "t"
           ^ String.concat ","
               (List.map (fun (k, v) -> Fmt.str "%d=%d" k v) ws)
         | Sim_run.Snap ks ->
           "s" ^ String.concat "," (List.map string_of_int ks))
       xscript)

(* The config note's fields, in note order: how each prints from a
   config, and how its value parses back into one.  Flags print as 0/1
   and [None] as 0 (-1 for the absent migration); a field missing from
   an older artifact keeps {!config}'s default.  A field in [sparse]
   prints only when it is not 0, so an artifact that does not use it
   reads as it did before the field existed. *)
let note_fields =
  let flag b = if b then 1 else 0 and opt v = if v = 0 then None else Some v in
  let field name get set = (name, (get, set)) in
  let spec name get set =
    field name (fun c -> get c.spec) (fun c v -> { c with spec = set c.spec v })
  in
  let hook name get set =
    spec name
      (fun s -> flag (get s.Sim_run.bug))
      (fun s v -> { s with bug = set s.bug (v = 1) })
  in
  let engine v =
    match Engine.kind_of_code v with
    | Some k -> k
    | None -> failwith "explore: unknown engine code"
  in
  let reconfig_key c = match c.reconfig with Some (k, _) -> k | None -> -1 in
  let reconfig_to c = match c.reconfig with Some (_, s) -> s | None -> -1 in
  [
    spec "replicas" (fun s -> s.replicas) (fun s replicas ->
        { s with replicas });
    spec "keys" (fun s -> s.keys) (fun s keys -> { s with keys });
    spec "shards" (fun s -> s.shards) (fun s shards -> { s with shards });
    spec "group_size"
      (fun s -> Option.value ~default:0 s.group_size)
      (fun s v -> { s with group_size = opt v });
    spec "window" (fun s -> s.window) (fun s window -> { s with window });
    spec "engine"
      (fun s -> Engine.kind_code s.engine)
      (fun s v -> { s with engine = engine v });
    spec "read_quorum"
      (fun s -> Option.value ~default:0 s.bug.read_quorum)
      (fun s v -> { s with bug = { s.bug with read_quorum = opt v } });
    hook "unordered" (fun b -> b.unordered) (fun b unordered ->
        { b with unordered });
    hook "torn_txn" (fun b -> b.torn_txn) (fun b torn_txn ->
        { b with torn_txn });
    field "reconfig_key" reconfig_key (fun c v ->
        { c with reconfig = (if v < 0 then None else Some (v, 0)) });
    field "reconfig_to" reconfig_to (fun c v ->
        { c with reconfig = Option.map (fun (k, _) -> (k, v)) c.reconfig });
    hook "skip_dual_write"
      (fun b -> b.skip_dual_write)
      (fun b skip_dual_write -> { b with skip_dual_write });
    hook "skip_write_back"
      (fun b -> b.skip_write_back)
      (fun b skip_write_back -> { b with skip_write_back });
    hook "stale_copy" (fun b -> b.stale_copy) (fun b stale_copy ->
        { b with stale_copy });
    field "max_crashes" (fun c -> c.max_crashes) (fun c max_crashes ->
        { c with max_crashes });
    field "max_amnesia" (fun c -> c.max_amnesia) (fun c max_amnesia ->
        { c with max_amnesia });
    spec "durable"
      (fun s -> flag (s.store <> None))
      (fun s v ->
        let store = if v = 1 then Some Sim_run.default_store else None in
        { s with store });
    field "max_partitions" (fun c -> c.max_partitions) (fun c max_partitions ->
        { c with max_partitions });
    field "max_depth" (fun c -> c.max_depth) (fun c max_depth ->
        { c with max_depth });
    field "prune" (fun c -> flag c.prune) (fun c v -> { c with prune = v = 1 });
    field "fastcheck" (fun c -> flag c.fastcheck) (fun c v ->
        { c with fastcheck = v = 1 });
    hook "no_widen" (fun b -> b.no_widen) (fun b no_widen ->
        { b with no_widen });
  ]

let sparse = [ "no_widen" ]

let config_note cfg =
  String.concat " "
    ("config"
    :: List.filter_map
         (fun (name, (get, _)) ->
           let v = get cfg in
           if v = 0 && List.mem name sparse then None
           else Some (Fmt.str "%s=%d" name v))
         note_fields)

let group_note (a, b) =
  Fmt.str "%s|%s"
    (String.concat "," (List.map string_of_int a))
    (String.concat "," (List.map string_of_int b))

let save ~file ~schedule cfg =
  let tr = Trace.create () in
  let note s = Trace.record tr ~time:0.0 (Trace.Note s) in
  note "explore-counterexample v1";
  note (config_note cfg);
  if cfg.crashable <> [] then
    note
      (Fmt.str "crashable %s"
         (String.concat "," (List.map string_of_int cfg.crashable)));
  if cfg.amnesia <> [] then
    note
      (Fmt.str "amnesia %s"
         (String.concat "," (List.map string_of_int cfg.amnesia)));
  if cfg.spec.domains <> 1 then note (Fmt.str "domains %d" cfg.spec.domains);
  List.iter (fun cut -> note (Fmt.str "cut %s" (group_note cut))) cfg.cuts;
  List.iter
    (fun (p : Sim_run.xprocess) ->
      note
        (Fmt.str "xproc %d %s" p.Sim_run.xproc
           (xscript_tokens p.Sim_run.xscript)))
    cfg.workload;
  note
    (Fmt.str "schedule %s"
       (String.concat "," (List.map string_of_int schedule)));
  let o = replay ~trace:tr cfg schedule in
  Trace.record tr ~time:o.Sim_run.virtual_span
    (Trace.Note
       (match o.Sim_run.verdict with
        | Sim_run.Clean -> "verdict atomic"
        | Sim_run.Violation { key = None; message } -> "verdict torn " ^ message
        | Sim_run.Violation { key = Some k; message } ->
          Fmt.str "verdict key=%d %s" k message
        | Sim_run.Stalled { completed; expected } ->
          Fmt.str "verdict stalled %d/%d" completed expected));
  Trace.dump tr file

(* -- parsing the artifact back ------------------------------------- *)

let split_on sep s =
  List.filter (fun t -> t <> "") (String.split_on_char sep s)

let parse_xscript tokens =
  List.map
    (fun tok ->
      let body () = String.sub tok 1 (String.length tok - 1) in
      if tok = "r" then Sim_run.Single E.Read
      else if String.length tok > 1 && tok.[0] = 'w' then
        Sim_run.Single (E.Write (int_of_string (body ())))
      else if String.length tok > 2 && tok.[0] = 'k' then begin
        (* kKr / kKwV: digits name the key, then the op *)
        let b = body () in
        let n = String.length b in
        let i = ref 0 in
        while !i < n && b.[!i] >= '0' && b.[!i] <= '9' do
          incr i
        done;
        if !i = 0 || !i >= n then
          failwith ("explore: bad keyed token " ^ tok);
        let key = int_of_string (String.sub b 0 !i) in
        match b.[!i] with
        | 'r' when !i = n - 1 -> Sim_run.Keyed (key, E.Read)
        | 'w' when !i < n - 1 ->
          Sim_run.Keyed
            (key, E.Write (int_of_string (String.sub b (!i + 1) (n - !i - 1))))
        | _ -> failwith ("explore: bad keyed token " ^ tok)
      end
      else if String.length tok > 1 && tok.[0] = 't' then
        Sim_run.Txn_w
          (List.map
             (fun pair ->
               match String.split_on_char '=' pair with
               | [ k; v ] -> (int_of_string k, int_of_string v)
               | _ -> failwith ("explore: bad txn pair " ^ pair))
             (split_on ',' (body ())))
      else if String.length tok > 1 && tok.[0] = 's' then
        Sim_run.Snap (List.map int_of_string (split_on ',' (body ())))
      else failwith ("explore: bad xscript token " ^ tok))
    tokens

let parse_group s =
  match String.split_on_char '|' s with
  | [ a; b ] ->
    (List.map int_of_string (split_on ',' a),
     List.map int_of_string (split_on ',' b))
  | _ -> failwith "explore: bad cut groups"

let load ~file =
  let ic = open_in file in
  let notes = ref [] in
  (try
     while true do
       match Trace.note_of_line (input_line ic) with
       | Some text -> notes := text :: !notes
       | None -> ()
     done
   with End_of_file -> close_in ic);
  let notes = List.rev !notes in
  if not (List.mem "explore-counterexample v1" notes) then
    failwith "explore: not a counterexample file";
  let assoc = Hashtbl.create 16 in
  let procs = ref [] and cuts = ref [] and crashable = ref [] in
  let amnesia = ref [] and xprocs = ref [] and domains = ref 1 in
  let schedule = ref [] in
  let xprocess p script =
    { Sim_run.xproc = int_of_string p; xscript = parse_xscript script }
  in
  List.iter
    (fun text ->
      match split_on ' ' text with
      | "config" :: fields ->
        List.iter
          (fun f ->
            match String.split_on_char '=' f with
            | [ k; v ] -> Hashtbl.replace assoc k (int_of_string v)
            | _ -> ())
          fields
      | [ "crashable"; l ] -> crashable := List.map int_of_string (split_on ',' l)
      | [ "amnesia"; l ] -> amnesia := List.map int_of_string (split_on ',' l)
      | [ "domains"; n ] -> domains := int_of_string n
      | [ "cut"; g ] -> cuts := !cuts @ [ parse_group g ]
      (* a [proc] line is a plain script, written before every
         workload was saved as [xproc] lines; its [r]/[wV] tokens are
         the [Single] grammar *)
      | "proc" :: p :: script -> procs := !procs @ [ xprocess p script ]
      | "xproc" :: p :: script -> xprocs := !xprocs @ [ xprocess p script ]
      | [ "schedule"; l ] -> schedule := List.map int_of_string (split_on ',' l)
      | _ -> ())
    notes;
  (* Any [xproc] line overrides the [proc] lines.  Old artifacts' init
     and max_timer_fires fields only ever held the constants, and are
     ignored. *)
  let base =
    {
      (config ~workload:[] ()) with
      spec = { Sim_run.default with domains = !domains };
      workload = (if !xprocs <> [] then !xprocs else !procs);
      crashable = !crashable;
      amnesia = !amnesia;
      cuts = !cuts;
    }
  in
  let cfg =
    List.fold_left
      (fun cfg (name, (_, set)) ->
        match Hashtbl.find_opt assoc name with
        | Some v -> set cfg v
        | None -> cfg)
      base note_fields
  in
  (validated cfg, !schedule)

let replay_file ~file =
  let cfg, schedule = load ~file in
  (cfg, schedule, replay cfg schedule)

(* ------------------------------------------------------------------ *)
(* Torture mode                                                        *)

type torture_report = {
  runs : int;
  ops_completed : int;
  violations : int;
  stalled : int;
  first_failure : (int * string) option;
}

let torture_run ?(engine = Engine.Abd) ~seed ~run ?trace () =
  let rng = Random.State.make [| seed; run; 0x746f7274 |] in
  let replicas = if Random.State.bool rng then 3 else 5 in
  let shards = 1 lsl Random.State.int rng 3 in
  let keys = shards * (1 + Random.State.int rng 3) in
  let window = 1 + Random.State.int rng 8 in
  let processes =
    Harness.Workload.unique_scripts (Harness.Workload.random_spec ~rng ())
  in
  let faults =
    Sim_net.lossy
      ~drop:(Random.State.float rng 0.25)
      ~duplicate:(Random.State.float rng 0.15)
      ~min_delay:0.2
      ~max_delay:(0.5 +. Random.State.float rng 2.5)
      ()
  in
  let span = 50.0 +. Random.State.float rng 150.0 in
  let fates =
    F.random_net_fates ~rng
      ~replicas:(List.init replicas Fun.id)
      ~server:Transport.server ~span ()
  in
  (* the twobit engine is crash-stop only: degrade amnesia fates to
     plain crashes (drawn from the same rng, so runs stay seeded and
     comparable across engines fate-for-fate) *)
  let fates =
    match engine with
    | Engine.Abd -> fates
    | Engine.Twobit ->
      List.map
        (fun (t, f) ->
          match f with
          | F.Crash_amnesia r -> (t, F.Crash r)
          | f -> (t, f))
        fates
  in
  (* A third of the runs swap the plain register scripts for a mixed
     batch/snapshot workload (half of those compacting every 16
     appends, not the default 32), exercising the cross-key
     coordinator under the same faults.  Values are globally unique —
     per (proc, op index, key) — which both the per-key fastcheck and
     the torn-batch audit require. *)
  let use_txn = Random.State.int rng 3 = 0 in
  let snapshot_every = if use_txn && Random.State.bool rng then 16 else 32 in
  let store = Some { Sim_run.default_store with snapshot_every } in
  let spec =
    { Sim_run.default with replicas; shards; keys; window; engine; store }
  in
  let workload =
    if not use_txn then Sim_run.singles processes
    else begin
      let nops = 2 + Random.State.int rng 6 in
      let writer p =
        {
          Sim_run.xproc = p;
          xscript =
            List.init nops (fun i ->
                let v k = (10_000 * (p + 1)) + (i * keys) + k in
                let k1 = Random.State.int rng keys in
                let k2 =
                  (k1 + 1 + Random.State.int rng (max 1 (keys - 1))) mod keys
                in
                if k1 = k2 || not (Random.State.bool rng) then
                  Sim_run.Single (E.Write (v k1))
                else Sim_run.Txn_w [ (k1, v k1); (k2, v k2) ]);
        }
      in
      let reader p =
        {
          Sim_run.xproc = p;
          xscript =
            List.init nops (fun _ ->
                if Random.State.bool rng then
                  Sim_run.Snap (List.init keys Fun.id)
                else Sim_run.Single E.Read);
        }
      in
      [ writer 0; writer 1; reader 2; reader 3 ]
    end
  in
  let seed = Random.State.bits rng in
  (* the worker count is drawn last, so a run keeps the spec, workload
     and fates it drew before *)
  let spec = { spec with domains = 1 + Random.State.int rng 2 } in
  let cl = Sim_run.create ~faults ?trace spec ~seed ~workload in
  (Sim_run.run ~fates cl, fates)

let describe_failure run (o : Sim_run.outcome) =
  Fmt.str "run %d: %a" run Sim_run.pp_verdict o.Sim_run.verdict

let torture ?engine ?(runs = 100) ?dump ?progress ~seed () =
  let violations = ref 0 and stalled = ref 0 and ops = ref 0 in
  let first_failure = ref None in
  for run = 0 to runs - 1 do
    (match progress with Some f -> f run | None -> ());
    let o, _ = torture_run ?engine ~seed ~run () in
    ops := !ops + o.Sim_run.completed;
    (match o.Sim_run.verdict with
     | Sim_run.Clean -> ()
     | Sim_run.Violation _ -> incr violations
     | Sim_run.Stalled _ -> incr stalled);
    if o.Sim_run.verdict <> Sim_run.Clean && !first_failure = None then begin
      first_failure := Some (run, describe_failure run o);
      match dump with
      | None -> ()
      | Some file ->
        (* re-run the failing iteration with a trace attached *)
        let tr = Trace.create () in
        Trace.record tr ~time:0.0
          (Trace.Note (Fmt.str "torture-failure seed=%d run=%d" seed run));
        let o', fates = torture_run ?engine ~seed ~run ~trace:tr () in
        List.iter
          (fun (t, f) ->
            Trace.record tr ~time:t
              (Trace.Note (Fmt.str "fate %a" F.pp_net_fate f)))
          fates;
        Trace.record tr ~time:o'.Sim_run.virtual_span
          (Trace.Note (describe_failure run o'));
        Trace.dump tr file
    end
  done;
  {
    runs;
    ops_completed = !ops;
    violations = !violations;
    stalled = !stalled;
    first_failure = !first_failure;
  }
