module E = Histories.Event
module Sched = Modelcheck.Schedule

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)

type config = {
  replicas : int;
  workload : Sim_run.xprocess list;
  keys : int;
  shards : int;
  group_size : int option;
  window : int;
  engine : Engine.kind;
  bug : Bug.t;
  reconfig : (int * int) option;
  crashable : int list;
  max_crashes : int;
  amnesia : int list;
  max_amnesia : int;
  durable : bool;
  cuts : (int list * int list) list;
  max_partitions : int;
  max_depth : int;
  max_schedules : int;
  prune : bool;
  fastcheck : bool;
}

let config ?(replicas = 3) ?(keys = 1) ?(shards = 1) ?group_size
    ?(window = 4) ?(engine = Engine.Abd) ?read_quorum ?skip_write_back
    ?unordered ?torn_txn ?reconfig ?skip_dual_write ?stale_copy
    ?(crashable = []) ?(max_crashes = 0) ?(amnesia = []) ?(max_amnesia = 0) ?(durable = true)
    ?(cuts = []) ?(max_partitions = 0) ?(max_depth = 2_000)
    ?(max_schedules = max_int) ?(prune = true) ?(fastcheck = false) ~workload
    () =
  (* Fail fast, at configuration time, on requests no run could honour:
     a deep [invalid_arg] out of [reset] would only surface once the
     explorer starts (or worse, from inside every walk). *)
  let bug =
    Bug.make ?read_quorum ?skip_write_back ?unordered ?torn_txn
      ?skip_dual_write ?stale_copy ~engine ~replicas
      ~migration:(reconfig <> None) ()
  in
  if engine = Engine.Twobit && amnesia <> [] && max_amnesia > 0 then
    invalid_arg
      "Explore.config: the twobit engine is crash-stop only — its link \
       sequence state is volatile, so an amnesia reboot deadlocks the \
       links; use crashable instead";
  (match group_size with
   | Some g when g <= 0 ->
     invalid_arg "Explore.config: group_size must be positive"
   | _ -> ());
  (match reconfig with
   | Some (key, to_shard) ->
     if key < 0 then invalid_arg "Explore.config: negative reconfig key";
     if to_shard < 0 || to_shard >= shards then
       invalid_arg "Explore.config: reconfig target shard out of range"
   | None -> ());
  List.iter
    (fun (xp : Sim_run.xprocess) ->
      List.iter
        (fun xop ->
          match xop with
          | Sim_run.Single _ -> ()
          | Sim_run.Keyed (k, _) ->
            if k < 0 then
              invalid_arg "Explore.config: negative Keyed key"
          | Sim_run.Txn_w ws ->
            if not (Txn.valid_keys (List.map fst ws)) then
              invalid_arg "Explore.config: structurally invalid Txn_w keys"
          | Sim_run.Snap ks ->
            if not (Txn.valid_keys ks) then
              invalid_arg "Explore.config: structurally invalid Snap keys")
        xp.Sim_run.xscript)
    workload;
  {
    replicas;
    workload;
    keys;
    shards;
    group_size;
    window;
    engine;
    bug;
    reconfig;
    crashable;
    max_crashes = (if crashable = [] then 0 else max_crashes);
    amnesia;
    max_amnesia = (if amnesia = [] then 0 else max_amnesia);
    durable;
    cuts;
    max_partitions = (if cuts = [] then 0 else max_partitions);
    max_depth;
    max_schedules;
    prune;
    fastcheck;
  }

(* ------------------------------------------------------------------ *)
(* The system presented to the generic explorer                        *)

(* Every explored run starts its registers at 0, and may fire at most
   this many timers (see [pump]). *)
let init = 0
let max_timer_fires = 64

type action =
  | Fire of int  (* index into the Sim_net.pending snapshot *)
  | Crash_r of int
  | Reboot of int  (* amnesia-crash + immediate restart (recovery) *)
  | Cut of int  (* index into cfg.cuts *)
  | Heal_cut

type st = {
  cfg : config;
  cl : Sim_run.cluster;
  mutable crashes_left : int;
  mutable amnesia_left : int;
  mutable cuts_left : int;
  mutable cut_active : bool;
  mutable timer_budget : int;
  mutable actions : action array;  (* choice table of the last [enabled] *)
}

let reset ?trace cfg =
  let cl =
    Sim_run.build ~faults:Sim_net.reliable ~replicas:cfg.replicas
      ~window:cfg.window ~shards:cfg.shards ?group_size:cfg.group_size
      ~keys:cfg.keys ~engine:{ Engine.kind = cfg.engine } ~bug:cfg.bug
      ~durable:cfg.durable ~xprocesses:cfg.workload
      ?reconfig:
        (Option.map
           (fun (key, to_shard) -> { Sim_run.key; to_shard; at = None })
           cfg.reconfig)
      ?trace ~seed:0 ~init ~processes:[] ()
  in
  {
    cfg;
    cl;
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
   budget runs out a stalled state becomes a leaf, whose prefix history
   the audits still cover.  Deliveries to crashed nodes (crashes are
   permanent within an exploration — restart is a torture-mode fate)
   and dead nodes' timers are no-ops, so they are drained off the queue
   without branching. *)
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
  List.iter
    (fun p ->
      (* seq is a stable, replay-deterministic identity for the message
         — cheap, and exactly as precise as the payload for sleep-set
         membership *)
      push (Fire p.Sim_net.idx)
        { Sched.node = p.Sim_net.dst; tag = string_of_int p.Sim_net.seq })
    deliveries;
  if deliveries <> [] then begin
    if st.crashes_left > 0 then
      List.iter
        (fun r ->
          if Sim_net.alive st.cl.Sim_run.net r then
            push (Crash_r r) { Sched.node = -1; tag = Fmt.str "crash%d" r })
        st.cfg.crashable;
    (* a reboot is atomic (amnesia-crash + restart-with-recovery), so
       the node is alive again before the next choice: runs stay
       complete, and the branch point is purely "does the replica
       forget here" — harmless when durable, a bug source when not *)
    if st.amnesia_left > 0 then
      List.iter
        (fun r ->
          if Sim_net.alive st.cl.Sim_run.net r then
            push (Reboot r) { Sched.node = -1; tag = Fmt.str "amnesia%d" r })
        st.cfg.amnesia;
    if (not st.cut_active) && st.cuts_left > 0 then
      List.iteri
        (fun i _ -> push (Cut i) { Sched.node = -1; tag = Fmt.str "cut%d" i })
        st.cfg.cuts
  end;
  (* a heal is offered even when stalled — it is the only way a
     partitioned run resumes *)
  if st.cut_active then push Heal_cut { Sched.node = -1; tag = "heal" };
  st.actions <- Array.of_list (List.rev !acts);
  List.rev !keys

let apply st i =
  match st.actions.(i) with
  | Fire idx -> ignore (Sim_net.fire st.cl.Sim_run.net idx)
  | Crash_r r ->
    st.crashes_left <- st.crashes_left - 1;
    Sim_net.crash st.cl.Sim_run.net r
  | Reboot r ->
    st.amnesia_left <- st.amnesia_left - 1;
    Sim_net.crash_amnesia st.cl.Sim_run.net r;
    Sim_net.restart st.cl.Sim_run.net r
  | Cut c ->
    st.cuts_left <- st.cuts_left - 1;
    st.cut_active <- true;
    let a, b = List.nth st.cfg.cuts c in
    Sim_net.partition st.cl.Sim_run.net a b
  | Heal_cut ->
    st.cut_active <- false;
    Sim_net.heal st.cl.Sim_run.net

let system ?trace cfg =
  { Sched.reset = (fun () -> reset ?trace cfg); enabled; apply }

(* ------------------------------------------------------------------ *)
(* Verdicts                                                            *)

(* Torn-batch verdicts are cross-key, so they carry the sentinel key
   [-1] in a counterexample. *)
let verdict st =
  let server = st.cl.Sim_run.server in
  match Server.txn_violations server with
  | m :: _ -> Some (-1, m)
  | [] ->
  match Server.violations server with
  | (key, v) :: _ ->
    Some (key, Fmt.str "%a" (Histories.Fastcheck.pp_violation Fmt.int) v)
  | [] ->
    if st.cfg.fastcheck then
      let keyed = Server.keyed_history server in
      match
        List.find_opt
          (fun (_, v) -> Result.is_error v)
          (Sim_run.fastcheck_by_key ~init keyed)
      with
      | Some (key, _) -> Some (key, "post-hoc fastcheck rejects")
      | None -> None
    else None

(* ------------------------------------------------------------------ *)
(* Exploration                                                         *)

type counterexample = { schedule : int list; key : int; message : string }

type result = { stats : Sched.stats; counterexample : counterexample option }

let explore cfg =
  let found = ref None in
  let stats =
    Sched.explore ~max_schedules:cfg.max_schedules ~max_depth:cfg.max_depth
      ~prune:cfg.prune (system cfg)
      ~on_leaf:(fun st schedule ->
        match verdict st with
        | Some (key, message) ->
          found := Some { schedule; key; message };
          `Stop
        | None -> `Continue)
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
       let sched_rev = ref [] in
       let continue = ref true in
       let depth = ref 0 in
       while !continue && !depth < cfg.max_depth do
         match enabled st with
         | [] -> continue := false
         | keys ->
           let i = Random.State.int rng (List.length keys) in
           apply st i;
           sched_rev := i :: !sched_rev;
           incr transitions;
           incr depth
       done;
       if !depth > !deepest then deepest := !depth;
       match verdict st with
       | Some (key, message) ->
         found := Some { schedule = List.rev !sched_rev; key; message };
         raise Exit
       | None -> ()
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
   chop schedules freely.  After the explicit prefix the run is driven
   to quiescence with the default choice (earliest event), bounded by
   [max_depth]. *)
let replay ?trace ?(tail = true) cfg schedule =
  let st = reset ?trace cfg in
  let steps = ref 0 in
  List.iter
    (fun i ->
      let n = List.length (enabled st) in
      if i >= 0 && i < n then begin
        apply st i;
        incr steps
      end)
    schedule;
  if tail then begin
    let continue = ref true in
    while !continue && !steps < cfg.max_depth do
      match enabled st with
      | [] -> continue := false
      | _ ->
        apply st 0;
        incr steps
    done
  end;
  Sim_run.collect st.cl ~steps:!steps

let violating cfg (o : Sim_run.outcome) =
  o.Sim_run.key_violations <> []
  || o.Sim_run.txn_violations <> []
  || (cfg.fastcheck && not o.Sim_run.fastcheck_ok)

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
      ~test:(fun s -> violating cfg (replay cfg s))
      schedule
  in
  (* Re-find a violation on a reduced workload: the old schedule often
     still triggers it under loose replay (cheap, try first); otherwise
     a bounded hunt. *)
  let refind cfg schedule =
    if violating cfg (replay cfg schedule) then Some schedule
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
  let o = replay cfg' schedule in
  match (o.Sim_run.txn_violations, o.Sim_run.key_violations) with
  | m :: _, _ -> (cfg', { schedule; key = -1; message = m })
  | [], (key, message) :: _ -> (cfg', { schedule; key; message })
  | [], [] ->
    (* can't happen: fix/minimize only accept violating candidates *)
    (cfg', { ce with schedule })

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

let config_note cfg =
  let hook name = List.assoc name (Bug.fields cfg.bug) in
  Fmt.str
    "config replicas=%d keys=%d shards=%d group_size=%d window=%d engine=%d \
     read_quorum=%d unordered=%d torn_txn=%d reconfig_key=%d reconfig_to=%d \
     skip_dual_write=%d skip_write_back=%d stale_copy=%d max_crashes=%d \
     max_amnesia=%d durable=%d max_partitions=%d max_depth=%d prune=%d \
     fastcheck=%d"
    cfg.replicas cfg.keys cfg.shards
    (Option.value ~default:0 cfg.group_size)
    cfg.window
    (Engine.kind_code cfg.engine)
    (hook "read_quorum") (hook "unordered") (hook "torn_txn")
    (match cfg.reconfig with Some (k, _) -> k | None -> -1)
    (match cfg.reconfig with Some (_, s) -> s | None -> -1)
    (hook "skip_dual_write") (hook "skip_write_back") (hook "stale_copy")
    cfg.max_crashes cfg.max_amnesia
    (if cfg.durable then 1 else 0)
    cfg.max_partitions cfg.max_depth
    (if cfg.prune then 1 else 0)
    (if cfg.fastcheck then 1 else 0)

let group_note (a, b) =
  Fmt.str "%s|%s"
    (String.concat "," (List.map string_of_int a))
    (String.concat "," (List.map string_of_int b))

let save ~file cfg ce =
  let tr = Trace.create ~capacity:(1 lsl 16) () in
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
  List.iter (fun cut -> note (Fmt.str "cut %s" (group_note cut))) cfg.cuts;
  List.iter
    (fun (p : Sim_run.xprocess) ->
      note
        (Fmt.str "xproc %d %s" p.Sim_run.xproc
           (xscript_tokens p.Sim_run.xscript)))
    cfg.workload;
  note
    (Fmt.str "schedule %s"
       (String.concat "," (List.map string_of_int ce.schedule)));
  let o = replay ~trace:tr cfg ce.schedule in
  (match (o.Sim_run.txn_violations, o.Sim_run.key_violations) with
   | m :: _, _ ->
     Trace.record tr ~time:o.Sim_run.virtual_span
       (Trace.Note (Fmt.str "verdict torn %s" m))
   | [], (k, m) :: _ ->
     Trace.record tr ~time:o.Sim_run.virtual_span
       (Trace.Note (Fmt.str "verdict key=%d %s" k m))
   | [], [] ->
     Trace.record tr ~time:o.Sim_run.virtual_span (Trace.Note "verdict atomic"));
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
  let amnesia = ref [] and xprocs = ref [] in
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
      | [ "cut"; g ] -> cuts := !cuts @ [ parse_group g ]
      (* a [proc] line is a plain script, written before every
         workload was saved as [xproc] lines; its [r]/[wV] tokens are
         the [Single] grammar *)
      | "proc" :: p :: script -> procs := !procs @ [ xprocess p script ]
      | "xproc" :: p :: script -> xprocs := !xprocs @ [ xprocess p script ]
      | [ "schedule"; l ] -> schedule := List.map int_of_string (split_on ',' l)
      | _ -> ())
    notes;
  let get k d = Option.value ~default:d (Hashtbl.find_opt assoc k) in
  (* engine defaults to abd so pre-engine artifacts load; group_size,
     reconfig and the bug hooks default to off so artifacts written
     before them load.  Old artifacts' init and max_timer_fires fields
     only ever held the constants, and are ignored.  Like
     [Sim_run.build], any [xproc] line overrides the [proc] lines. *)
  let engine =
    match Engine.kind_of_code (get "engine" 0) with
    | Some k -> k
    | None -> failwith "explore: unknown engine code"
  in
  let gs = get "group_size" 0 in
  let rkey = get "reconfig_key" (-1) in
  let cfg =
    config ~replicas:(get "replicas" 3) ~keys:(get "keys" 1)
      ~shards:(get "shards" 1)
      ?group_size:(if gs = 0 then None else Some gs)
      ~window:(get "window" 4) ~engine
      ?reconfig:
        (if rkey < 0 then None else Some (rkey, get "reconfig_to" 0))
      ~crashable:!crashable
      ~max_crashes:(get "max_crashes" 0)
      ~amnesia:!amnesia
      ~max_amnesia:(get "max_amnesia" 0)
      ~durable:(get "durable" 1 = 1)
      ~cuts:!cuts
      ~max_partitions:(get "max_partitions" 0)
      ~max_depth:(get "max_depth" 2_000)
      ~prune:(get "prune" 1 = 1)
      ~fastcheck:(get "fastcheck" 0 = 1)
      ~workload:(if !xprocs <> [] then !xprocs else !procs)
      ()
  in
  let bug =
    Bug.of_fields (Hashtbl.find_opt assoc) ~engine ~replicas:cfg.replicas
      ~migration:(cfg.reconfig <> None)
  in
  ({ cfg with bug }, !schedule)

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
  let spec = Harness.Workload.random_spec ~rng () in
  let processes = Harness.Workload.unique_scripts spec in
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
    Harness.Failure.random_net_fates ~rng
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
          | Harness.Failure.Crash_amnesia r -> (t, Harness.Failure.Crash r)
          | f -> (t, f))
        fates
  in
  let espec = { Engine.kind = engine } in
  (* A third of the runs swap the plain register scripts for a mixed
     batch/snapshot workload (half of those with the WAL GC frontier
     on), exercising the cross-key coordinator under the same faults.
     Values are globally unique — per (proc, op index, key) — which
     both the per-key fastcheck and the torn-batch audit require. *)
  let use_txn = Random.State.int rng 3 = 0 in
  let gc_bytes =
    if use_txn && Random.State.bool rng then Some 512 else None
  in
  let xprocesses =
    if not use_txn then []
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
  let cl =
    Sim_run.build ~faults ~replicas ~window ~shards ~keys ~engine:espec
      ?gc_bytes ~xprocesses
      ~seed:(Random.State.bits rng) ~init:0 ~processes ?trace ()
  in
  (Sim_run.run ~fates cl, fates)

let describe_failure run (o : Sim_run.outcome) =
  match (o.Sim_run.txn_violations, o.Sim_run.key_violations) with
  | m :: _, _ -> Fmt.str "run %d: %s" run m
  | [], (k, m) :: _ -> Fmt.str "run %d: key %d: %s" run k m
  | [], [] ->
    if not o.Sim_run.fastcheck_ok then Fmt.str "run %d: fastcheck rejects" run
    else
      Fmt.str "run %d: stalled at %d/%d ops" run o.Sim_run.completed
        o.Sim_run.expected

let torture ?engine ?(runs = 100) ?dump ?progress ~seed () =
  let violations = ref 0 and stalled = ref 0 and ops = ref 0 in
  let first_failure = ref None in
  for run = 0 to runs - 1 do
    (match progress with Some f -> f run | None -> ());
    let o, _ = torture_run ?engine ~seed ~run () in
    ops := !ops + o.Sim_run.completed;
    let bad_history =
      o.Sim_run.key_violations <> []
      || o.Sim_run.txn_violations <> []
      || not o.Sim_run.fastcheck_ok
    in
    let incomplete = o.Sim_run.completed < o.Sim_run.expected in
    if bad_history then incr violations;
    if incomplete && not bad_history then incr stalled;
    if (bad_history || incomplete) && !first_failure = None then begin
      first_failure := Some (run, describe_failure run o);
      match dump with
      | None -> ()
      | Some file ->
        (* re-run the failing iteration with a trace attached *)
        let tr = Trace.create ~capacity:(1 lsl 18) () in
        Trace.record tr ~time:0.0
          (Trace.Note (Fmt.str "torture-failure seed=%d run=%d" seed run));
        let o', fates = torture_run ?engine ~seed ~run ~trace:tr () in
        List.iter
          (fun (t, f) ->
            Trace.record tr ~time:t
              (Trace.Note (Fmt.str "fate %a" Harness.Failure.pp_net_fate f)))
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
