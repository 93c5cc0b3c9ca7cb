module E = Histories.Event

type verdict =
  | Clean
  | Violation of { key : int option; message : string }
  | Stalled of { completed : int; expected : int }

type outcome = {
  history : int E.t list;
  verdict : verdict;
  txn_violations : string list;
  key_fastcheck : (int * bool) list;
  key_violations : (int * string) list;
  completed : int;
  expected : int;
  steps : int;
  virtual_span : float;
  latencies : (E.proc * int E.op * float) list;
  net : Sim_net.stats;
  quorum : Engine.stats;
  metrics : Metrics.t;
  epoch : int;
  reconfig_acked : bool option;
}

(* Extended workload ops: the plain register scripts plus the
   multi-key operations of this layer. *)
type xop =
  | Single of int E.op
  | Keyed of int * int E.op
  | Txn_w of (int * int) list
  | Snap of int list

type xprocess = { xproc : E.proc; xscript : xop list }

(* One multi-key op answers once but records one Invoke/Respond pair
   per touched key, so completion accounting weighs it by its keys. *)
let xop_weight = function
  | Single _ | Keyed _ -> 1
  | Txn_w ws -> List.length ws
  | Snap ks -> List.length ks

(* the reconfiguration requester is a client node of its own, distinct
   from any workload process, so it shares the clients' fault immunity
   without owning a session *)
let control_proc = 99

type client = {
  proc : E.proc;
  mutable todo : xop list;
  mutable next_seq : int;
}

let is_client n = n >= 200

let latencies_of timed =
  let pending = Hashtbl.create 16 in
  List.fold_left
    (fun acc (time, ev) ->
      match ev with
      | E.Invoke (p, op) ->
        Hashtbl.replace pending p (time, op);
        acc
      | E.Respond (p, _) ->
        (match Hashtbl.find_opt pending p with
         | Some (t0, op) ->
           Hashtbl.remove pending p;
           (p, op, time -. t0) :: acc
         | None -> acc))
    [] timed
  |> List.rev

(* Per-key post-hoc verdicts: each key's subsequence of the server
   history is an independent two-writer history, checked on its own.
   One pass groups the events by key. *)
let fastcheck_by_key ~init keyed =
  let by_key = Hashtbl.create 16 in
  List.iter
    (fun (k, e) ->
      Hashtbl.replace by_key k
        (e :: Option.value ~default:[] (Hashtbl.find_opt by_key k)))
    keyed;
  Hashtbl.fold (fun k rev_h acc -> (k, List.rev rev_h) :: acc) by_key []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun (key, h) ->
         let verdict =
           match Histories.Operation.of_events h with
           | Error e ->
             Error
               (Fmt.str "not input-correct: %a" Histories.Operation.pp_error e)
           | Ok ops ->
             (match Histories.Fastcheck.check_unique ~init ops with
              | Histories.Fastcheck.Atomic _ -> Ok ()
              | Histories.Fastcheck.Violation v ->
                Error
                  (Fmt.str "NOT ATOMIC: %a"
                     (Histories.Fastcheck.pp_violation Fmt.int) v))
         in
         (key, verdict))

(* The one decision whether a run kept its promises, in a fixed order:
   a torn batch, a key's latched live violation, a key the post-hoc
   fastcheck rejects (given its per-key verdicts), then a stall (fewer
   ops answered than expected). *)
let judge ?fastcheck ~answered:(completed, expected) pool =
  match Server_pool.txn_violations pool with
  | message :: _ -> Violation { key = None; message }
  | [] ->
  match Server_pool.violations pool with
  | (k, v) :: _ ->
    Violation
      { key = Some k;
        message = Fmt.str "%a" (Histories.Fastcheck.pp_violation Fmt.int) v }
  | [] ->
  let rejected = function k, Error m -> Some (k, m) | _, Ok () -> None in
  match List.find_map rejected (Option.value ~default:[] fastcheck) with
  | Some (k, message) -> Violation { key = Some k; message }
  | None ->
  if completed < expected then Stalled { completed; expected } else Clean

let pp_verdict ppf = function
  | Clean -> Fmt.string ppf "clean"
  | Violation { key = None; message } -> Fmt.string ppf message
  | Violation { key = Some k; message } -> Fmt.pf ppf "key %d: %s" k message
  | Stalled { completed; expected } ->
    Fmt.pf ppf "stalled at %d/%d ops" completed expected

(* plain register processes are the [Single]-only special case *)
let singles processes =
  List.map
    (fun { Registers.Vm.proc; script } ->
      { xproc = proc; xscript = List.map (fun op -> Single op) script })
    processes

type reconfig = { key : int; to_shard : int; at : float option }

type store = {
  snapshot_every : int;
  group_commit : Storage.commit_config option;
}

type spec = {
  replicas : int;
  shards : int;
  domains : int;
  group_size : int option;
  keys : int;
  window : int;
  engine : Engine.kind;
  bug : Bug.t;
  store : store option;
}

let default_store = { snapshot_every = 32; group_commit = None }

let default =
  { replicas = 3; shards = 1; domains = 1; group_size = None; keys = 1;
    window = 4; engine = Engine.Abd; bug = Bug.none;
    store = Some default_store }

(* The one place a cluster description is checked.  A count below 1
   would build a cluster in which no op can run, so every verdict on it
   would be vacuous.  A weakened read quorum or a skipped write-back is
   meaningless to the twobit protocol (reads take one reply and write
   nothing back by design) and unordered links are meaningless to ABD
   (timestamps already tolerate reordering), so a mismatched hook is an
   error, not a silent no-op. *)
let validate ?reconfig s =
  let fail fmt = Fmt.kstr invalid_arg ("Sim_run.spec: " ^^ fmt) in
  let positive name n = if n < 1 then fail "%s is %d, want at least 1" name n in
  positive "replicas" s.replicas;
  positive "shards" s.shards;
  positive "domains" s.domains;
  positive "keys" s.keys;
  positive "window" s.window;
  Option.iter (positive "group_size") s.group_size;
  let b = s.bug in
  (match b.Bug.read_quorum with
   | Some q when q < 1 || q > s.replicas ->
     fail "read_quorum %d out of range for %d replicas (want 1..%d)" q
       s.replicas s.replicas
   | _ -> ());
  (match s.engine with
   | Engine.Abd ->
     if b.unordered then
       fail
         "unordered is a twobit-engine bug hook; the abd engine has no link \
          layer to disorder"
   | Engine.Twobit ->
     if s.shards * s.domains > Wire.max_lid then
       fail "%d shards times %d domains is %d twobit link ids, want at most %d"
         s.shards s.domains (s.shards * s.domains) Wire.max_lid;
     if b.read_quorum <> None then
       fail
         "read_quorum is an abd-engine bug hook; the twobit engine reads from \
          a single reply by design";
     if b.skip_write_back then
       fail
         "skip_write_back is an abd-engine bug hook; twobit reads have no \
          write-back to skip";
     if b.no_widen then
       fail
         "no_widen is an abd-engine bug hook; twobit links do not resend \
          through Quorum");
  if b.skip_dual_write && reconfig = None then
    fail
      "skip_dual_write is the reconfiguration bug hook; it needs a reconfig \
       migration to skip dual writes of"

type cluster = {
  net : Sim_net.t;
  pool : Server_pool.t;
  server : Server.t;
  replica_nodes : int list;
  expected : int;
  metrics : Metrics.t;
  disks : Storage.Disk.t array;
  replica_of : int -> Replica.t;
  reconfig_ack : bool option ref;
}

(* Every simulated register starts at 0. *)
let init = 0

(* above every replica, server and client node *)
let worker_node w = (1 lsl 30) + w

let create ?(faults = Sim_net.reliable) ?reconfig ?measure ?trace spec ~seed
    ~workload =
  validate ?reconfig spec;
  let metrics = Metrics.create () in
  let faults =
    {
      faults with
      Sim_net.immune =
        (fun ~src ~dst ->
          is_client src || is_client dst || faults.Sim_net.immune ~src ~dst);
    }
  in
  let net = Sim_net.create ~seed ~faults ~metrics ?trace () in
  let tr = Sim_net.transport net in
  (* the byte-accounting tap for benchmarks: observe every send (the
     hook filters by src/dst itself), then hand the frame to the sim *)
  let tr =
    match measure with
    | None -> tr
    | Some f ->
      {
        tr with
        Transport.send =
          (fun ~src ~dst msg ->
            f ~src ~dst msg;
            tr.Transport.send ~src ~dst msg);
      }
  in
  let replicas = spec.replicas in
  let replica_nodes = List.init replicas Fun.id in
  (* replicas: each owns a simulated disk (when durable) and an
     incarnation cell, swapped by the amnesia recovery hook *)
  let disks =
    if Option.is_some spec.store then
      Array.init replicas (fun _ -> Storage.Disk.create ())
    else [||]
  in
  let unordered = spec.bug.Bug.unordered in
  let fresh_replica r =
    match spec.store with
    | Some { snapshot_every; group_commit } ->
      Replica.create ~init
        ~storage:
          (Storage.create ~snapshot_every ?group_commit
             (Storage.Disk.backend disks.(r)))
        ~unordered ()
    | None -> Replica.create ~init ~unordered ()
  in
  let incarnations = Array.init replicas fresh_replica in
  (* replies — including group-commit acks deferred past a turn — may
     only leave a live, current incarnation: the handler may have been
     killed mid-message by a disk crash hook (a store whose WAL append
     was torn is never acked), and a stale incarnation must not speak
     for, or flush the disk under, its replacement.  One [emit] per
     incarnation, built with it, not one per delivery. *)
  let emit_of r rep dst m =
    if Sim_net.alive net r && incarnations.(r) == rep then
      tr.Transport.send ~src:r ~dst m
  in
  let emits = Array.init replicas (fun r -> emit_of r incarnations.(r)) in
  List.iter
    (fun r ->
      (* Storage.drive's one armed timer per store cannot wedge here:
         Sim_net holds a paused node's timers until its restart and
         drops a replaced incarnation's *)
      Sim_net.register net r (fun ~src msg ->
          let rep = incarnations.(r) in
          Replica.handle rep ~src ~emit:emits.(r) msg;
          if Sim_net.alive net r then
            Replica.drive rep ~transport:tr ~node:r);
      Sim_net.on_restart net r (fun () ->
          (* amnesia restart: the in-memory incarnation is gone.  With
             durability the replacement recovers snapshot+WAL from the
             replica's disk; without, it comes back empty — exactly
             the forgotten-acknowledgement bug the explorer hunts *)
          if Option.is_some spec.store then Storage.Disk.revive disks.(r);
          let rep = fresh_replica r in
          incarnations.(r) <- rep;
          emits.(r) <- emit_of r rep))
    replica_nodes;
  (* server: the pool the service runs, its cores keeping their
     history, each worker's turn an event of the server's node; the
     retransmission period must exceed a replica round trip *)
  let resend_every = (4.0 *. faults.Sim_net.max_delay) +. 1.0 in
  let map =
    Shard_map.create ?group_size:spec.group_size ~shards:spec.shards ()
  in
  let pool =
    Server_pool.create ~transport:tr ~resend_every
      ~engine:{ Engine.kind = spec.engine } ~bug:spec.bug ~metrics ?trace ~map
      ~history:true
      ~run:
        (Server_pool.Events
           (fun w turn -> Sim_net.task net (worker_node w) turn))
      ~domains:spec.domains ~me:Transport.server ~replicas:replica_nodes ~init
      ()
  in
  Sim_net.register net Transport.server (Server_pool.dispatch pool);
  (* migration request: a dedicated control client whose frame is
     enqueued like any other message — under the explorer its delivery
     is a schedulable event, so the handoff interleaves freely with the
     workload; an [at] time instead fires it then *)
  let reconfig_ack = ref None in
  (match reconfig with
   | None -> ()
   | Some { key = rkey; to_shard; at } ->
     let me = Transport.client control_proc in
     Sim_net.register net me (fun ~src:_ msg ->
         match msg with
         | Wire.Reconfig_ack { ok; _ } -> reconfig_ack := Some ok
         | _ -> ());
     let send () =
       tr.Transport.send ~src:me ~dst:Transport.server
         (Wire.Reconfig { rid = 0; key = rkey; to_shard; epoch = 0 })
     in
     (match at with
      | None -> send ()
      | Some time -> Sim_net.at net time send));
  (* clients: send [Hello; first window] as one batch, then keep the
     window full as responses arrive.  With a multi-key keyspace each
     process round-robins its script over the keys, so a window > 1
     keeps several per-key pipelines busy at once. *)
  List.iter
    (fun { xproc = proc; xscript } ->
      let me = Transport.client proc in
      let c = { proc; todo = xscript; next_seq = 0 } in
      let next_req () =
        match c.todo with
        | [] -> None
        | xop :: rest ->
          c.todo <- rest;
          let seq = c.next_seq in
          c.next_seq <- seq + 1;
          let op =
            match xop with
            | Single op ->
              let key = seq mod spec.keys in
              (match op with
               | E.Read -> Wire.Read_k { key }
               | E.Write v -> Wire.Write_k { key; value = v })
            | Keyed (key, E.Read) -> Wire.Read_k { key }
            | Keyed (key, E.Write v) -> Wire.Write_k { key; value = v }
            | Txn_w writes -> Wire.Txn_k { writes }
            | Snap keys -> Wire.Snap_k { keys }
          in
          Some (Wire.Req { seq; op })
      in
      (* a pool turn that answers two of this client's ops under one
         cork ships them as one [Batch]: each answer in it refills one
         request, as a lone answer does *)
      let rec on_reply = function
        | Wire.Resp _ | Wire.Resp_snap _ | Wire.Nack _ ->
          (match next_req () with
           | Some req -> tr.Transport.send ~src:me ~dst:Transport.server req
           | None -> ())
        | Wire.Batch msgs -> List.iter on_reply msgs
        | _ -> ()
      in
      Sim_net.register net me (fun ~src:_ msg -> on_reply msg);
      let first = ref [ Wire.Hello { proc } ] in
      for _ = 1 to spec.window do
        match next_req () with
        | Some req -> first := req :: !first
        | None -> ()
      done;
      tr.Transport.send ~src:me ~dst:Transport.server
        (Wire.Batch (List.rev !first)))
    workload;
  let expected =
    List.fold_left
      (fun n { xscript; _ } ->
        List.fold_left (fun n xop -> n + xop_weight xop) n xscript)
      0 workload
  in
  {
    net;
    pool;
    server = List.hd (Server_pool.cores pool);
    replica_nodes;
    expected;
    metrics;
    disks;
    replica_of = (fun r -> incarnations.(r));
    reconfig_ack;
  }

(* The labels the frozen end-to-end simulator leg passes, filled into a
   spec: a non-empty [xprocesses] replaces [processes], and registers
   start at 0 whatever [init] says. *)
let build ~replicas ~window ~shards ~keys ~engine ~durable ~snapshot_every
    ~group_commit ~measure ~xprocesses ~seed ~init:_ ~processes () =
  let store =
    if durable then
      Some { snapshot_every; group_commit = Some group_commit }
    else None
  in
  let engine = engine.Engine.kind in
  create ~measure
    { default with replicas; shards; keys; window; engine; store }
    ~seed
    ~workload:(match xprocesses with [] -> singles processes | xs -> xs)

let apply_fate cl = function
  | Harness.Failure.Crash r -> Sim_net.crash cl.net r
  | Harness.Failure.Crash_amnesia r -> Sim_net.crash_amnesia cl.net r
  | Harness.Failure.Restart r -> Sim_net.restart cl.net r
  | Harness.Failure.Reboot r ->
    Sim_net.crash_amnesia cl.net r;
    Sim_net.restart cl.net r
  | Harness.Failure.Partition (a, b) -> Sim_net.partition cl.net a b
  | Harness.Failure.Heal -> Sim_net.heal cl.net

(* The pool's history: every core's, merged in virtual time.  A key's
   events all come from its one owning core, and the sort is stable,
   so each key's events keep their order. *)
let merged cl =
  let entries c =
    List.map2
      (fun (time, ev) (key, _) -> (time, key, ev))
      (Server.timed_history c) (Server.keyed_history c)
  in
  let all =
    List.stable_sort
      (fun (a, _, _) (b, _, _) -> Float.compare a b)
      (List.concat_map entries (Server_pool.cores cl.pool))
  in
  ( List.map (fun (time, _, ev) -> (time, ev)) all,
    List.map (fun (_, key, ev) -> (key, ev)) all )

(* ops answered: a multi-key op counts once per key, as [expected] does *)
let answered events =
  List.length (List.filter (function E.Respond _ -> true | _ -> false) events)

(* Every core's keyed history, core after core: a key's events all live
   on its owning core, in their order, and [fastcheck_by_key] groups by
   key, so the re-check needs no merge. *)
let pool_history pool =
  List.concat_map Server.keyed_history (Server_pool.cores pool)

let recheck ~init pool =
  let keyed = pool_history pool in
  (fastcheck_by_key ~init keyed, answered (List.map snd keyed))

let verdict ~fastcheck cl =
  let per_key, completed =
    if fastcheck then recheck ~init cl.pool
    else ([], answered (List.map snd (pool_history cl.pool)))
  in
  judge ~fastcheck:per_key ~answered:(completed, cl.expected) cl.pool

let collect ~fastcheck cl ~steps =
  let pool = cl.pool in
  let timed, keyed = merged cl in
  let history = List.map snd timed in
  let completed = answered history in
  let per_key = fastcheck_by_key ~init keyed in
  {
    history;
    verdict =
      judge
        ?fastcheck:(if fastcheck then Some per_key else None)
        ~answered:(completed, cl.expected) pool;
    txn_violations = Server_pool.txn_violations pool;
    key_fastcheck = List.map (fun (k, v) -> (k, Result.is_ok v)) per_key;
    key_violations =
      List.map
        (fun (k, v) ->
          (k, Fmt.str "%a" (Histories.Fastcheck.pp_violation Fmt.int) v))
        (Server_pool.violations pool);
    completed;
    expected = cl.expected;
    steps;
    virtual_span = Sim_net.now cl.net;
    latencies = latencies_of timed;
    net = Sim_net.stats cl.net;
    quorum = Server_pool.quorum_stats pool;
    metrics = cl.metrics;
    epoch =
      List.fold_left
        (fun e c -> max e (Server.epoch c))
        0 (Server_pool.cores pool);
    reconfig_acked = !(cl.reconfig_ack);
  }

(* The one termination rule: no new fate, timers and deliveries in
   time order until nothing is pending or [max_steps] events have run.
   Whatever op is still unanswered then is a stall to every verdict. *)
let finish ~max_steps cl = Sim_net.run ~max_steps cl.net

let run ?(fates = []) ?(max_steps = 2_000_000) cl =
  List.iter
    (fun (time, f) -> Sim_net.at cl.net time (fun () -> apply_fate cl f))
    fates;
  let steps = finish ~max_steps cl in
  collect ~fastcheck:true cl ~steps

let pp_outcome ppf o =
  Fmt.pf ppf
    "@[<v>ops: %d/%d completed in %d steps (virtual span %.1f)@,\
     live audit: %s@,\
     txn audit:  %s@,\
     fastcheck:  %s (%d key%s)@,\
     network: %d delivered, %d dropped, %d duplicated, %d blocked@,\
     %a@]"
    o.completed o.expected o.steps o.virtual_span
    (match o.key_violations with
     | [] -> "no violation"
     | (k, v) :: _ -> Fmt.str "VIOLATION: key %d: %s" k v)
    (match o.txn_violations with
     | [] -> "no torn batch"
     | v :: _ -> "TORN: " ^ v)
    (if List.for_all snd o.key_fastcheck then "atomic" else "NOT ATOMIC")
    (List.length o.key_fastcheck)
    (if List.length o.key_fastcheck = 1 then "" else "s")
    o.net.Sim_net.delivered o.net.Sim_net.dropped o.net.Sim_net.duplicated
    o.net.Sim_net.blocked Engine.pp_stats o.quorum
