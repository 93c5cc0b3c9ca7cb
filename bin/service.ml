(* The message-passing register service CLI.

     net sim    — deterministic simulated cluster under a fault schedule
     net smoke  — full workload over BOTH transports, audited + re-checked
     net serve  — replicas + server on Unix-domain sockets in a directory
     net client — connect to a served directory and run operations
     net stats  — fetch live metrics from a served cluster over the wire
     net replay — re-check a dumped trace (JSONL) with Fastcheck

   `dune exec bin/service.exe -- smoke` is the acceptance run: a server, two
   writer clients and n reader clients over sockets, then the same
   workload over the simulated transport with drops, reordering,
   duplication and a replica crash; both histories must pass the live
   Monitor audit and re-check clean with Fastcheck — and the socket leg
   must finish with zero wire decode errors. *)

module E = Histories.Event

let workload ~readers ~writes ~reads =
  Harness.Workload.unique_scripts
    { Harness.Workload.writers = 2; readers; writes_each = writes; reads_each = reads }

(* a key's post-hoc verdict ({!Net.Sim_run.fastcheck_by_key}: each key
   is an independent two-writer register and must certify on its own),
   as printed *)
let atomic_or = function Ok () -> "atomic" | Error m -> m

(* ------------------------------------------------------------------ *)
(* sim                                                                 *)

let run_sim engine seed replicas shards readers writes reads drop dup window
    crash partition show_history show_metrics trace_file =
  let faults = Net.Sim_net.lossy ~drop ~duplicate:dup () in
  let trace = Option.map (fun _ -> Net.Trace.create ()) trace_file in
  let spec =
    { Net.Sim_run.default with replicas; shards; keys = shards; window; engine }
  in
  let processes = workload ~readers ~writes ~reads in
  match
    Net.Sim_run.create ~faults ?trace spec ~seed
      ~workload:(Net.Sim_run.singles processes)
  with
  | exception Invalid_argument msg ->
    Fmt.epr "service sim: %s@." msg;
    2
  | cl ->
  let fates =
    (if crash then [ (40.0, Harness.Failure.Crash (replicas - 1)) ] else [])
    @
    if partition then
      [
        ( 60.0,
          Harness.Failure.Partition
            (cl.Net.Sim_run.replica_nodes, [ Net.Transport.server ]) );
        (120.0, Harness.Failure.Heal);
      ]
    else []
  in
  let o = Net.Sim_run.run ~fates cl in
  if show_history then
    Fmt.pr "%a@." (E.pp_history Fmt.int) o.Net.Sim_run.history;
  Fmt.pr "engine: %s@." (Engine_cli.name engine);
  Fmt.pr "%a@." Net.Sim_run.pp_outcome o;
  if shards > 1 then
    List.iter
      (fun (k, ok) ->
        Fmt.pr "  key %d: %s@." k (if ok then "atomic" else "NOT ATOMIC"))
      o.Net.Sim_run.key_fastcheck;
  if show_metrics then
    Fmt.pr "-- metrics --@.%a@." Net.Metrics.pp o.Net.Sim_run.metrics;
  (match (trace_file, trace) with
   | Some path, Some tr ->
     Net.Trace.dump tr path;
     Fmt.pr "trace: %d events -> %s (replay: service replay %s)@."
       (Net.Trace.recorded tr) path path
   | _ -> ());
  if o.Net.Sim_run.verdict = Net.Sim_run.Clean then 0 else 1

(* ------------------------------------------------------------------ *)
(* socket-cluster plumbing shared by smoke/serve                       *)

let start_cluster net ~engine ~replicas ~shards ~audit ?data_dir
    ?(group_commit = 0) ?(flush_us = 500) ?(domains = 1) ~snapshot_every
    ?history () =
  let tr = Net.Socket_net.transport net in
  let metrics = Net.Socket_net.metrics net in
  let replica_nodes = List.init replicas Fun.id in
  (* with --data-dir every node persists to real files: replicas WAL
     their accepted stores (persist-before-ack), the server WALs the
     write timestamps it issues, and all of them recover on restart.
     --group-commit batches those appends: one write+fsync per batch,
     acks deferred to the batch's durability. *)
  let gc =
    if group_commit > 1 then
      Some
        {
          Net.Storage.batch_max = group_commit;
          flush_every = float_of_int flush_us /. 1_000_000.;
        }
    else None
  in
  let storage_for name =
    Option.map
      (fun dir ->
        Net.Storage.create ~snapshot_every ?group_commit:gc
          (Net.Storage.file_backend ~fsync:true
             ~dir:(Filename.concat dir name) ()))
      data_dir
  in
  let reps =
    List.map
      (fun r ->
        let rep =
          Net.Replica.create ~init:0
            ?storage:(storage_for ("replica" ^ string_of_int r))
            ()
        in
        Net.Socket_net.listen net r (Net.Replica.serve rep ~transport:tr ~me:r);
        (r, rep))
      replica_nodes
  in
  (* the server side: one Server core per worker domain behind a
     Server_pool.  Each worker owns the shards congruent to its index
     and (durably) its own store — server-d<i> — so a durable service
     must be restarted with the same --domains. *)
  let server_store d =
    storage_for
      (if domains <= 1 then "server" else "server-d" ^ string_of_int d)
  in
  let pool =
    Net.Server_pool.create ~transport:tr ~audit ~metrics ?history
      ~engine:{ Net.Engine.kind = engine }
      ~storage:server_store
      ~map:(Net.Shard_map.create ~shards ())
      ~domains ~me:Net.Transport.server ~replicas:replica_nodes ~init:0 ()
  in
  Net.Socket_net.listen net Net.Transport.server (fun ~src msg ->
      Net.Server_pool.dispatch pool ~src msg);
  (pool, reps)

let run_socket_workload net ~window ~nkeys processes =
  let threads =
    List.map
      (fun { Registers.Vm.proc; script } ->
        Thread.create
          (fun () ->
            let c = Net.Client.connect ~net ~server:Net.Transport.server ~proc () in
            let r =
              Net.Client.run_keyed ~window c
                (List.mapi (fun i op -> (i mod nkeys, op)) script)
            in
            Net.Client.close c;
            r)
          ())
      processes
  in
  List.iter Thread.join threads

(* ------------------------------------------------------------------ *)
(* smoke                                                               *)

(* The socket subcommands' cluster shape, checked by the simulator's
   spec validator before any socket opens: [Error] carries the
   message. *)
let cluster_shape ~engine ~replicas ~shards ~domains =
  let spec =
    { Net.Sim_run.default with replicas; shards; keys = shards; engine;
      domains }
  in
  match Net.Sim_run.validate spec with
  | () -> Ok spec
  | exception Invalid_argument msg -> Error msg

let run_smoke engine shards readers writes reads seed data_dir group_commit
    flush_us domains snapshot_every reconfig show_metrics =
  match cluster_shape ~engine ~replicas:3 ~shards ~domains with
  | Error msg ->
    Fmt.epr "service smoke: %s@." msg;
    2
  | Ok spec ->
  let processes = workload ~readers ~writes ~reads in
  let expected =
    List.fold_left (fun n { Registers.Vm.script; _ } -> n + List.length script)
      0 processes
  in
  let nkeys = max 1 shards in
  (* --- socket transport --- *)
  Fmt.pr
    "== socket transport (Unix-domain, %d replicas, %d shard%s, %d domain%s, \
     %s engine%s, crash 1) ==@."
    3 shards
    (if shards = 1 then "" else "s")
    domains
    (if domains = 1 then "" else "s")
    (Engine_cli.name engine)
    (if group_commit > 1 then
       Fmt.str ", group commit %d/%dus" group_commit flush_us
     else "");
  let net = Net.Socket_net.create () in
  let metrics = Net.Socket_net.metrics net in
  (* the pool's cores keep their history for the per-key re-check *)
  let pool, reps =
    start_cluster net ~engine ~replicas:3 ~shards ~audit:true ?data_dir
      ~group_commit ~flush_us ~domains ~snapshot_every ~history:true ()
  in
  let killer =
    Thread.create
      (fun () ->
        Thread.delay 0.2;
        Net.Socket_net.crash net 2)
      ()
  in
  run_socket_workload net ~window:8 ~nkeys processes;
  (* multi-key phase through the same sockets: the two writers commit
     whole-keyspace atomic batches while readers take consistent
     snapshots; the shared coordinator audits every snapshot against
     every committed batch.  Values live in their own range so the
     per-key fastcheck below stays unique-write. *)
  let txn_rounds = 10 in
  let all_keys = List.init nkeys Fun.id in
  let txn_threads =
    List.map
      (fun p ->
        Thread.create
          (fun () ->
            let c =
              Net.Client.connect ~net ~server:Net.Transport.server ~proc:p ()
            in
            for i = 0 to txn_rounds - 1 do
              Net.Client.txn_k c
                (List.map
                   (fun k ->
                     (k, 900_000 + (100_000 * p) + (i * nkeys) + k))
                   all_keys)
            done;
            Net.Client.close c)
          ())
      [ 0; 1 ]
  in
  let snap_threads =
    List.map
      (fun p ->
        Thread.create
          (fun () ->
            let c =
              Net.Client.connect ~net ~server:Net.Transport.server ~proc:p ()
            in
            for _ = 1 to txn_rounds do
              ignore (Net.Client.snap_k c all_keys)
            done;
            Net.Client.close c)
          ())
      [ 2; 3 ]
  in
  List.iter Thread.join (txn_threads @ snap_threads);
  Thread.join killer;
  (* --reconfig phase: migrate the hot key to the next shard while
     clients keep hammering it through the same sockets; the ack's
     epoch and the per-key audits below gate the phase.  Values live
     in their own range so the per-key fastcheck stays unique-write. *)
  let reshard_rounds = 20 in
  let reconfig_ops = ref 0 in
  let reconfig_ok, reshard_note =
    if not reconfig then (true, None)
    else begin
      let key = 0 in
      let from_shard =
        Net.Shard_map.shard_of_key (Net.Shard_map.create ~shards ()) key
      in
      let to_shard = (from_shard + 1) mod shards in
      let stop = ref false in
      let counts = Array.make 3 0 in
      let hammer p =
        Thread.create
          (fun () ->
            let c =
              Net.Client.connect ~net ~server:Net.Transport.server ~proc:p ()
            in
            let i = ref 0 in
            (* at least [reshard_rounds] ops each, then run until the
               migration resolves (capped so writes stay unique) *)
            while !i < reshard_rounds || ((not !stop) && !i < 50_000) do
              incr i;
              if p <= 1 then
                Net.Client.write_k c ~key (600_000 + (200_000 * p) + !i)
              else ignore (Net.Client.read_k c ~key)
            done;
            counts.(p) <- !i;
            Net.Client.close c)
          ()
      in
      let hammers = List.map hammer [ 0; 1; 2 ] in
      let cc =
        Net.Client.connect ~net ~server:Net.Transport.server ~proc:9 ()
      in
      let verdict =
        match Net.Client.reshard cc ~key ~to_shard with
        | e -> Ok e
        | exception Invalid_argument msg -> Error msg
      in
      stop := true;
      List.iter Thread.join hammers;
      reconfig_ops := Array.fold_left ( + ) 0 counts;
      let result =
        match verdict with
        | Ok e ->
          (* worker 0 answers the epoch probe, and the migration ran on
             the key's worker: with several, its epoch may lag *)
          let eok = domains > 1 || Net.Client.epoch cc >= e in
          ( e >= 1 && eok,
            Some
              (Fmt.str
                 "reshard key %d: shard %d -> %d -> ok, epoch %d (%d ops \
                  raced the handoff)"
                 key from_shard to_shard e !reconfig_ops) )
        | Error msg ->
          (false, Some (Fmt.str "reshard key %d: refused (%s)" key msg))
      in
      Net.Client.close cc;
      result
    end
  in
  (* the pool answers and counts each multi-key op once; the verdict
     counts it once per key it spans, as every simulated run does *)
  let multi_key = 4 * txn_rounds in
  let expected = expected + multi_key + !reconfig_ops in
  let expected_per_key = expected + (multi_key * (nkeys - 1)) in
  (* the operator's view, fetched over the wire as [service stats]
     does: the pool's shared counters must count exactly the ops this
     smoke's clients issued *)
  let reply =
    let c = Net.Client.connect ~net ~server:Net.Transport.server ~proc:8 () in
    let r = Net.Client.stats c in
    Net.Client.close c;
    r
  in
  let stat name = Option.value ~default:(-1) (List.assoc_opt name reply) in
  (* drain every commit queue before the durability check below: the
     in-memory tables hold eagerly applied entries whose batches may
     still be pending (only their acks wait on durability), and the
     reopen-equality gate compares disk state against those tables *)
  List.iter
    (fun (_, rep) ->
      Option.iter Net.Storage.flush (Net.Replica.storage rep))
    reps;
  (* join the worker domains before reading the histories: the pool's
     aggregate accessors want a quiescent pool *)
  Net.Server_pool.stop pool;
  let per_key, responded = Net.Sim_run.recheck ~init:0 pool in
  let violations = Net.Server_pool.violations pool in
  let served = Net.Server_pool.ops_served pool in
  let verdict =
    Net.Sim_run.judge ~fastcheck:per_key
      ~answered:(responded, expected_per_key) pool
  in
  Net.Socket_net.shutdown net;
  let decode_errors = Net.Metrics.get metrics "decode_errors" in
  let mon =
    match violations with
    | [] -> "no violation"
    | (k, v) :: _ ->
      Fmt.str "VIOLATION on key %d: %a" k
        (Histories.Fastcheck.pp_violation Fmt.int) v
  in
  Fmt.pr "  %d/%d ops served; live audit: %s; decode errors: %d@."
    served expected mon decode_errors;
  let reply_ok = stat "ops_served" = expected in
  Fmt.pr "  stats reply: %d ops served%s@." (stat "ops_served")
    (if reply_ok then "" else " — MISMATCH");
  if show_metrics then
    Fmt.pr "  stats reply %a@." Net.Engine.pp_stats
      (Net.Engine.stats_of engine stat);
  List.iter (fun (k, v) -> Fmt.pr "  key %d: %s@." k (atomic_or v)) per_key;
  if verdict <> Net.Sim_run.Clean then
    Fmt.pr "  verdict: %a@." Net.Sim_run.pp_verdict verdict;
  let txn_viol = Net.Server_pool.txn_violations pool in
  let txs = Net.Txn.stats (Net.Server_pool.txns pool) in
  Fmt.pr "  txn phase: %d batches committed, %d snapshots served; txn audit: \
          %s@."
    txs.Net.Txn.txns_committed txs.Net.Txn.snaps_served
    (match txn_viol with
     | [] -> "no torn batch"
     | v :: _ -> "TORN: " ^ v);
  (match reshard_note with Some s -> Fmt.pr "  %s@." s | None -> ());
  (* with --data-dir, prove the durability round trip: reopen every
     replica's on-disk store fresh and require the recovered table to
     equal the live replica's — including the crashed replica 2, whose
     WAL must hold exactly what it acked before dying *)
  let durable_ok =
    match data_dir with
    | None -> true
    | Some dir ->
      let ok =
        List.for_all
          (fun (r, rep) ->
            let st =
              Net.Storage.create
                (Net.Storage.file_backend
                   ~dir:(Filename.concat dir ("replica" ^ string_of_int r))
                   ())
            in
            let recovered = Net.Storage.contents st in
            Net.Storage.close st;
            recovered = Net.Replica.contents rep)
          reps
      in
      Fmt.pr "  durability: %d replica stores reopened from %s: %s@."
        (List.length reps) dir
        (if ok then "recovered state = live state" else "RECOVERY MISMATCH");
      ok
  in
  List.iter
    (fun (r, rep) ->
      match Net.Replica.storage rep with
      | None -> ()
      | Some st ->
        let s = Net.Storage.stats st in
        Fmt.pr "  replica %d store: %d snapshots, wal %d bytes@." r
          s.Net.Storage.snapshots_taken s.Net.Storage.wal_size)
    reps;
  if show_metrics then Fmt.pr "-- socket metrics --@.%a@." Net.Metrics.pp metrics;
  (* the gate: a clean verdict (every op served and in the history,
     every audit accepting, every key's history re-checked atomic), a
     byte-clean wire, and (with --data-dir) a lossless recovery round
     trip *)
  let socket_ok =
    verdict = Net.Sim_run.Clean && reply_ok
    && decode_errors = 0
    && durable_ok && reconfig_ok
    && txs.Net.Txn.txns_committed = 2 * txn_rounds
    && txs.Net.Txn.snaps_served = 2 * txn_rounds
  in
  (* --- simulated transport under faults --- *)
  Fmt.pr
    "== simulated transport (drop 15%%, dup 10%%, jitter, %s engine, replica \
     crash) ==@."
    (Engine_cli.name engine);
  (* same batching discipline under the simulator: deferred acks must
     survive drops, duplication and a replica crash too (flush deadline
     in virtual-time units) *)
  let group_commit =
    if group_commit > 1 then
      Some { Net.Storage.batch_max = group_commit; flush_every = 0.5 }
    else None
  in
  let store = Some { Net.Sim_run.default_store with group_commit } in
  let cl =
    Net.Sim_run.create
      ~faults:(Net.Sim_net.lossy ~drop:0.15 ~duplicate:0.1 ())
      { spec with store } ~seed ~workload:(Net.Sim_run.singles processes)
  in
  let o = Net.Sim_run.run ~fates:[ (40.0, Harness.Failure.Crash 2) ] cl in
  Fmt.pr "%a@." Net.Sim_run.pp_outcome o;
  if show_metrics then
    Fmt.pr "-- sim metrics --@.%a@." Net.Metrics.pp o.Net.Sim_run.metrics;
  let sim_ok = o.Net.Sim_run.verdict = Net.Sim_run.Clean in
  Fmt.pr "smoke: %s@." (if socket_ok && sim_ok then "PASS" else "FAIL");
  if socket_ok && sim_ok then 0 else 1

(* ------------------------------------------------------------------ *)
(* serve / client                                                      *)

let run_serve dir engine replicas shards audit data_dir group_commit flush_us
    domains snapshot_every show_metrics =
  match cluster_shape ~engine ~replicas ~shards ~domains with
  | Error msg ->
    Fmt.epr "service serve: %s@." msg;
    2
  | Ok _ ->
  let net = Net.Socket_net.create ~dir () in
  let _pool, reps =
    start_cluster net ~engine ~replicas ~shards ~audit ?data_dir ~group_commit
      ~flush_us ~domains ~snapshot_every ()
  in
  Fmt.pr
    "serving the two-writer keyspace in %s (%d replicas, %d shard%s, %d \
     worker domain%s, %s engine%s)@."
    dir replicas shards
    (if shards = 1 then "" else "s")
    domains
    (if domains = 1 then "" else "s")
    (Engine_cli.name engine)
    (match data_dir with
     | None -> ", volatile"
     | Some d ->
       Fmt.str ", durable in %s%s" d
         (if group_commit > 1 then
            Fmt.str ", group commit %d/%dus" group_commit flush_us
          else ""));
  List.iter
    (fun (r, rep) ->
      match Net.Replica.storage rep with
      | None -> ()
      | Some st ->
        let s = Net.Storage.stats st in
        Fmt.pr "  replica %d: recovered %d register%s (snapshot %d, wal %d%s)@."
          r
          (List.length (Net.Storage.contents st))
          (if List.length (Net.Storage.contents st) = 1 then "" else "s")
          s.Net.Storage.recovered_snapshot s.Net.Storage.recovered_wal
          (if s.Net.Storage.torn_bytes = 0 then ""
           else Fmt.str ", %d torn bytes repaired" s.Net.Storage.torn_bytes))
    reps;
  Fmt.pr "stop with C-c; clients: dune exec bin/service.exe -- client -d %s ...@."
    dir;
  if show_metrics then
    let metrics = Net.Socket_net.metrics net in
    while true do
      Unix.sleep 10;
      Fmt.pr "-- metrics @@ %s --@.%a@."
        (let t = Unix.localtime (Unix.time ()) in
         Fmt.str "%02d:%02d:%02d" t.Unix.tm_hour t.Unix.tm_min t.Unix.tm_sec)
        Net.Metrics.pp metrics
    done
  else
    while true do
      Unix.sleep 3600
    done;
  0

(* live counters over the wire: connect as an ordinary client node and
   ask the server for a Stats_reply *)
let run_stats dir proc =
  let net = Net.Socket_net.create ~dir () in
  let server_sock = Net.Socket_net.path net Net.Transport.server in
  if not (Sys.file_exists server_sock) then begin
    Fmt.epr
      "service: no server socket at %s (is `service serve -d %s` running?)@."
      server_sock dir;
    Net.Socket_net.shutdown net;
    exit 1
  end;
  let c = Net.Client.connect ~net ~server:Net.Transport.server ~proc () in
  let stats = Net.Client.stats c in
  Net.Client.close c;
  Net.Socket_net.shutdown net;
  let width =
    List.fold_left (fun w (n, _) -> max w (String.length n)) 0 stats
  in
  List.iter
    (fun (n, v) ->
      (* the engine row is a protocol code: print it by name *)
      match if n = "engine" then Net.Engine.kind_of_code v else None with
      | Some k -> Fmt.pr "%-*s %s@." width n (Engine_cli.name k)
      | None -> Fmt.pr "%-*s %d@." width n v)
    stats;
  0

(* offline replay: parse a dumped trace and re-check every key's
   operation history for atomicity (old unkeyed dumps parse as key 0) *)
let run_replay file init =
  match Net.Trace.keyed_history_of_file file with
  | exception Sys_error msg ->
    Fmt.epr "service: %s@." msg;
    2
  | [] ->
    Fmt.epr "replay: no operation events in %s@." file;
    1
  | keyed ->
    let n = List.length keyed in
    let per_key = Net.Sim_run.fastcheck_by_key ~init keyed in
    List.iter
      (fun (k, v) -> Fmt.pr "replay: key %d: %s@." k (atomic_or v))
      per_key;
    let ok = List.for_all (fun (_, v) -> Result.is_ok v) per_key in
    Fmt.pr "replay: %d events over %d key%s: %s@." n (List.length per_key)
      (if List.length per_key = 1 then "" else "s")
      (if ok then "atomic" else "NOT ATOMIC");
    if ok then 0 else 1

let run_client dir proc ops =
  (* unkeyed ops address key 0; get/put name a key of the keyspace;
     txn/snap are the multi-key verbs *)
  let parse s =
    let int_or_fail what v =
      match int_of_string_opt v with
      | Some v -> v
      | None -> Fmt.failwith "cannot parse %s in %S" what s
    in
    (* [start_cluster] starts every register at 0, and the server's
       audit takes a write of 0 for a second write of that initial
       value, so refuse it here: the server would ack it either way *)
    let value v =
      match int_or_fail "value" v with
      | 0 -> Fmt.failwith "cannot write 0 in %S: it is the initial value" s
      | v -> v
    in
    match String.split_on_char ':' s with
    | [ "read" ] -> `Key (0, E.Read)
    | [ "write"; v ] -> `Key (0, E.Write (value v))
    | [ "get"; k ] -> `Key (int_or_fail "key" k, E.Read)
    | [ "put"; k; v ] -> `Key (int_or_fail "key" k, E.Write (value v))
    | [ "txn"; spec ] ->
      `Txn
        (List.map
           (fun pair ->
             match String.split_on_char '=' pair with
             | [ k; v ] -> (int_or_fail "key" k, value v)
             | _ -> Fmt.failwith "cannot parse pair %S in %S" pair s)
           (String.split_on_char ',' spec))
    | [ "snap"; spec ] ->
      `Snap (List.map (int_or_fail "key") (String.split_on_char ',' spec))
    | [ "epoch" ] -> `Epoch
    | [ "reshard"; spec ] -> (
      match String.split_on_char '=' spec with
      | [ k; sh ] -> `Reshard (int_or_fail "key" k, int_or_fail "shard" sh)
      | _ -> Fmt.failwith "cannot parse %S in %S (reshard:K=S)" spec s)
    | _ ->
      Fmt.failwith
        "cannot parse operation %S (read | write:N | get:K | put:K:N | \
         txn:K=V,K=V | snap:K,K | epoch | reshard:K=S)"
        s
  in
  match List.map parse ops with
  | exception Failure msg ->
    Fmt.epr "service: %s@." msg;
    2
  | script ->
    let net = Net.Socket_net.create ~dir () in
    let server_sock = Net.Socket_net.path net Net.Transport.server in
    if not (Sys.file_exists server_sock) then begin
      Fmt.epr
        "service: no server socket at %s (is `service serve -d %s` running?)@."
        server_sock dir;
      Net.Socket_net.shutdown net;
      exit 1
    end;
    let c = Net.Client.connect ~net ~server:Net.Transport.server ~proc () in
    let rejected = ref false in
    let pk key ppf () =
      if key <> 0 then Fmt.pf ppf "[%d] " key else Fmt.pf ppf ""
    in
    List.iter
      (fun item ->
        match item with
        | `Key (key, E.Read) -> (
          match Net.Client.read_k c ~key with
          | v -> Fmt.pr "read %a-> %d@." (pk key) () v
          | exception Invalid_argument _ ->
            rejected := true;
            Fmt.pr "read %a-> rejected@." (pk key) ())
        | `Key (key, E.Write v) -> (
          match Net.Client.write_k c ~key v with
          | () -> Fmt.pr "write %a%d -> ack@." (pk key) () v
          | exception Invalid_argument _ ->
            rejected := true;
            Fmt.pr
              "write %a%d -> rejected (only processors 0 and 1 write, to \
               keys >= 0)@."
              (pk key) () v)
        | `Txn writes -> (
          let spec =
            String.concat ","
              (List.map (fun (k, v) -> Fmt.str "%d=%d" k v) writes)
          in
          match Net.Client.txn_k c writes with
          | () -> Fmt.pr "txn %s -> committed@." spec
          | exception Invalid_argument msg ->
            rejected := true;
            Fmt.pr "txn %s -> rejected (%s)@." spec msg)
        | `Snap keys -> (
          let spec = String.concat "," (List.map string_of_int keys) in
          match Net.Client.snap_k c keys with
          | vs ->
            Fmt.pr "snap %s -> %s@." spec
              (String.concat "," (List.map string_of_int vs))
          | exception Invalid_argument msg ->
            rejected := true;
            Fmt.pr "snap %s -> rejected (%s)@." spec msg)
        | `Epoch -> Fmt.pr "epoch -> %d@." (Net.Client.epoch c)
        | `Reshard (key, to_shard) -> (
          match Net.Client.reshard c ~key ~to_shard with
          | e ->
            Fmt.pr "reshard %d -> shard %d -> ok (epoch %d)@." key to_shard e
          | exception Invalid_argument msg ->
            rejected := true;
            Fmt.pr "reshard %d -> shard %d -> rejected (%s)@." key to_shard
              msg))
      script;
    Net.Client.close c;
    Net.Socket_net.shutdown net;
    if !rejected then 1 else 0

(* ------------------------------------------------------------------ *)

open Cmdliner

let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Fault-schedule seed.")

let shards =
  Arg.(value & opt int 1
       & info [ "shards" ] ~doc:"Shards of the keyspace (1 = the classic \
                                 single two-writer register).")
let readers = Arg.(value & opt int 2 & info [ "readers" ] ~doc:"Reader clients.")
let writes = Arg.(value & opt int 5 & info [ "writes" ] ~doc:"Writes per writer.")
let reads = Arg.(value & opt int 8 & info [ "reads" ] ~doc:"Reads per reader.")

let metrics_flag =
  Arg.(value & flag
       & info [ "metrics" ] ~doc:"Print a metrics snapshot (counters and \
                                  latency percentiles).")

let data_dir =
  Arg.(value & opt (some string) None
       & info [ "data-dir" ] ~docv:"DIR"
           ~doc:"Persist every node's state under $(docv) (one \
                 subdirectory per replica plus one for the server's \
                 write timestamps): checksummed WALs with periodic \
                 snapshots, recovered on restart.")

let group_commit_arg =
  Arg.(value & opt int 0
       & info [ "group-commit" ] ~docv:"N"
           ~doc:"Batch up to $(docv) WAL appends into one write+fsync \
                 per store (group commit); acks wait for their batch. \
                 0 or 1 disables.  Socket nodes have stores only with \
                 --data-dir; smoke's simulated leg uses this batch size \
                 either way.")

let flush_us_arg =
  Arg.(value & opt int 500
       & info [ "flush-us" ] ~docv:"US"
           ~doc:"Group-commit flush deadline in microseconds: a \
                 partially filled batch is committed at most this long \
                 after its first append.  A server worker commits its \
                 store sooner, as soon as it has no work queued; a \
                 replica waits for the deadline.  0 commits at the end \
                 of every handled message.")

let snapshot_every_arg =
  Arg.(value & opt int 1024
       & info [ "snapshot-every" ] ~docv:"N"
           ~doc:"Store compaction: every $(docv) appends a store \
                 snapshots its table and truncates its log.  0 never \
                 compacts.  Only meaningful with --data-dir.")

let domains_arg =
  Arg.(value & opt int 1
       & info [ "domains" ] ~docv:"N"
           ~doc:"Server worker domains: the keyspace's shards are \
                 partitioned $(docv) ways (shard mod $(docv)) and each \
                 partition is served by its own OCaml domain with its \
                 own engines and monitors — and, with --data-dir, its \
                 own store (server-d<i>), so restart a durable service \
                 with the same $(docv).  Smoke's simulated leg runs the \
                 same $(docv) workers, one simulator event per turn.")

let sim_cmd =
  let replicas =
    Arg.(value & opt int 3 & info [ "replicas" ] ~doc:"Replica count.")
  in
  let drop =
    Arg.(value & opt float 0.1 & info [ "drop" ] ~doc:"Message drop probability.")
  in
  let dup =
    Arg.(value & opt float 0.05
         & info [ "dup" ] ~doc:"Message duplication probability.")
  in
  let window =
    Arg.(value & opt int 4 & info [ "window" ] ~doc:"Client pipelining window.")
  in
  let crash =
    Arg.(value & flag & info [ "crash-replica" ] ~doc:"Crash the last replica.")
  in
  let partition =
    Arg.(value & flag
         & info [ "partition" ] ~doc:"Partition the replicas for a while.")
  in
  let history =
    Arg.(value & flag & info [ "history" ] ~doc:"Print the served history.")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Dump the event trace as JSONL to $(docv) (virtual-time \
                   stamped; replay with `service replay $(docv)`).")
  in
  Cmd.v
    (Cmd.info "sim" ~doc:"Run a workload over the simulated transport")
    Term.(const run_sim $ Engine_cli.term $ seed $ replicas $ shards $ readers
          $ writes $ reads $ drop $ dup $ window $ crash $ partition $ history
          $ metrics_flag $ trace)

let smoke_cmd =
  let reconfig_arg =
    Arg.(value & flag
         & info [ "reconfig" ]
             ~doc:"Add a live-resharding phase: migrate the hot key to \
                   the next shard while clients keep hammering it; the \
                   ack's epoch and the per-key audits gate the phase.")
  in
  Cmd.v
    (Cmd.info "smoke"
       ~doc:"Serve a workload over both transports; audit + re-check")
    Term.(const run_smoke $ Engine_cli.term $ shards $ readers $ writes
          $ reads $ seed $ data_dir $ group_commit_arg $ flush_us_arg
          $ domains_arg $ snapshot_every_arg $ reconfig_arg $ metrics_flag)

let dir_arg =
  Arg.(required
       & opt (some string) None
       & info [ "d"; "dir" ] ~doc:"Socket directory of the cluster.")

let serve_cmd =
  let replicas =
    Arg.(value & opt int 3 & info [ "replicas" ] ~doc:"Replica count.")
  in
  let audit =
    Arg.(value & opt bool true & info [ "audit" ] ~doc:"Live atomicity audit.")
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Serve the keyspace over Unix-domain sockets")
    Term.(const run_serve $ dir_arg $ Engine_cli.term $ replicas $ shards
          $ audit $ data_dir $ group_commit_arg $ flush_us_arg $ domains_arg
          $ snapshot_every_arg $ metrics_flag)

let client_cmd =
  let proc =
    Arg.(value & opt int 2
         & info [ "proc" ] ~doc:"Processor id (0/1 are the writers).")
  in
  let ops =
    Arg.(value & pos_all string []
         & info [] ~docv:"OP"
             ~doc:"Operations: read, write:N (key 0), get:K, put:K:N, \
                   txn:K=V,K=V (atomic multi-key batch), snap:K,K \
                   (consistent snapshot), epoch (current configuration \
                   epoch), reshard:K=S (live-migrate key K onto shard \
                   S).  A written value N or V must not be 0, every \
                   register's initial value.")
  in
  Cmd.v
    (Cmd.info "client" ~doc:"Run operations against a served keyspace")
    Term.(const run_client $ dir_arg $ proc $ ops)

let stats_cmd =
  let proc =
    Arg.(value & opt int 9 & info [ "proc" ] ~doc:"Processor id to connect as.")
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Fetch live metrics from a served register")
    Term.(const run_stats $ dir_arg $ proc)

let replay_cmd =
  let file =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"Trace dump (JSONL) to re-check.")
  in
  let init =
    Arg.(value & opt int 0 & info [ "init" ] ~doc:"Initial register value.")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Re-check a dumped trace for atomicity with Fastcheck")
    Term.(const run_replay $ file $ init)

let cmd =
  Cmd.group
    (Cmd.info "service" ~doc:"The two-writer register as a message-passing service")
    [ sim_cmd; smoke_cmd; serve_cmd; client_cmd; stats_cmd; replay_cmd ]

let () = exit (Cmd.eval' cmd)
