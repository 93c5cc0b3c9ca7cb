(* Live reconfiguration under traffic: the {!Net.Reconfig} dual-quorum
   handoff driven through the simulator.  Tier-1 covers migrations with
   clients mid-flight on both engines, the trivial and out-of-range request
   shapes, the raw wire-level nack discipline (stale epoch, busy, range)
   via a hand-rolled control client, and a crash-point matrix that tears
   a replica disk at every append ordinal while a migration is in
   flight.  The socket legs (reshard under live threads, close-seal
   during a migration, pools of one, two and four domains) sweep in
   [slow_suite]. *)

module R = Net.Sim_run
module S = Net.Storage
module W = Net.Wire

let tc = Helpers.tc
let tc_slow = Helpers.tc_slow
let w v = Histories.Event.Write v
let rd = Histories.Event.Read
let xp p script = { R.xproc = p; xscript = script }
let k key op = R.Keyed (key, op)
let espec kind = { Net.Engine.kind }
let engines = [ Net.Engine.Abd; Net.Engine.Twobit ]

(* the migrating key, and where it starts / goes under 2 shards *)
let hot = 3
let base_shard = Net.Shard_map.shard_of_key (Net.Shard_map.create ~shards:2 ()) hot
let target_shard = 1 - base_shard

(* a request to migrate [hot] onto [to_shard], sent at build time *)
let move_hot to_shard = { R.key = hot; to_shard; at = None }

(* two writers (procs 0, 1 — the two-writer register construction) and
   two readers hammering the migrating key, with side traffic on the
   other keys so the untouched shards stay busy; values are globally
   unique so every per-key fastcheck applies *)
let traffic =
  [
    xp 0 [ k hot (w 101); k 0 (w 111); k hot (w 102); k 0 (w 112); k hot (w 103) ];
    xp 1 [ k hot (w 201); k 1 (w 211); k hot (w 202); k 2 (w 221); k hot (w 203) ];
    xp 2 [ k hot rd; k hot rd; k hot rd; k hot rd; k hot rd; k hot rd ];
    xp 3 [ k hot rd; k 0 rd; k hot rd; k 1 rd; k hot rd ];
  ]

let check_clean ~what (o : R.outcome) =
  (match o.R.key_violations with
   | [] -> ()
   | (key, v) :: _ -> Alcotest.failf "%s: key %d audit: %s" what key v);
  Alcotest.(check bool) (what ^ ": fastcheck atomic") true o.R.fastcheck_ok;
  Alcotest.(check int) (what ^ ": all ops completed") o.R.expected o.R.completed

let check_migrated ~what (o : R.outcome) =
  check_clean ~what o;
  Alcotest.(check int) (what ^ ": epoch advanced exactly once") 1 o.R.epoch;
  Alcotest.(check (option bool)) (what ^ ": migration acked ok") (Some true)
    o.R.reconfig_acked

(* ------------------------------------------------------------------ *)
(* Migration under traffic                                             *)

let sim_migration_under_traffic () =
  (* the sharpest topology: disjoint singleton replica groups, so the
     handoff really moves the key's data between replicas; both engines,
     a spread of fault seeds *)
  List.iter
    (fun kind ->
      for seed = 0 to 4 do
        let what = Fmt.str "%s seed %d" (Net.Engine.kind_name kind) seed in
        let o =
          R.run
            (R.create ~reconfig:(move_hot target_shard)
               {
                 R.default with
                 replicas = 2;
                 shards = 2;
                 keys = 4;
                 engine = kind;
                 group_size = Some 1;
               }
               ~seed ~workload:traffic)
        in
        check_migrated ~what o
      done)
    engines

let sim_migration_full_group () =
  (* overlapping groups (3 replicas serve both shards): the handoff
     degenerates to an engine switch on the same replica set and must
     still be atomic and ack exactly one epoch *)
  List.iter
    (fun kind ->
      let what = Fmt.str "full group %s" (Net.Engine.kind_name kind) in
      let o =
        R.run
          (R.create ~reconfig:(move_hot target_shard)
             {
               R.default with
               replicas = 3;
               shards = 2;
               keys = 4;
               engine = kind;
             }
             ~seed:11 ~workload:traffic)
      in
      check_migrated ~what o)
    engines

let sim_migration_stats () =
  (* reach past the outcome into the server: the coordinator's ledger
     must show exactly one started-and-completed migration, and the
     per-shard op counters must account for every completed op *)
  let cl =
    R.create ~reconfig:(move_hot target_shard)
      { R.default with replicas = 2; shards = 2; keys = 4; group_size = Some 1 }
      ~seed:3 ~workload:traffic
  in
  let steps = Net.Sim_net.run cl.R.net in
  let o = R.collect cl ~steps in
  check_migrated ~what:"stats run" o;
  Alcotest.(check int) "server epoch agrees" 1 (Net.Server.epoch cl.R.server);
  let stat = Net.Metrics.get cl.R.metrics in
  Alcotest.(check int) "one migration started" 1 (stat "reconfig_started");
  Alcotest.(check int) "one migration completed" 1 (stat "reconfig_completed");
  Alcotest.(check int) "no nacks" 0 (stat "reconfig_nacked");
  let sharded =
    Net.Metrics.get cl.R.metrics "shard0_ops"
    + Net.Metrics.get cl.R.metrics "shard1_ops"
  in
  Alcotest.(check int) "shard op counters account for every op" o.R.completed
    sharded

let sim_same_shard_advance () =
  (* migrating a key to the shard it already lives on is still a
     configuration change: acked ok, epoch advances, nothing moves *)
  let o =
    R.run
      (R.create ~reconfig:(move_hot base_shard)
         {
           R.default with
           replicas = 2;
           shards = 2;
           keys = 4;
           group_size = Some 1;
         }
         ~seed:5 ~workload:traffic)
  in
  check_migrated ~what:"same-shard advance" o

let sim_out_of_range_nacked () =
  (* a target shard outside the map is refused — nack, epoch stays 0,
     traffic unharmed *)
  let o =
    R.run
      (R.create ~reconfig:(move_hot 9)
         {
           R.default with
           replicas = 2;
           shards = 2;
           keys = 4;
           group_size = Some 1;
         }
         ~seed:5 ~workload:traffic)
  in
  check_clean ~what:"out-of-range" o;
  Alcotest.(check int) "epoch unmoved" 0 o.R.epoch;
  Alcotest.(check (option bool)) "request nacked" (Some false) o.R.reconfig_acked

(* ------------------------------------------------------------------ *)
(* Wire-level nack discipline                                          *)

let sim_nack_discipline () =
  (* drive raw [Wire.Reconfig] frames from a hand-rolled control client
     over a constant-delay network, so delivery order is the send
     order: a stale epoch and an out-of-range shard nack with the
     current epoch, a request racing an active migration nacks busy,
     and after cutover the old epoch is fenced while the new one is
     accepted *)
  let cl =
    R.create ~faults:Net.Sim_net.reliable
      { R.default with replicas = 2; shards = 2; keys = 4; group_size = Some 1 }
      ~seed:1 ~workload:[ xp 0 [ k hot (w 41) ] ]
  in
  let net = cl.R.net in
  let tr = Net.Sim_net.transport net in
  let me = Net.Transport.client 98 in
  let acks : (int, int * bool) Hashtbl.t = Hashtbl.create 8 in
  let epochs : (int, int * int) Hashtbl.t = Hashtbl.create 8 in
  Net.Sim_net.register net me (fun ~src:_ msg ->
      match msg with
      | W.Reconfig_ack { rid; epoch; ok } ->
        if Hashtbl.mem acks rid then Alcotest.failf "rid %d acked twice" rid;
        Hashtbl.replace acks rid (epoch, ok)
      | W.Epoch_reply { rid; epoch; shards } ->
        Hashtbl.replace epochs rid (epoch, shards)
      | _ -> ());
  let send rid key to_shard epoch =
    tr.Net.Transport.send ~src:me ~dst:Net.Transport.server
      (W.Reconfig { rid; key; to_shard; epoch })
  in
  let expect_ack rid what epoch ok =
    match Hashtbl.find_opt acks rid with
    | None -> Alcotest.failf "%s: no ack for rid %d" what rid
    | Some got ->
      Alcotest.(check (pair int bool)) what (epoch, ok) got
  in
  (* delivered in order at t=1: stale epoch, bad shard, epoch probe *)
  send 1 hot target_shard 7;
  send 2 hot 9 0;
  tr.Net.Transport.send ~src:me ~dst:Net.Transport.server (W.Epoch_req { rid = 3 });
  (* valid request lands at t=3.5, while the opening write is still in
     flight; the busy probe lands mid-handoff at t=5.2 *)
  Net.Sim_net.at net 2.5 (fun () -> send 4 hot target_shard 0);
  Net.Sim_net.at net 4.2 (fun () -> send 5 hot base_shard 0);
  let steps = Net.Sim_net.run net in
  let o = R.collect cl ~steps in
  check_clean ~what:"nack run" o;
  Alcotest.(check int) "nack run: epoch advanced exactly once" 1 o.R.epoch;
  Alcotest.(check (option bool))
    "nack run: no built-in requester, no built-in verdict" None
    o.R.reconfig_acked;
  expect_ack 1 "stale epoch nacked with current epoch" 0 false;
  expect_ack 2 "out-of-range shard nacked" 0 false;
  Alcotest.(check (pair int int)) "epoch probe answered" (0, 2)
    (Option.get (Hashtbl.find_opt epochs 3));
  expect_ack 4 "valid request acked with the new epoch" 1 true;
  expect_ack 5 "request racing the handoff nacked busy" 0 false;
  (* the old epoch is now fenced; the new epoch migrates the key home *)
  send 6 hot base_shard 0;
  ignore (Net.Sim_net.run net);
  expect_ack 6 "pre-cutover epoch fenced" 1 false;
  send 7 hot base_shard 1;
  ignore (Net.Sim_net.run net);
  expect_ack 7 "current epoch migrates home" 2 true;
  tr.Net.Transport.send ~src:me ~dst:Net.Transport.server (W.Epoch_req { rid = 8 });
  ignore (Net.Sim_net.run net);
  Alcotest.(check (pair int int)) "epoch probe reflects both handoffs" (2, 2)
    (Option.get (Hashtbl.find_opt epochs 8));
  let stat = Net.Metrics.get cl.R.metrics in
  Alcotest.(check int) "four nacks on the ledger" 4 (stat "reconfig_nacked");
  Alcotest.(check int) "two migrations completed" 2 (stat "reconfig_completed")

(* ------------------------------------------------------------------ *)
(* Crash points mid-migration                                          *)

let sim_crash_points_mid_migration () =
  (* the storage crash-point matrix with a migration in flight: tear
     replica 0's disk (and kill the process) at every append ordinal.
     The surviving majority must finish the workload atomically, the
     handoff must land in exactly one epoch with its ack delivered, and
     the restarted replica must equal the fold of its captured disk —
     no acked write lost to the tear, dual-written or not *)
  let mig_traffic =
    [
      xp 0 [ k hot (w 11); k hot (w 12) ];
      xp 1 [ k hot (w 21) ];
      xp 2 [ k hot rd; k hot rd ];
    ]
  in
  let build () =
    R.create ~reconfig:(move_hot target_shard)
      { R.default with shards = 2; keys = 4 } ~seed:7
      ~workload:mig_traffic
  in
  let probe = build () in
  let steps = Net.Sim_net.run probe.R.net in
  check_migrated ~what:"probe" (R.collect probe ~steps);
  let n = S.Disk.appends probe.R.disks.(0) in
  Alcotest.(check bool) "probe run stored something" true (n > 0);
  for point = 1 to n do
    let what = Fmt.str "crash point %d/%d" point n in
    let cl = build () in
    let d = cl.R.disks.(0) in
    S.Disk.set_hook d (fun i ->
        if i = point then begin
          Net.Sim_net.crash_amnesia cl.R.net 0;
          S.Disk.Torn 16
        end
        else S.Disk.Persist);
    let steps = Net.Sim_net.run cl.R.net in
    check_migrated ~what (R.collect cl ~steps);
    let wal = S.Disk.wal_bytes d in
    let snap = S.Disk.snapshot_bytes d in
    Net.Sim_net.restart cl.R.net 0;
    let recovered = Net.Replica.contents (cl.R.replica_of 0) in
    if recovered <> Test_storage.fold_disk ~snap ~wal then
      Alcotest.failf "%s: restarted replica differs from the fold of its disk"
        what
  done

(* ------------------------------------------------------------------ *)
(* Socket legs (slow): live threads, real sockets                      *)

let socket_reshard_under_hammer () =
  (* live threads hammering the key over real sockets while a control
     client resharding it: every op must be acked, the audit clean, and
     the served epoch must reflect the handoff *)
  let net, server =
    Test_net.socket_cluster ~map:(Net.Shard_map.create ~shards:2 ()) ()
  in
  let rounds = 30 in
  let counts = Array.make 3 0 in
  let hammer p =
    Thread.create
      (fun () ->
        let c =
          Net.Client.connect ~net ~server:Net.Transport.server ~proc:p ()
        in
        for i = 1 to rounds do
          if p <= 1 then Net.Client.write_k c ~key:hot ((1000 * (p + 1)) + i)
          else ignore (Net.Client.read_k c ~key:hot);
          counts.(p) <- i
        done;
        Net.Client.close c)
      ()
  in
  let hammers = List.map hammer [ 0; 1; 2 ] in
  let cc = Net.Client.connect ~net ~server:Net.Transport.server ~proc:9 () in
  let epoch = Net.Client.reshard cc ~key:hot ~to_shard:target_shard in
  Alcotest.(check int) "reshard acked the advanced epoch" 1 epoch;
  Alcotest.(check int) "served epoch reflects the handoff" 1
    (Net.Client.epoch cc);
  List.iter Thread.join hammers;
  Net.Client.close cc;
  let violation = Net.Server.violations server in
  Net.Socket_net.shutdown net;
  (match violation with
   | [] -> ()
   | (_, v) :: _ ->
     Alcotest.failf "live audit: %a" (Histories.Fastcheck.pp_violation Fmt.int) v);
  Array.iteri
    (fun p n ->
      Alcotest.(check int) (Fmt.str "proc %d finished its rounds" p) rounds n)
    counts

let socket_close_seals_during_migration () =
  (* the close-seal regression pointed at the handoff: a session closed
     while its writes race a migration must fail the blocked ops with
     Invalid_argument — deterministically, never parked forever — and
     every ack it did receive must be durable across the cutover *)
  let net, server =
    Test_net.socket_cluster ~map:(Net.Shard_map.create ~shards:2 ()) ()
  in
  let acked = Atomic.make 0 in
  let c0 = Net.Client.connect ~net ~server:Net.Transport.server ~proc:0 () in
  let writer =
    Thread.create
      (fun () ->
        try
          let i = ref 0 in
          while true do
            incr i;
            Net.Client.write_k c0 ~key:hot !i;
            Atomic.set acked !i
          done
        with Invalid_argument _ -> ())
      ()
  in
  let cc = Net.Client.connect ~net ~server:Net.Transport.server ~proc:9 () in
  let resharder =
    Thread.create
      (fun () ->
        ignore (Net.Client.reshard cc ~key:hot ~to_shard:target_shard))
      ()
  in
  Thread.delay 0.02;
  Net.Client.close c0;
  (* both must terminate: the writer via the seal, the resharder via
     the ack — a parked op leaking past the seal would hang the join *)
  Thread.join writer;
  Thread.join resharder;
  Alcotest.(check int) "handoff completed" 1 (Net.Client.epoch cc);
  (match Net.Client.write_k c0 ~key:hot 999_999 with
   | () -> Alcotest.fail "write after close should raise"
   | exception Invalid_argument _ -> ());
  (* a fresh reader, served post-cutover, sees every acked write *)
  let c1 = Net.Client.connect ~net ~server:Net.Transport.server ~proc:1 () in
  let seen = Net.Client.read_k c1 ~key:hot in
  Alcotest.(check bool)
    (Fmt.str "no acked write lost at cutover (saw %d, acked %d)" seen
       (Atomic.get acked))
    true
    (seen >= Atomic.get acked);
  Net.Client.close c1;
  Net.Client.close cc;
  let violation = Net.Server.violations server in
  Net.Socket_net.shutdown net;
  match violation with
  | [] -> ()
  | (_, v) :: _ ->
    Alcotest.failf "live audit: %a" (Histories.Fastcheck.pp_violation Fmt.int) v

let socket_pool_reshard kind ~domains () =
  (* the worker-domain pool: the key's owner worker runs the whole
     migration, driving the engine of a shard another worker may own,
     while writer and reader threads hammer the key; every reply must
     come back to the worker that sent the request (twobit link ids are
     striped per worker), or the handoff wedges *)
  let net, pool =
    (* a shard per worker; [hot] sits on shard 0 under 2 and 4 shards *)
    Test_net.socket_pool ~engine:(espec kind) ~shards:(max 2 domains) ~domains
      ()
  in
  let rounds = 30 in
  let counts = Array.make 3 0 in
  let hammer p =
    Thread.create
      (fun () ->
        let c =
          Net.Client.connect ~net ~server:Net.Transport.server ~proc:p ()
        in
        for i = 1 to rounds do
          if p <= 1 then Net.Client.write_k c ~key:hot ((1000 * (p + 1)) + i)
          else ignore (Net.Client.read_k c ~key:hot);
          counts.(p) <- i
        done;
        Net.Client.close c)
      ()
  in
  let hammers = List.map hammer [ 0; 1; 2 ] in
  let cc = Net.Client.connect ~net ~server:Net.Transport.server ~proc:9 () in
  Alcotest.(check int) "pool acked the advanced epoch" 1
    (Net.Client.reshard cc ~key:hot ~to_shard:target_shard);
  List.iter Thread.join hammers;
  Array.iteri
    (fun p n ->
      Alcotest.(check int) (Fmt.str "proc %d finished its rounds" p) rounds n)
    counts;
  (* the last acked write of either writer is what a read now serves *)
  let last = Net.Client.read_k cc ~key:hot in
  Alcotest.(check bool)
    (Fmt.str "post-handoff read serves a last write (%d)" last)
    true
    (last = 1000 + rounds || last = 2000 + rounds);
  Net.Client.close cc;
  Net.Server_pool.stop pool;
  let violations = Net.Server_pool.violations pool in
  Net.Socket_net.shutdown net;
  match violations with
  | [] -> ()
  | (key, v) :: _ ->
    Alcotest.failf "monitor violation on key %d: %a" key
      (Histories.Fastcheck.pp_violation Fmt.int) v

(* ------------------------------------------------------------------ *)
(* The dual write's durability                                         *)

(* A coordinator whose registry runs two singleton groups (shard [s]
   on replica [s]) over a transport that keeps every send and delivers
   none, with a group-commit server store: [hot]'s migration starts,
   settles at once and stays in its sync step. *)
let migrating kind =
  let sent = ref [] in
  let send ~src:_ ~dst msg = sent := (dst, msg) :: !sent in
  let store =
    S.create
      ~group_commit:{ S.batch_max = 64; flush_every = 0.0 }
      (S.mem_backend ())
  in
  let registry =
    Net.Registry.create
      ~transport:{ Net.Transport.null with Net.Transport.send }
      ~me:Net.Transport.server ~replicas:[ 0; 1 ]
      ~map:(Net.Shard_map.create ~group_size:1 ~shards:2 ())
      ~engine:(espec kind) ~storage:store ()
  in
  let rc = Net.Reconfig.create ~registry ~metrics:(Net.Metrics.create ()) () in
  Net.Reconfig.start rc ~key:hot ~to_shard:target_shard ~epoch:0
    ~finish:(fun ~ok:_ ~epoch:_ -> ());
  (rc, store, sent)

(* A dual write issues one timestamp and appends it once; neither leg
   leaves before that append is durable, and its commit releases
   both. *)
let dual_write_waits_for_its_append () =
  List.iter
    (fun kind ->
      let what = Net.Engine.kind_name kind in
      let rc, store, sent = migrating kind in
      sent := [];
      Net.Reconfig.write rc ~key:hot ~reg:0
        ~value:(Registers.Tagged.make 7 false) ~k:ignore;
      let legs () =
        List.sort_uniq compare
          (List.filter_map
             (fun (dst, m) ->
               match m with W.Store _ | W.Store2 _ -> Some dst | _ -> None)
             !sent)
      in
      Alcotest.(check (list int)) (what ^ ": no leg before the flush") []
        (legs ());
      Alcotest.(check int) (what ^ ": one append queued") 1 (S.pending store);
      S.flush store;
      Alcotest.(check (list int)) (what ^ ": the flush releases both legs")
        [ 0; 1 ] (legs ());
      let st = S.stats store in
      Alcotest.(check (pair int int)) (what ^ ": one WAL append, one commit")
        (1, 1) (st.S.appends, st.S.batch_commits))
    engines

let suite =
  [
    tc "sim: migration under traffic, both engines"
      sim_migration_under_traffic;
    tc "sim: migration on a full replica group" sim_migration_full_group;
    tc "sim: migration ledger and shard counters" sim_migration_stats;
    tc "sim: same-shard advance still acked" sim_same_shard_advance;
    tc "sim: out-of-range target nacked" sim_out_of_range_nacked;
    tc "sim: stale / busy / range nack discipline" sim_nack_discipline;
    tc "sim: crash points mid-migration" sim_crash_points_mid_migration;
    tc "dual write: both legs wait for one append"
      dual_write_waits_for_its_append;
  ]

let slow_suite =
  [
    tc_slow "socket: reshard under hammering threads"
      socket_reshard_under_hammer;
    tc_slow "socket: close seals a session racing the handoff"
      socket_close_seals_during_migration;
    tc_slow "socket: single-domain pool reshards"
      (socket_pool_reshard Net.Engine.Abd ~domains:1);
    tc_slow "socket: two-domain abd pool reshards"
      (socket_pool_reshard Net.Engine.Abd ~domains:2);
    tc_slow "socket: single-domain twobit pool reshards"
      (socket_pool_reshard Net.Engine.Twobit ~domains:1);
    tc_slow "socket: two-domain twobit pool reshards"
      (socket_pool_reshard Net.Engine.Twobit ~domains:2);
    tc_slow "socket: four-domain twobit pool reshards"
      (socket_pool_reshard Net.Engine.Twobit ~domains:4);
  ]
