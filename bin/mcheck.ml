(* Exhaustive bounded model checking from the command line.

     mcheck --protocol bloom --writes 2 --readers 2 --reads 1
     mcheck --protocol tournament
     mcheck --protocol timestamp --writers 3
     mcheck --protocol bloom --invariant lemmas
     mcheck --protocol bloom-cached-single-read --writer-reads 1

   The [net] subcommand turns the same idea on the message-passing
   service: enumerate (or randomly walk, or torture) delivery
   schedules of the simulated cluster and audit each one.

     mcheck net --replicas 1 --readers 0 --expect-exhausted
     mcheck net --replicas 3 --broken-read-quorum --readers 1 --reads 2 \
       --hunt --expect-violation --dump ce.jsonl
     mcheck net --replicas 3 --skip-write-back --readers 1 --reads 2 \
       --hunt --expect-violation --dump ce.jsonl
     mcheck net --replicas 1 --readers 0 --writer-reads 1 --expect-exhausted
     mcheck net --replay ce.jsonl --expect-violation
     mcheck net --torture --runs 200 *)

module Vm = Registers.Vm
module E = Modelcheck.Explorer

type protocol =
  | Bloom
  | Bloom_cached
  | Bloom_cached_single_read
  | Tournament
  | Timestamp
  | Mod3
  | Ablation of string

let ablations =
  [ ("no-third-read", Core.Variants.no_third_read);
    ("copy-tag", Core.Variants.copy_tag);
    ("read-own", Core.Variants.read_own_register);
    ("split-tag-first", Core.Variants.split_write_tag_first);
    ("split-value-first", Core.Variants.split_write_value_first) ]

(* Each writer makes [writes] writes, then [writer_reads] reads. *)
let scripts ~writer_procs ~writes ~writer_reads ~reader_procs ~reads =
  List.map
    (fun p ->
      {
        Vm.proc = p;
        script =
          List.init writes (fun k ->
              Histories.Event.Write ((1000 * (p + 1)) + k))
          @ List.init writer_reads (fun _ -> Histories.Event.Read);
      })
    writer_procs
  @ List.map
      (fun p ->
        { Vm.proc = p; script = List.init reads (fun _ -> Histories.Event.Read) })
      reader_procs

let check_invariants trace =
  let g = Core.Gamma.analyse ~init:0 trace in
  (match Core.Gamma.check_lemmas g with
   | Ok () -> ()
   | Error e -> failwith e);
  match Core.Certifier.certify g with
  | Core.Certifier.Certified _ -> ()
  | Core.Certifier.Failed m -> failwith m

let run protocol writes writer_reads reads writers readers invariant =
  let scripts = scripts ~writer_reads in
  let t0 = Unix.gettimeofday () in
  let result =
    match protocol with
    | Bloom ->
      let reg = Core.Protocol.bloom ~init:0 ~other_init:0 () in
      let procs =
        scripts ~writer_procs:[ 0; 1 ] ~writes
          ~reader_procs:(List.init readers (fun i -> i + 2))
          ~reads
      in
      Fmt.pr "checking the two-writer protocol: 2 writers x %d writes, %d \
              readers x %d reads@."
        writes readers reads;
      if invariant then begin
        let n =
          E.explore reg procs ~on_leaf:(fun trace -> check_invariants trace)
        in
        Fmt.pr
          "lemmas 1-2 and the certifier validated on all %d executions@." n;
        None
      end
      else E.find_violation ~init:0 reg procs
    | Tournament ->
      let reg = Core.Tournament.flat ~init:0 ~other_init:0 () in
      let procs =
        scripts ~writer_procs:[ 0; 1; 3 ] ~writes
          ~reader_procs:(List.init readers (fun i -> i + 4))
          ~reads
      in
      Fmt.pr "checking the (broken) four-writer tournament: writers 0,1,3@.";
      E.find_violation ~init:0 reg procs
    | Bloom_cached ->
      let reg = Core.Protocol.bloom_cached ~init:0 ~other_init:0 () in
      let procs =
        scripts ~writer_procs:[ 0; 1 ] ~writes
          ~reader_procs:(List.init readers (fun i -> i + 2))
          ~reads
      in
      Fmt.pr "checking the local-copy optimisation (Section 5)@.";
      E.find_violation ~init:0 reg procs
    | Bloom_cached_single_read ->
      let reg =
        Core.Protocol.bloom_cached_single_read ~init:0 ~other_init:0 ()
      in
      let procs =
        scripts ~writer_procs:[ 0; 1 ] ~writes
          ~reader_procs:(List.init readers (fun i -> i + 2))
          ~reads
      in
      Fmt.pr "checking the single-read local copy (an open question)@.";
      E.find_violation ~init:0 reg procs
    | Mod3 ->
      let reg = Core.Variants.mod3 ~init:0 ~others:(0, 0) () in
      let procs =
        scripts ~writer_procs:[ 0; 1; 2 ] ~writes
          ~reader_procs:(List.init readers (fun i -> i + 3))
          ~reads
      in
      Fmt.pr "checking the natural mod-3 three-writer extension@.";
      E.find_violation ~init:0 reg procs
    | Ablation name ->
      let build = List.assoc name ablations in
      let reg = build ~init:0 ~other_init:0 () in
      let procs =
        scripts ~writer_procs:[ 0; 1 ] ~writes
          ~reader_procs:(List.init readers (fun i -> i + 2))
          ~reads
      in
      Fmt.pr "checking ablation %s@." name;
      E.find_violation ~init:0 reg procs
    | Timestamp ->
      let reg = Baselines.Timestamp_mwmr.build ~writers ~init:0 in
      let procs =
        scripts
          ~writer_procs:(List.init writers (fun i -> i))
          ~writes
          ~reader_procs:(List.init readers (fun i -> i + writers))
          ~reads
      in
      Fmt.pr "checking the timestamp MWMR baseline: %d writers@." writers;
      E.find_violation ~init:0 reg procs
  in
  let dt = Unix.gettimeofday () -. t0 in
  match result with
  | None ->
    Fmt.pr "no violation (%.2fs)@." dt;
    0
  | Some v ->
    Fmt.pr "VIOLATION after %d executions (%.2fs):@." v.E.executions_checked dt;
    List.iter
      (fun e -> Fmt.pr "  %a@." (Histories.Event.pp Fmt.int) e)
      v.E.trace_events;
    1

(* ------------------------------------------------------------------ *)
(* mcheck net: schedule exploration of the message-passing service.    *)

module X = Net.Explore
module S = Modelcheck.Schedule

let finish ~expect_violation ~violated =
  if violated = expect_violation then 0
  else begin
    Fmt.epr "verdict mismatch: violation found = %b, expected %b@." violated
      expect_violation;
    1
  end

let replay_net ~expect_violation file =
  let cfg, sched, o = X.replay_file ~file in
  let violated =
    o.Net.Sim_run.key_violations <> [] || o.Net.Sim_run.txn_violations <> []
  in
  Fmt.pr "replayed %s: %s engine, %d choices, %d/%d ops completed, %s@." file
    (Engine_cli.name cfg.X.spec.Net.Sim_run.engine)
    (List.length sched) o.Net.Sim_run.completed o.Net.Sim_run.expected
    (if violated then "violation reproduced" else "no violation");
  List.iter
    (fun (k, m) -> Fmt.pr "  key %d: %s@." k m)
    o.Net.Sim_run.key_violations;
  List.iter (fun m -> Fmt.pr "  %s@." m) o.Net.Sim_run.txn_violations;
  finish ~expect_violation ~violated

let torture_net ~expect_violation ~engine ~runs ~dump ~seed =
  let t0 = Unix.gettimeofday () in
  let rep = X.torture ~engine ~runs ?dump ~seed () in
  let dt = Float.max 1e-9 (Unix.gettimeofday () -. t0) in
  Fmt.pr
    "torture (%s engine): %d runs, %d ops completed, %d violations, %d \
     stalls (%.2fs, %.0f runs/s)@."
    (Engine_cli.name engine) rep.X.runs rep.X.ops_completed rep.X.violations
    rep.X.stalled dt
    (float_of_int rep.X.runs /. dt);
  (match rep.X.first_failure with
   | Some (i, m) -> Fmt.pr "first failure: run %d: %s@." i m
   | None -> ());
  finish ~expect_violation ~violated:(rep.X.violations > 0 || rep.X.stalled > 0)

let explore_net ~expect_violation ~expect_exhausted ~hunt ~walks ~seed ~dump
    cfg =
  let t0 = Unix.gettimeofday () in
  let res = if hunt then X.hunt ~walks ~seed cfg else X.explore cfg in
  let dt = Float.max 1e-9 (Unix.gettimeofday () -. t0) in
  let s = res.X.stats in
  Fmt.pr
    "%s (%s engine): %d schedules, %d transitions, %d pruned, depth <= \
     %d%s (%.2fs, %.0f schedules/s)@."
    (if hunt then "hunt" else "explore")
    (Engine_cli.name cfg.X.spec.Net.Sim_run.engine)
    s.S.schedules s.S.transitions s.S.pruned s.S.max_depth_seen
    (if s.S.exhausted then ", exhausted" else "")
    dt
    (float_of_int s.S.schedules /. dt);
  if expect_exhausted && not s.S.exhausted then begin
    Fmt.epr "state space not exhausted (raise --max-schedules?)@.";
    2
  end
  else
    match res.X.counterexample with
    | None ->
      Fmt.pr "every explored schedule is atomic@.";
      finish ~expect_violation ~violated:false
    | Some ce ->
      Fmt.pr "VIOLATION (schedule of %d choices): key %d: %s@."
        (List.length ce.X.schedule) ce.X.key ce.X.message;
      (match dump with
       | None -> ()
       | Some file ->
         let cfg', ce' = X.shrink cfg ce in
         X.save ~file cfg' ce';
         let ops =
           List.fold_left
             (fun n p -> n + List.length p.Net.Sim_run.xscript)
             0 cfg'.X.workload
         in
         Fmt.pr "shrunk to %d choices over %d ops; wrote %s@."
           (List.length ce'.X.schedule) ops file);
      finish ~expect_violation ~violated:true

(* Plain writer/reader scripts, unless --txns/--snaps switch to the
   extended workload: each writer appends that many whole-keyspace
   transactions to its plain writes, each reader that many
   whole-keyspace snapshots to its plain reads (values globally unique,
   as both the fastcheck and the torn-batch audit require).  With
   --reconfig-key the plain scripts are pinned onto the migrating key
   (Keyed ops) so every operation races the handoff — the shape the
   reconfig CI gates explore. *)
let net_workload ~writers ~writes ~writer_reads ~readers ~reads ~txns ~snaps
    ~keys ~reconfig_key =
  if txns = 0 && snaps = 0 then
    let processes =
      scripts
        ~writer_procs:(List.init writers Fun.id)
        ~writes ~writer_reads
        ~reader_procs:(List.init readers (fun i -> i + writers))
        ~reads
      |> List.filter (fun p -> p.Vm.script <> [])
    in
    if reconfig_key < 0 then Net.Sim_run.singles processes
    else
      List.map
        (fun (p : int Vm.process) ->
          {
            Net.Sim_run.xproc = p.Vm.proc;
            xscript =
              List.map
                (fun op -> Net.Sim_run.Keyed (reconfig_key, op))
                p.Vm.script;
          })
        processes
  else begin
    let all_keys = List.init keys Fun.id in
    let writer p =
      {
        Net.Sim_run.xproc = p;
        xscript =
          List.init writes (fun k ->
              Net.Sim_run.Single (Histories.Event.Write ((1000 * (p + 1)) + k)))
          @ List.init txns (fun i ->
                Net.Sim_run.Txn_w
                  (List.map
                     (fun k -> (k, (100_000 * (p + 1)) + (i * keys) + k))
                     all_keys))
          @ List.init writer_reads (fun _ ->
                Net.Sim_run.Single Histories.Event.Read);
      }
    in
    let reader p =
      {
        Net.Sim_run.xproc = p;
        xscript =
          List.init reads (fun _ -> Net.Sim_run.Single Histories.Event.Read)
          @ List.init snaps (fun _ -> Net.Sim_run.Snap all_keys);
      }
    in
    List.filter
      (fun xp -> xp.Net.Sim_run.xscript <> [])
      (List.map writer (List.init writers Fun.id)
      @ List.map reader (List.init readers (fun i -> i + writers)))
  end

open Cmdliner

let protocol_enum =
  Arg.enum
    ([ ("bloom", Bloom); ("bloom-cached", Bloom_cached);
       ("bloom-cached-single-read", Bloom_cached_single_read);
       ("tournament", Tournament); ("timestamp", Timestamp); ("mod3", Mod3) ]
    @ List.map (fun (n, _) -> (n, Ablation n)) ablations)

let protocol =
  Arg.(value & opt protocol_enum Bloom
       & info [ "protocol" ] ~doc:"Protocol to check.")

let writes = Arg.(value & opt int 1 & info [ "writes" ] ~doc:"Writes per writer.")
let reads = Arg.(value & opt int 1 & info [ "reads" ] ~doc:"Reads per reader.")

let writer_reads =
  Arg.(value & opt int 0
       & info [ "writer-reads" ]
           ~doc:"Reads each writer makes after its writes (a writer's read \
                 is what the local-copy protocols change).")

let writers =
  Arg.(value & opt int 2 & info [ "writers" ] ~doc:"Writers (timestamp only).")

let readers = Arg.(value & opt int 2 & info [ "readers" ] ~doc:"Readers.")

let invariant =
  Arg.(value & flag
       & info [ "invariant" ]
           ~doc:"Also check lemmas 1-2 and the certifier on every execution \
                 (bloom only).")

let shm_term =
  Term.(const run $ protocol $ writes $ writer_reads $ reads $ writers
        $ readers $ invariant)

open Term.Syntax

(* The cluster under test and its deliberate bugs, as one spec. *)
let spec_term =
  let+ replicas =
    Arg.(value & opt int 3
         & info [ "replicas" ] ~doc:"Replica count (1 for exhaustive runs).")
  and+ shards =
    Arg.(value & opt int 1
         & info [ "shards" ] ~doc:"Server shard count (keys hash across them).")
  and+ keys =
    Arg.(value & opt int 1 & info [ "keys" ] ~doc:"Registers in the keyspace.")
  and+ window =
    Arg.(value & opt int 4 & info [ "window" ] ~doc:"Client pipelining window.")
  and+ group_size =
    Arg.(value & opt (some int) None
         & info [ "group-size" ]
             ~doc:"Replicas per shard group (rotating window; with 2 \
                   shards and $(b,--group-size) 1 the groups are \
                   disjoint — the sharpest migration topology).")
  and+ engine = Engine_cli.term
  and+ skip_dual_write =
    Arg.(value & flag
         & info [ "skip-dual-write" ]
             ~doc:"Deliberately break the reconfiguration coordinator: \
                   drop the incoming-group leg of each dual write, so \
                   a write acked during the migration is lost at \
                   cutover.")
  and+ broken =
    Arg.(value & flag
         & info [ "broken-read-quorum" ]
             ~doc:"Deliberately break the abd engine: collect from a read \
                   quorum of 1 instead of a majority.")
  and+ skip_write_back =
    Arg.(value & flag
         & info [ "skip-write-back" ]
             ~doc:"Deliberately break the abd engine: every read returns \
                   its freshest pair with no write-back, so the register \
                   is only regular (two reads can see a new-old \
                   inversion).")
  and+ unordered =
    Arg.(value & flag
         & info [ "broken-link-order" ]
             ~doc:"Deliberately break the twobit engine: replicas apply link \
                   frames in arrival order instead of sequence order, \
                   forfeiting the FIFO guarantee its reads rely on.")
  and+ torn_txn =
    Arg.(value & flag
         & info [ "torn-txn" ]
             ~doc:"Deliberately break the transaction coordinator: skip \
                   per-key locking, so a snapshot can observe a torn batch.")
  and+ stale_copy =
    Arg.(value & flag
         & info [ "stale-copy" ]
             ~doc:"Deliberately break the server: a transaction's write \
                   skips the writer's local copy of its register, so the \
                   writer's next read can return the value the \
                   transaction overwrote.")
  and+ no_durability =
    Arg.(value & flag
         & info [ "no-durability" ]
             ~doc:"Deliberately run replicas without stable storage: an \
                   amnesia reboot forgets acknowledged stores.")
  in
  {
    Net.Sim_run.replicas;
    shards;
    domains = 1;
    group_size;
    keys;
    window;
    engine;
    bug =
      {
        Net.Bug.read_quorum = (if broken then Some 1 else None);
        skip_write_back;
        unordered;
        torn_txn;
        skip_dual_write;
        stale_copy;
      };
    store = (if no_durability then None else Some Net.Sim_run.default_store);
  }

let net_term =
  let+ spec = spec_term
  and+ writers =
    Arg.(value & opt int 2 & info [ "writers" ] ~doc:"Writer processes.")
  and+ writes =
    Arg.(value & opt int 1 & info [ "writes" ] ~doc:"Writes per writer.")
  and+ writer_reads = writer_reads
  and+ readers = Arg.(value & opt int 1 & info [ "readers" ] ~doc:"Readers.")
  and+ reads =
    Arg.(value & opt int 1 & info [ "reads" ] ~doc:"Reads per reader.")
  and+ txns =
    Arg.(value & opt int 0
         & info [ "txns" ]
             ~doc:"Whole-keyspace atomic multi-key transactions per writer \
                   (switches to the extended workload).")
  and+ snaps =
    Arg.(value & opt int 0
         & info [ "snaps" ]
             ~doc:"Whole-keyspace consistent snapshot reads per reader \
                   (switches to the extended workload).")
  and+ reconfig_key =
    Arg.(value & opt int (-1)
         & info [ "reconfig-key" ]
             ~doc:"Request a live migration of this key mid-workload \
                   (the control frame's delivery is one more \
                   schedulable event); plain writer/reader scripts are \
                   pinned onto the migrating key.")
  and+ reconfig_to =
    Arg.(value & opt int 0
         & info [ "reconfig-to" ]
             ~doc:"Destination shard for $(b,--reconfig-key).")
  and+ crashes =
    Arg.(value & opt int 0
         & info [ "crashes" ]
             ~doc:"Let the adversary crash up to this many replicas.")
  and+ amnesia =
    Arg.(value & opt int 0
         & info [ "amnesia" ]
             ~doc:"Let the adversary amnesia-reboot replicas up to this many \
                   times (volatile state dropped; recovery from the WAL, or \
                   from nothing with $(b,--no-durability)).")
  and+ max_schedules =
    Arg.(value & opt (some int) None
         & info [ "max-schedules" ] ~doc:"Leaf budget for exploration.")
  and+ max_depth =
    Arg.(value & opt int 2000 & info [ "max-depth" ] ~doc:"Schedule length cap.")
  and+ no_prune =
    Arg.(value & flag & info [ "no-prune" ] ~doc:"Disable sleep-set pruning.")
  and+ fastcheck =
    Arg.(value & flag
         & info [ "fastcheck" ]
             ~doc:"Re-check every leaf history post hoc as well as with the \
                   live monitor.")
  and+ hunt =
    Arg.(value & flag
         & info [ "hunt" ]
             ~doc:"Random schedule walks instead of exhaustive enumeration.")
  and+ walks =
    Arg.(value & opt int 2000 & info [ "walks" ] ~doc:"Walks for --hunt.")
  and+ seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.")
  and+ torture =
    Arg.(value & flag
         & info [ "torture" ]
             ~doc:"Seeded randomized crash/partition/restart hammering \
                   instead of exploration.  Each run draws its own \
                   topology and workload, so the workload and topology \
                   flags do not apply.")
  and+ runs =
    Arg.(value & opt int 100 & info [ "runs" ] ~doc:"Runs for --torture.")
  and+ dump =
    Arg.(value & opt (some string) None
         & info [ "dump" ] ~docv:"FILE"
             ~doc:"On violation, shrink the counterexample and write a \
                   replayable trace artifact to $(docv).")
  and+ replay =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"FILE"
             ~doc:"Replay a dumped artifact and report its verdict.")
  and+ expect_violation =
    Arg.(value & flag
         & info [ "expect-violation" ]
             ~doc:"Exit 0 iff a violation is found (regression mode for \
                   deliberately broken variants).")
  and+ expect_exhausted =
    Arg.(value & flag
         & info [ "expect-exhausted" ]
             ~doc:"Fail unless the state space was fully enumerated.")
  in
  match replay with
  | Some file -> replay_net ~expect_violation file
  | None when torture ->
    torture_net ~expect_violation ~engine:spec.Net.Sim_run.engine ~runs ~dump
      ~seed
  | None ->
    (* a fate budget lets the adversary pick any replica *)
    let targets budget =
      if budget > 0 then List.init spec.Net.Sim_run.replicas Fun.id else []
    in
    (match
       X.config ~spec
         ?reconfig:
           (if reconfig_key < 0 then None else Some (reconfig_key, reconfig_to))
         ~crashable:(targets crashes) ~max_crashes:crashes
         ~amnesia:(targets amnesia) ~max_amnesia:amnesia ?max_schedules
         ~max_depth ~prune:(not no_prune) ~fastcheck
         ~workload:
           (net_workload ~writers ~writes ~writer_reads ~readers ~reads ~txns
              ~snaps ~keys:spec.Net.Sim_run.keys ~reconfig_key)
         ()
     with
     | exception Invalid_argument msg ->
       (* spec, fate and workload mismatches are user errors, not bugs *)
       Fmt.epr "mcheck net: %s@." msg;
       2
     | cfg ->
       explore_net ~expect_violation ~expect_exhausted ~hunt ~walks ~seed
         ~dump cfg)

let net_cmd =
  Cmd.v
    (Cmd.info "net"
       ~doc:"Explore delivery schedules of the simulated register service")
    net_term

let cmd =
  Cmd.group ~default:shm_term
    (Cmd.info "mcheck" ~doc:"Exhaustively model-check register protocols")
    [ net_cmd ]

let () = exit (Cmd.eval' cmd)
