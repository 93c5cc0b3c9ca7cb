(* Durable replica storage: in-memory unit tests of the WAL +
   snapshot store, the crash-point recovery matrix (tear every append,
   restart, compare against a never-crashed store — pure and
   end-to-end through the simulated cluster), and the amnesia-restart
   semantics of durable vs volatile replicas.  Real-file backends and
   the long torture loops live in [slow_suite]. *)

module S = Net.Storage
module R = Net.Sim_run
module O = Storage_oracle

let tc = Helpers.tc
let tc_slow = Helpers.tc_slow

let pl v = Registers.Tagged.make v false

let entry ~reg ~ts v = { S.reg; ts; pl = pl v }

let append_async st e ~k = S.append_async st ~reg:e.S.reg ~ts:e.S.ts e.S.pl ~k

(* what [find] answers for a register never stored: no entry has a
   negative timestamp *)
let absent = (-1, pl 0)
let find st reg = S.find st reg ~default:absent

(* [n] entries over 4 registers with per-register increasing
   timestamps — the shape a real replica appends. *)
let entries_n n =
  List.init n (fun i -> entry ~reg:(i mod 4) ~ts:((i / 4) + 1) (100 + i))

(* A volatile backend: a simulated disk no hook ever tears. *)
let mem () = S.Disk.backend (S.Disk.create ())

(* bytes one WAL record takes: every record has the same size *)
let rec_size =
  String.length (O.frame_record (O.encode_entry (entry ~reg:0 ~ts:1 100)))

(* The state a never-crashed store reaches on a prefix of the
   workload: just feed the prefix to a fresh in-memory store. *)
let reference_contents entries =
  let st = S.create (mem ()) in
  List.iter (S.append st) entries;
  S.contents st

let take k l = List.filteri (fun i _ -> i < k) l

(* ------------------------------------------------------------------ *)
(* In-memory unit tests                                                *)

let basic_ops () =
  let st = S.create (mem ()) in
  Alcotest.(check bool) "empty store" true (S.contents st = []);
  Alcotest.(check bool) "empty lookup" true (find st 0 = absent);
  S.append st (entry ~reg:0 ~ts:1 10);
  S.append st (entry ~reg:5 ~ts:3 20);
  Alcotest.(check bool) "lookup hits" true (find st 5 = (3, pl 20));
  Alcotest.(check bool) "contents sorted" true
    (S.contents st = [ (0, (1, pl 10)); (5, (3, pl 20)) ]);
  let s = S.stats st in
  Alcotest.(check int) "appends counted" 2 s.S.appends;
  Alcotest.(check int) "no snapshots" 0 s.S.snapshots_taken;
  Alcotest.(check bool) "wal grew" true (s.S.wal_size > 0)

let ts_guard () =
  (* an older timestamp must never regress the table, but it still
     lands in the WAL (the log records what was offered; the guard is
     re-applied at recovery) *)
  let be = mem () in
  let st = S.create be in
  S.append st (entry ~reg:0 ~ts:5 50);
  S.append st (entry ~reg:0 ~ts:3 30);
  S.append st (entry ~reg:0 ~ts:5 99);
  Alcotest.(check bool) "newest kept" true (find st 0 = (5, pl 50));
  let st' = S.create be in
  Alcotest.(check bool) "recovery re-applies the guard" true
    (find st' 0 = (5, pl 50))

let reopen_recovers () =
  let be = mem () in
  let entries = entries_n 10 in
  let st = S.create be in
  List.iter (S.append st) entries;
  let st' = S.create be in
  Alcotest.(check bool) "same contents" true (S.contents st' = S.contents st);
  let s = S.stats st' in
  Alcotest.(check int) "all records replayed" 10 s.S.recovered_wal;
  Alcotest.(check int) "nothing torn" 0 s.S.torn_bytes

let snapshot_truncates () =
  (* 42 appends over 4 registers, snapshot + truncate every [every]:
     two records remain.  Cadence 5 stands for a 132-byte WAL budget
     (132 / 33 + 1 appends). *)
  List.iter
    (fun every ->
      let what = Fmt.str "every %d" every in
      let be = mem () in
      let st = S.create ~snapshot_every:every be in
      let entries = entries_n 42 in
      List.iter
        (fun e ->
          S.append st e;
          (* the cadence bounds the log: no commit leaves [every]
             records behind it *)
          if (S.stats st).S.wal_size >= every * rec_size then
            Alcotest.failf "%s: WAL of %d bytes after a commit" what
              (S.stats st).S.wal_size)
        entries;
      Alcotest.(check int) (what ^ ": snapshots") (42 / every)
        (S.stats st).S.snapshots_taken;
      let st' = S.create be in
      let s' = S.stats st' in
      Alcotest.(check int) (what ^ ": snapshot carries the bulk") 4
        s'.S.recovered_snapshot;
      Alcotest.(check int) (what ^ ": wal carries the tail") 2
        s'.S.recovered_wal;
      Alcotest.(check int) (what ^ ": nothing torn") 0 s'.S.torn_bytes;
      Alcotest.(check bool) (what ^ ": recovered = live") true
        (S.contents st' = S.contents st);
      Alcotest.(check bool) (what ^ ": recovered = every entry") true
        (S.contents st' = reference_contents entries))
    [ 4; 5 ]

let forced_snapshot () =
  let be = mem () in
  let st = S.create be in
  List.iter (S.append st) (entries_n 6);
  S.snapshot st;
  let st' = S.create be in
  Alcotest.(check int) "all from the snapshot" 4
    (S.stats st').S.recovered_snapshot;
  Alcotest.(check int) "wal empty" 0 (S.stats st').S.recovered_wal;
  Alcotest.(check bool) "contents kept" true (S.contents st' = S.contents st)

let stale_wal_harmless () =
  (* a crash between snapshot install and WAL truncation leaves the
     new snapshot AND the old WAL: recovery must replay the stale
     records harmlessly under the timestamp guard *)
  let inner = mem () in
  let entries = entries_n 8 in
  let st = S.create inner in
  List.iter (S.append st) entries;
  let wal_before = inner.S.load_wal () in
  S.snapshot st;  (* installs, truncates *)
  let snap = inner.S.load_snapshot () in
  let grafted =
    {
      S.load_snapshot = (fun () -> snap);
      load_wal = (fun () -> wal_before);  (* the un-truncated log *)
      append_wal = (fun _ _ -> ());
      truncate_wal = ignore;
      install_snapshot = ignore;
      close = ignore;
    }
  in
  let st' = S.create grafted in
  Alcotest.(check int) "stale records replayed" 8 (S.stats st').S.recovered_wal;
  Alcotest.(check bool) "replay is harmless" true
    (S.contents st' = S.contents st)

(* ------------------------------------------------------------------ *)
(* Crash-point matrix, pure storage: tear the disk at EVERY append
   ordinal, at several byte offsets within the record, with and
   without snapshots crossing the window.  The recovered store must
   equal a never-crashed store fed only the durable prefix, so no
   entry acked before the tear is lost and a snapshot never
   resurrects a superseded value.  Cadences 4 and 5 put tears before,
   on and after truncation boundaries; 4 stands for a 100-byte WAL
   budget (100 / 33 + 1 appends).                                     *)

let crash_point_matrix cadences () =
  let n = 24 in
  let entries = entries_n n in
  List.iter
    (fun snapshot_every ->
      for k = 1 to n do
        List.iter
          (fun keep ->
            let what = Fmt.str "se=%d k=%d keep=%d" snapshot_every k keep in
            let d = S.Disk.create () in
            S.Disk.set_hook d (fun i ->
                if i = k then S.Disk.Torn keep else S.Disk.Persist);
            let st = S.create ~snapshot_every (S.Disk.backend d) in
            let acked = ref [] in
            List.iter
              (fun e ->
                S.append st e;
                (* a sync append that returned while the disk was
                   alive was acked durable *)
                if not (S.Disk.is_dead d) then acked := e :: !acked)
              entries;
            Alcotest.(check int) (what ^ ": appends stop at the tear") k
              (S.Disk.appends d);
            if snapshot_every > 0 then
              Alcotest.(check int) (what ^ ": snapshots before the tear")
                ((k - 1) / snapshot_every)
                (S.Disk.snapshots d);
            (* the process died; a new incarnation opens the disk *)
            S.Disk.clear_hook d;
            S.Disk.revive d;
            let st' = S.create (S.Disk.backend d) in
            let expected = reference_contents (take (k - 1) entries) in
            if S.contents st' <> expected then
              Alcotest.failf
                "%s: recovered state differs from the never-crashed \
                 prefix store (lost or resurrected entries)"
                what;
            List.iter
              (fun e ->
                if fst (find st' e.S.reg) < e.S.ts then
                  Alcotest.failf "%s: acked entry reg=%d ts=%d lost" what
                    e.S.reg e.S.ts)
              !acked;
            Alcotest.(check int) (what ^ ": torn bytes repaired") keep
              (S.stats st').S.torn_bytes)
          [ 0; 1; 16; rec_size - 1 ]
      done)
    cadences

let post_tear_writes_ignored () =
  (* after the disk plays dead, nothing — appends, snapshots,
     truncations — may change the durable bytes: a dead process cannot
     write, and a snapshot of post-tear in-memory state must never
     fabricate durability *)
  let d = S.Disk.create () in
  S.Disk.set_hook d (fun i -> if i = 3 then S.Disk.Torn 8 else S.Disk.Persist);
  let st = S.create ~snapshot_every:4 (S.Disk.backend d) in
  List.iter (S.append st) (entries_n 10);  (* crosses snapshot_every *)
  S.snapshot st;
  Alcotest.(check bool) "no snapshot installed while dead" true
    (S.Disk.snapshot_bytes d = None);
  Alcotest.(check int) "wal frozen at the tear" (2 * 33 + 8)
    (S.Disk.wal_size d);
  S.Disk.clear_hook d;
  S.Disk.revive d;
  let st' = S.create (S.Disk.backend d) in
  Alcotest.(check bool) "only the pre-tear prefix survived" true
    (S.contents st' = reference_contents (take 2 (entries_n 10)))

(* ------------------------------------------------------------------ *)
(* Group commit: batching semantics of the async append path, the
   durability marker, and the crash-point matrix re-run at batch
   boundaries — a tear may now land inside a multi-record write.      *)

let gc bm = { S.batch_max = bm; flush_every = 0.0 }

let group_commit_batches () =
  let be = mem () in
  let st = S.create ~group_commit:{ S.batch_max = 4; flush_every = 0.01 } be in
  Alcotest.(check int) "batch_max" 4 (S.batch_max st);
  Alcotest.(check bool) "flush deadline kept" true
    (S.flush_deadline st = 0.01);
  let entries = entries_n 6 in
  let acked = ref 0 in
  List.iter (fun e -> append_async st e ~k:(fun () -> incr acked)) entries;
  (* the 4th append filled a batch and committed it; two entries wait *)
  Alcotest.(check int) "batch boundary acked" 4 !acked;
  Alcotest.(check int) "tail still pending" 2 (S.pending st);
  (* eager apply: the table already serves the unflushed tail... *)
  Alcotest.(check bool) "eager apply visible" true
    (S.contents st = reference_contents entries);
  (* ...but durability lags it: a reopen sees only the committed batch *)
  Alcotest.(check bool) "durability lags the tail" true
    (S.contents (S.create be) = reference_contents (take 4 entries));
  S.flush st;
  Alcotest.(check int) "flush completes the rest" 6 !acked;
  Alcotest.(check int) "nothing pending after flush" 0 (S.pending st);
  let s = S.stats st in
  Alcotest.(check int) "entries counted, not batches" 6 s.S.appends;
  Alcotest.(check int) "two batch commits" 2 s.S.batch_commits;
  Alcotest.(check int) "largest batch" 4 s.S.max_batch;
  Alcotest.(check bool) "reopen = live" true
    (S.contents (S.create be) = S.contents st)

let group_commit_sync_append_flushes () =
  (* the sync [append] keeps its contract under group commit: durable
     on return, so a reopen can never lag it *)
  let be = mem () in
  let st = S.create ~group_commit:(gc 8) be in
  let entries = entries_n 3 in
  List.iter (S.append st) entries;
  Alcotest.(check int) "nothing pending" 0 (S.pending st);
  Alcotest.(check bool) "reopen sees every sync append" true
    (S.contents (S.create be) = reference_contents entries)

let group_commit_on_durable () =
  let be = mem () in
  let st = S.create ~group_commit:(gc 8) be in
  let fired = ref [] in
  S.on_durable st (fun () -> fired := "empty" :: !fired);
  Alcotest.(check bool) "inline when nothing pending" true
    (!fired = [ "empty" ]);
  append_async st (entry ~reg:0 ~ts:1 10) ~k:ignore;
  S.on_durable st (fun () -> fired := "after" :: !fired);
  Alcotest.(check bool) "deferred behind the pending batch" true
    (!fired = [ "empty" ]);
  S.flush st;
  Alcotest.(check bool) "flush fires it, in order" true
    (!fired = [ "after"; "empty" ]);
  (* the marker is not a WAL record *)
  Alcotest.(check int) "marker not an append" 1 (S.stats st).S.appends;
  Alcotest.(check bool) "reopen holds one entry" true
    (S.contents (S.create be) = [ (0, (1, pl 10)) ])

let group_commit_crash_matrix () =
  (* tear the disk at EVERY batch ordinal and several byte offsets
     within the batch: recovery must equal the never-crashed store fed
     the durable record prefix, and — persist-before-ack — no entry
     whose completion fired while the disk was alive may be missing *)
  let n = 22 in
  let entries = entries_n n in
  let rec_size =
    String.length (O.frame_record (O.encode_entry (List.hd entries)))
  in
  List.iter
    (fun (bm, snapshot_every) ->
      let nbatches = (n + bm - 1) / bm in
      for k = 1 to nbatches do
        List.iter
          (fun keep ->
            let what =
              Fmt.str "bm=%d se=%d k=%d keep=%d" bm snapshot_every k keep
            in
            let d = S.Disk.create () in
            S.Disk.set_hook d (fun i ->
                if i = k then S.Disk.Torn keep else S.Disk.Persist);
            let st =
              S.create ~snapshot_every ~group_commit:(gc bm)
                (S.Disk.backend d)
            in
            let acked = ref [] in
            List.iter
              (fun e ->
                append_async st e ~k:(fun () ->
                    (* an ack that fires after the crash went to a dead
                       process; only pre-crash acks bind durability *)
                    if not (S.Disk.is_dead d) then
                      acked := (e.S.reg, e.S.ts) :: !acked))
              entries;
            S.flush st;
            Alcotest.(check int) (what ^ ": batch writes stop at the tear")
              k (S.Disk.appends d);
            S.Disk.clear_hook d;
            S.Disk.revive d;
            let st' = S.create (S.Disk.backend d) in
            (* whole records of the torn batch survive; the rest of the
               batch — and everything after — is gone *)
            let batch_k = min bm (n - ((k - 1) * bm)) in
            let durable = ((k - 1) * bm) + min (keep / rec_size) batch_k in
            if S.contents st' <> reference_contents (take durable entries)
            then
              Alcotest.failf
                "%s: recovered state differs from the never-crashed \
                 prefix store (durable=%d)"
                what durable;
            List.iter
              (fun (reg, ts) ->
                if fst (find st' reg) < ts then
                  Alcotest.failf
                    "%s: acked entry reg=%d ts=%d lost by the crash" what
                    reg ts)
              !acked)
          [ 0; 1; rec_size; (2 * rec_size) + 7; 1000 ]
      done)
    [ (4, 0); (4, 8); (5, 0); (1, 0) ]

(* ------------------------------------------------------------------ *)
(* End-to-end crash-point matrix: a durable simulated cluster, replica
   0's disk torn at every append ordinal (tearing the write and
   killing the process as one event), run to quiescence on the
   surviving majority, then restart and compare the recovered replica
   against an independent fold of the bytes the disk held at the
   crash.                                                             *)

let w v = Histories.Event.Write v
let rd = Histories.Event.Read
let proc p script = { Registers.Vm.proc = p; script }

let matrix_processes =
  [ proc 0 [ w 1; w 2 ]; proc 1 [ w 3 ]; proc 2 [ rd; rd ] ]

(* Fold the captured disk bytes exactly as recovery specifies:
   snapshot first, then the WAL's valid prefix under the ts guard. *)
let fold_disk ~snap ~wal =
  let tbl = Hashtbl.create 8 in
  (match snap with
   | None -> ()
   | Some bytes ->
     (match S.scan bytes with
      | [ p ], S.Clean ->
        (match S.decode_snapshot p with
         | Some contents ->
           List.iter (fun (reg, tp) -> Hashtbl.replace tbl reg tp) contents
         | None -> Alcotest.fail "captured snapshot undecodable")
      | _ -> Alcotest.fail "captured snapshot not one clean record"));
  let records, _tail = S.scan wal in
  List.iter
    (fun p ->
      match S.decode_entry p with
      | None -> Alcotest.fail "captured WAL record undecodable"
      | Some e ->
        (match Hashtbl.find_opt tbl e.S.reg with
         | Some (cur, _) when cur >= e.S.ts -> ()
         | _ -> Hashtbl.replace tbl e.S.reg (e.S.ts, e.S.pl)))
    records;
  Hashtbl.fold (fun reg tp acc -> (reg, tp) :: acc) tbl []
  |> List.sort compare

let sim_crash_point_matrix ?(snapshot_every = 32) ?group_commit () =
  (* probe: how many appends does replica 0's disk see crash-free? *)
  let build () =
    R.create
      { R.default with store = Some { snapshot_every; group_commit } }
      ~seed:7 ~workload:(R.singles matrix_processes)
  in
  let probe = build () in
  let steps = Net.Sim_net.run probe.R.net in
  Helpers.check_clean "probe" (Helpers.collect probe ~steps);
  let n = S.Disk.appends probe.R.disks.(0) in
  Alcotest.(check bool) "probe run stored something" true (n > 0);
  for k = 1 to n do
    let what = Fmt.str "crash point %d/%d" k n in
    let cl = build () in
    let d = cl.R.disks.(0) in
    S.Disk.set_hook d (fun i ->
        if i = k then begin
          (* tearing the write and killing the process are one event *)
          Net.Sim_net.crash_amnesia cl.R.net 0;
          S.Disk.Torn 16
        end
        else S.Disk.Persist);
    let steps = Net.Sim_net.run cl.R.net in
    (* the surviving majority must finish the workload, atomically *)
    Helpers.check_clean what (Helpers.collect cl ~steps);
    (* capture the durable bytes as of the crash, then recover *)
    let wal = S.Disk.wal_bytes d in
    let snap = S.Disk.snapshot_bytes d in
    Net.Sim_net.restart cl.R.net 0;
    let recovered = Net.Replica.contents (cl.R.replica_of 0) in
    if recovered <> fold_disk ~snap ~wal then
      Alcotest.failf
        "%s: restarted replica differs from the fold of its disk" what
  done

let sim_crash_points () = sim_crash_point_matrix ()

let sim_crash_points_snapshotting snapshot_every () =
  (* same matrix with snapshots every 2 and every 3 appends, so tears
     land between install and the next append too (3 stands for a
     66-byte WAL budget, 66 / 33 + 1 appends) *)
  sim_crash_point_matrix ~snapshot_every ()

let sim_crash_points_group_commit () =
  (* same matrix with group commit on every replica: each disk write
     is now a coalesced batch, the tear lands inside one, and acks
     wait for batch durability — the fold of the disk must still
     explain the restarted replica *)
  sim_crash_point_matrix
    ~group_commit:{ S.batch_max = 4; flush_every = 0.002 }
    ()

(* ------------------------------------------------------------------ *)
(* Amnesia semantics of the cluster                                    *)

let durable_amnesia_recovers () =
  let cl = R.create R.default ~seed:3 ~workload:(R.singles matrix_processes) in
  let steps = Net.Sim_net.run cl.R.net in
  Helpers.check_clean "durable run" (Helpers.collect cl ~steps);
  let before = Net.Replica.contents (cl.R.replica_of 0) in
  Alcotest.(check bool) "replica holds state" true (before <> []);
  Net.Sim_net.crash_amnesia cl.R.net 0;
  Net.Sim_net.restart cl.R.net 0;
  let after = Net.Replica.contents (cl.R.replica_of 0) in
  Alcotest.(check bool) "every acked store recovered" true (after = before)

let volatile_amnesia_forgets () =
  let cl =
    R.create { R.default with store = None } ~seed:3
      ~workload:(R.singles matrix_processes)
  in
  Alcotest.(check int) "no disks when volatile" 0 (Array.length cl.R.disks);
  let steps = Net.Sim_net.run cl.R.net in
  Helpers.check_clean "volatile run" (Helpers.collect cl ~steps);
  Alcotest.(check bool) "replica holds state" true
    (Net.Replica.contents (cl.R.replica_of 0) <> []);
  Net.Sim_net.crash_amnesia cl.R.net 0;
  Net.Sim_net.restart cl.R.net 0;
  Alcotest.(check bool) "restart came back empty" true
    (Net.Replica.contents (cl.R.replica_of 0) = [])

let plain_crash_keeps_state () =
  (* a plain crash is a pause, not a death: no recovery, no amnesia *)
  let cl = R.create R.default ~seed:3 ~workload:(R.singles matrix_processes) in
  let steps = Net.Sim_net.run cl.R.net in
  Helpers.check_clean "run" (Helpers.collect cl ~steps);
  let before = Net.Replica.contents (cl.R.replica_of 0) in
  Net.Sim_net.crash cl.R.net 0;
  Net.Sim_net.restart cl.R.net 0;
  Alcotest.(check bool) "state retained across a pause" true
    (Net.Replica.contents (cl.R.replica_of 0) = before)

let pause_defers_flush_timer () =
  (* a replica paused with a group-commit flush timer armed must flush
     when it resumes: a timer dropped during the pause would leave the
     store's armed flag set for good, so replica 0 would never ack
     again and, with replica 1 then down, no store could finish *)
  let processes =
    [
      proc 0 (List.init 20 (fun i -> w (i + 1)));
      proc 1 (List.init 20 (fun i -> w (i + 101)));
      proc 2 (List.init 40 (fun _ -> rd));
    ]
  in
  let cl =
    R.create
      {
        R.default with
        window = 1;
        store =
          Some
            {
              R.default_store with
              group_commit = Some { S.batch_max = 64; flush_every = 0.5 };
            };
      }
      ~seed:3 ~workload:(R.singles processes)
  in
  let net = cl.R.net in
  let st = Option.get (Net.Replica.storage (cl.R.replica_of 0)) in
  while S.pending st = 0 && Net.Sim_net.step net do
    ()
  done;
  Alcotest.(check bool) "replica 0 holds a pending entry" true
    (S.pending st > 0);
  Net.Sim_net.crash net 0;
  Net.Sim_net.at net
    (Net.Sim_net.now net +. 3.0)
    (fun () ->
      Net.Sim_net.restart net 0;
      Net.Sim_net.crash net 1);
  let steps = Net.Sim_net.run ~max_steps:200_000 net in
  Helpers.check_clean "pause then crash" (Helpers.collect cl ~steps);
  Alcotest.(check int) "all 80 ops" 80 cl.R.expected

(* ------------------------------------------------------------------ *)
(* Slow: real files                                                    *)

let fresh_dir () =
  let f = Filename.temp_file "storage_test" "" in
  Sys.remove f;
  f

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_dir f =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let file_roundtrip () =
  with_dir @@ fun dir ->
  let entries = entries_n 20 in
  let st = S.create ~snapshot_every:8 (S.file_backend ~dir ()) in
  List.iter (S.append st) entries;
  Alcotest.(check int) "snapshots hit the disk" 2
    (S.stats st).S.snapshots_taken;
  let st' = S.create (S.file_backend ~dir ()) in
  Alcotest.(check bool) "reopened = live" true
    (S.contents st' = S.contents st);
  let s = S.stats st' in
  Alcotest.(check int) "snapshot loaded" 4 s.S.recovered_snapshot;
  Alcotest.(check int) "wal tail replayed" 4 s.S.recovered_wal;
  Alcotest.(check int) "nothing torn" 0 s.S.torn_bytes

let file_torn_tail_repair () =
  with_dir @@ fun dir ->
  let entries = entries_n 8 in
  let st = S.create (S.file_backend ~dir ()) in
  List.iter (S.append st) entries;
  let wal_file = Filename.concat dir "wal" in
  let full = (Unix.stat wal_file).Unix.st_size in
  let rec_size = full / 8 in
  (* tear the file mid-record, as a crash inside write(2) would *)
  let torn_len = (3 * rec_size) + 10 in
  Unix.truncate wal_file torn_len;
  let st' = S.create (S.file_backend ~dir ()) in
  Alcotest.(check bool) "prefix recovered" true
    (S.contents st' = reference_contents (take 3 entries));
  Alcotest.(check int) "tail reported" 10 (S.stats st').S.torn_bytes;
  Alcotest.(check int) "file repaired on disk" (3 * rec_size)
    (Unix.stat wal_file).Unix.st_size;
  let st'' = S.create (S.file_backend ~dir ()) in
  Alcotest.(check int) "second open clean" 0 (S.stats st'').S.torn_bytes;
  Alcotest.(check bool) "same contents" true
    (S.contents st'' = S.contents st')

let file_fsync_append () =
  (* the fsync path must behave identically, just slower *)
  with_dir @@ fun dir ->
  let st = S.create (S.file_backend ~fsync:true ~dir ()) in
  List.iter (S.append st) (entries_n 5);
  S.snapshot st;
  let st' = S.create (S.file_backend ~dir ()) in
  Alcotest.(check bool) "fsync'd store reopens" true
    (S.contents st' = S.contents st)

(* A store closes once and then refuses appends; reopening one
   directory 1000 times in one process, closing each store, leaves the
   process's descriptor count where it was. *)
let file_close_releases_fd () =
  with_dir @@ fun dir ->
  let e = List.hd (entries_n 1) in
  let st = S.create (S.file_backend ~dir ()) in
  S.append st e;
  S.close st;
  S.close st;
  (match S.append st e with
   | exception Invalid_argument _ -> ()
   | () -> Alcotest.fail "an append after close was accepted");
  let fd_dir = "/proc/self/fd" in
  if not (Sys.file_exists fd_dir) then Alcotest.skip ();
  let fds () = Array.length (Sys.readdir fd_dir) in
  let before = fds () in
  for _ = 1 to 1000 do
    S.close (S.create (S.file_backend ~dir ()))
  done;
  Alcotest.(check int) "descriptors after 1000 reopens" before (fds ())

let recovery_torture () =
  (* randomized crash points over real files: random workload length,
     tear ordinal, tear offset and snapshot cadence; every recovery
     must equal the never-crashed prefix store *)
  let rng = Random.State.make [| 0x570A |] in
  for i = 1 to 60 do
    with_dir @@ fun dir ->
    let n = 1 + Random.State.int rng 60 in
    let k = 1 + Random.State.int rng n in
    let keep = Random.State.int rng 33 in
    let snapshot_every = [| 0; 3; 7 |].(Random.State.int rng 3) in
    let entries = entries_n n in
    let st = S.create ~snapshot_every (S.file_backend ~dir ()) in
    List.iteri (fun j e -> if j < k - 1 then S.append st e) entries;
    (* crash inside the write(2) of append k: only [keep] bytes of its
       record reach the file, and nothing after the write — no apply,
       no snapshot — happened *)
    let torn = O.frame_record (O.encode_entry (List.nth entries (k - 1))) in
    let oc =
      open_out_gen
        [ Open_append; Open_creat; Open_binary ]
        0o644
        (Filename.concat dir "wal")
    in
    output_string oc (String.sub torn 0 keep);
    close_out oc;
    let st' = S.create ~snapshot_every (S.file_backend ~dir ()) in
    if S.contents st' <> reference_contents (take (k - 1) entries) then
      Alcotest.failf
        "iteration %d (n=%d k=%d keep=%d se=%d): recovered state differs \
         from the never-crashed prefix store"
        i n k keep snapshot_every
  done

let socket_durable_leg ?group_commit () =
  with_dir @@ fun dir ->
  let net = Net.Socket_net.create () in
  let reps =
    Test_net.socket_replicas net ~storage:(fun r ->
        Some
          (S.create ~snapshot_every:16 ?group_commit
             (S.file_backend ~dir:(Filename.concat dir (string_of_int r)) ())))
  in
  let server =
    Net.Server.create ~transport:(Net.Socket_net.transport net) ~audit:true
      ~metrics:(Net.Socket_net.metrics net) ~member:(Helpers.solo_member ())
      ~me:Net.Transport.server
      ~replicas:[ 0; 1; 2 ] ~init:0 ()
  in
  Net.Socket_net.listen net Net.Transport.server (Net.Server.on_message server);
  let writer =
    Thread.create
      (fun () ->
        let c = Net.Client.connect ~net ~server:Net.Transport.server ~proc:0 () in
        for k = 1 to 12 do
          Net.Client.write_k c ~key:0 k
        done;
        Net.Client.close c)
      ()
  in
  let reader =
    Thread.create
      (fun () ->
        let c = Net.Client.connect ~net ~server:Net.Transport.server ~proc:2 () in
        for _ = 1 to 12 do
          ignore (Net.Client.read_k c ~key:0)
        done;
        Net.Client.close c)
      ()
  in
  Thread.join writer;
  Thread.join reader;
  let violation = Net.Server.violations server in
  Net.Socket_net.shutdown net;
  (* entries apply eagerly: commit what a replica still queues (a late
     Store past its quorum) before comparing against the disk *)
  List.iter (fun rep -> Option.iter S.flush (Net.Replica.storage rep)) reps;
  (match violation with
   | [] -> ()
   | (_, v) :: _ ->
     Alcotest.failf "live audit: %a"
       (Histories.Fastcheck.pp_violation Fmt.int)
       v);
  List.iteri
    (fun r rep ->
      let st =
        S.create (S.file_backend ~dir:(Filename.concat dir (string_of_int r)) ())
      in
      Alcotest.(check bool)
        (Fmt.str "replica %d: reopened store = final state" r)
        true
        (S.contents st = Net.Replica.contents rep);
      Alcotest.(check bool) (Fmt.str "replica %d: stored something" r) true
        (S.contents st <> []))
    reps

let socket_durable () =
  (* the service smoke test's --data-dir leg, as a test: a real-socket
     cluster persisting to real files; after shutdown every replica
     directory must reopen to exactly the replica's final state.  The
     second input is group commit, whose flush timers the replica nodes
     drive over the sockets. *)
  socket_durable_leg ();
  socket_durable_leg
    ~group_commit:{ S.batch_max = 8; flush_every = 0.0005 }
    ()

(* ------------------------------------------------------------------ *)
(* Differential: the in-place commit queue against the list-based one  *)
(* it replaced ([Storage_oracle]), call by call, over random mixes of  *)
(* async and sync appends, durability markers, flushes and snapshots,  *)
(* with completions that re-enter their store and a disk that may tear *)
(* one batch.                                                          *)

(* what a completion does after logging itself *)
type reenter =
  | Stay
  | Reappend of int * int * int  (* reg, ts, value *)
  | Reflush

type dop =
  | Async of int * int * int * reenter
  | Durable of reenter
  | Flush
  | Idle_flush
  | Snapshot
  | Sync of int * int * int

(* One store behind the calls the property makes, whichever module it
   comes from; [log] holds the ids of fired completions, newest first. *)
type side = {
  async : int -> int -> int -> k:(unit -> unit) -> unit;
  durable : (unit -> unit) -> unit;
  flush : unit -> unit;
  flush_idle : unit -> unit;
  snap : unit -> unit;
  sync : int -> int -> int -> unit;
  pending : unit -> int;
  stats : unit -> int list;
  contents : unit -> (int * (int * Net.Wire.payload)) list;
  disk : unit -> string * string option * int * bool;
  log : int list ref;
}

let pl_of v = Registers.Tagged.make v (v land 1 = 1)

(* the stats both stores keep, in one order *)
let new_stats (s : S.stats) =
  [ s.S.appends; s.S.batch_commits; s.S.cap_commits; s.S.deadline_commits;
    s.S.forced_commits; s.S.idle_commits; s.S.max_batch; s.S.snapshots_taken;
    s.S.recovered_snapshot; s.S.recovered_wal; s.S.torn_bytes; s.S.wal_size ]

let oracle_stats (s : O.stats) =
  [ s.O.appends; s.O.batch_commits; s.O.cap_commits; s.O.deadline_commits;
    s.O.forced_commits; s.O.idle_commits; s.O.max_batch; s.O.snapshots_taken;
    s.O.recovered_snapshot; s.O.recovered_wal; s.O.torn_bytes; s.O.wal_size ]

let new_side st d =
  {
    async = (fun reg ts v ~k -> S.append_async st ~reg ~ts (pl_of v) ~k);
    durable = S.on_durable st;
    flush = (fun () -> S.flush st);
    flush_idle = (fun () -> S.flush_idle st);
    snap = (fun () -> S.snapshot st);
    sync = (fun reg ts v -> S.append st { S.reg; ts; pl = pl_of v });
    pending = (fun () -> S.pending st);
    stats = (fun () -> new_stats (S.stats st));
    contents = (fun () -> S.contents st);
    disk =
      (fun () ->
        ( S.Disk.wal_bytes d, S.Disk.snapshot_bytes d, S.Disk.appends d,
          S.Disk.is_dead d ));
    log = ref [];
  }

let oracle_side st d =
  {
    async =
      (fun reg ts v ~k -> O.append_async st { O.reg; ts; pl = pl_of v } ~k);
    durable = O.on_durable st;
    flush = (fun () -> O.flush st);
    flush_idle = (fun () -> O.flush_idle st);
    snap = (fun () -> O.snapshot st);
    sync = (fun reg ts v -> O.append st { O.reg; ts; pl = pl_of v });
    pending = (fun () -> O.pending st);
    stats = (fun () -> oracle_stats (O.stats st));
    contents = (fun () -> O.contents st);
    disk =
      (fun () ->
        ( O.Disk.wal_bytes d, O.Disk.snapshot_bytes d, O.Disk.appends d,
          O.Disk.is_dead d ));
    log = ref [];
  }

(* Op [i]'s completion: log [i], then re-enter the store; a re-entered
   append's own completion logs [1000 + i] and stays put. *)
let completion s i re () =
  s.log := i :: !(s.log);
  match re with
  | Stay -> ()
  | Reappend (reg, ts, v) ->
    s.async reg ts v ~k:(fun () -> s.log := (1000 + i) :: !(s.log))
  | Reflush -> s.flush ()

let run_dop s i = function
  | Async (reg, ts, v, re) -> s.async reg ts v ~k:(completion s i re)
  | Durable re -> s.durable (completion s i re)
  | Flush -> s.flush ()
  | Idle_flush -> s.flush_idle ()
  | Snapshot -> s.snap ()
  | Sync (reg, ts, v) -> s.sync reg ts v

(* everything the two stores must agree on after a call *)
let observe s =
  (List.rev !(s.log), s.pending (), s.stats (), s.contents (), s.disk ())

let pp_reenter = function
  | Stay -> ""
  | Reappend (r, t, v) -> Fmt.str "+(%d,%d,%d)" r t v
  | Reflush -> "+flush"

let pp_dop = function
  | Async (r, t, v, re) -> Fmt.str "async(%d,%d,%d)%s" r t v (pp_reenter re)
  | Durable re -> "durable" ^ pp_reenter re
  | Flush -> "flush"
  | Idle_flush -> "idle-flush"
  | Snapshot -> "snapshot"
  | Sync (r, t, v) -> Fmt.str "sync(%d,%d,%d)" r t v

let gen_store_case =
  let open QCheck2.Gen in
  let ent = triple (int_range 0 3) (int_range 1 12) (int_range 0 99) in
  let re =
    frequency
      [ (6, pure Stay);
        (2, map (fun (r, t, v) -> Reappend (r, t, v)) ent);
        (1, pure Reflush) ]
  in
  let dop =
    frequency
      [ (8, map2 (fun (r, t, v) re -> Async (r, t, v, re)) ent re);
        (2, map (fun re -> Durable re) re);
        (2, pure Flush);
        (2, pure Idle_flush);
        (1, pure Snapshot);
        (2, map (fun (r, t, v) -> Sync (r, t, v)) ent) ]
  in
  let tear = opt (pair (int_range 1 8) (int_range 0 120)) in
  (* cadences 4 and 13 stand for 120- and 400-byte WAL budgets *)
  map
    (fun ((bm, se), (tear, ops)) -> (bm, se, tear, ops))
    (pair
       (pair (int_range 1 8) (oneofl [ 0; 3; 4; 7; 13 ]))
       (pair tear (list_size (int_range 0 40) dop)))

let print_store_case (bm, se, tear, ops) =
  Fmt.str "batch_max=%d snapshot_every=%d tear=%s ops=[%s]" bm se
    (match tear with
     | None -> "none"
     | Some (k, keep) -> Fmt.str "%d@%d" k keep)
    (String.concat "; " (List.map pp_dop ops))

let storage_matches_oracle (bm, se, tear, ops) =
  let fate i =
    match tear with Some (k, keep) when i = k -> `Torn keep | _ -> `Persist
  in
  let d = S.Disk.create () and od = O.Disk.create () in
  S.Disk.set_hook d (fun i ->
      match fate i with `Torn n -> S.Disk.Torn n | `Persist -> S.Disk.Persist);
  O.Disk.set_hook od (fun i ->
      match fate i with `Torn n -> O.Disk.Torn n | `Persist -> O.Disk.Persist);
  let cfg = { S.batch_max = bm; flush_every = 0.0 } in
  let a =
    new_side
      (S.create ~snapshot_every:se ~group_commit:cfg
         (S.Disk.backend d))
      d
  and b =
    oracle_side
      (O.create ~snapshot_every:se
         ~group_commit:{ O.batch_max = bm; flush_every = 0.0 }
         (O.Disk.backend od))
      od
  in
  let agree what =
    if observe a <> observe b then
      QCheck2.Test.fail_reportf "stores differ after %s" what
  in
  List.iteri
    (fun i op ->
      run_dop a i op;
      run_dop b i op;
      agree (pp_dop op))
    ops;
  a.flush ();
  b.flush ();
  agree "the final flush";
  S.Disk.clear_hook d;
  O.Disk.clear_hook od;
  S.Disk.revive d;
  O.Disk.revive od;
  let a' = new_side (S.create ~snapshot_every:se (S.Disk.backend d)) d
  and b' = oracle_side (O.create ~snapshot_every:se (O.Disk.backend od)) od in
  if observe a' <> observe b' then
    QCheck2.Test.fail_reportf "recovered stores differ";
  true

let oracle_differential =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:400 ~print:print_store_case
       ~name:"group commit: in-place queue = list-based oracle, call by call"
       gen_store_case storage_matches_oracle)

(* ------------------------------------------------------------------ *)
(* Commit causes: every batch commit is counted under exactly one of a *)
(* filling append, [drive]'s deadline, a forced flush, or an idle one. *)

let causes st =
  let s = S.stats st in
  [ s.S.cap_commits; s.S.deadline_commits; s.S.forced_commits;
    s.S.idle_commits ]

let commit_causes () =
  let net = Net.Sim_net.create ~seed:1 ~faults:Net.Sim_net.reliable () in
  let transport = Net.Sim_net.transport net in
  let st =
    S.create ~group_commit:{ S.batch_max = 4; flush_every = 1.0 }
      (mem ())
  in
  let es = Array.of_list (entries_n 20) in
  let put i = append_async st es.(i) ~k:ignore in
  (* three queued, then the deadline timer commits them *)
  for i = 0 to 2 do
    put i
  done;
  S.drive st ~transport ~node:0;
  ignore (Net.Sim_net.run net);
  Alcotest.(check (list int)) "deadline" [ 0; 1; 0; 0 ] (causes st);
  (* four queued: the fourth fills the batch *)
  for i = 3 to 6 do
    put i
  done;
  Alcotest.(check (list int)) "size cap" [ 1; 1; 0; 0 ] (causes st);
  (* flush, snapshot and a sync append each force the queue out *)
  put 7;
  S.flush st;
  put 8;
  S.snapshot st;
  put 9;
  S.append st es.(10);
  Alcotest.(check (list int)) "forced" [ 1; 1; 3; 0 ] (causes st);
  (* nothing pending: no commit, no count *)
  S.flush st;
  S.snapshot st;
  S.flush_idle st;
  Alcotest.(check (list int)) "empty flushes" [ 1; 1; 3; 0 ] (causes st);
  (* a driver with nothing else queued commits at once *)
  put 11;
  put 12;
  S.flush_idle st;
  Alcotest.(check (list int)) "idle" [ 1; 1; 3; 1 ] (causes st);
  (* a zero deadline commits inside [drive] *)
  let st0 = S.create ~group_commit:(gc 4) (mem ()) in
  append_async st0 es.(0) ~k:ignore;
  S.drive st0 ~transport ~node:0;
  Alcotest.(check (list int)) "zero deadline" [ 0; 1; 0; 0 ] (causes st0);
  List.iter
    (fun st ->
      Alcotest.(check int) "the causes sum to batch_commits"
        (S.stats st).S.batch_commits
        (List.fold_left ( + ) 0 (causes st)))
    [ st; st0 ]

let commit_causes_cluster () =
  (* on a durable group-commit cluster every replica's commits come
     from the size cap or [drive]'s deadline (nothing forces a
     replica's queue, and no replica commits when idle), and every
     commit is counted once *)
  let cl =
    R.create
      {
        R.default with
        store =
          Some
            {
              R.default_store with
              group_commit = Some { S.batch_max = 4; flush_every = 0.5 };
            };
      }
      ~seed:5
      ~workload:
        (R.singles
           [ proc 0 (List.init 30 (fun i -> w (i + 1)));
             proc 1 (List.init 30 (fun i -> w (i + 101)));
             proc 2 (List.init 30 (fun _ -> rd)) ])
  in
  let steps = Net.Sim_net.run ~max_steps:200_000 cl.R.net in
  Helpers.check_clean "cluster" (Helpers.collect cl ~steps);
  List.iter
    (fun r ->
      let st = Option.get (Net.Replica.storage (cl.R.replica_of r)) in
      let s = S.stats st in
      Alcotest.(check int)
        (Fmt.str "replica %d: causes sum to batch_commits" r)
        s.S.batch_commits
        (List.fold_left ( + ) 0 (causes st));
      Alcotest.(check bool)
        (Fmt.str "replica %d: committed, none forced or idle" r)
        true
        (s.S.batch_commits > 0 && s.S.forced_commits = 0
       && s.S.idle_commits = 0))
    [ 0; 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Allocation pins, each test named with the list-based queue's figure *)
(* under the same harness.                                             *)

(* A store whose backend drops every write: only the store's own
   words are counted. *)
let null_store ~batch_max =
  S.create ~group_commit:{ S.batch_max; flush_every = 0.0 }
    { (mem ()) with S.append_wal = (fun _ _ -> ()) }

let pl_cycle = Array.init 64 pl

(* [words_per_call] over calls [2n, 3n) after two warm-up rounds of
   [n] calls, each ended by [settle] (a commit): both of the store's
   alternating completion arrays, and every other buffer, have grown to
   a round's size before the measured round. *)
let words_settled ~n ~settle f =
  Helpers.words_per_call ~warmup:(2 * n) ~n:(3 * n) (fun i ->
      f i;
      if i = n - 1 || i = (2 * n) - 1 then settle ())

let append_async_words () =
  (* rising timestamps over 64 registers: every append applies, into a
     bucket the warm-up made; nothing commits in the window *)
  let st = null_store ~batch_max:1_000_000 in
  let k () = () in
  let words =
    words_settled ~n:2_000
      ~settle:(fun () -> S.flush st)
      (fun i ->
        S.append_async st ~reg:(i land 63) ~ts:(i + 1) pl_cycle.(i land 63) ~k)
  in
  (* the table's (ts, payload) pair *)
  Alcotest.(check (float 0.0)) "words per append_async" 3.0 words

let flush_six_words () =
  (* six stale appends (the table keeps its pairs) and their flush, on
     the simulated disk; the warm-up's snapshot empties the disk's WAL
     but keeps its capacity *)
  let d = S.Disk.create () in
  let st =
    S.create ~group_commit:{ S.batch_max = 64; flush_every = 0.0 }
      (S.Disk.backend d)
  in
  for reg = 0 to 5 do
    S.append st { S.reg; ts = 1_000_000; pl = pl reg }
  done;
  let fired = ref 0 in
  let k () = incr fired in
  let n = 2_000 in
  let words =
    words_settled ~n
      ~settle:(fun () -> S.snapshot st)
      (fun i ->
        for reg = 0 to 5 do
          S.append_async st ~reg ~ts:(1 + (i land 7)) pl_cycle.(reg) ~k
        done;
        S.flush st)
  in
  Alcotest.(check int) "every completion fired" (6 * 3 * n) !fired;
  Alcotest.(check int) "one Disk append per flush" (6 + (3 * n))
    (S.Disk.appends d);
  Alcotest.(check (float 0.0)) "words per 6 appends + flush" 0.0 words

let replica_store_words () =
  (* a durable replica's [Store] of a newer timestamp to a register it
     holds, its ack left queued *)
  let st = null_store ~batch_max:1_000_000 in
  let r = Net.Replica.create ~init:0 ~storage:st () in
  let acks = ref 0 in
  let emit _ = incr acks in
  let n = 2_000 in
  let stores =
    Array.init (3 * n) (fun i ->
        Net.Wire.Store { rid = i; reg = i land 3; ts = i + 1; pl = pl i })
  in
  let words =
    words_settled ~n
      ~settle:(fun () -> S.flush st)
      (fun i -> Net.Replica.handle_emit r ~src:9 ~emit stores.(i))
  in
  S.flush st;
  Alcotest.(check int) "every Store acked after its flush" (3 * n) !acks;
  (* the table's (ts, payload) pair *)
  Alcotest.(check (float 0.0)) "words per durable Store" 3.0 words

(* ------------------------------------------------------------------ *)
(* The WAL is opened O_APPEND: after a torn-tail repair truncates it,  *)
(* the next append lands right after the valid prefix.                 *)

let file_append_after_repair () =
  with_dir @@ fun dir ->
  let entries = entries_n 8 in
  let st = S.create (S.file_backend ~dir ()) in
  List.iter (S.append st) (take 5 entries);
  let wal_file = Filename.concat dir "wal" in
  let rec_size = (Unix.stat wal_file).Unix.st_size / 5 in
  Unix.truncate wal_file ((3 * rec_size) + 11);
  (* the repairing open truncates to the 3-record prefix; its own
     appends must follow that prefix, not the torn length *)
  let st' = S.create (S.file_backend ~dir ()) in
  Alcotest.(check int) "tail dropped" 11 (S.stats st').S.torn_bytes;
  List.iter (S.append st') (List.filteri (fun i _ -> i >= 3) entries);
  Alcotest.(check int) "appends follow the valid prefix" (8 * rec_size)
    (Unix.stat wal_file).Unix.st_size;
  let st'' = S.create (S.file_backend ~dir ()) in
  Alcotest.(check int) "second recovery: clean" 0 (S.stats st'').S.torn_bytes;
  Alcotest.(check int) "second recovery: every record" 8
    (S.stats st'').S.recovered_wal;
  Alcotest.(check bool) "second recovery: the full workload" true
    (S.contents st'' = reference_contents entries)

(* ------------------------------------------------------------------ *)
(* A durable replica's acks wait in a ring of slots and leave in the   *)
(* order their stores (or duplicate markers) were queued, each once    *)
(* its batch commits.                                                  *)

let replica_acks_in_order () =
  let module W = Net.Wire in
  let st = S.create ~group_commit:(gc 3) (mem ()) in
  let r = Net.Replica.create ~init:0 ~storage:st () in
  let out = ref [] in
  let emit reply = out := reply :: !out in
  let send src m = Net.Replica.handle_emit r ~src ~emit m in
  let took what expect =
    Alcotest.(check bool) what true (List.rev !out = expect);
    out := []
  in
  send 7 (W.Store { rid = 0; reg = 0; ts = 1; pl = pl 10 });
  send 7 (W.Store { rid = 1; reg = 0; ts = 1; pl = pl 10 });
  took "a store and its duplicate wait" [];
  send 7 (W.Query { rid = 2; reg = 0 });
  took "a query answers at once"
    [ (7, W.Query_reply { rid = 2; reg = 0; ts = 1; pl = pl 10 }) ];
  send 8 (W.Store2 { lid = 0; seq = 0; reg = 1; pl = pl 11 });
  send 7 (W.Store { rid = 3; reg = 2; ts = 5; pl = pl 12 });
  took "the filling store releases the batch, in queue order"
    [ (7, W.Store_ack { rid = 0; reg = 0 });
      (7, W.Store_ack { rid = 1; reg = 0 });
      (8, W.Ack2 { lid = 0; seq = 0 });
      (7, W.Store_ack { rid = 3; reg = 2 }) ];
  send 7 (W.Store { rid = 4; reg = 2; ts = 5; pl = pl 12 });
  send 8 (W.Store2 { lid = 0; seq = 0; reg = 1; pl = pl 11 });
  took "duplicates with nothing queued ack at once"
    [ (7, W.Store_ack { rid = 4; reg = 2 }); (8, W.Ack2 { lid = 0; seq = 0 }) ];
  (* the ring wraps and grows: 2 acks, then 40 queued from a moved head *)
  let st = S.create ~group_commit:(gc 64) (mem ()) in
  let r = Net.Replica.create ~init:0 ~storage:st () in
  let store rid =
    Net.Replica.handle_emit r ~src:(rid land 1) ~emit
      (W.Store { rid; reg = rid; ts = 1; pl = pl rid })
  in
  let acks rids =
    List.map (fun rid -> (rid land 1, W.Store_ack { rid; reg = rid })) rids
  in
  for rid = 0 to 9 do
    store rid
  done;
  S.flush st;
  took "ten acks" (acks (List.init 10 Fun.id));
  for rid = 10 to 49 do
    store rid
  done;
  took "nothing before the flush" [];
  S.flush st;
  took "forty acks, in order, across the grown ring"
    (acks (List.init 40 (fun i -> i + 10)))

let suite =
  [
    tc "store: basic ops" basic_ops;
    tc "store: timestamp guard" ts_guard;
    tc "store: reopen recovers" reopen_recovers;
    tc "store: snapshot truncates the log" snapshot_truncates;
    tc "store: forced snapshot" forced_snapshot;
    tc "store: stale WAL over a newer snapshot is harmless"
      stale_wal_harmless;
    tc "crash-point matrix: every append ordinal, pure store"
      (crash_point_matrix [ 0; 5 ]);
    tc "crash-point matrix: snapshot truncation boundaries"
      (crash_point_matrix [ 4 ]);
    tc "disk plays dead after a tear" post_tear_writes_ignored;
    tc "group commit: batch boundaries, eager apply, lagging durability"
      group_commit_batches;
    tc "group commit: sync append still durable on return"
      group_commit_sync_append_flushes;
    tc "group commit: on_durable marker" group_commit_on_durable;
    tc "crash-point matrix: group-commit batch boundaries"
      group_commit_crash_matrix;
    tc "crash-point matrix: end-to-end cluster" sim_crash_points;
    tc "crash-point matrix: end-to-end, snapshots crossing"
      (sim_crash_points_snapshotting 2);
    tc "crash-point matrix: end-to-end, snapshots every 3 appends"
      (sim_crash_points_snapshotting 3);
    tc "crash-point matrix: end-to-end, group commit"
      sim_crash_points_group_commit;
    tc "amnesia restart recovers from the WAL" durable_amnesia_recovers;
    tc "amnesia restart without durability forgets" volatile_amnesia_forgets;
    tc "plain crash is a pause" plain_crash_keeps_state;
    tc "a paused replica's flush timer fires at its restart"
      pause_defers_flush_timer;
    oracle_differential;
    tc "group commit: commit causes sum to batch_commits" commit_causes;
    tc "group commit: a cluster's commits split by cause"
      commit_causes_cluster;
    tc "alloc: a warm append_async: 3 words (23 with a list queue)"
      append_async_words;
    tc "alloc: 6 queued entries and their flush: 0 words (200 with a list queue)"
      flush_six_words;
    tc "alloc: a durable replica Store: 3 words (30 with closures)"
      replica_store_words;
    tc "file backend: an append after a tail repair follows the prefix"
      file_append_after_repair;
    tc "file backend: close releases the WAL descriptor"
      file_close_releases_fd;
    tc "replica: durable acks leave in queue order" replica_acks_in_order;
  ]

let slow_suite =
  [
    tc_slow "file backend: append, snapshot, reopen" file_roundtrip;
    tc_slow "file backend: torn tail repaired on disk" file_torn_tail_repair;
    tc_slow "file backend: fsync path" file_fsync_append;
    tc_slow "recovery torture: random crash points over real files"
      recovery_torture;
    tc_slow "socket cluster persists and recovers" socket_durable;
  ]
