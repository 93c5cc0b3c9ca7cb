(* Benchmark harness: regenerates every figure and quantitative claim
   of the paper (see EXPERIMENTS.md for the index).

   Output has two parts:
   - macro experiments (multi-domain throughput, access counts, crash
     injection, model checking) with plain wall-clock timing;
   - micro benchmarks (Bechamel, one Test per operation) for operation
     latencies of the protocol and the baselines.

     dune exec bench/main.exe -- [--sections a,b] [--json out.json]

   With --json, every numeric result also lands in a machine-readable
   file (see the BENCH_*.json baselines at the repo root). *)

open Bechamel
open Toolkit

let line () = Fmt.pr "%s@." (String.make 72 '-')

let section name =
  line ();
  Fmt.pr "%s@." name;
  line ()

(* ------------------------------------------------------------------ *)
(* Machine-readable output: sections push (name, value) metrics here;  *)
(* --json dumps them all at exit.                                      *)

module Json = struct
  let metrics : (string * string * float) list ref = ref []

  let metric ~section name value =
    metrics := (section, name, value) :: !metrics

  let escape s =
    let b = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let number v =
    (* JSON has no nan/inf; benches that fail to estimate yield null *)
    if Float.is_finite v then Printf.sprintf "%.6g" v else "null"

  let write path =
    let oc = open_out path in
    let rows = List.rev !metrics in
    Printf.fprintf oc "{\n  \"schema\": \"bloom-register-bench/1\",\n";
    Printf.fprintf oc "  \"metrics\": [\n";
    List.iteri
      (fun i (s, n, v) ->
        Printf.fprintf oc
          "    {\"section\": \"%s\", \"name\": \"%s\", \"value\": %s}%s\n"
          (escape s) (escape n) (number v)
          (if i = List.length rows - 1 then "" else ","))
      rows;
    Printf.fprintf oc "  ]\n}\n";
    close_out oc;
    Fmt.pr "wrote %d metrics to %s@." (List.length rows) path
end

(* ------------------------------------------------------------------ *)
(* Helpers shared by the sections below.                               *)

(* [f ()] and its wall-clock seconds, floored above zero so rates stay
   finite *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Float.max 1e-9 (Unix.gettimeofday () -. t0))

(* a unique path under the system tmpdir; Storage.file_backend mkdirs it *)
let fresh_dir prefix =
  let f = Filename.temp_file prefix "" in
  Sys.remove f;
  f

(* remove a file or directory tree, if present *)
let rec rm_dir p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_dir (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

(* the [i]-th synthetic WAL entry: 64 registers, rising timestamps *)
let entry i =
  { Net.Storage.reg = i mod 64; ts = i + 1;
    pl = Registers.Tagged.make i (i land 1 = 0) }

(* 2 writers + 2 readers, [n] ops each, every written value unique *)
let two_by_two n =
  Harness.Workload.unique_scripts
    { Harness.Workload.writers = 2; readers = 2; writes_each = n;
      reads_each = n }

(* ------------------------------------------------------------------ *)
(* Claim C1/C2: access counts and space, from live counters.           *)

let bench_access_counts () =
  section "claims/access-counts (C1, C2) - real accesses per operation";
  let trace =
    Registers.Run_coarse.run ~seed:7
      (Core.Protocol.bloom ~init:0 ~other_init:0 ())
      (two_by_two 50)
  in
  Fmt.pr "%a@." Harness.Stats.pp_access_summary
    (Harness.Stats.summarise_accesses trace);
  Fmt.pr "paper claims: read = 3 reads + 0 writes; write = 1 read + 1 write@.";
  Fmt.pr "space: %d extra bit(s) per real register (paper claims 1)@.@."
    (Registers.Tagged.extra_bits (Registers.Tagged.initial 0));
  let w = 4 in
  let ts = Baselines.Timestamp_mwmr.build ~writers:w ~init:0 in
  Fmt.pr
    "timestamp MWMR baseline (%d writers): read = %d reads, write = %d \
     accesses, and unbounded stamps@.@."
    w
    (Registers.Vm.steps ~probe:(0, 0, -1) (ts.Registers.Vm.read ~proc:9))
    (Registers.Vm.steps ~probe:(0, 0, -1) (ts.Registers.Vm.write ~proc:0 1))

(* ------------------------------------------------------------------ *)
(* Figure 2: throughput of the simulated register under real           *)
(* multicore contention, against the baselines.                        *)

let throughput ~label ~read ~write0 ~write1 =
  let duration = 0.4 in
  let stop = Atomic.make false in
  let counts = Array.init 4 (fun _ -> Atomic.make 0) in
  let worker i op =
    Domain.spawn (fun () ->
        let k = ref 0 in
        while not (Atomic.get stop) do
          op !k;
          incr k;
          Atomic.incr counts.(i)
        done)
  in
  let ds =
    [ worker 0 (fun k -> write0 k); worker 1 (fun k -> write1 k);
      worker 2 (fun _ -> read ()); worker 3 (fun _ -> read ()) ]
  in
  Unix.sleepf duration;
  Atomic.set stop true;
  List.iter Domain.join ds;
  let total = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 counts in
  let wr = Atomic.get counts.(0) + Atomic.get counts.(1) in
  let mops = float_of_int total /. duration /. 1e6 in
  Json.metric ~section:"throughput" (label ^ " Mops/s") mops;
  Fmt.pr "  %-28s %8.2f Mops/s  (%d writes, %d reads)@." label mops wr
    (total - wr)

let bench_throughput () =
  section
    "fig2/contended-throughput - 2 writer + 2 reader domains, 0.4s each";
  (let reg, w0, w1 = Core.Shm.create ~init:0 in
   throughput ~label:"bloom two-writer register"
     ~read:(fun () -> ignore (Core.Shm.read reg))
     ~write0:(fun k -> Core.Shm.write w0 k)
     ~write1:(fun k -> Core.Shm.write w1 k));
  (let reg, w0, w1 = Core.Shm.create ~init:0 in
   let c0 = Core.Shm.Local_copy.attach w0 in
   let c1 = Core.Shm.Local_copy.attach w1 in
   throughput ~label:"bloom + local-copy writers"
     ~read:(fun () -> ignore (Core.Shm.read reg))
     ~write0:(fun k -> Core.Shm.Local_copy.write c0 k)
     ~write1:(fun k -> Core.Shm.Local_copy.write c1 k));
  (let reg = Baselines.Mutex_register.create 0 in
   throughput ~label:"mutex register"
     ~read:(fun () -> ignore (Baselines.Mutex_register.read reg))
     ~write0:(fun k -> Baselines.Mutex_register.write reg k)
     ~write1:(fun k -> Baselines.Mutex_register.write reg k));
  (let reg = Baselines.Timestamp_mwmr.Shm.create ~writers:2 ~init:0 in
   throughput ~label:"timestamp MWMR (2 writers)"
     ~read:(fun () -> ignore (Baselines.Timestamp_mwmr.Shm.read reg))
     ~write0:(fun k -> Baselines.Timestamp_mwmr.Shm.write reg ~writer:0 k)
     ~write1:(fun k -> Baselines.Timestamp_mwmr.Shm.write reg ~writer:1 k));
  (let cell = Atomic.make 0 in
   throughput ~label:"raw Atomic.t (no protocol)"
     ~read:(fun () -> ignore (Atomic.get cell))
     ~write0:(fun k -> Atomic.set cell k)
     ~write1:(fun k -> Atomic.set cell k));
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* Claim C3: wait-freedom vs the blocking baseline.                    *)

let bench_stalled_writer () =
  section "claims/stalled-writer (C3) - reads while a writer is stalled";
  (* mutex: stall the lock holder for 100ms, measure one read *)
  let mx = Baselines.Mutex_register.create 0 in
  let release = Atomic.make false in
  let holder =
    Domain.spawn (fun () ->
        ignore
          (Baselines.Mutex_register.read_while_stalled mx ~stall:(fun () ->
               while not (Atomic.get release) do
                 Domain.cpu_relax ()
               done)))
  in
  Unix.sleepf 0.02;
  let t0 = Unix.gettimeofday () in
  let reader = Domain.spawn (fun () -> Baselines.Mutex_register.read mx) in
  Unix.sleepf 0.1;
  Atomic.set release true;
  ignore (Domain.join reader);
  Domain.join holder;
  Fmt.pr "  mutex register: read latency with stalled holder: %.1f ms@."
    ((Unix.gettimeofday () -. t0) *. 1e3);
  (* bloom: a writer stopped forever mid-protocol costs readers nothing *)
  let reg, w0, _w1 = Core.Shm.create ~init:0 in
  Core.Shm.write w0 1;
  let t0 = Unix.gettimeofday () in
  let n = 100_000 in
  for _ = 1 to n do
    ignore (Core.Shm.read reg)
  done;
  Fmt.pr
    "  bloom register: mean read latency with a writer stopped forever: \
     %.0f ns@.@."
    ((Unix.gettimeofday () -. t0) /. float_of_int n *. 1e9)

(* ------------------------------------------------------------------ *)
(* Claim C4: crash injection.                                          *)

let bench_crash () =
  section "claims/crash-injection (C4) - writer killed at every step";
  let processes =
    [ { Registers.Vm.proc = 0; script = [ Histories.Event.Write 7 ] };
      { Registers.Vm.proc = 1;
        script = [ Histories.Event.Write 8; Histories.Event.Write 9 ] };
      { Registers.Vm.proc = 2;
        script = List.init 3 (fun _ -> Histories.Event.Read) } ]
  in
  let results =
    Harness.Failure.crash_writer_everywhere ~seed:3 ~init:0 ~victim:0
      ~processes ~build:(fun () -> Core.Protocol.bloom ~init:0 ~other_init:0 ())
  in
  List.iter
    (fun (k, fate, trace) ->
      let verdict =
        match Core.Certifier.certify (Core.Gamma.analyse ~init:0 trace) with
        | Core.Certifier.Certified _ -> "certified atomic"
        | Core.Certifier.Failed m -> "FAILED: " ^ m
      in
      Fmt.pr "  crash after %d accesses: write %s; execution %s@." k
        (match fate with
         | Harness.Failure.Never_happened -> "never happened"
         | Harness.Failure.Took_effect -> "took effect  ")
        verdict)
    results;
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* Figures 3-5 and the theorem: model checking.                        *)

let bench_modelcheck () =
  section "fig3+fig4+theorem/modelcheck - exhaustive verification";
  let w2r2 =
    [ { Registers.Vm.proc = 0; script = [ Histories.Event.Write 10 ] };
      { Registers.Vm.proc = 1; script = [ Histories.Event.Write 20 ] };
      { Registers.Vm.proc = 2; script = [ Histories.Event.Read ] };
      { Registers.Vm.proc = 3; script = [ Histories.Event.Read ] } ]
  in
  let reg () = Core.Protocol.bloom ~init:0 ~other_init:0 () in
  let (good, total), dt =
    timed (fun () -> Modelcheck.Explorer.count_atomic ~init:0 (reg ()) w2r2)
  in
  Fmt.pr "  theorem: %d/%d executions atomic (%.2fs, %.0f exec/s)@." good total
    dt
    (float_of_int total /. dt);
  let n, dt =
    timed (fun () ->
        Modelcheck.Explorer.explore (reg ()) w2r2 ~on_leaf:(fun trace ->
            let g = Core.Gamma.analyse ~init:0 trace in
            match Core.Gamma.check_lemmas g with
            | Ok () -> ()
            | Error e -> failwith e))
  in
  Fmt.pr "  fig3/fig4: lemmas 1-2 hold on all %d executions (%.2fs)@." n dt;
  let v, dt =
    timed (fun () ->
        Modelcheck.Explorer.find_violation ~init:0
          (Core.Tournament.flat ~init:0 ~other_init:0 ())
          [ { Registers.Vm.proc = 0; script = [ Histories.Event.Write 10 ] };
            { Registers.Vm.proc = 1; script = [ Histories.Event.Write 20 ] };
            { Registers.Vm.proc = 3; script = [ Histories.Event.Write 30 ] };
            { Registers.Vm.proc = 4; script = [ Histories.Event.Read ] } ])
  in
  (match v with
   | Some v ->
     Fmt.pr "  fig5: tournament violation found after %d executions (%.3fs)@."
       v.Modelcheck.Explorer.executions_checked dt
   | None -> Fmt.pr "  fig5: NO VIOLATION (unexpected)@.");
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* Ablations: which ingredients of the protocol are load-bearing.      *)

let bench_ablations () =
  section "ablations - perturb one protocol ingredient, model-check it";
  let w v = Histories.Event.Write v and r = Histories.Event.Read in
  let p proc script = { Registers.Vm.proc; script } in
  let w2r2 = [ p 0 [ w 10 ]; p 1 [ w 20 ]; p 2 [ r ]; p 3 [ r ] ] in
  let check name reg procs =
    let v, dt =
      timed (fun () -> Modelcheck.Explorer.find_violation ~init:0 reg procs)
    in
    match v with
    | Some v ->
      Fmt.pr "  %-24s BROKEN   (violation after %7d executions, %.2fs)@."
        name v.Modelcheck.Explorer.executions_checked dt
    | None -> Fmt.pr "  %-24s survives (exhaustive, %.2fs)@." name dt
  in
  check "bloom (the real thing)"
    (Core.Protocol.bloom ~init:0 ~other_init:0 ())
    w2r2;
  check "no-third-read"
    (Core.Variants.no_third_read ~init:0 ~other_init:0 ())
    [ p 0 [ w 10 ]; p 1 [ w 20; w 21 ]; p 2 [ r ]; p 3 [ r ] ];
  check "copy-tag (no xor)" (Core.Variants.copy_tag ~init:0 ~other_init:0 ())
    w2r2;
  check "read-own-register"
    (Core.Variants.read_own_register ~init:0 ~other_init:0 ())
    w2r2;
  check "split-write tag-first"
    (Core.Variants.split_write_tag_first ~init:0 ~other_init:0 ())
    w2r2;
  check "split-write value-first"
    (Core.Variants.split_write_value_first ~init:0 ~other_init:0 ())
    w2r2;
  check "mod-3, three writers"
    (Core.Variants.mod3 ~init:0 ~others:(0, 0) ())
    [ p 0 [ w 10 ]; p 1 [ w 20 ]; p 2 [ w 30 ]; p 3 [ r ] ];
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* Synthesis: model-check the whole 256-candidate protocol family.     *)

let bench_synthesis () =
  section "synthesis - all 256 Bloom-shaped protocols, model-checked";
  let t0 = Unix.gettimeofday () in
  let s = Modelcheck.Synthesis_check.survivors () in
  Fmt.pr "  %d of %d candidates are atomic (%.1fs):@." (List.length s)
    (List.length Core.Synthesis.all)
    (Unix.gettimeofday () -. t0);
  List.iter (fun c -> Fmt.pr "    %a@." Core.Synthesis.pp c) s;
  Fmt.pr "  the paper's protocol is unique up to complementing the tags.@.@.";
  Fmt.pr "  extended family (writers may consult their own tag): 4096@.";
  let t0 = Unix.gettimeofday () in
  let es = Modelcheck.Synthesis_check.extended_survivors () in
  Fmt.pr "  %d survive the depth-2 screening (%.0fs):@." (List.length es)
    (Unix.gettimeofday () -. t0);
  List.iter
    (fun e ->
      let deep = Modelcheck.Synthesis_check.survives_deep e in
      Fmt.pr "    %a%s -> %s@." Core.Synthesis.pp_extended e
        (if Core.Synthesis.uses_own_tag e then " (uses own tag)" else "")
        (if deep then "survives depth 3" else "KILLED at depth 3"))
    es;
  Fmt.pr
    "  the own-tag survivors are artifacts of insufficient depth; the@.";
  Fmt.pr "  refined answer is again the paper's protocol and its dual.@.@."

(* ------------------------------------------------------------------ *)
(* Figure 2, state space: reachability of the automaton model.         *)

let bench_reachability () =
  section "fig2/state-space - reachability of the I/O-automaton system";
  let run label scripts readers =
    let t0 = Unix.gettimeofday () in
    let auto = Core.Ioa_system.system ~init:0 ~readers ~scripts in
    let s = Ioa.Reachability.explore ~key:Ioa.Composition.state_key auto in
    Fmt.pr
      "  %-24s %7d states, %8d transitions, quiesces: %b (%.2fs)@."
      label s.Ioa.Reachability.states s.Ioa.Reachability.transitions
      s.Ioa.Reachability.always_quiesces
      (Unix.gettimeofday () -. t0)
  in
  let open Histories.Event in
  run "1 write each, 1 read"
    [ (0, [ Write 10 ]); (1, [ Write 20 ]); (2, [ Read ]) ]
    [ 2 ];
  run "2+1 writes, 3 reads"
    [ (0, [ Write 10; Write 11 ]); (1, [ Write 20 ]); (2, [ Read ]);
      (3, [ Read; Read ]) ]
    [ 2; 3 ];
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* Latency distributions under contention (uses Harness.Stats).        *)

let bench_latency_distribution () =
  section "fig2/latency-distribution - contended op latencies (ns)";
  let percentiles samples =
    ( Harness.Stats.percentile samples 50.0,
      Harness.Stats.percentile samples 99.0,
      Harness.Stats.percentile samples 99.9 )
  in
  let measure ~label ~op =
    let n = 50_000 in
    let samples = Array.make n 0.0 in
    let stop = Atomic.make false in
    (* background contention: one writer domain *)
    let reg, w0, _w1 = Core.Shm.create ~init:0 in
    ignore reg;
    let noise =
      Domain.spawn (fun () ->
          let k = ref 0 in
          while not (Atomic.get stop) do
            incr k;
            Core.Shm.write w0 !k
          done)
    in
    let target = op reg in
    (* batch 64 operations per sample: gettimeofday is microsecond-
       grained, the operations are nanoseconds *)
    let batch = 64 in
    for i = 0 to n - 1 do
      let t0 = Unix.gettimeofday () in
      for _ = 1 to batch do
        target ()
      done;
      samples.(i) <- (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int batch
    done;
    Atomic.set stop true;
    Domain.join noise;
    let p50, p99, p999 = percentiles samples in
    Json.metric ~section:"latency-distribution" (label ^ " p50 ns") p50;
    Json.metric ~section:"latency-distribution" (label ^ " p99 ns") p99;
    Fmt.pr "  %-24s p50 %7.0f   p99 %7.0f   p99.9 %7.0f@." label p50 p99 p999
  in
  measure ~label:"bloom read" ~op:(fun reg () -> ignore (Core.Shm.read reg));
  (let mx = Baselines.Mutex_register.create 0 in
   measure ~label:"mutex read (uncontended)" ~op:(fun _ () ->
       ignore (Baselines.Mutex_register.read mx)));
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* Section 8 extension: the double-collect snapshot.                   *)

let bench_snapshot () =
  section "extension/snapshot - double-collect scans (Section 8)";
  (* cost of one scan (cell accesses) as a function of write pressure:
     between any two scanner steps, a writer completes an update with
     probability p *)
  let scan_cost ~seed ~p =
    let rng = Random.State.make [| seed |] in
    let cells = [| (0, 0); (1000, 0) |] in
    let fresh = ref 1 in
    let rec go prog accesses =
      if accesses > 100_000 then accesses
      else begin
        if Random.State.float rng 1.0 < p then begin
          let w = Random.State.int rng 2 in
          let _, seq = cells.(w) in
          incr fresh;
          cells.(w) <- (!fresh, seq + 1)
        end;
        match prog with
        | Registers.Vm.Ret _ -> accesses
        | Registers.Vm.Read (c, k) -> go (k cells.(c)) (accesses + 1)
        | Registers.Vm.Write (c, v, k) ->
          cells.(c) <- v;
          go (k ()) (accesses + 1)
      end
    in
    go (Core.Snapshot.scan_prog ()) 0
  in
  List.iter
    (fun p ->
      let n = 2000 in
      let samples =
        Array.init n (fun seed -> float_of_int (scan_cost ~seed ~p))
      in
      Fmt.pr
        "  write probability %.2f: scan costs mean %5.1f accesses, p99 %5.0f@."
        p (Harness.Stats.mean samples)
        (Harness.Stats.percentile samples 99.0))
    [ 0.0; 0.1; 0.3; 0.6; 0.9 ];
  Fmt.pr "  updates stay at 2 accesses; scans grow unboundedly with@.";
  Fmt.pr "  contention - lock-free, not wait-free (test/test_snapshot.ml).@.@."

(* ------------------------------------------------------------------ *)
(* The message-passing service (lib/net): the fault-rate sweep on the  *)
(* simulated transport, next to a shared-memory reference.  Socket     *)
(* costs of the service as deployed are bench/e2e's.                   *)

let bench_net () =
  section "net/service - the register as a replicated message-passing service";
  (* shared-memory reference point for the same abstraction *)
  (let reg, _w0, _w1 = Core.Shm.create ~init:0 in
   let n = 200_000 in
   let t0 = Unix.gettimeofday () in
   for _ = 1 to n do
     ignore (Core.Shm.read reg)
   done;
   let ns = (Unix.gettimeofday () -. t0) /. float_of_int n *. 1e9 in
   Json.metric ~section:"net" "shm read reference ns" ns;
   Fmt.pr "  shared-memory reference: read %.0f ns@." ns);
  (* fault-rate sweep on the simulated transport: virtual-time cost of
     reliability as the network degrades *)
  Fmt.pr "  sim transport, 3 replicas, 2 writers + 2 readers:@.";
  List.iter
    (fun drop ->
      let o =
        Net.Sim_run.run
          (Net.Sim_run.build
             ~faults:(Net.Sim_net.lossy ~drop ~duplicate:(drop /. 2.0) ())
             ~seed:5 ~init:0 ~processes:(two_by_two 40) ())
      in
      let lat =
        Array.of_list (List.map (fun (_, _, l) -> l) o.Net.Sim_run.latencies)
      in
      (* a run that completed nothing has no latency distribution: nan
         here becomes null in the JSON rather than a garbage p99 *)
      let pct p =
        Option.value ~default:Float.nan (Harness.Stats.percentile_opt lat p)
      in
      let p50 = pct 50.0 in
      let p99 = pct 99.0 in
      let msgs_per_op =
        float_of_int o.Net.Sim_run.quorum.Net.Engine.messages_sent
        /. float_of_int (max 1 o.Net.Sim_run.completed)
      in
      let ops_per_vt =
        float_of_int o.Net.Sim_run.completed /. o.Net.Sim_run.virtual_span
      in
      let pre = Fmt.str "sim drop %.2f" drop in
      Json.metric ~section:"net" (pre ^ " ops per vtime") ops_per_vt;
      Json.metric ~section:"net" (pre ^ " latency p50 vt") p50;
      Json.metric ~section:"net" (pre ^ " latency p99 vt") p99;
      Json.metric ~section:"net" (pre ^ " msgs per op") msgs_per_op;
      Fmt.pr
        "    drop %.2f dup %.2f: %3d/%d ops, %5.2f ops/vtime, latency p50 \
         %5.1f p99 %5.1f vt, %5.1f msgs/op, %d retransmits%s@."
        drop (drop /. 2.0) o.Net.Sim_run.completed o.Net.Sim_run.expected
        ops_per_vt p50 p99 msgs_per_op
        o.Net.Sim_run.quorum.Net.Engine.retransmissions
        (if o.Net.Sim_run.monitor_violation = None && o.Net.Sim_run.fastcheck_ok
         then ""
         else "  [NOT ATOMIC!]"))
    [ 0.0; 0.1; 0.3 ];
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* net/shard: throughput scaling of the sharded keyspace — shard count *)
(* x pipelining window on the simulator (deterministic, the baseline   *)
(* BENCH_003.json tracks this).                                        *)

let bench_net_shard () =
  section "net/shard - sharded keyspace scaling";
  (* --- simulator: ops per virtual time as shards grow.  Each process
     round-robins its script over one key per shard; the server
     serializes per (session, key), so more shards = more of each
     window executing concurrently. --- *)
  Fmt.pr "  sim transport, 3 replicas, 2 writers + 2 readers:@.";
  List.iter
    (fun window ->
      List.iter
        (fun shards ->
          let o =
            Net.Sim_run.run
              (Net.Sim_run.build ~shards ~window ~seed:21 ~init:0
                 ~processes:(two_by_two 60) ())
          in
          let ops_per_vt =
            float_of_int o.Net.Sim_run.completed /. o.Net.Sim_run.virtual_span
          in
          let all_ok =
            o.Net.Sim_run.key_violations = [] && o.Net.Sim_run.fastcheck_ok
          in
          Json.metric ~section:"net-shard"
            (Fmt.str "sim shards %d window %d ops per vtime" shards window)
            ops_per_vt;
          Fmt.pr
            "    shards %d window %2d: %3d/%d ops in vt %7.1f -> %5.2f \
             ops/vtime, %d keys%s@."
            shards window o.Net.Sim_run.completed o.Net.Sim_run.expected
            o.Net.Sim_run.virtual_span ops_per_vt
            (List.length o.Net.Sim_run.key_fastcheck)
            (if all_ok then "" else "  [NOT ATOMIC!]"))
        [ 1; 2; 4; 8 ])
    [ 8; 16 ];
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* net-socket: the multicore epoll runtime — worker domains x shards x *)
(* client batch over real sockets, served by a Server_pool with corked *)
(* cores and emit-coalescing replicas.  BENCH_008.json tracks this;    *)
(* the shards x batch points of BENCH_003.json (threads runtime, no    *)
(* pool, no coalescing) are the baseline it is compared against.       *)

let pool_run_once ?(nkeys = 0) ?(window = 32) ?group_commit ~domains ~shards
    ~batch_max () =
    let net = Net.Socket_net.create () in
    let metrics = Net.Socket_net.metrics net in
    let tr = Net.Socket_net.transport net in
    let replica_nodes = [ 0; 1; 2 ] in
    (* a corked quorum burst costs each replica one reply frame *)
    List.iter
      (fun r ->
        Net.Socket_net.listen net r
          (Net.Replica.serve (Net.Replica.create ~init:0 ()) ~transport:tr
             ~me:r))
      replica_nodes;
    (* durable variant: each worker gets its own wts store on real
       files with group commit — the fsync stalls are what worker
       domains overlap with execution, even on one hardware thread *)
    let data_dir = Option.map (fun _ -> fresh_dir "bench_pool") group_commit in
    let storage d =
      match (data_dir, group_commit) with
      | Some dir, Some g ->
        Some
          (Net.Storage.create ~snapshot_every:4096
             ~group_commit:
               { Net.Storage.batch_max = g; flush_every = 0.0005 }
             (Net.Storage.file_backend ~fsync:true
                ~dir:(Filename.concat dir ("server-d" ^ string_of_int d))
                ()))
      | _ -> None
    in
    let pool =
      Net.Server_pool.create ~transport:tr ~audit:true ~metrics ~storage
        ~map:(Net.Shard_map.create ~shards ()) ~domains
        ~me:Net.Transport.server ~replicas:replica_nodes ~init:0 ()
    in
    Net.Socket_net.listen net Net.Transport.server (fun ~src msg ->
        Net.Server_pool.dispatch pool ~src msg);
    let nkeys = if nkeys > 0 then nkeys else max shards 1 in
    let processes = two_by_two 2400 in
    let t0 = Unix.gettimeofday () in
    let threads =
      List.map
        (fun { Registers.Vm.proc; script } ->
          Thread.create
            (fun () ->
              let c =
                Net.Client.connect ~net ~server:Net.Transport.server
                  ~batch_max ~proc ()
              in
              ignore
                (Net.Client.run_keyed ~window c
                   (List.mapi (fun i op -> (i mod nkeys, op)) script));
              Net.Client.close c)
            ())
        processes
    in
    List.iter Thread.join threads;
    let dt = Unix.gettimeofday () -. t0 in
    Net.Server_pool.stop pool;
    let served = Net.Server_pool.ops_served pool in
    let clean = Net.Server_pool.violations pool = [] in
    let rtt = Net.Metrics.(summarise (histogram metrics "client_rtt")) in
    Net.Socket_net.shutdown net;
    Option.iter rm_dir data_dir;
    (float_of_int served /. dt, served, clean, rtt)

let bench_net_socket_pool () =
  section "net-socket - multicore epoll runtime: domains x shards x batch";
  Fmt.pr
    "  socket transport (epoll runtime), 3 replicas, 4 clients, 9600 ops,@.";
  Fmt.pr
    "  window 64, 16 keys per shard, best of 3 (host: %d hardware thread%s):@."
    (Domain.recommended_domain_count ())
    (if Domain.recommended_domain_count () = 1 then "" else "s");
  List.iter
    (fun (domains, shards, batch_max, group_commit) ->
      (* wall-clock runs on a shared machine are noisy: keep the best
         of three — the least-interfered run is the honest cost *)
      let best = ref None in
      for _ = 1 to 3 do
        let ((ops_s, _, _, _) as r) =
          pool_run_once ~nkeys:(16 * shards) ~window:64 ?group_commit
            ~domains ~shards ~batch_max ()
        in
        match !best with
        | Some (b, _, _, _) when b >= ops_s -> ()
        | _ -> best := Some r
      done;
      let ops_s, served, clean, rtt = Option.get !best in
      let us x = x *. 1e6 in
      let dur =
        match group_commit with
        | None -> ""
        | Some g -> Fmt.str " fsync gc %d" g
      in
      let pre =
        Fmt.str "socket domains %d shards %d batch %d%s" domains shards
          batch_max dur
      in
      Json.metric ~section:"net-socket" (pre ^ " ops per s") ops_s;
      Json.metric ~section:"net-socket" (pre ^ " rtt p50 us")
        (us rtt.Net.Metrics.p50);
      Json.metric ~section:"net-socket" (pre ^ " rtt p99 us")
        (us rtt.Net.Metrics.p99);
      Fmt.pr
        "    domains %d shards %2d batch %2d%-12s: %5d ops -> %8.0f ops/s, \
         rtt p50 %6.0f us p99 %6.0f us%s@."
        domains shards batch_max dur served ops_s
        (us rtt.Net.Metrics.p50) (us rtt.Net.Metrics.p99)
        (if clean then "" else "  [AUDIT VIOLATION!]"))
    [
      (* in-memory series: the BENCH_003 socket section (threads
         runtime, no pool, no coalescing) peaked at 3.7k ops/s *)
      (1, 1, 1, None);
      (1, 4, 1, None);
      (1, 4, 32, None);
      (1, 8, 32, None);
      (2, 8, 32, None);
      (4, 8, 32, None);
      (* durable series: per-worker wts stores on real files with
         fsync, group commit 32 — what the batch fast path feeds *)
      (1, 8, 32, Some 32);
      (4, 8, 32, Some 32);
    ];
  Json.metric ~section:"net-socket" "host hardware threads"
    (float_of_int (Domain.recommended_domain_count ()));
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* net/metrics: the observability layer's own view of the service —    *)
(* per-op message complexity and per-phase latency percentiles, from   *)
(* the Metrics registry rather than ad-hoc timing.                     *)

let bench_net_metrics () =
  section "net/metrics - message complexity and phase latencies";
  let pf fmt = Fmt.pr fmt in
  (* --- simulated transport: exact message counts, virtual-time phases --- *)
  let sim_leg ~label ~faults =
    let metrics = Net.Metrics.create () in
    let o =
      Net.Sim_run.run
        (Net.Sim_run.build ~faults ~metrics ~seed:11 ~init:0
           ~processes:(two_by_two 50) ())
    in
    let ops = max 1 o.Net.Sim_run.completed in
    let msgs_per_op =
      float_of_int (Net.Metrics.get metrics "frames_sent") /. float_of_int ops
    in
    let p1 = Net.Metrics.(summarise (histogram metrics "quorum_phase1")) in
    let p2 = Net.Metrics.(summarise (histogram metrics "quorum_phase2")) in
    let so = Net.Metrics.(summarise (histogram metrics "server_op")) in
    let pre = Fmt.str "sim %s" label in
    Json.metric ~section:"net-metrics" (pre ^ " msgs per op") msgs_per_op;
    Json.metric ~section:"net-metrics" (pre ^ " phase1 p50 vt") p1.Net.Metrics.p50;
    Json.metric ~section:"net-metrics" (pre ^ " phase1 p99 vt") p1.Net.Metrics.p99;
    Json.metric ~section:"net-metrics" (pre ^ " phase2 p50 vt") p2.Net.Metrics.p50;
    Json.metric ~section:"net-metrics" (pre ^ " phase2 p99 vt") p2.Net.Metrics.p99;
    Json.metric ~section:"net-metrics" (pre ^ " op p50 vt") so.Net.Metrics.p50;
    Json.metric ~section:"net-metrics" (pre ^ " op p99 vt") so.Net.Metrics.p99;
    pf
      "  sim %-9s %5.1f msgs/op; phase1 p50 %5.2f p99 %6.2f vt; phase2 p50 \
       %5.2f p99 %6.2f vt; op p50 %6.2f p99 %7.2f vt@."
      label msgs_per_op p1.Net.Metrics.p50 p1.Net.Metrics.p99
      p2.Net.Metrics.p50 p2.Net.Metrics.p99 so.Net.Metrics.p50
      so.Net.Metrics.p99
  in
  sim_leg ~label:"reliable" ~faults:Net.Sim_net.reliable;
  sim_leg ~label:"drop 0.15"
    ~faults:(Net.Sim_net.lossy ~drop:0.15 ~duplicate:0.075 ());
  pf
    "  (ABD: write = 1 quorum round; read = 1, plus a write-back round \
     when its pair is not yet known stored on a majority; 2 msgs per \
     replica per round + client req/resp)@.@."

(* ------------------------------------------------------------------ *)
(* Schedule exploration: how fast the adversary enumerates, how much   *)
(* sleep-set pruning buys, how quickly the broken variant is caught    *)
(* (BENCH_004.json tracks this).                                       *)

let bench_net_explore () =
  section "net/explore - systematic schedule exploration of the service";
  let pf = Fmt.pr in
  let w v = Histories.Event.Write v in
  let r = Histories.Event.Read in
  let proc p script = { Registers.Vm.proc = p; script } in
  (* --- exhaustive enumeration rate, with and without pruning --- *)
  let leg ~label ~prune processes =
    let cfg =
      Net.Explore.config ~replicas:1 ~prune
        ~workload:(Net.Sim_run.singles processes) ()
    in
    let res, dt = timed (fun () -> Net.Explore.explore cfg) in
    let s = res.Net.Explore.stats in
    let rate = float_of_int s.Modelcheck.Schedule.schedules /. dt in
    Json.metric ~section:"net-explore" (label ^ " schedules") 
      (float_of_int s.Modelcheck.Schedule.schedules);
    Json.metric ~section:"net-explore" (label ^ " schedules per s") rate;
    pf "  %-28s %6d schedules %9.0f /s  depth <= %-3d %s@." label
      s.Modelcheck.Schedule.schedules rate
      s.Modelcheck.Schedule.max_depth_seen
      (if s.Modelcheck.Schedule.exhausted then "exhausted" else "cut off");
    s.Modelcheck.Schedule.schedules
  in
  let two_writers = [ proc 0 [ w 7 ]; proc 1 [ w 9 ] ] in
  let pruned = leg ~label:"2 writers, pruned" ~prune:true two_writers in
  let full = leg ~label:"2 writers, no pruning" ~prune:false two_writers in
  Json.metric ~section:"net-explore" "pruning leverage x"
    (float_of_int full /. float_of_int (max 1 pruned));
  pf "  pruning leverage: %.2fx fewer schedules@."
    (float_of_int full /. float_of_int (max 1 pruned));
  ignore
    (leg ~label:"writer + reader, pruned" ~prune:true
       [ proc 0 [ w 7 ]; proc 2 [ r ] ]);
  (* --- broken read quorum: time to find + shrink the violation --- *)
  let broken =
    Net.Explore.config ~replicas:3 ~read_quorum:1
      ~workload:
        (Net.Sim_run.singles
           [ proc 0 [ w 1001 ]; proc 1 [ w 2001 ]; proc 2 [ r; r ] ])
      ()
  in
  let res, dt = timed (fun () -> Net.Explore.hunt ~seed:42 broken) in
  (match res.Net.Explore.counterexample with
   | None -> pf "  broken read quorum: NOT caught (bug!)@."
   | Some ce ->
     let walks = res.Net.Explore.stats.Modelcheck.Schedule.schedules in
     Json.metric ~section:"net-explore" "broken-quorum walks to violation"
       (float_of_int walks);
     Json.metric ~section:"net-explore" "broken-quorum s to violation" dt;
     pf "  broken read quorum caught in %d walks (%.2fs)@." walks dt;
     let (_, ce'), sdt = timed (fun () -> Net.Explore.shrink broken ce) in
     Json.metric ~section:"net-explore" "shrink s" sdt;
     pf "  shrunk %d -> %d choices (%.2fs)@."
       (List.length ce.Net.Explore.schedule)
       (List.length ce'.Net.Explore.schedule)
       sdt);
  (* --- torture throughput --- *)
  let rep, dt = timed (fun () -> Net.Explore.torture ~runs:300 ~seed:9 ()) in
  let rate = float_of_int rep.Net.Explore.runs /. dt in
  Json.metric ~section:"net-explore" "torture runs per s" rate;
  Json.metric ~section:"net-explore" "torture ops per s"
    (float_of_int rep.Net.Explore.ops_completed /. dt);
  pf "  torture: %d runs %6.0f runs/s, %d ops, %d violations, %d stalls@.@."
    rep.Net.Explore.runs rate rep.Net.Explore.ops_completed
    rep.Net.Explore.violations rep.Net.Explore.stalled

(* ------------------------------------------------------------------ *)
(* net/recovery: the durability layer — WAL append throughput on both  *)
(* backends, recovery time as the log grows, and the snapshot-interval *)
(* trade-off between log size and recovery work (BENCH_005.json).      *)

let bench_net_recovery () =
  section "net-recovery - WAL appends, recovery time, snapshot intervals";
  let pf = Fmt.pr in
  let fill st n = for i = 0 to n - 1 do Net.Storage.append st (entry i) done in
  (* --- append throughput: in-memory floor vs real files --- *)
  let n = 50_000 in
  (let st = Net.Storage.create (Net.Storage.mem_backend ()) in
   let (), dt = timed (fun () -> fill st n) in
   let rate = float_of_int n /. dt in
   Json.metric ~section:"net-recovery" "mem appends per s" rate;
   pf "  append  mem backend         %8.0f appends/s@." rate);
  let file_leg ~fsync ~label =
    let dir = fresh_dir "bench_storage" in
    let st =
      Net.Storage.create (Net.Storage.file_backend ~fsync ~dir ())
    in
    let n = if fsync then 500 else n in
    let (), dt = timed (fun () -> fill st n) in
    let rate = float_of_int n /. dt in
    Json.metric ~section:"net-recovery"
      (Fmt.str "file appends per s (%s)" label) rate;
    pf "  append  file backend %-7s %8.0f appends/s@." ("(" ^ label ^ ")")
      rate;
    rm_dir dir
  in
  file_leg ~fsync:false ~label:"no fsync";
  file_leg ~fsync:true ~label:"fsync";
  (* --- recovery time vs log length: reopen a file store whose WAL
     holds L entries and no snapshot --- *)
  pf "  recovery time vs WAL length (file backend, no snapshot):@.";
  List.iter
    (fun len ->
      let dir = fresh_dir "bench_storage" in
      fill (Net.Storage.create (Net.Storage.file_backend ~dir ())) len;
      let st, dt =
        timed (fun () ->
            Net.Storage.create (Net.Storage.file_backend ~dir ()))
      in
      let s = Net.Storage.stats st in
      assert (s.Net.Storage.recovered_wal = len);
      Json.metric ~section:"net-recovery"
        (Fmt.str "recovery ms wal %d" len) (dt *. 1e3);
      pf "    %6d entries: %7.2f ms (%8.0f entries/s)@." len (dt *. 1e3)
        (float_of_int len /. dt);
      rm_dir dir)
    [ 1_000; 10_000; 100_000 ];
  (* --- snapshot interval sweep: disk footprint and recovery work
     after the same 20k appends over 64 registers --- *)
  pf "  snapshot interval sweep (20000 appends, 64 registers):@.";
  List.iter
    (fun every ->
      let dir = fresh_dir "bench_storage" in
      let st =
        Net.Storage.create ~snapshot_every:every
          (Net.Storage.file_backend ~dir ())
      in
      let (), fill_dt = timed (fun () -> fill st 20_000) in
      let st', dt =
        timed (fun () ->
            Net.Storage.create (Net.Storage.file_backend ~dir ()))
      in
      let live = Net.Storage.stats st and s = Net.Storage.stats st' in
      let label = if every = 0 then "never" else string_of_int every in
      Json.metric ~section:"net-recovery"
        (Fmt.str "snapshot every %s wal bytes" label)
        (float_of_int s.Net.Storage.wal_size);
      Json.metric ~section:"net-recovery"
        (Fmt.str "snapshot every %s recovery ms" label)
        (dt *. 1e3);
      pf
        "    every %-5s %3d snapshots, wal %8d bytes; recovery %6.2f ms \
         (snap %2d + wal %5d), fill %5.2fs@."
        label live.Net.Storage.snapshots_taken s.Net.Storage.wal_size
        (dt *. 1e3) s.Net.Storage.recovered_snapshot
        s.Net.Storage.recovered_wal fill_dt;
      rm_dir dir)
    [ 0; 64; 512; 4096 ];
  (* --- end to end: simulated durable cluster, cost of the WAL in the
     replica handler path (virtual-time throughput, durable vs not) --- *)
  let sim ~durable =
    let o =
      Net.Sim_run.run
        (Net.Sim_run.build ~durable ~seed:13 ~init:0
           ~processes:(two_by_two 50) ())
    in
    (o, float_of_int o.Net.Sim_run.completed /. o.Net.Sim_run.virtual_span)
  in
  let _, on_rate = sim ~durable:true in
  let _, off_rate = sim ~durable:false in
  Json.metric ~section:"net-recovery" "sim ops per vtime durable" on_rate;
  Json.metric ~section:"net-recovery" "sim ops per vtime volatile" off_rate;
  pf "  sim cluster: %5.2f ops/vtime durable vs %5.2f volatile@.@." on_rate
    off_rate

(* ------------------------------------------------------------------ *)
(* net/engine: the two replication protocols head to head on identical *)
(* workloads — bytes on the wire, control bytes, messages and virtual- *)
(* time latency per operation (BENCH_006.json).  The twobit engine's   *)
(* claim is wire economy: counting over FIFO links replaces request    *)
(* ids and timestamps, and reads complete on a single reply.           *)

let bench_net_engine () =
  section "net-engine - abd vs twobit: wire cost and latency per op";
  let pf = Fmt.pr in
  let workload = two_by_two 50 in
  let leg kind ~drop =
    let o =
      Net.Sim_run.run
        (Net.Sim_run.build
           ~faults:(Net.Sim_net.lossy ~drop ~duplicate:(drop /. 2.0) ())
           ~replicas:3 ~seed:6 ~init:0
           ~engine:{ Net.Engine.kind }
           ~processes:workload ())
    in
    assert (o.Net.Sim_run.monitor_violation = None);
    assert (o.Net.Sim_run.fastcheck_ok);
    o
  in
  List.iter
    (fun drop ->
      let legs =
        List.map (fun k -> (k, leg k ~drop)) Net.Engine.all_kinds
      in
      pf "  sim transport, 3 replicas, 2 writers + 2 readers, drop %.2f:@."
        drop;
      List.iter
        (fun (kind, o) ->
          let ops = max 1 o.Net.Sim_run.completed in
          let per x = float_of_int x /. float_of_int ops in
          let q = o.Net.Sim_run.quorum in
          let bytes_per_op = per q.Net.Engine.bytes_sent in
          let ctrl_per_op = per q.Net.Engine.control_bytes_sent in
          let msgs_per_op = per q.Net.Engine.messages_sent in
          let lat =
            Array.of_list
              (List.map (fun (_, _, l) -> l) o.Net.Sim_run.latencies)
          in
          let pct p =
            Option.value ~default:Float.nan
              (Harness.Stats.percentile_opt lat p)
          in
          let pre = Fmt.str "%s drop %.2f" (Net.Engine.kind_name kind) drop in
          Json.metric ~section:"net-engine" (pre ^ " bytes per op")
            bytes_per_op;
          Json.metric ~section:"net-engine" (pre ^ " control bytes per op")
            ctrl_per_op;
          Json.metric ~section:"net-engine" (pre ^ " msgs per op") msgs_per_op;
          Json.metric ~section:"net-engine" (pre ^ " latency p50 vt") (pct 50.0);
          Json.metric ~section:"net-engine" (pre ^ " latency p99 vt") (pct 99.0);
          Json.metric ~section:"net-engine" (pre ^ " retransmissions")
            (float_of_int q.Net.Engine.retransmissions);
          pf
            "    %-6s %3d/%d ops: %6.1f bytes/op (%5.1f control), %4.1f \
             msgs/op, latency p50 %5.1f p99 %5.1f vt, %d retransmits@."
            (Net.Engine.kind_name kind) o.Net.Sim_run.completed
            o.Net.Sim_run.expected bytes_per_op ctrl_per_op msgs_per_op
            (pct 50.0) (pct 99.0) q.Net.Engine.retransmissions)
        legs;
      (* the acceptance claim, checked where the numbers are made: the
         twobit engine must spend strictly fewer control bytes per op *)
      (match
         ( List.assoc_opt Net.Engine.Abd legs,
           List.assoc_opt Net.Engine.Twobit legs )
       with
      | Some a, Some t ->
        let per o x =
          float_of_int x /. float_of_int (max 1 o.Net.Sim_run.completed)
        in
        let ac = per a a.Net.Sim_run.quorum.Net.Engine.control_bytes_sent in
        let tc = per t t.Net.Sim_run.quorum.Net.Engine.control_bytes_sent in
        if not (tc < ac) then
          Fmt.failwith
            "net-engine: twobit control bytes/op %.1f not below abd %.1f" tc ac
      | _ -> ()))
    [ 0.0; 0.1 ];
  pf "@."

(* ------------------------------------------------------------------ *)
(* net/groupcommit: amortizing the fsync floor (BENCH_007.json).  The  *)
(* claim: batching N appends into one write+fsync recovers most of the *)
(* no-fsync throughput while keeping persist-before-ack — acks fire    *)
(* only after the batch is on disk.                                    *)

let bench_net_groupcommit () =
  section "net-groupcommit - fsync amortization via batched WAL commits";
  let pf = Fmt.pr in
  (* every leg runs the same shape: n appends through the store, rate
     out; group legs go through the async path + one final flush and
     must see every ack fire (persist-before-ack, not fire-and-forget) *)
  let leg ~fsync ~group_commit ~n =
    let dir = fresh_dir "bench_gc" in
    let st =
      Net.Storage.create ?group_commit
        (Net.Storage.file_backend ~fsync ~dir ())
    in
    let acked = ref 0 in
    let (), dt =
      timed (fun () ->
          for i = 0 to n - 1 do
            Net.Storage.append_async st (entry i) ~k:(fun () -> incr acked)
          done;
          Net.Storage.flush st)
    in
    if !acked <> n then
      Fmt.failwith "net-groupcommit: %d of %d appends acked" !acked n;
    let stats = Net.Storage.stats st in
    rm_dir dir;
    (float_of_int n /. dt, stats)
  in
  (* the fsync floor: one write+fsync per append (group commit off) *)
  let sync_rate, _ = leg ~fsync:true ~group_commit:None ~n:400 in
  Json.metric ~section:"net-groupcommit" "fsync per-append rate" sync_rate;
  pf "  fsync per append            %8.0f appends/s@." sync_rate;
  (* the ceiling: no fsync at all, same store machinery *)
  let ceil_rate, _ = leg ~fsync:false ~group_commit:None ~n:50_000 in
  Json.metric ~section:"net-groupcommit" "no-fsync rate" ceil_rate;
  pf "  no fsync                    %8.0f appends/s@." ceil_rate;
  (* batch sweep: one write+fsync per BATCH *)
  let best_bm, best_rate =
    List.fold_left
      (fun ((_, best) as acc) bm ->
        let rate, stats =
          leg ~fsync:true
            ~group_commit:
              (Some { Net.Storage.batch_max = bm; flush_every = 0.0005 })
            ~n:(if bm < 8 then 400 else 20_000)
        in
        Json.metric ~section:"net-groupcommit"
          (Fmt.str "fsync batch %d rate" bm) rate;
        pf "  fsync, batch %-4d           %8.0f appends/s (max batch %d)@."
          bm rate stats.Net.Storage.max_batch;
        if rate > best then (bm, rate) else acc)
      (0, 0.0) [ 1; 8; 64; 256 ]
  in
  (* the acceptance claims, checked where the numbers are made: batched
     fsync must close most of the gap to the no-fsync ceiling *)
  let speedup = best_rate /. Float.max 1e-9 sync_rate in
  let vs_ceiling = best_rate /. Float.max 1e-9 ceil_rate in
  Json.metric ~section:"net-groupcommit" "best batch speedup over per-append"
    speedup;
  Json.metric ~section:"net-groupcommit" "best batch fraction of no-fsync"
    vs_ceiling;
  pf "  batch %d: %5.1fx over per-append fsync, %4.2f of the no-fsync \
      ceiling@.@."
    best_bm speedup vs_ceiling;
  if speedup < 5.0 then
    Fmt.failwith
      "net-groupcommit: best batch only %.1fx over per-append fsync" speedup

(* ------------------------------------------------------------------ *)
(* net/txn: atomic multi-key batches, snapshot reads and the WAL GC    *)
(* frontier (BENCH_009.json).  Two measurements: (1) the atomicity     *)
(* premium — an atomic K-key batch moves the same engine work as K     *)
(* plain writes but its locks serialize writers that touch the same    *)
(* keyspan, so the bench quantifies what all-or-nothing actually       *)
(* costs over independent writes; (2) under a sustained mixed          *)
(* batch/snapshot workload the gc_bytes frontier keeps every replica   *)
(* WAL bounded while the GC-off log grows with the workload, and every *)
(* ack still fires (GC collects only durable, superseded entries).     *)

let bench_net_txn () =
  section "net-txn - atomic batches vs plain writes, and the WAL GC frontier";
  let pf = Fmt.pr in
  let keys = 4 in
  let shards = 4 in
  let wv p i k = (100_000 * (p + 1)) + (i * keys) + k in
  let run_ok ?snapshot_every ?gc_bytes ~seed xprocesses =
    let cl =
      Net.Sim_run.build ~replicas:3 ~shards ~keys ~window:8 ?snapshot_every
        ?gc_bytes ~seed ~init:0 ~processes:[] ~xprocesses ()
    in
    let o = Net.Sim_run.run cl in
    if o.Net.Sim_run.completed <> o.Net.Sim_run.expected then
      Fmt.failwith "net-txn: %d of %d acks fired" o.Net.Sim_run.completed
        o.Net.Sim_run.expected;
    (match o.Net.Sim_run.monitor_violation with
    | Some m -> Fmt.failwith "net-txn: per-key audit: %s" m
    | None -> ());
    (match o.Net.Sim_run.txn_violations with
    | m :: _ -> Fmt.failwith "net-txn: torn-batch audit: %s" m
    | [] -> ());
    let wal =
      Array.fold_left
        (fun n d -> n + Net.Storage.Disk.wal_size d)
        0 cl.Net.Sim_run.disks
    in
    (o, wal)
  in
  (* --- throughput: the same 2 x rounds x keys writes, plain vs batched *)
  let rounds = 48 in
  let plain =
    List.map
      (fun p ->
        { Net.Sim_run.xproc = p;
          xscript =
            List.init (rounds * keys) (fun j ->
                Net.Sim_run.Single
                  (Histories.Event.Write (wv p (j / keys) (j mod keys)))) })
      [ 0; 1 ]
  in
  let batched =
    List.map
      (fun p ->
        { Net.Sim_run.xproc = p;
          xscript =
            List.init rounds (fun i ->
                Net.Sim_run.Txn_w
                  (List.init keys (fun k -> (k, wv p i k)))) })
      [ 0; 1 ]
  in
  let rate o =
    float_of_int o.Net.Sim_run.completed
    /. Float.max 1e-9 o.Net.Sim_run.virtual_span
  in
  let p99 o =
    let lat =
      Array.of_list (List.map (fun (_, _, l) -> l) o.Net.Sim_run.latencies)
    in
    Option.value ~default:Float.nan (Harness.Stats.percentile_opt lat 99.0)
  in
  let o_plain, _ = run_ok ~seed:9 plain in
  let o_txn, _ = run_ok ~seed:9 batched in
  let r_plain = rate o_plain and r_txn = rate o_txn in
  let frac = r_txn /. Float.max 1e-9 r_plain in
  Json.metric ~section:"net-txn" "plain writes per vt" r_plain;
  Json.metric ~section:"net-txn" "atomic batch writes per vt" r_txn;
  Json.metric ~section:"net-txn" "batch fraction of plain" frac;
  Json.metric ~section:"net-txn" "plain write latency p99 vt" (p99 o_plain);
  Json.metric ~section:"net-txn" "batch write latency p99 vt" (p99 o_txn);
  pf "  2 writers x %d writes over %d keys/%d shards, window 8:@." rounds keys
    shards;
  pf "    plain singles   %6.2f writes/vt, p99 %5.1f vt@." r_plain
    (p99 o_plain);
  pf "    atomic batches  %6.2f writes/vt, p99 %5.1f vt (%4.2f of plain)@."
    r_txn (p99 o_txn) frac;
  (* --- snapshot reads vs the same coverage as plain point reads *)
  let snap_rounds = 32 in
  let writers =
    List.map
      (fun p ->
        { Net.Sim_run.xproc = p;
          xscript =
            List.init snap_rounds (fun i ->
                Net.Sim_run.Txn_w
                  (List.init keys (fun k -> (k, wv p i k)))) })
      [ 0; 1 ]
  in
  let reader_of xops = { Net.Sim_run.xproc = 2; xscript = xops } in
  let o_snap, _ =
    run_ok ~seed:13
      (writers
      @ [ reader_of
            (List.init snap_rounds (fun _ ->
                 Net.Sim_run.Snap (List.init keys Fun.id))) ])
  in
  let o_point, _ =
    run_ok ~seed:13
      (writers
      @ [ reader_of
            (List.init (snap_rounds * keys) (fun _ ->
                 Net.Sim_run.Single Histories.Event.Read)) ])
  in
  let r_snap = rate o_snap and r_point = rate o_point in
  Json.metric ~section:"net-txn" "snapshot reads per vt" r_snap;
  Json.metric ~section:"net-txn" "point reads per vt" r_point;
  pf "    snapshot leg    %6.2f keyed ops/vt (vs %6.2f with point reads)@."
    r_snap r_point;
  (* --- WAL footprint: sustained mixed workload, GC frontier on vs off.
     snapshot_every:0 disables the append-count snapshots so the only
     thing bounding the log is the gc_bytes frontier under test. *)
  let gc_rounds = 120 in
  let mixed =
    List.map
      (fun p ->
        { Net.Sim_run.xproc = p;
          xscript =
            List.init gc_rounds (fun i ->
                Net.Sim_run.Txn_w
                  (List.init keys (fun k -> (k, wv p i k)))) })
      [ 0; 1 ]
    @ List.map
        (fun p ->
          { Net.Sim_run.xproc = p;
            xscript =
              List.init (gc_rounds / 2) (fun _ ->
                  Net.Sim_run.Snap (List.init keys Fun.id)) })
        [ 2; 3 ]
  in
  let gc_threshold = 2048 in
  let o_off, wal_off = run_ok ~snapshot_every:0 ~seed:17 mixed in
  let o_on, wal_on =
    run_ok ~snapshot_every:0 ~gc_bytes:gc_threshold ~seed:17 mixed
  in
  Json.metric ~section:"net-txn" "wal bytes gc off" (float_of_int wal_off);
  Json.metric ~section:"net-txn" "wal bytes gc on" (float_of_int wal_on);
  Json.metric ~section:"net-txn" "wal gc shrink factor"
    (float_of_int wal_off /. float_of_int (max 1 wal_on));
  Json.metric ~section:"net-txn" "gc off acks"
    (float_of_int o_off.Net.Sim_run.completed);
  Json.metric ~section:"net-txn" "gc on acks"
    (float_of_int o_on.Net.Sim_run.completed);
  pf
    "  mixed workload (2 writers x %d batches + 2 readers x %d snapshots), 3 \
     replicas:@."
    gc_rounds (gc_rounds / 2);
  pf "    gc off          %8d WAL bytes total (%d acks, all fired)@." wal_off
    o_off.Net.Sim_run.completed;
  pf "    gc %4d bytes   %8d WAL bytes total (%d acks, all fired)@."
    gc_threshold wal_on o_on.Net.Sim_run.completed;
  (* the acceptance claims, checked where the numbers are made: the
     frontier must hold every replica log near the threshold while the
     GC-off log grows well past it *)
  if wal_off <= 3 * gc_threshold then
    Fmt.failwith "net-txn: gc-off WAL only %d bytes; workload too small"
      wal_off;
  if wal_on >= wal_off then
    Fmt.failwith "net-txn: GC frontier did not shrink the WAL (%d >= %d)"
      wal_on wal_off;
  pf "    frontier holds: %.1fx smaller than the unbounded log@.@."
    (float_of_int wal_off /. float_of_int (max 1 wal_on))

(* ------------------------------------------------------------------ *)
(* net-reconfig: live resharding under a zipfian keyed workload        *)
(* (BENCH_010.json).  A hot key soaks up most of a zipf(1.2) keyspace; *)
(* mid-run the control client migrates it to the other shard while the *)
(* clients keep hammering.  The claim the bench checks where the       *)
(* numbers are made: the origin shard's share of completed operations  *)
(* strictly decreases after the cutover, every ack fires, the epoch    *)
(* advances, and every key's history stays atomic.                     *)

let bench_net_reconfig () =
  section "net-reconfig - live resharding under a zipfian keyed workload";
  let shards = 2 and keys = 8 and ops_each = 150 in
  let hot = 0 in
  let from_shard = Net.Shard_map.shard_of_key (Net.Shard_map.create ~shards ()) hot in
  let to_shard = (from_shard + 1) mod shards in
  let xprocesses =
    Harness.Workload.zipfian_keyed ~seed:31 ~keys ~procs:4 ~ops_each
      ~writer:(fun p -> p < 2) ()
    |> List.map (fun (p, script) ->
           {
             Net.Sim_run.xproc = p;
             xscript =
               List.map (fun (k, op) -> Net.Sim_run.Keyed (k, op)) script;
           })
  in
  let hot_ops =
    List.fold_left
      (fun n xp ->
        n
        + List.length
            (List.filter
               (function Net.Sim_run.Keyed (k, _) -> k = hot | _ -> false)
               xp.Net.Sim_run.xscript))
      0 xprocesses
  in
  Fmt.pr
    "  sim transport, 3 replicas, %d shards, zipf(1.2) over %d keys, 2 \
     writers + 2 readers x %d ops (%d of %d ops on the hot key):@."
    shards keys ops_each hot_ops (4 * ops_each);
  List.iter
    (fun engine ->
      let name = Net.Engine.kind_name engine in
      let run ?reconfig ?reconfig_at ?metrics ?before () =
        let cl =
          Net.Sim_run.build ~replicas:3 ~shards ~keys ~window:8
            ~engine:{ Net.Engine.kind = engine }
            ?reconfig ?reconfig_at ?metrics ~seed:31 ~init:0 ~processes:[]
            ~xprocesses ()
        in
        Option.iter (fun (t, f) -> Net.Sim_net.at cl.Net.Sim_run.net t f)
          before;
        Net.Sim_run.run cl
      in
      (* probe leg: same workload, no migration — calibrates the
         mid-run virtual time and gives the undisturbed baseline *)
      let probe = run () in
      let mid = probe.Net.Sim_run.virtual_span /. 2.0 in
      let metrics = Net.Metrics.create () in
      let pre = Array.make shards 0 in
      let o =
        run
          ~reconfig:(hot, to_shard)
          ~reconfig_at:mid ~metrics
          ~before:
            ( mid -. 1e-6,
              fun () ->
                (* per-shard completion counters the instant the
                   migration request lands: everything after is the
                   post-reshard leg *)
                for s = 0 to shards - 1 do
                  pre.(s) <- Net.Metrics.get metrics (Fmt.str "shard%d_ops" s)
                done )
          ()
      in
      let post = Array.make shards 0 in
      for s = 0 to shards - 1 do
        post.(s) <- Net.Metrics.get metrics (Fmt.str "shard%d_ops" s) - pre.(s)
      done;
      let share a =
        let total = Array.fold_left ( + ) 0 a in
        float_of_int a.(from_shard) /. float_of_int (max 1 total)
      in
      let pre_share = share pre and post_share = share post in
      let all_acked = o.Net.Sim_run.completed = o.Net.Sim_run.expected in
      let atomic =
        o.Net.Sim_run.key_violations = [] && o.Net.Sim_run.fastcheck_ok
      in
      let ok =
        all_acked && atomic
        && o.Net.Sim_run.epoch = 1
        && o.Net.Sim_run.reconfig_acked = Some true
        && post_share < pre_share
      in
      Json.metric ~section:"net-reconfig"
        (Fmt.str "%s hot shard share pre reshard" name)
        pre_share;
      Json.metric ~section:"net-reconfig"
        (Fmt.str "%s hot shard share post reshard" name)
        post_share;
      Json.metric ~section:"net-reconfig"
        (Fmt.str "%s acks completed" name)
        (float_of_int o.Net.Sim_run.completed);
      Json.metric ~section:"net-reconfig"
        (Fmt.str "%s epoch" name)
        (float_of_int o.Net.Sim_run.epoch);
      Json.metric ~section:"net-reconfig"
        (Fmt.str "%s ops per vtime" name)
        (float_of_int o.Net.Sim_run.completed
        /. Float.max 1e-9 o.Net.Sim_run.virtual_span);
      Fmt.pr
        "    %-7s reshard key %d: shard %d -> %d at vt %.0f; origin-shard \
         share %.2f -> %.2f, %d/%d acks, epoch %d%s@."
        name hot from_shard to_shard mid pre_share post_share
        o.Net.Sim_run.completed o.Net.Sim_run.expected o.Net.Sim_run.epoch
        (if ok then "" else "  [RESHARD DID NOT REBALANCE!]");
      if not ok then
        Fmt.failwith
          "net-reconfig (%s): acked=%b atomic=%b epoch=%d acked-verdict=%s \
           share %.2f -> %.2f"
          name all_acked atomic o.Net.Sim_run.epoch
          (match o.Net.Sim_run.reconfig_acked with
           | Some true -> "ok"
           | Some false -> "nack"
           | None -> "none")
          pre_share post_share)
    [ Net.Engine.Abd; Net.Engine.Twobit ];
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* Micro benchmarks (Bechamel).                                        *)

let make_trace n_ops =
  Registers.Run_coarse.run ~seed:11
    (Core.Protocol.bloom ~init:0 ~other_init:0 ())
    (two_by_two (n_ops / 4))

let micro_tests () =
  let reg, w0, _w1 = Core.Shm.create ~init:0 in
  let c0 = Core.Shm.Local_copy.attach w0 in
  let mx = Baselines.Mutex_register.create 0 in
  let ts2 = Baselines.Timestamp_mwmr.Shm.create ~writers:2 ~init:0 in
  let ts8 = Baselines.Timestamp_mwmr.Shm.create ~writers:8 ~init:0 in
  let atomic_cell = Atomic.make 0 in
  let counter = ref 0 in
  let next () =
    incr counter;
    !counter
  in
  let fig2 =
    Test.make_grouped ~name:"fig2"
      [
        Test.make ~name:"bloom-read"
          (Staged.stage (fun () -> ignore (Core.Shm.read reg)));
        Test.make ~name:"bloom-write"
          (Staged.stage (fun () -> Core.Shm.write w0 (next ())));
        Test.make ~name:"bloom-local-copy-read"
          (Staged.stage (fun () -> ignore (Core.Shm.Local_copy.read c0)));
        Test.make ~name:"bloom-local-copy-write"
          (Staged.stage (fun () -> Core.Shm.Local_copy.write c0 (next ())));
      ]
  in
  let baselines =
    Test.make_grouped ~name:"baselines"
      [
        Test.make ~name:"raw-atomic-read"
          (Staged.stage (fun () -> ignore (Atomic.get atomic_cell)));
        Test.make ~name:"raw-atomic-write"
          (Staged.stage (fun () -> Atomic.set atomic_cell 1));
        Test.make ~name:"mutex-read"
          (Staged.stage (fun () -> ignore (Baselines.Mutex_register.read mx)));
        Test.make ~name:"mutex-write"
          (Staged.stage (fun () -> Baselines.Mutex_register.write mx 1));
        Test.make ~name:"timestamp2-read"
          (Staged.stage (fun () ->
               ignore (Baselines.Timestamp_mwmr.Shm.read ts2)));
        Test.make ~name:"timestamp2-write"
          (Staged.stage (fun () ->
               Baselines.Timestamp_mwmr.Shm.write ts2 ~writer:0 (next ())));
        Test.make ~name:"timestamp8-read"
          (Staged.stage (fun () ->
               ignore (Baselines.Timestamp_mwmr.Shm.read ts8)));
        Test.make ~name:"timestamp8-write"
          (Staged.stage (fun () ->
               Baselines.Timestamp_mwmr.Shm.write ts8 ~writer:0 (next ())));
      ]
  in
  let trace100 = make_trace 100 in
  let trace400 = make_trace 400 in
  let fig5_reg () = Core.Tournament.flat ~init:'a' ~other_init:'b' () in
  let theorem =
    Test.make_grouped ~name:"theorem"
      [
        Test.make ~name:"gamma-analyse-100op"
          (Staged.stage (fun () ->
               ignore (Core.Gamma.analyse ~init:0 trace100)));
        Test.make ~name:"certify-100op"
          (Staged.stage (fun () ->
               match
                 Core.Certifier.certify (Core.Gamma.analyse ~init:0 trace100)
               with
               | Core.Certifier.Certified _ -> ()
               | Core.Certifier.Failed m -> failwith m));
        Test.make ~name:"certify-400op"
          (Staged.stage (fun () ->
               match
                 Core.Certifier.certify (Core.Gamma.analyse ~init:0 trace400)
               with
               | Core.Certifier.Certified _ -> ()
               | Core.Certifier.Failed m -> failwith m));
        Test.make ~name:"fastcheck-100op"
          (Staged.stage (fun () ->
               let ops =
                 Histories.Operation.of_events_exn
                   (Registers.Vm.history_of_trace trace100)
               in
               ignore (Histories.Fastcheck.is_atomic ~init:0 ops)));
        Test.make ~name:"monitor-100op"
          (Staged.stage (fun () ->
               let m = Histories.Monitor.create ~init:0 in
               ignore
                 (Histories.Monitor.observe_all m
                    (Registers.Vm.history_of_trace trace100))));
        Test.make ~name:"brute-force-100op"
          (Staged.stage (fun () ->
               let ops =
                 Histories.Operation.of_events_exn
                   (Registers.Vm.history_of_trace trace100)
               in
               ignore (Histories.Linearize.is_atomic ~init:0 ops)));
      ]
  in
  let fig5 =
    Test.make_grouped ~name:"fig5"
      [
        Test.make ~name:"replay-and-reject"
          (Staged.stage (fun () ->
               let r = fig5_reg () in
               let trace =
                 Registers.Run_coarse.run_scheduled
                   ~schedule:Core.Tournament.figure5_schedule r
                   Core.Tournament.figure5_scripts
               in
               let ops =
                 Histories.Operation.of_events_exn
                   (Registers.Vm.history_of_trace trace)
               in
               assert (not (Histories.Linearize.is_atomic ~init:'a' ops))));
      ]
  in
  let model =
    Test.make_grouped ~name:"model"
      [
        Test.make ~name:"run-coarse-100op"
          (Staged.stage (fun () -> ignore (make_trace 100)));
        Test.make ~name:"ioa-run-12op"
          (Staged.stage (fun () ->
               ignore
                 (Core.Ioa_system.run ~seed:3 ~init:0 ~readers:[ 2 ]
                    [ (0, [ Histories.Event.Write 1; Histories.Event.Write 2 ]);
                      (1, [ Histories.Event.Write 3 ]);
                      (2, List.init 3 (fun _ -> Histories.Event.Read)) ])));
      ]
  in
  [ fig2; baselines; theorem; fig5; model ]

let run_micro () =
  section "micro benchmarks (Bechamel; ns per operation)";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) ~kde:None () in
  let instances = [ Instance.monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analysis = Analyze.all ols Instance.monotonic_clock results in
      let rows =
        Hashtbl.fold
          (fun name v acc ->
            let ns =
              match Analyze.OLS.estimates v with
              | Some [ e ] -> e
              | Some _ | None -> nan
            in
            (name, ns) :: acc)
          analysis []
        |> List.sort compare
      in
      List.iter
        (fun (name, ns) ->
          Json.metric ~section:"micro" (name ^ " ns/op") ns;
          Fmt.pr "  %-40s %12.1f ns/op@." name ns)
        rows)
    (micro_tests ());
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* Driver: every section by name, selectable with --sections.          *)

let all_sections =
  [
    ("access-counts", bench_access_counts);
    ("throughput", bench_throughput);
    ("stalled-writer", bench_stalled_writer);
    ("crash", bench_crash);
    ("modelcheck", bench_modelcheck);
    ("ablations", bench_ablations);
    ("synthesis", bench_synthesis);
    ("reachability", bench_reachability);
    ("latency-distribution", bench_latency_distribution);
    ("snapshot", bench_snapshot);
    ("net", bench_net);
    ("net-shard", bench_net_shard);
    ("net-socket", bench_net_socket_pool);
    ("net-metrics", bench_net_metrics);
    ("net-explore", bench_net_explore);
    ("net-recovery", bench_net_recovery);
    ("net-engine", bench_net_engine);
    ("net-groupcommit", bench_net_groupcommit);
    ("net-txn", bench_net_txn);
    ("net-reconfig", bench_net_reconfig);
    ("micro", run_micro);
  ]

let run_bench sections json =
  let chosen =
    match sections with
    | [] -> all_sections
    | names ->
      List.map
        (fun n ->
          match List.assoc_opt n all_sections with
          | Some f -> (n, f)
          | None ->
            Fmt.epr "unknown section %S; known: %a@." n
              Fmt.(list ~sep:comma string)
              (List.map fst all_sections);
            exit 2)
        names
  in
  Fmt.pr
    "Reproduction benches for 'Constructing Two-Writer Atomic Registers' \
     (Bloom, PODC 1987)@.@.";
  List.iter (fun (_, f) -> f ()) chosen;
  Option.iter Json.write json;
  Fmt.pr "done.@."

open Cmdliner

let sections_arg =
  Arg.(value
       & opt (list string) []
       & info [ "sections" ] ~docv:"NAMES"
           ~doc:"Comma-separated section names to run (default: all).")

let json_arg =
  Arg.(value
       & opt (some string) None
       & info [ "json" ] ~docv:"FILE"
           ~doc:"Also write every numeric result to $(docv) as JSON.")

let cmd =
  Cmd.v
    (Cmd.info "bench" ~doc:"Reproduction benchmarks for the Bloom register")
    Term.(const run_bench $ sections_arg $ json_arg)

let () = exit (Cmd.eval cmd)
