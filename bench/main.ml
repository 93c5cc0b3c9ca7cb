(* Benchmark harness: regenerates every figure and quantitative claim
   of the paper (see EXPERIMENTS.md for the index).

   Output has two parts:
   - macro experiments (multi-domain throughput, access counts, crash
     injection, model checking) with plain wall-clock timing;
   - micro benchmarks (Bechamel, one Test per operation) for operation
     latencies of the protocol and the baselines.

     dune exec bench/main.exe -- [--sections a,b] [--json out.json]

   With --json, every numeric result also lands in a machine-readable
   file.  Rows written with [Json.count] are host-independent and carry
   "exact": true; bench/check_counts.sh gates them against the
   committed reference bench/counts.json. *)

open Bechamel
open Toolkit

let line () = Fmt.pr "%s@." (String.make 72 '-')

let section name =
  line ();
  Fmt.pr "%s@." name;
  line ()

(* ------------------------------------------------------------------ *)
(* Machine-readable output: sections push (name, value) rows here;     *)
(* --json dumps them all at exit.                                      *)

module Json = struct
  (* (section, name, value, exact) *)
  let rows : (string * string * float * bool) list ref = ref []

  (* a measurement that may differ between hosts: a clock, Gc, a
     virtual-time figure, or anything drawn through libm (Zipf's
     Float.pow may round differently on macOS) *)
  let metric ~section name value =
    rows := (section, name, value, false) :: !rows

  (* a count that repeats exactly on every host and compiler: gated
     against bench/counts.json by bench/check_counts.sh *)
  let count ~section name value =
    rows := (section, name, value, true) :: !rows

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

  let number ~exact v =
    (* JSON has no nan/inf; benches that fail to estimate yield null.
       A count keeps enough digits that any move in it shows. *)
    if Float.is_finite v then Printf.sprintf "%.*g" (if exact then 12 else 6) v
    else "null"

  let write path =
    let oc = open_out path in
    let rows = List.rev !rows in
    Printf.fprintf oc "{\n  \"schema\": \"bloom-register-bench/1\",\n";
    Printf.fprintf oc
      "  \"host\": {\"hardware_threads\": %d, \"ocaml\": \"%s\"},\n"
      (Domain.recommended_domain_count ())
      (escape Sys.ocaml_version);
    Printf.fprintf oc "  \"metrics\": [\n";
    List.iteri
      (fun i (s, n, v, exact) ->
        Printf.fprintf oc
          "    {\"section\": \"%s\", \"name\": \"%s\", \"value\": %s%s}%s\n"
          (escape s) (escape n) (number ~exact v)
          (if exact then ", \"exact\": true" else "")
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

(* a simulated run must complete every op with an atomic history *)
let check_sim what o =
  match o.Net.Sim_run.verdict with
  | Net.Sim_run.Clean -> ()
  | v -> Fmt.failwith "%s: %a" what Net.Sim_run.pp_verdict v

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
  let s = Harness.Stats.summarise_accesses trace in
  Fmt.pr "%a@." Harness.Stats.pp_access_summary s;
  Fmt.pr "paper claims: read = 3 reads + 0 writes; write = 1 read + 1 write@.";
  let count name v = Json.count ~section:"access-counts" name (float_of_int v) in
  let range name (lo, hi) =
    count (name ^ " min") lo;
    count (name ^ " max") hi
  in
  range "simulated read real reads" s.Harness.Stats.op_reads;
  range "simulated read real writes" s.Harness.Stats.op_read_writes;
  range "simulated write real reads" s.Harness.Stats.wr_reads;
  range "simulated write real writes" s.Harness.Stats.wr_writes;
  let bits = Registers.Tagged.extra_bits (Registers.Tagged.initial 0) in
  count "extra bits per real register" bits;
  Fmt.pr "space: %d extra bit(s) per real register (paper claims 1)@.@." bits;
  let w = 4 in
  let ts = Baselines.Timestamp_mwmr.build ~writers:w ~init:0 in
  let steps p = Registers.Vm.steps ~probe:(0, 0, -1) p in
  let ts_read = steps (ts.Registers.Vm.read ~proc:9)
  and ts_write = steps (ts.Registers.Vm.write ~proc:0 1) in
  count "timestamp MWMR 4 writers read accesses" ts_read;
  count "timestamp MWMR 4 writers write accesses" ts_write;
  Fmt.pr
    "timestamp MWMR baseline (%d writers): read = %d reads, write = %d \
     accesses, and unbounded stamps@.@."
    w ts_read ts_write

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
   | None -> Fmt.failwith "modelcheck: fig5 tournament shows no violation");
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
          (Net.Sim_run.create
             ~faults:(Net.Sim_net.lossy ~drop ~duplicate:(drop /. 2.0) ())
             Net.Sim_run.default ~seed:5
             ~workload:(Net.Sim_run.singles (two_by_two 40)))
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
      Json.count ~section:"net" (pre ^ " msgs per op") msgs_per_op;
      Fmt.pr
        "    drop %.2f dup %.2f: %3d/%d ops, %5.2f ops/vtime, latency p50 \
         %5.1f p99 %5.1f vt, %5.1f msgs/op, %d retransmits@."
        drop (drop /. 2.0) o.Net.Sim_run.completed o.Net.Sim_run.expected
        ops_per_vt p50 p99 msgs_per_op
        o.Net.Sim_run.quorum.Net.Engine.retransmissions;
      check_sim ("net " ^ pre) o)
    [ 0.0; 0.1; 0.3 ];
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* net/shard: throughput scaling of the sharded keyspace — shard count *)
(* x pipelining window on the simulator (deterministic).               *)

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
              (Net.Sim_run.create
                 { Net.Sim_run.default with shards; keys = shards; window }
                 ~seed:21
                 ~workload:(Net.Sim_run.singles (two_by_two 60)))
          in
          let ops_per_vt =
            float_of_int o.Net.Sim_run.completed /. o.Net.Sim_run.virtual_span
          in
          Json.metric ~section:"net-shard"
            (Fmt.str "sim shards %d window %d ops per vtime" shards window)
            ops_per_vt;
          Fmt.pr
            "    shards %d window %2d: %3d/%d ops in vt %7.1f -> %5.2f \
             ops/vtime, %d keys@."
            shards window o.Net.Sim_run.completed o.Net.Sim_run.expected
            o.Net.Sim_run.virtual_span ops_per_vt
            (List.length o.Net.Sim_run.key_fastcheck);
          check_sim (Fmt.str "net-shard shards %d window %d" shards window) o)
        [ 1; 2; 4; 8 ])
    [ 8; 16 ];
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* Allocation attribution: minor words per op, split by the role that  *)
(* received each simulator event and the message it carried.           *)

let alloc_label = function
  | Net.Wire.Req { op = Net.Wire.Read_k _; _ } -> "Req read"
  | Net.Wire.Req { op = Net.Wire.Write_k _; _ } ->
    "Req write"
  | Net.Wire.Req _ -> "Req multi-key"
  | Net.Wire.Resp _ -> "Resp"
  | Net.Wire.Query _ -> "Query"
  | Net.Wire.Query_reply _ -> "Query_reply"
  | Net.Wire.Store _ -> "Store"
  | Net.Wire.Store_ack _ -> "Store_ack"
  | Net.Wire.Batch _ -> "Batch"
  | _ -> "other"

let alloc_role node =
  if node = Net.Transport.server then "server"
  else if node >= Net.Transport.client 0 then "client"
  else if node >= 0 then "replica"
  else "simulator"

(* The simulator above never encodes a message; the socket path frames
   every send and decodes every delivery.  Minor words per message of
   [Wire.frame] and of [Wire.decode_sub] over that frame, alone and
   inside a 32-item [Batch] (an empty measured interval subtracted). *)
let wire_alloc_table () =
  let pl i = Registers.Tagged.make (1000 + i) (i land 1 = 1) in
  let kinds =
    [ ("Query", fun i -> Net.Wire.Query { rid = i; reg = 2 * i });
      ( "Query_reply",
        fun i ->
          Net.Wire.Query_reply { rid = i; reg = 2 * i; ts = i; pl = pl i } );
      ( "Store",
        fun i -> Net.Wire.Store { rid = i; reg = 2 * i; ts = i; pl = pl i } );
      ("Store_ack", fun i -> Net.Wire.Store_ack { rid = i; reg = 2 * i });
      ( "Req",
        fun i ->
          Net.Wire.Req
            { seq = i; op = Net.Wire.Write_k { key = i; value = 1000 + i } } );
      ("Resp", fun i -> Net.Wire.Resp { seq = i; result = Some (1000 + i) }) ]
  in
  let measure f =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. w0
  in
  let words f =
    ignore (measure f);
    measure f -. measure (fun () -> ())
  in
  let per_msg make n =
    let m =
      if n = 1 then make 1 else Net.Wire.Batch (List.init n make)
    in
    let f = Net.Wire.frame ~src:1 m in
    let len = Bytes.length f - Net.Wire.header_size in
    let dec () = Net.Wire.decode_sub f ~off:Net.Wire.header_size ~len in
    if dec () <> Ok m then
      Fmt.failwith "net-alloc: %a does not round-trip" Net.Wire.pp m;
    let n = float_of_int n in
    (words (fun () -> Net.Wire.frame ~src:1 m) /. n, words dec /. n)
  in
  Fmt.pr "  wire codec, minor words per message:@.";
  Fmt.pr "  %-13s %9s %9s %10s %10s@." "message" "frame x1" "decode x1"
    "frame x32" "decode x32";
  List.iter
    (fun (label, make) ->
      let f1, d1 = per_msg make 1 and f32, d32 = per_msg make 32 in
      Fmt.pr "  %-13s %9.1f %9.1f %10.1f %10.1f@." label f1 d1 f32 d32;
      List.iter
        (fun (what, v) ->
          Json.metric ~section:"net-alloc"
            (Fmt.str "wire %s %s words per msg" label what)
            v)
        [ ("frame x1", f1); ("decode x1", d1); ("frame x32", f32);
          ("decode x32", d32) ])
    kinds;
  Fmt.pr "  (decode is [Wire.decode_sub] in place over the frame's body)@.@."

(* The socket runtime's two per-wake-up costs, measured from outside
   while this thread waits, so the domain's minor-word counter sees only
   the loop thread:
   - one [Event_loop] turn with 16 registered read fds, one of them
     always readable (a pipe holding an unread byte): its callback
     counts turns and reads the counter 10k turns apart;
   - one [Socket_net] parse turn: K [Query] frames written to a
     listener in one write, counted until its handler has seen them all
     (decode, the turn's [Batch], delivery; the wake-up amortized). *)
let socket_alloc_table () =
  let loop_words ~fds =
    let pipes = List.init fds (fun _ -> Unix.pipe ()) in
    ignore (Unix.write (snd (List.hd pipes)) (Bytes.make 1 'x') 0 1);
    let loop = Net.Event_loop.create () in
    let warmup = 1_000 and turns = 10_000 in
    let n = ref 0 and w0 = ref 0.0 and w1 = ref 0.0 in
    List.iteri
      (fun i (r, _) ->
        Net.Event_loop.add_read loop r
          (if i > 0 then ignore
           else fun () ->
             incr n;
             if !n = warmup then w0 := Gc.minor_words ()
             else if !n = warmup + turns then begin
               w1 := Gc.minor_words ();
               Net.Event_loop.stop loop
             end))
      pipes;
    Thread.join (Thread.create Net.Event_loop.run loop);
    List.iter
      (fun (r, w) ->
        Unix.close r;
        Unix.close w)
      pipes;
    (!w1 -. !w0) /. float_of_int turns
  in
  let parse_words ~frames =
    let net = Net.Socket_net.create () in
    let node = 7 in
    let mu = Mutex.create () and cv = Condition.create () in
    let got = ref 0 in
    Net.Socket_net.listen net node (fun ~src:_ msg ->
        let k = match msg with Net.Wire.Batch ms -> List.length ms | _ -> 1 in
        Mutex.lock mu;
        got := !got + k;
        Condition.signal cv;
        Mutex.unlock mu);
    let burst =
      Bytes.concat Bytes.empty
        (List.init frames (fun i ->
             Net.Wire.frame ~src:1 (Net.Wire.Query { rid = i; reg = 2 * i })))
    in
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX (Net.Socket_net.path net node));
    let round () =
      Mutex.lock mu;
      got := 0;
      Mutex.unlock mu;
      let w0 = Gc.minor_words () in
      ignore (Unix.write fd burst 0 (Bytes.length burst));
      Mutex.lock mu;
      while !got < frames do
        Condition.wait cv mu
      done;
      Mutex.unlock mu;
      (Gc.minor_words () -. w0) /. float_of_int frames
    in
    ignore (round ());
    let words = List.fold_left min infinity (List.init 5 (fun _ -> round ())) in
    Unix.close fd;
    Net.Socket_net.shutdown net;
    words
  in
  (* [Socket_net.send] alone: Query frames to a raw sink that a domain
     of its own drains, so only the sender's words are counted.  The
     sender waits for the sink after every 32 frames, so the socket
     never fills and no write takes the queued path. *)
  let sent_words ~frames =
    let net = Net.Socket_net.create () in
    let node = 9 in
    let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind lfd (Unix.ADDR_UNIX (Net.Socket_net.path net node));
    Unix.listen lfd 1;
    let m = Net.Wire.Query { rid = 1; reg = 2 } in
    let flen = Net.Wire.header_size + Net.Wire.encoded_size m in
    let warmup = 1_024 and chunk = 32 in
    let total = (warmup + frames) * flen in
    let drained = Atomic.make 0 in
    let sink =
      Domain.spawn (fun () ->
          let fd, _ = Unix.accept lfd in
          let buf = Bytes.create 65536 in
          while Atomic.get drained < total do
            let n = Unix.read fd buf 0 65536 in
            ignore (Atomic.fetch_and_add drained n)
          done;
          Unix.close fd)
    in
    let tr = Net.Socket_net.transport net in
    let sent = ref 0 in
    let send_chunk () =
      for _ = 1 to chunk do
        tr.Net.Transport.send ~src:1 ~dst:node m
      done;
      sent := !sent + chunk;
      while Atomic.get drained < !sent * flen do
        Domain.cpu_relax ()
      done
    in
    for _ = 1 to warmup / chunk do
      send_chunk ()
    done;
    let w0 = Gc.minor_words () in
    for _ = 1 to frames / chunk do
      send_chunk ()
    done;
    let w = (Gc.minor_words () -. w0) /. float_of_int frames in
    Domain.join sink;
    Unix.close lfd;
    Net.Socket_net.shutdown net;
    w
  in
  (* one frame per wake-up, as a lone op's replies arrive: written, read,
     parsed and handed to a handler before the next is written *)
  let one_frame_turn_words ~rounds =
    let net = Net.Socket_net.create () in
    let node = 8 in
    let mu = Mutex.create () and cv = Condition.create () in
    let got = ref 0 in
    Net.Socket_net.listen net node (fun ~src:_ _ ->
        Mutex.lock mu;
        incr got;
        Condition.signal cv;
        Mutex.unlock mu);
    let f = Net.Wire.frame ~src:1 (Net.Wire.Query { rid = 1; reg = 2 }) in
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX (Net.Socket_net.path net node));
    let round i =
      ignore (Unix.write fd f 0 (Bytes.length f));
      Mutex.lock mu;
      while !got < i do
        Condition.wait cv mu
      done;
      Mutex.unlock mu
    in
    let warmup = 200 in
    for i = 1 to warmup do
      round i
    done;
    let w0 = Gc.minor_words () in
    for i = warmup + 1 to warmup + rounds do
      round i
    done;
    let w = (Gc.minor_words () -. w0) /. float_of_int rounds in
    Unix.close fd;
    Net.Socket_net.shutdown net;
    w
  in
  (* a 1-domain pool's [dispatch] of one [Req], on the calling domain
     (the worker's share is the server rows above) *)
  let dispatch_words ~calls =
    let p =
      Net.Server_pool.create ~transport:Net.Transport.null ~domains:1
        ~me:Net.Transport.server ~replicas:[ 0; 1; 2 ] ~init:0 ()
    in
    let req = Net.Wire.Req { seq = 0; op = Net.Wire.Read_k { key = 3 } } in
    let src = Net.Transport.client 2 in
    for _ = 1 to 1_000 do
      Net.Server_pool.dispatch p ~src req
    done;
    let w0 = Gc.minor_words () in
    for _ = 1 to calls do
      Net.Server_pool.dispatch p ~src req
    done;
    let w = (Gc.minor_words () -. w0) /. float_of_int calls in
    Net.Server_pool.stop p;
    w
  in
  let turn = loop_words ~fds:16 and frames = 256 in
  let frame = parse_words ~frames in
  let sent = sent_words ~frames:8_192 in
  let lone = one_frame_turn_words ~rounds:2_000 in
  let dispatch = dispatch_words ~calls:10_000 in
  Fmt.pr "  socket runtime, minor words:@.";
  Fmt.pr "  %-40s %9.1f@." "event-loop turn (16 fds, 1 ready)" turn;
  Fmt.pr "  %-40s %9.1f@."
    (Fmt.str "Socket_net parsed frame (%d-frame burst)" frames)
    frame;
  Fmt.pr "  %-40s %9.1f@." "Socket_net sent frame" sent;
  Fmt.pr "  %-40s %9.1f@." "Socket_net 1-frame turn (read to handler)" lone;
  Fmt.pr "  %-40s %9.1f@." "Server_pool dispatch (1 domain, caller)" dispatch;
  Json.metric ~section:"net-alloc" "event-loop words per turn" turn;
  Json.metric ~section:"net-alloc" "Socket_net words per parsed frame" frame;
  Json.metric ~section:"net-alloc" "Socket_net words per sent frame" sent;
  Json.metric ~section:"net-alloc" "Socket_net words per 1-frame turn" lone;
  Json.metric ~section:"net-alloc" "Server_pool words per dispatch" dispatch;
  Fmt.pr
    "  (Query frames; parsed: best of 5 bursts after one warm-up; sent: to a \
     sink on its own domain; 1-frame turn: the writer waits for each)@.@."

(* The simulator's own share of the table above: minor words of one
   message (its send, which the sending handler pays, and its delivery)
   and of one timer (arming and firing), both to a no-op handler, after
   a warm-up; then the send cork's share of a corked message. *)
let sim_alloc_table () =
  let net = Net.Sim_net.create ~seed:1 ~faults:Net.Sim_net.reliable () in
  let tr = Net.Sim_net.transport net in
  Net.Sim_net.register net 1 (fun ~src:_ _ -> ());
  let msg = Net.Wire.Query { rid = 0; reg = 0 } and fire () = () in
  let per_event schedule =
    let round () =
      schedule ();
      ignore (Net.Sim_net.step net)
    in
    for _ = 1 to 1_000 do
      round ()
    done;
    let n = 10_000 in
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      round ()
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let message = per_event (fun () -> tr.Net.Transport.send ~src:0 ~dst:1 msg)
  and timer =
    per_event (fun () -> tr.Net.Transport.set_timer ~node:1 ~delay:1.0 fire)
  in
  Fmt.pr "  simulator, minor words per event to a no-op handler:@.";
  Fmt.pr "  %-40s %9.1f@." "message (send + delivery)" message;
  Fmt.pr "  %-40s %9.1f@.@." "timer (arm + fire)" timer;
  Json.metric ~section:"net-alloc" "Sim_net words per message" message;
  Json.metric ~section:"net-alloc" "Sim_net words per timer" timer;
  (* the send cork's own share: turns of 32 messages to one peer over a
     null base, each shipped as one [Batch] *)
  let per_turn = 32 and turns = 10_000 in
  let tr, cork = Net.Transport.cork Net.Transport.null in
  let fill () =
    for _ = 1 to per_turn do
      tr.Net.Transport.send ~src:0 ~dst:1 msg
    done
  in
  for _ = 1 to 1_000 do
    Net.Transport.turn cork fill
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to turns do
    Net.Transport.turn cork fill
  done;
  let corked = (Gc.minor_words () -. w0) /. float_of_int (turns * per_turn) in
  Fmt.pr "  send cork, minor words per message:@.";
  Fmt.pr "  %-40s %9.1f@.@."
    (Fmt.str "corked turn (%d messages to one peer)" per_turn)
    corked;
  Json.metric ~section:"net-alloc" "Transport.cork words per corked message"
    corked

(* The per-op rows of the table above, taken apart: one op's program,
   one ABD phase and the server's own bookkeeping, each measured alone
   after a warm-up that fills every histogram's reservoir.
   - program: a Bloom program stepped to its end in a bare loop that
     feeds each read from a fixed array;
   - phase: an engine over three replicas on a null transport, one
     read (write) plus its window's two replies (acks), built
     beforehand;
   - server op: a reader's [Req] read of a key it read before, on an
     unaudited core over a transport that hands the engine's queries
     back, answered from replies built beforehand.  Its bookkeeping is
     what is left once the program and its three read phases are taken
     off: the op's events, its [Resp] and the core's own records. *)
let op_path_alloc_table () =
  let warmup = 3_000 and n = 13_000 in
  let per_call f =
    for i = 0 to warmup - 1 do
      f i
    done;
    let w0 = Gc.minor_words () in
    for i = warmup to n - 1 do
      f i
    done;
    (Gc.minor_words () -. w0) /. float_of_int (n - warmup)
  in
  let feed = Array.init 4 (fun i -> Registers.Tagged.make i (i land 1 = 1)) in
  let rec drive i = function
    | Registers.Vm.Ret _ -> ()
    | Registers.Vm.Read (_, k) -> drive (i + 1) (k feed.(i land 3))
    | Registers.Vm.Write (_, _, k) -> drive i (k ())
  in
  let programs =
    [ ("cached_write_prog", per_call (fun i ->
           drive i (Core.Protocol.cached_write_prog ~proc:(i land 1) i)));
      ("cached_read_prog proc 0", per_call (fun i ->
           drive i (Core.Protocol.cached_read_prog ~proc:0)));
      ("cached_read_prog proc 1", per_call (fun i ->
           drive i (Core.Protocol.cached_read_prog ~proc:1)));
      ("read_prog", per_call (fun i -> drive i (Core.Protocol.read_prog ()))) ]
  in
  let phase start reply =
    let q =
      Net.Quorum.create ~transport:Net.Transport.null
        ~me:Net.Transport.server ~replicas:[ 0; 1; 2 ] ()
    in
    let replies = Array.init n reply in
    per_call (fun rid ->
        start q;
        Net.Quorum.on_message q ~src:(rid mod 3) replies.(rid);
        Net.Quorum.on_message q ~src:((rid + 1) mod 3) replies.(rid))
  in
  let pl = Registers.Tagged.make 0 false in
  let read_phase =
    phase
      (fun q -> Net.Quorum.read q ~reg:0 ~k:ignore)
      (fun rid -> Net.Wire.Query_reply { rid; reg = 0; ts = 0; pl })
  and write_phase =
    phase
      (fun q -> Net.Quorum.store q ~reg:1 ~ts:1 ~value:pl ~k:ignore)
      (fun rid -> Net.Wire.Store_ack { rid; reg = 1 })
  in
  let server_op =
    let qdst = Array.make 8 0 and qrid = Array.make 8 0 and nq = ref 0 in
    let tr =
      {
        Net.Transport.null with
        Net.Transport.send =
          (fun ~src:_ ~dst msg ->
            match msg with
            | Net.Wire.Query { rid; _ } ->
              qdst.(!nq) <- dst;
              qrid.(!nq) <- rid;
              incr nq
            | _ -> ());
      }
    in
    let sv =
      Net.Server.create ~transport:tr ~audit:false
        ~member:
          {
            Net.Server.worker = 0;
            domains = 1;
            txns = Net.Txn.create ~init:0 ();
            post = (fun f -> f ());
            peer_stores = [];
          }
        ~me:Net.Transport.server ~replicas:[ 0; 1; 2 ] ~init:0 ()
    in
    let cl = Net.Transport.client 2 in
    Net.Server.on_message sv ~src:cl (Net.Wire.Hello { proc = 2 });
    let reqs =
      Array.init n (fun seq ->
          Net.Wire.Req { seq; op = Net.Wire.Read_k { key = 0 } })
    and replies =
      Array.init (3 * n) (fun rid ->
          Net.Wire.Query_reply { rid; reg = 0; ts = 0; pl })
    in
    let words =
      per_call (fun seq ->
          Net.Server.on_message sv ~src:cl reqs.(seq);
          while !nq > 0 do
            decr nq;
            Net.Server.on_message sv ~src:qdst.(!nq) replies.(qrid.(!nq))
          done)
    in
    if Net.Server.ops_served sv <> n then
      Fmt.failwith "net-alloc: %d of %d server reads answered"
        (Net.Server.ops_served sv) n;
    words
  in
  let bookkeeping =
    server_op -. List.assoc "read_prog" programs -. (3.0 *. read_phase)
  in
  Fmt.pr "  one op's layers, minor words:@.";
  List.iter
    (fun (name, w) ->
      Fmt.pr "  %-40s %9.1f@." ("program " ^ name) w;
      Json.metric ~section:"net-alloc"
        (Fmt.str "program %s words per op" name)
        w)
    programs;
  List.iter
    (fun (label, name, w) ->
      Fmt.pr "  %-40s %9.1f@." label w;
      Json.metric ~section:"net-alloc" name w)
    [ ("ABD read phase (2 replies)", "ABD read phase words per phase",
       read_phase);
      ("ABD write phase (2 acks)", "ABD write phase words per phase",
       write_phase);
      ("server Req read (3 phases, unaudited)", "server Req read words per op",
       server_op);
      ("server op bookkeeping", "server op bookkeeping words per op",
       bookkeeping) ];
  Fmt.pr "  (bookkeeping = server Req read - read_prog - 3 read phases)@.@."

(* The replica side of the table above, taken apart, each part measured
   alone after a warm-up on a store with a 32-entry batch cap whose
   backend drops its writes, so only the store's own words count
   (commits outside the measured part):
   - a group-commit append on a store holding 64 registers, rising
     timestamps, six per measured part;
   - the commit of six queued appends, their completions included;
   - a durable replica's [Store] of a newer timestamp to one of four
     registers it holds, its ack left queued;
   - the acks of six queued [Store]s, released by their commit. *)
let replica_alloc_table () =
  let warmup = 1_000 and rounds = 5_000 in
  (* minor words of [f i], with [before i] run first, unmeasured *)
  let per_round ~before f =
    let run i =
      before i;
      let w0 = Gc.minor_words () in
      f i;
      Gc.minor_words () -. w0
    in
    for i = 0 to warmup - 1 do
      ignore (run i)
    done;
    let words = ref 0.0 in
    for i = warmup to warmup + rounds - 1 do
      words := !words +. run i
    done;
    !words /. float_of_int rounds
  in
  let store () =
    Net.Storage.create
      ~group_commit:{ Net.Storage.batch_max = 32; flush_every = 0.5 }
      { (Net.Storage.Disk.backend (Net.Storage.Disk.create ())) with
        Net.Storage.append_wal = (fun _ _ -> ()) }
  in
  let pls = Array.init 64 (fun i -> Registers.Tagged.make i (i land 1 = 0)) in
  let fired = ref 0 in
  let k () = incr fired in
  let six st i =
    for j = 0 to 5 do
      let x = (6 * i) + j in
      Net.Storage.append_async st ~reg:(x land 63) ~ts:(x + 1) pls.(x land 63)
        ~k
    done
  in
  let append =
    let st = store () in
    let w = per_round ~before:(fun _ -> Net.Storage.flush st) (six st) in
    Net.Storage.flush st;
    w /. 6.0
  and commit =
    let st = store () in
    per_round ~before:(six st) (fun _ -> Net.Storage.flush st)
  in
  let replica () =
    let st = store () in
    (st, Net.Replica.create ~init:0 ~storage:st ())
  in
  let stores =
    Array.init (6 * (warmup + rounds)) (fun i ->
        Net.Wire.Store
          { rid = i; reg = i land 3; ts = i + 1; pl = pls.(i land 63) })
  in
  let emit _ = incr fired in
  let replica_store =
    let st, r = replica () in
    let w =
      per_round
        ~before:(fun _ -> Net.Storage.flush st)
        (fun i -> Net.Replica.handle_emit r ~src:9 ~emit stores.(i))
    in
    Net.Storage.flush st;
    w
  and replica_ack =
    let st, r = replica () in
    per_round
      ~before:(fun i ->
        for j = 0 to 5 do
          Net.Replica.handle_emit r ~src:9 ~emit stores.((6 * i) + j)
        done)
      (fun _ -> Net.Storage.flush st)
    /. 6.0
  in
  (* every append's completion and every Store's ack fired *)
  if !fired <> 19 * (warmup + rounds) then
    Fmt.failwith "net-alloc: %d completions and acks fired" !fired;
  Fmt.pr "  replica side, minor words:@.";
  List.iter
    (fun (label, name, w) ->
      Fmt.pr "  %-40s %9.1f@." label w;
      Json.metric ~section:"net-alloc" name w)
    [ ("storage append (per entry)", "storage append words per entry", append);
      ("storage commit (batch of 6)", "storage commit words per batch of 6",
       commit);
      ("replica durable Store (warm register)",
       "replica Store words on a warm register", replica_store);
      ("replica ack (per ack)", "replica ack words per ack", replica_ack) ];
  Fmt.pr "  (a null backend, 32-entry batch cap, commits unmeasured)@.@."

(* One reader's lanes on a fresh core over three replicas, audit off:
   the words freed when, after reading [keys] keys once each, it says
   [Bye].  The rest (the session) is the same for every [keys], so a
   difference of two calls is lanes alone. *)
let lane_words keys =
  let qdst = Array.make 8 0 and qrid = Array.make 8 0 and nq = ref 0 in
  let tr =
    {
      Net.Transport.null with
      Net.Transport.send =
        (fun ~src:_ ~dst msg ->
          match msg with
          | Net.Wire.Query { rid; _ } ->
            qdst.(!nq) <- dst;
            qrid.(!nq) <- rid;
            incr nq
          | _ -> ());
    }
  in
  let sv =
    Net.Server.create ~transport:tr ~audit:false
      ~member:
        {
          Net.Server.worker = 0;
          domains = 1;
          txns = Net.Txn.create ~init:0 ();
          post = (fun f -> f ());
          peer_stores = [];
        }
      ~me:Net.Transport.server ~replicas:[ 0; 1; 2 ] ~init:0 ()
  in
  let cl = Net.Transport.client 2 and pl = Registers.Tagged.make 0 false in
  let read key =
    Net.Server.on_message sv ~src:cl
      (Net.Wire.Req { seq = key; op = Net.Wire.Read_k { key } });
    while !nq > 0 do
      decr nq;
      Net.Server.on_message sv ~src:qdst.(!nq)
        (Net.Wire.Query_reply
           {
             rid = qrid.(!nq);
             reg = Net.Shard_map.global_reg key 0;
             ts = 0;
             pl;
           })
    done
  in
  Net.Server.on_message sv ~src:cl (Net.Wire.Hello { proc = 2 });
  for key = 0 to keys - 1 do
    read key
  done;
  let before = Obj.reachable_words (Obj.repr sv) in
  Net.Server.on_message sv ~src:cl Net.Wire.Bye;
  if Net.Server.ops_served sv <> keys then
    Fmt.failwith "net-alloc: %d of %d lane reads answered"
      (Net.Server.ops_served sv) keys;
  before - Obj.reachable_words (Obj.repr sv)

(* What the server keeps per key and per event at the end of the run,
   in words reachable ([Obj.reachable_words]): exact counts.  The audit
   row measures the replay's monitors, which saw the server's events
   key by key; the spare cores a domain keeps for monitors that unfold
   are not theirs and are left out.  The log row measures a log rebuilt
   from the server's history: the events are the server's own values,
   shared as it shares them.  The lane row is [lane_words] per key.
   The engine's and the replicas' per-register tables are left out:
   they reach closures and a transport shared with the whole cluster,
   so their own words cannot be told apart by reachability. *)
let resident_table server monitors =
  let ms = Array.of_seq (Hashtbl.to_seq_values monitors) in
  let keys = Array.length ms in
  let resident =
    Array.fold_left
      (fun n m -> if Histories.Monitor.resident m then n + 1 else n)
      0 ms
  in
  let audit =
    float_of_int (Obj.reachable_words (Obj.repr ms) - (keys + 1))
    /. float_of_int keys
  in
  let log = Net.History_log.create () in
  List.iter2
    (fun (time, ev) (key, _) -> Net.History_log.append log time key ev)
    (Net.Server.timed_history server)
    (Net.Server.keyed_history server);
  let events = Net.History_log.length log in
  let per_event =
    float_of_int (Obj.reachable_words (Obj.repr log)) /. float_of_int events
  in
  let lane = float_of_int (lane_words 4096 - lane_words 1) /. 4095.0 in
  Fmt.pr "  resident set at the run's end (words reachable):@.";
  List.iter
    (fun (name, w, note) ->
      Fmt.pr "  %-37s %11.1f  %s@." name w note;
      Json.count ~section:"net-alloc" name w)
    [ ("audit retained words per idle key", audit,
       Fmt.str "(%d keys, %d resident)" keys resident);
      ("history log words per event", per_event, Fmt.str "(%d events)" events);
      ("lane words per idle key", lane, "(one reader's, 4096 keys)") ];
  Fmt.pr "@."

let bench_net_alloc () =
  section "net-alloc - minor words per op by receiving role and message";
  (* the shape of bench/e2e's sim-durable workload: ABD, 3 replicas,
     8 shards over 4096 keys, durable group commit, two writer sessions
     of 64 ops in flight, half reads on uniform keys, unique values *)
  let n = 50_000 and nkeys = 4096 in
  let xprocesses =
    List.init 2 (fun proc ->
        let rng = Random.State.make [| 1; proc |] in
        {
          Net.Sim_run.xproc = proc;
          xscript =
            List.init n (fun i ->
                let key = Random.State.int rng nkeys in
                Net.Sim_run.Keyed
                  ( key,
                    if Random.State.bool rng then Histories.Event.Read
                    else
                      Histories.Event.Write (((proc + 1) * 1_000_000_000) + i + 1)
                  ));
        })
  in
  let group_commit = Some { Net.Storage.batch_max = 32; flush_every = 0.5 } in
  let store =
    Some { Net.Sim_run.snapshot_every = 4096; group_commit }
  in
  let cl =
    Net.Sim_run.create
      { Net.Sim_run.default with window = 64; shards = 8; keys = nkeys; store }
      ~seed:1 ~workload:xprocesses
  in
  let net = cl.Net.Sim_run.net in
  (* (role, label) -> events, words; bookkept outside the measured
     interval, which holds only [Sim_net.step] *)
  let buckets = Hashtbl.create 32 in
  let empty = Gc.minor_words () -. Gc.minor_words () in
  let rec loop () =
    match Net.Sim_net.peek net with
    | None -> ()
    | Some (node, msg) ->
      let w0 = Gc.minor_words () in
      ignore (Net.Sim_net.step net);
      let w = Gc.minor_words () -. w0 in
      let key =
        ( alloc_role node,
          match msg with Some m -> alloc_label m | None -> "timer" )
      in
      let events, words =
        Option.value ~default:(0, 0.) (Hashtbl.find_opt buckets key)
      in
      Hashtbl.replace buckets key (events + 1, words +. w);
      loop ()
  in
  loop ();
  let completed =
    List.length
      (List.filter
         (function Histories.Event.Respond _ -> true | _ -> false)
         (Net.Server.history cl.Net.Sim_run.server))
  in
  if completed <> 2 * n then
    Fmt.failwith "net-alloc: %d of %d ops completed" completed (2 * n);
  let ops = float_of_int completed in
  let rows =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) buckets []
    |> List.sort (fun (_, (_, a)) (_, (_, b)) -> Float.compare b a)
  in
  let total = List.fold_left (fun acc (_, (_, w)) -> acc +. w) 0. rows in
  Fmt.pr "  %-9s %-13s %9s %12s %11s@." "role" "message" "events"
    "words/event" "words/op";
  List.iter
    (fun ((role, label), (events, words)) ->
      Fmt.pr "  %-9s %-13s %9d %12.1f %11.1f@." role label events
        (words /. float_of_int events)
        (words /. ops);
      Json.metric ~section:"net-alloc"
        (Fmt.str "%s %s words per op" role label)
        (words /. ops))
    rows;
  Fmt.pr "  %-23s %9d %12s %11.1f@." "total (per op)" completed ""
    (total /. ops);
  Json.metric ~section:"net-alloc" "total words per op" (total /. ops);
  Fmt.pr
    "  (%d ops; an empty measured interval allocates %.0f words; the \
     e2e sim-durable figure also counts its byte-accounting tap)@."
    completed empty;
  (* the server rows above include its live audit; price it apart by
     replaying the run's history through fresh per-key monitors, the
     per-key table included, as the server builds them *)
  let keyed = Net.Server.keyed_history cl.Net.Sim_run.server in
  let monitors = Hashtbl.create 8 and violations = ref 0 in
  let w0 = Gc.minor_words () in
  List.iter
    (fun (key, ev) ->
      let m =
        match Hashtbl.find monitors key with
        | m -> m
        | exception Not_found ->
          let m = Histories.Monitor.create ~init:0 in
          Hashtbl.replace monitors key m;
          m
      in
      match Histories.Monitor.observe m ev with
      | Histories.Monitor.Ok_so_far -> ()
      | Histories.Monitor.Violation _ -> incr violations)
    keyed;
  let audit = (Gc.minor_words () -. w0) /. ops in
  if !violations > 0 then
    Fmt.failwith "net-alloc: the replayed audit flagged %d events" !violations;
  Fmt.pr "  %-37s %11.1f@.@." "server audit words per op" audit;
  Json.metric ~section:"net-alloc" "server audit words per op" audit;
  resident_table cl.Net.Sim_run.server monitors;
  replica_alloc_table ();
  op_path_alloc_table ();
  sim_alloc_table ();
  wire_alloc_table ();
  socket_alloc_table ()

(* ------------------------------------------------------------------ *)
(* Schedule exploration: how fast the adversary enumerates, how much   *)
(* sleep-set pruning buys, how quickly the broken variant is caught.   *)

let bench_net_explore () =
  section "net/explore - systematic schedule exploration of the service";
  let pf = Fmt.pr in
  let w v = Histories.Event.Write v in
  let r = Histories.Event.Read in
  let proc p script = { Registers.Vm.proc = p; script } in
  (* --- exhaustive enumeration rate, with and without pruning --- *)
  let leg ~label ~prune processes =
    let cfg =
      Net.Explore.config
        ~spec:{ Net.Sim_run.default with replicas = 1 }
        ~prune ~workload:(Net.Sim_run.singles processes) ()
    in
    let res, dt = timed (fun () -> Net.Explore.explore cfg) in
    let s = res.Net.Explore.stats in
    let rate = float_of_int s.Modelcheck.Schedule.schedules /. dt in
    Json.count ~section:"net-explore" (label ^ " schedules")
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
  Json.count ~section:"net-explore" "pruning leverage x"
    (float_of_int full /. float_of_int (max 1 pruned));
  pf "  pruning leverage: %.2fx fewer schedules@."
    (float_of_int full /. float_of_int (max 1 pruned));
  ignore
    (leg ~label:"writer + reader, pruned" ~prune:true
       [ proc 0 [ w 7 ]; proc 2 [ r ] ]);
  (* --- broken read quorum: time to find + shrink the violation --- *)
  let broken =
    Net.Explore.config
      ~spec:
        {
          Net.Sim_run.default with
          bug = { Net.Bug.none with read_quorum = Some 1 };
        }
      ~workload:
        (Net.Sim_run.singles
           [ proc 0 [ w 1001 ]; proc 1 [ w 2001 ]; proc 2 [ r; r ] ])
      ()
  in
  let res, dt = timed (fun () -> Net.Explore.hunt ~seed:42 broken) in
  (match res.Net.Explore.counterexample with
   | None -> Fmt.failwith "net-explore: broken read quorum not caught"
   | Some ce ->
     let walks = res.Net.Explore.stats.Modelcheck.Schedule.schedules in
     Json.count ~section:"net-explore" "broken-quorum walks to violation"
       (float_of_int walks);
     Json.metric ~section:"net-explore" "broken-quorum s to violation" dt;
     pf "  broken read quorum caught in %d walks (%.2fs)@." walks dt;
     let (_, ce'), sdt = timed (fun () -> Net.Explore.shrink broken ce) in
     let shrunk = List.length ce'.Net.Explore.schedule in
     Json.count ~section:"net-explore" "broken-quorum shrunk choices"
       (float_of_int shrunk);
     Json.metric ~section:"net-explore" "shrink s" sdt;
     pf "  shrunk %d -> %d choices (%.2fs)@."
       (List.length ce.Net.Explore.schedule)
       shrunk sdt);
  (* --- torture throughput --- *)
  let rep, dt = timed (fun () -> Net.Explore.torture ~runs:300 ~seed:9 ()) in
  let rate = float_of_int rep.Net.Explore.runs /. dt in
  Json.metric ~section:"net-explore" "torture runs per s" rate;
  Json.metric ~section:"net-explore" "torture ops per s"
    (float_of_int rep.Net.Explore.ops_completed /. dt);
  Json.count ~section:"net-explore" "torture ops"
    (float_of_int rep.Net.Explore.ops_completed);
  Json.count ~section:"net-explore" "torture violations"
    (float_of_int rep.Net.Explore.violations);
  Json.count ~section:"net-explore" "torture stalls"
    (float_of_int rep.Net.Explore.stalled);
  pf "  torture: %d runs %6.0f runs/s, %d ops, %d violations, %d stalls@.@."
    rep.Net.Explore.runs rate rep.Net.Explore.ops_completed
    rep.Net.Explore.violations rep.Net.Explore.stalled

(* ------------------------------------------------------------------ *)
(* net/recovery: the durability layer — WAL append throughput on both  *)
(* backends and under group commit (N appends, one write+fsync), the   *)
(* recovery time as the log grows, and the snapshot-interval trade-off *)
(* between log size and recovery work.                                 *)

let bench_net_recovery () =
  section "net-recovery - WAL appends, recovery time, snapshot intervals";
  let pf = Fmt.pr in
  let fill st n = for i = 0 to n - 1 do Net.Storage.append st (entry i) done in
  (* --- append throughput: in-memory floor vs real files --- *)
  let n = 50_000 in
  (let st =
     Net.Storage.create (Net.Storage.Disk.backend (Net.Storage.Disk.create ()))
   in
   let (), dt = timed (fun () -> fill st n) in
   let rate = float_of_int n /. dt in
   Json.metric ~section:"net-recovery" "mem appends per s" rate;
   pf "  append  mem backend         %8.0f appends/s@." rate);
  (* every file leg goes through the async path plus one final flush
     and must see every ack fire: persist-before-ack, not
     fire-and-forget *)
  let file_leg ?group_commit ~fsync ~label n =
    let dir = fresh_dir "bench_storage" in
    let st =
      Net.Storage.create ?group_commit
        (Net.Storage.file_backend ~fsync ~dir ())
    in
    let acked = ref 0 in
    let (), dt =
      timed (fun () ->
          for i = 0 to n - 1 do
            let { Net.Storage.reg; ts; pl } = entry i in
            Net.Storage.append_async st ~reg ~ts pl ~k:(fun () -> incr acked)
          done;
          Net.Storage.flush st)
    in
    if !acked <> n then
      Fmt.failwith "net-recovery: %s: %d of %d appends acked" label !acked n;
    let rate = float_of_int n /. dt in
    Json.metric ~section:"net-recovery"
      (Fmt.str "file appends per s (%s)" label) rate;
    pf "  append  file backend %-18s %8.0f appends/s (max batch %d)@."
      ("(" ^ label ^ ")") rate (Net.Storage.stats st).Net.Storage.max_batch;
    rm_dir dir;
    rate
  in
  let ceil_rate = file_leg ~fsync:false ~label:"no fsync" n in
  let sync_rate = file_leg ~fsync:true ~label:"fsync" 500 in
  let best_rate =
    List.fold_left
      (fun best bm ->
        Float.max best
          (file_leg ~fsync:true
             ~group_commit:{ Net.Storage.batch_max = bm; flush_every = 0.0005 }
             ~label:(Fmt.str "fsync, batch %d" bm)
             (if bm < 8 then 400 else 20_000)))
      0.0 [ 1; 8; 64; 256 ]
  in
  (* the acceptance claim, checked where the numbers are made: batched
     fsync must beat one fsync per append at least 5x *)
  let speedup = best_rate /. sync_rate and frac = best_rate /. ceil_rate in
  Json.metric ~section:"net-recovery" "best batch speedup over per-append"
    speedup;
  Json.metric ~section:"net-recovery" "best batch fraction of no-fsync" frac;
  pf "  best batch: %5.1fx over per-append fsync, %4.2f of the no-fsync \
      ceiling@."
    speedup frac;
  if speedup < 5.0 then
    Fmt.failwith "net-recovery: best batch only %.1fx over per-append fsync"
      speedup;
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
      Json.count ~section:"net-recovery"
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
        (Net.Sim_run.create
           {
             Net.Sim_run.default with
             store = (if durable then Some Net.Sim_run.default_store else None);
           }
           ~seed:13
           ~workload:(Net.Sim_run.singles (two_by_two 50)))
    in
    check_sim
      ("net-recovery sim " ^ if durable then "durable" else "volatile")
      o;
    float_of_int o.Net.Sim_run.completed /. o.Net.Sim_run.virtual_span
  in
  let on_rate = sim ~durable:true in
  let off_rate = sim ~durable:false in
  Json.metric ~section:"net-recovery" "sim ops per vtime durable" on_rate;
  Json.metric ~section:"net-recovery" "sim ops per vtime volatile" off_rate;
  pf "  sim cluster: %5.2f ops/vtime durable vs %5.2f volatile@.@." on_rate
    off_rate

(* ------------------------------------------------------------------ *)
(* net/engine: the two replication protocols head to head on identical *)
(* workloads — bytes on the wire, control bytes, messages and virtual- *)
(* time latency per operation.  The twobit engine's claim is wire      *)
(* economy: counting over FIFO links replaces request ids and          *)
(* timestamps, and a read asks one replica and completes on its reply. *)

let bench_net_engine () =
  section "net-engine - abd vs twobit: wire cost and latency per op";
  let pf = Fmt.pr in
  let workload = two_by_two 50 in
  let leg kind ~drop =
    let o =
      Net.Sim_run.run
        (Net.Sim_run.create
           ~faults:(Net.Sim_net.lossy ~drop ~duplicate:(drop /. 2.0) ())
           { Net.Sim_run.default with engine = kind }
           ~seed:6
           ~workload:(Net.Sim_run.singles workload))
    in
    check_sim ("net-engine " ^ Net.Engine.kind_name kind) o;
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
          Json.count ~section:"net-engine" (pre ^ " bytes per op")
            bytes_per_op;
          Json.count ~section:"net-engine" (pre ^ " control bytes per op")
            ctrl_per_op;
          Json.count ~section:"net-engine" (pre ^ " msgs per op") msgs_per_op;
          Json.metric ~section:"net-engine" (pre ^ " latency p50 vt") (pct 50.0);
          Json.metric ~section:"net-engine" (pre ^ " latency p99 vt") (pct 99.0);
          Json.count ~section:"net-engine" (pre ^ " retransmissions")
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
(* net/txn: atomic multi-key batches, snapshot reads and WAL           *)
(* compaction.  Two measurements: (1) the atomicity premium — an       *)
(* atomic K-key batch moves the same engine work as K plain writes but *)
(* its locks serialize writers that touch the same keyspan, so the     *)
(* bench quantifies what all-or-nothing actually costs over            *)
(* independent writes; (2) under a sustained mixed batch/snapshot      *)
(* workload the snapshot cadence keeps every replica WAL bounded while *)
(* the uncompacted log grows with the workload, and every ack still    *)
(* fires (a snapshot supersedes only durable entries).                 *)

let bench_net_txn () =
  section "net-txn - atomic batches vs plain writes, and WAL compaction";
  let pf = Fmt.pr in
  let keys = 4 in
  let shards = 4 in
  let wv p i k = (100_000 * (p + 1)) + (i * keys) + k in
  let run_ok ?(snapshot_every = 32) ~seed workload =
    let cl =
      Net.Sim_run.create
        {
          Net.Sim_run.default with
          shards;
          keys;
          window = 8;
          store =
            Some { Net.Sim_run.default_store with snapshot_every };
        }
        ~seed ~workload
    in
    let o = Net.Sim_run.run cl in
    check_sim "net-txn" o;
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
  (* --- WAL footprint: sustained mixed workload, compacting every 63
     appends vs never *)
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
  let cadence = 63 in
  let o_off, wal_off = run_ok ~snapshot_every:0 ~seed:17 mixed in
  let o_on, wal_on = run_ok ~snapshot_every:cadence ~seed:17 mixed in
  let every = Fmt.str "snapshot every %d" cadence in
  Json.count ~section:"net-txn" "wal bytes never compacted"
    (float_of_int wal_off);
  Json.count ~section:"net-txn" ("wal bytes " ^ every) (float_of_int wal_on);
  Json.count ~section:"net-txn" ("wal shrink factor " ^ every)
    (float_of_int wal_off /. float_of_int (max 1 wal_on));
  Json.count ~section:"net-txn" "acks never compacted"
    (float_of_int o_off.Net.Sim_run.completed);
  Json.count ~section:"net-txn" ("acks " ^ every)
    (float_of_int o_on.Net.Sim_run.completed);
  pf
    "  mixed workload (2 writers x %d batches + 2 readers x %d snapshots), 3 \
     replicas:@."
    gc_rounds (gc_rounds / 2);
  pf "    never compacted %8d WAL bytes total (%d acks, all fired)@." wal_off
    o_off.Net.Sim_run.completed;
  pf "    snapshot / %3d  %8d WAL bytes total (%d acks, all fired)@." cadence
    wal_on o_on.Net.Sim_run.completed;
  (* the acceptance claims, checked where the numbers are made: the
     cadence must shrink the replica logs, while the uncompacted log
     grows well past three cadences of 33-byte records *)
  if wal_off <= 3 * cadence * 33 then
    Fmt.failwith "net-txn: uncompacted WAL only %d bytes; workload too small"
      wal_off;
  if wal_on >= wal_off then
    Fmt.failwith "net-txn: compaction did not shrink the WAL (%d >= %d)"
      wal_on wal_off;
  pf "    cadence holds: %.1fx smaller than the unbounded log@.@."
    (float_of_int wal_off /. float_of_int (max 1 wal_on))

(* ------------------------------------------------------------------ *)
(* net-reconfig: live resharding under a zipfian keyed workload.  A    *)
(* hot key soaks up most of a zipf(1.2) keyspace; mid-run the control  *)
(* client migrates it to the other shard while the clients keep        *)
(* hammering.  The claim the bench checks where the numbers are made:  *)
(* the origin shard's share of completed operations strictly decreases *)
(* after the cutover, every ack fires, the epoch advances, and every   *)
(* key's history stays atomic.                                         *)

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
      let run ?reconfig ?before () =
        let cl =
          Net.Sim_run.create ?reconfig
            { Net.Sim_run.default with shards; keys; window = 8; engine }
            ~seed:31 ~workload:xprocesses
        in
        Option.iter
          (fun (t, f) ->
            Net.Sim_net.at cl.Net.Sim_run.net t (fun () ->
                f cl.Net.Sim_run.metrics))
          before;
        Net.Sim_run.run cl
      in
      (* probe leg: same workload, no migration — calibrates the
         mid-run virtual time and gives the undisturbed baseline *)
      let probe = run () in
      let mid = probe.Net.Sim_run.virtual_span /. 2.0 in
      let pre = Array.make shards 0 in
      let o =
        run
          ~reconfig:{ Net.Sim_run.key = hot; to_shard; at = Some mid }
          ~before:
            ( mid -. 1e-6,
              fun metrics ->
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
        post.(s) <-
          Net.Metrics.get o.Net.Sim_run.metrics (Fmt.str "shard%d_ops" s)
          - pre.(s)
      done;
      let share a =
        let total = Array.fold_left ( + ) 0 a in
        float_of_int a.(from_shard) /. float_of_int (max 1 total)
      in
      let pre_share = share pre and post_share = share post in
      let ok =
        o.Net.Sim_run.verdict = Net.Sim_run.Clean
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
          "net-reconfig (%s): %a, epoch=%d acked-verdict=%s share %.2f -> \
           %.2f"
          name Net.Sim_run.pp_verdict o.Net.Sim_run.verdict o.Net.Sim_run.epoch
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
    ("net-alloc", bench_net_alloc);
    ("net-explore", bench_net_explore);
    ("net-recovery", bench_net_recovery);
    ("net-engine", bench_net_engine);
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
