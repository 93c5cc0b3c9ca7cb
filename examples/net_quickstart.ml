(* The two-writer register served over messages: a simulated cluster of
   3 crash-prone replicas, one server running Bloom's protocol over
   ABD quorums, two writer clients and two reader clients — under a
   lossy, reordering, duplicating network with one replica crash —
   audited live by Histories.Monitor and re-checked with Fastcheck.

     dune exec examples/net_quickstart.exe *)

let () =
  let spec =
    { Harness.Workload.writers = 2; readers = 2; writes_each = 5; reads_each = 8 }
  in
  let processes = Harness.Workload.unique_scripts spec in
  let faults = Net.Sim_net.lossy ~drop:0.15 ~duplicate:0.1 () in
  let cl =
    Net.Sim_run.create ~faults Net.Sim_run.default ~seed:42
      ~workload:(Net.Sim_run.singles processes)
  in
  (* replica 2 crashes at virtual time 40 *)
  let o = Net.Sim_run.run ~fates:[ (40.0, Harness.Failure.Crash 2) ] cl in
  Fmt.pr "served history (server-side order):@.";
  Fmt.pr "%a@." (Histories.Event.pp_history Fmt.int) o.Net.Sim_run.history;
  Fmt.pr "%a@." Net.Sim_run.pp_outcome o;
  match o.Net.Sim_run.verdict with
  | Net.Sim_run.Clean ->
    Fmt.pr "atomic over a faulty network, as the paper promises.@."
  | v -> Fmt.failwith "%a — this should be impossible" Net.Sim_run.pp_verdict v
