(* Shared helpers for the test suites. *)

let ev_invoke p op = Histories.Event.Invoke (p, op)
let ev_respond p res = Histories.Event.Respond (p, res)
let read = Histories.Event.Read
let write v = Histories.Event.Write v

(* Build a history from a compact description and extract operations. *)
let ops_of_events events = Histories.Operation.of_events_exn events

(* A standard Bloom register over ints. *)
let bloom ?(init = 0) () = Core.Protocol.bloom ~init ~other_init:init ()

let run_bloom ?crash ~seed processes =
  Registers.Run_coarse.run ?crash ~seed (bloom ()) processes

let certify_trace ?(init = 0) trace =
  Core.Certifier.certify (Core.Gamma.analyse ~init trace)

let check_certified ?(init = 0) ~what trace =
  match certify_trace ~init trace with
  | Core.Certifier.Certified c -> c
  | Core.Certifier.Failed msg -> Alcotest.failf "%s: certifier failed: %s" what msg

let history_ops trace =
  ops_of_events (Registers.Vm.history_of_trace trace)

(* Alcotest shortcuts. *)
let tc name f = Alcotest.test_case name `Quick f
let tc_slow name f = Alcotest.test_case name `Slow f

let qc ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(* Minor words per call of [f i] for [i] in [warmup, n), after [f 0]
   .. [f (warmup - 1)] ran unmeasured. *)
let words_per_call ~warmup ~n f =
  for i = 0 to warmup - 1 do
    f i
  done;
  let w0 = Gc.minor_words () in
  for i = warmup to n - 1 do
    f i
  done;
  (Gc.minor_words () -. w0) /. float_of_int (n - warmup)

(* tiny substring check used by a few tests *)
module Astring_like = struct
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
end

(* The place of a 1-worker pool's core, with its own coordinator: how
   a test runs one [Net.Server] on a transport of its own. *)
let solo_member () =
  {
    Net.Server.worker = 0;
    domains = 1;
    txns = Net.Txn.create ~init:0 ();
    post = (fun f -> f ());
    peer_stores = [];
  }

(* A replica's replies to one message, as a list.  Complete only when
   the replica is volatile or its store commits synchronously (no
   [group_commit] config): a deferred ack would be lost with the
   collector. *)
let replica_handle r ~src msg =
  let acc = ref [] in
  Net.Replica.handle_emit r ~src ~emit:(fun reply -> acc := reply :: !acc) msg;
  List.rev !acc

(* A simulated run's verdict ({!Net.Sim_run.judge}), for Alcotest. *)
let verdict = Alcotest.testable Net.Sim_run.pp_verdict ( = )

(* Every audit accepts and every op was answered. *)
let check_clean what (o : Net.Sim_run.outcome) =
  Alcotest.check verdict (what ^ ": clean") Net.Sim_run.Clean
    o.Net.Sim_run.verdict

(* The outcome of a simulated cluster run to its end by hand, judged as
   {!Net.Sim_run.run} judges one. *)
let collect cl ~steps =
  Net.Sim_run.collect ~fastcheck:true cl ~steps
