(* Per-shard worker domains around Server cores.  See the .mli for
   the routing and ownership story; the invariants that matter here:

   - a worker's core is touched only by its domain (plus read-only
     aggregate accessors on a quiescent pool);
   - Hello/Bye broadcast to every worker (session open/close is
     per-core state); requests point-route to the worker owning the
     op's key — cores run presequenced, so nobody else needs to see
     them — and quorum replies point-route to the owning worker;
   - each worker drains its queue in bursts under one cork so the
     whole burst's sends coalesce into per-destination batches. *)

type item = Msg of Transport.node * Wire.msg | Fn of (unit -> unit)

type worker = {
  core : Server.t;
  mu : Mutex.t;
  cv : Condition.t;
  q : item Queue.t;
  mutable stopping : bool;
  mutable dom : unit Domain.t option;
}

type t = {
  workers : worker array;
  map : Shard_map.t;
  nd : int;
  worker_exn : Metrics.counter;
  failed : (exn * Printexc.raw_backtrace) option Atomic.t;
      (* the first exception a worker caught, re-raised by [stop] *)
}

let push w item =
  Mutex.lock w.mu;
  Queue.add item w.q;
  Condition.signal w.cv;
  Mutex.unlock w.mu

(* A handler that raises must not end its worker's domain: that would
   leave the worker's keys unserved with nothing reported.  Count every
   exception, print the first one the pool sees, and let [stop] raise
   it. *)
let caught t e bt =
  Metrics.incr t.worker_exn;
  if Atomic.compare_and_set t.failed None (Some (e, bt)) then
    Fmt.epr "Server_pool: a worker's handler raised %s@.%s@."
      (Printexc.to_string e)
      (Printexc.raw_backtrace_to_string bt)

let worker_loop t w =
  let batch = Queue.create () in
  let run_batch () =
    while not (Queue.is_empty batch) do
      match Queue.take batch with
      | Msg (src, msg) -> Server.on_message w.core ~src msg
      | Fn f -> f ()
    done
  in
  (* one cork over the whole burst: every reply and quorum message this
     drain produces leaves as one frame per destination.  An item that
     raises ends its cork turn (which still ships); the rest of the
     burst runs under a fresh one. *)
  let rec drain () =
    match Server.with_cork w.core run_batch with
    | () -> ()
    | exception e ->
      caught t e (Printexc.get_raw_backtrace ());
      drain ()
  in
  let running = ref true in
  while !running do
    Mutex.lock w.mu;
    while Queue.is_empty w.q && not w.stopping do
      Condition.wait w.cv w.mu
    done;
    Queue.transfer w.q batch;
    if Queue.is_empty batch && w.stopping then running := false;
    Mutex.unlock w.mu;
    if not (Queue.is_empty batch) then drain ()
  done

let create ~transport ?audit ?engine ?storage ?metrics ?trace ?map
    ?(domains = 1) ~me ~replicas ~init () =
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  let map =
    match map with Some m -> m | None -> Shard_map.create ~shards:1 ()
  in
  let nd = max 1 domains in
  let storage = match storage with Some f -> f | None -> fun _ -> None in
  let stores = Array.init nd storage in
  (* ONE multi-key coordinator shared by every core: a cross-domain
     batch is atomic because all its keys' cores lock through the same
     table, whichever domains own them *)
  let txns = Txn.create ?audit ~init () in
  let make d =
    (* the core's timers must run on its own domain, not on the
       transport's timer thread: re-route each callback through the
       worker queue ([wref] ties the knot) *)
    let wref = ref None in
    let wt =
      {
        transport with
        Transport.set_timer =
          (fun ~node ~delay f ->
            transport.Transport.set_timer ~node ~delay (fun () ->
                match !wref with Some w -> push w (Fn f) | None -> f ()));
      }
    in
    (* coordinator thunks must run on the owning domain, not on
       whichever domain committed the multi-key op: inject them
       through the worker queue like timer callbacks *)
    let post f = match !wref with Some w -> push w (Fn f) | None -> f () in
    let peer_stores =
      List.concat
        (List.init nd (fun i ->
             if i = d then [] else Option.to_list stores.(i)))
    in
    let core =
      Server.create ~transport:wt ?audit ?engine ?storage:stores.(d) ~metrics
        ?trace ~map
        ~member:{ Server.worker = d; domains = nd; txns; post; peer_stores }
        ~me ~replicas ~init ()
    in
    let w =
      { core; mu = Mutex.create (); cv = Condition.create ();
        q = Queue.create (); stopping = false; dom = None }
    in
    wref := Some w;
    w
  in
  let workers = Array.init nd make in
  let t =
    { workers; map; nd; worker_exn = Metrics.counter metrics "worker_exn";
      failed = Atomic.make None }
  in
  Array.iter
    (fun w -> w.dom <- Some (Domain.spawn (fun () -> worker_loop t w)))
    workers;
  t

let worker_of_key t key = Server.worker_of_key t.map ~domains:t.nd key

let add buckets w m = buckets.(w) <- m :: buckets.(w)

(* Add [m] to the bucket of every worker that must see it. *)
let rec route t buckets m =
  match m with
  | Wire.Batch msgs -> route_list t buckets msgs
  | Wire.Hello _ | Wire.Bye ->
    for w = 0 to t.nd - 1 do
      add buckets w m
    done
  | Wire.Req { op = (Wire.Txn_k _ | Wire.Snap_k _) as op; _ } ->
    (* a multi-key op goes to the owner of EACH touched key — every
       one of them must queue it (phase 1 of the coordinator) — and
       each worker exactly once.  An op with no keys still routes to
       its routing-key owner, who rejects it. *)
    (match
       List.sort_uniq compare
         (List.map (worker_of_key t) (Server.keys_of_op op))
     with
     | [] -> add buckets (worker_of_key t (Server.key_of_op op)) m
     | ws -> List.iter (fun w -> add buckets w m) ws)
  | Wire.Req { op; _ } ->
    (* point-route by key owner: cores run presequenced (this thread
       preserves each session's arrival order), so no other worker
       needs to see the op at all *)
    add buckets (worker_of_key t (Server.key_of_op op)) m
  | Wire.Query_reply { reg; _ } | Wire.Store_ack { reg; _ } ->
    if reg >= 0 then add buckets (worker_of_key t (Shard_map.key_of_reg reg)) m
  | Wire.Ack2 { lid; _ } | Wire.Query2_reply { lid; _ } ->
    if lid >= 0 then add buckets (lid mod t.nd) m
  | Wire.Stats_req _ -> add buckets 0 m
  | Wire.Reconfig { key; _ } ->
    (* the migration runs entirely on the key's owner worker *)
    if key >= 0 then add buckets (worker_of_key t key) m
  | Wire.Epoch_req _ ->
    (* workers' epochs advance independently; worker 0 answers as the
       pool's representative (a stale answer only costs the client a
       nack-and-retry) *)
    add buckets 0 m
  | Wire.Resp _ | Wire.Resp_snap _ | Wire.Query _ | Wire.Store _
  | Wire.Stats_reply _ | Wire.Store2 _ | Wire.Query2 _ | Wire.Engine_hello _
  | Wire.Reconfig_ack _ | Wire.Epoch_reply _ -> ()

and route_list t buckets = function
  | [] -> ()
  | m :: rest ->
    route t buckets m;
    route_list t buckets rest

(* Partition one inbound frame into at most one enqueue per worker: a
   Batch of K messages costs K pushes (and K worker wake-ups) if
   forwarded item by item, but one re-wrapped Batch per worker if
   partitioned here — and the receiving core then runs the whole
   sub-batch under a single cork turn. *)
let dispatch t ~src msg =
  let buckets = Array.make t.nd [] in
  route t buckets msg;
  for w = 0 to t.nd - 1 do
    match buckets.(w) with
    | [] -> ()
    | [ m ] -> push t.workers.(w) (Msg (src, m))
    | ms -> push t.workers.(w) (Msg (src, Wire.Batch (List.rev ms)))
  done

let stop t =
  Array.iter
    (fun w ->
      Mutex.lock w.mu;
      w.stopping <- true;
      Condition.broadcast w.cv;
      Mutex.unlock w.mu)
    t.workers;
  Array.iter
    (fun w ->
      match w.dom with
      | Some d ->
        Domain.join d;
        w.dom <- None
      | None -> ())
    t.workers;
  match Atomic.get t.failed with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let violations t =
  Array.to_list t.workers
  |> List.concat_map (fun w -> Server.violations w.core)

(* the registry and the coordinator are shared: any core's view is the
   pool's view *)
let core0 t = t.workers.(0).core
let ops_served t = Server.ops_served (core0 t)
let rejected t = Server.rejected (core0 t)
let quorum_stats t = Server.quorum_stats (core0 t)
let txns t = Server.txns (core0 t)
let txn_violations t = Server.txn_violations (core0 t)
