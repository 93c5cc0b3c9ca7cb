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

(* A worker's queue: parallel slot arrays, filled in push order.  Slot
   [i] is the frame [msg.(i)] from [src.(i)], or the thunk [fn.(i)]
   when that is not [no_fn].  A push writes three slots and allocates
   nothing; the worker takes the whole queue at once by swapping it
   for its spare. *)
type slots = {
  mutable src : Transport.node array;
  mutable msg : Wire.msg array;
  mutable fn : (unit -> unit) array;
  mutable n : int;
}

let no_fn () = ()

(* The largest array the minor heap takes ([Max_young_wosize]): a
   queue that grows past it grows on the major heap, so a push never
   allocates a minor word. *)
let slots_init = 256

let slots () =
  { src = Array.make slots_init 0; msg = Array.make slots_init Wire.Bye;
    fn = Array.make slots_init no_fn; n = 0 }

type worker = {
  core : Server.t;
  mu : Mutex.t;
  cv : Condition.t;
  mutable q : slots;  (* guarded by [mu] *)
  hwm : Metrics.counter;
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

let grow q =
  let cap = 2 * Array.length q.src in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 q.n;
    b
  in
  q.src <- extend q.src 0;
  q.msg <- extend q.msg Wire.Bye;
  q.fn <- extend q.fn no_fn

(* Locked directly, not through [Mutex.protect]: a push allocates no
   closure.  Nothing between the lock and the unlock raises but an
   out-of-memory from [grow]. *)
let push w ~src msg fn =
  Mutex.lock w.mu;
  let q = w.q in
  if q.n = Array.length q.src then grow q;
  let i = q.n in
  q.src.(i) <- src;
  q.msg.(i) <- msg;
  q.fn.(i) <- fn;
  q.n <- i + 1;
  Metrics.raise_to w.hwm q.n;
  Condition.signal w.cv;
  Mutex.unlock w.mu

let push_fn w f = push w ~src:0 Wire.Bye f

(* Empty a drained queue for its next turn as the spare, dropping the
   references it held; one that a burst grew goes back to its first
   size, so a burst's arrays do not stay resident. *)
let reset q =
  if Array.length q.src > 16 * slots_init then begin
    q.src <- Array.make slots_init 0;
    q.msg <- Array.make slots_init Wire.Bye;
    q.fn <- Array.make slots_init no_fn
  end
  else begin
    Array.fill q.msg 0 q.n Wire.Bye;
    Array.fill q.fn 0 q.n no_fn
  end;
  q.n <- 0

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
  let mine = ref (slots ()) and next = ref 0 in
  let run_batch () =
    let q = !mine in
    while !next < q.n do
      let i = !next in
      next := i + 1;
      let f = q.fn.(i) in
      if f == no_fn then Server.on_message w.core ~src:q.src.(i) q.msg.(i)
      else f ()
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
    while w.q.n = 0 && not w.stopping do
      Condition.wait w.cv w.mu
    done;
    let q = w.q in
    if q.n = 0 then running := false
    else begin
      w.q <- !mine;
      mine := q
    end;
    Mutex.unlock w.mu;
    if q.n > 0 then begin
      next := 0;
      drain ();
      reset q
    end
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
  let hwm = Metrics.counter metrics "pool_queue_hwm" in
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
                match !wref with Some w -> push_fn w f | None -> f ()));
      }
    in
    (* coordinator thunks must run on the owning domain, not on
       whichever domain committed the multi-key op: inject them
       through the worker queue like timer callbacks *)
    let post f = match !wref with Some w -> push_fn w f | None -> f () in
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
      { core; mu = Mutex.create (); cv = Condition.create (); q = slots ();
        hwm; stopping = false; dom = None }
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

(* What [target] answers for a message no worker takes, and for one
   that more than one worker may have to see. *)
let nobody = -1
let several = -2

(* The one worker that must see [m] (not a [Batch]), [nobody], or
   [several]. *)
let target t = function
  | Wire.Hello _ | Wire.Bye | Wire.Req { op = Wire.Txn_k _ | Wire.Snap_k _; _ }
    ->
    if t.nd = 1 then 0 else several
  | Wire.Req { op; _ } ->
    (* point-route by key owner: cores run presequenced (this thread
       preserves each session's arrival order), so no other worker
       needs to see the op at all *)
    worker_of_key t (Server.key_of_op op)
  | Wire.Query_reply { reg; _ } | Wire.Store_ack { reg; _ } ->
    if reg >= 0 then worker_of_key t (Shard_map.key_of_reg reg) else nobody
  | Wire.Ack2 { lid; _ } | Wire.Query2_reply { lid; _ } ->
    if lid >= 0 then lid mod t.nd else nobody
  | Wire.Stats_req _ -> 0
  | Wire.Reconfig { key; _ } ->
    (* the migration runs entirely on the key's owner worker *)
    if key >= 0 then worker_of_key t key else nobody
  | Wire.Epoch_req _ ->
    (* workers' epochs advance independently; worker 0 answers as the
       pool's representative (a stale answer only costs the client a
       nack-and-retry) *)
    0
  | Wire.Batch _ | Wire.Resp _ | Wire.Resp_snap _ | Wire.Query _
  | Wire.Store _ | Wire.Stats_reply _ | Wire.Store2 _ | Wire.Query2 _
  | Wire.Engine_hello _ | Wire.Reconfig_ack _ | Wire.Epoch_reply _
  | Wire.Nack _ ->
    nobody

let add buckets w m = buckets.(w) <- m :: buckets.(w)

(* Add [m] to the bucket of every worker that must see it. *)
let rec route t buckets m =
  match m with
  | Wire.Batch msgs -> route_list t buckets msgs
  | _ ->
    let w = target t m in
    if w >= 0 then add buckets w m
    else if w = several then
      match m with
      | Wire.Req { op; _ } ->
        (* a multi-key op goes to the owner of EACH touched key — every
           one of them must queue it (phase 1 of the coordinator) — and
           each worker exactly once.  An op with no keys still routes
           to its routing-key owner, who rejects it. *)
        (match
           List.sort_uniq compare
             (List.map (worker_of_key t) (Server.keys_of_op op))
         with
         | [] -> add buckets (worker_of_key t (Server.key_of_op op)) m
         | ws -> List.iter (fun w -> add buckets w m) ws)
      | _ ->
        (* session open and close are per-core state *)
        for w = 0 to t.nd - 1 do
          add buckets w m
        done

and route_list t buckets = function
  | [] -> ()
  | m :: rest ->
    route t buckets m;
    route_list t buckets rest

(* The one worker that every message of a frame goes to, and goes to
   alone, or [nobody]; a multi-key op over several domains answers
   [nobody] unread, which is always safe: such a frame goes through
   [route]. *)
let rec sole t m =
  match m with
  | Wire.Batch msgs -> sole_list t nobody msgs
  | _ ->
    let w = target t m in
    if w >= 0 then w else nobody

(* [w] is the worker of the messages so far, [nobody] before the
   first *)
and sole_list t w = function
  | [] -> w
  | m :: rest ->
    let v = sole t m in
    if v < 0 || (w >= 0 && v <> w) then nobody else sole_list t v rest

(* One inbound frame costs at most one enqueue per worker.  A frame
   whose messages all go to one worker (every frame, with one domain)
   is queued as it arrived; the worker's core walks its batches.  Any
   other frame is partitioned: a Batch of K messages would cost K
   pushes (and K worker wake-ups) if forwarded item by item, but costs
   one re-wrapped Batch per worker partitioned here — and the
   receiving core then runs the whole sub-batch under a single cork
   turn. *)
let dispatch t ~src msg =
  let w = sole t msg in
  if w >= 0 then push t.workers.(w) ~src msg no_fn
  else begin
    let buckets = Array.make t.nd [] in
    route t buckets msg;
    for w = 0 to t.nd - 1 do
      match buckets.(w) with
      | [] -> ()
      | [ m ] -> push t.workers.(w) ~src m no_fn
      | ms -> push t.workers.(w) ~src (Wire.Batch (List.rev ms)) no_fn
    done
  end

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
