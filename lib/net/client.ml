type t = {
  net : Socket_net.t;
  tr : Transport.t;
  me : Transport.node;
  server : Transport.node;
  proc : int;
  mu : Mutex.t;
  smu : Mutex.t;  (* send order: held across detach + send, never by the
                     reply handler *)
  cond : Condition.t;
  replies : (int, Wire.msg) Hashtbl.t;  (* seq or rid -> its reply *)
  sent_at : (int, float) Hashtbl.t;  (* seq -> send instant, for RTT *)
  h_rtt : Metrics.histogram;
  c_batches : Metrics.counter;
  mutable next_seq : int;
  mutable next_rid : int;
      (* control ids count down from -1: they never meet an op's seq,
         and they leave no gap in the seqs a plain [Server] admits
         strictly in order *)
  mutable epoch : int;  (* latest configuration epoch heard from acks *)
  batch_max : int;
  flush_every : float;
  mutable pending_rev : Wire.msg list;  (* queued Req frames, newest first *)
  mutable npending : int;
  mutable closed : bool;
  mutable flusher : Thread.t option;
}

(* Callers hold t.mu.  Detach the queued frames as one wire message. *)
let take_pending_locked t =
  match t.pending_rev with
  | [] -> None
  | [ m ] ->
    t.pending_rev <- [];
    t.npending <- 0;
    Some m
  | ms ->
    t.pending_rev <- [];
    t.npending <- 0;
    Metrics.incr t.c_batches;
    Some (Wire.Batch (List.rev ms))

(* Detach and send as one step under [smu], so batches reach the wire
   in the order they were detached: a presequenced server core drops a
   sequence number lower than one it has already admitted.  The send
   itself happens outside [mu], so the reply handler (which takes only
   [mu]) can never wedge behind a full socket buffer.  Both locks are
   taken directly, not through [Mutex.protect], so a flush allocates
   no closure; every exit unlocks. *)
let send_pending t take =
  Mutex.lock t.smu;
  Mutex.lock t.mu;
  let msg = take t in
  Mutex.unlock t.mu;
  match msg with
  | None -> Mutex.unlock t.smu
  | Some msg ->
    (match t.tr.Transport.send ~src:t.me ~dst:t.server msg with
     | () -> Mutex.unlock t.smu
     | exception e ->
       Mutex.unlock t.smu;
       raise e)

let flush t = send_pending t take_pending_locked

let connect ?metrics ?(batch_max = 32) ?(flush_every = 0.002) ~net ~server
    ~proc () =
  let metrics =
    match metrics with Some m -> m | None -> Socket_net.metrics net
  in
  let me = Transport.client proc in
  let mu = Mutex.create () in
  let cond = Condition.create () in
  let replies = Hashtbl.create 32 in
  let sent_at = Hashtbl.create 32 in
  let h_rtt = Metrics.histogram metrics "client_rtt" in
  let rec handler ~src:_ msg =
    match msg with
    | Wire.Resp { seq = id; _ }
    | Wire.Nack { seq = id }
    | Wire.Resp_snap { seq = id; _ }
    | Wire.Stats_reply { rid = id; _ }
    | Wire.Reconfig_ack { rid = id; _ }
    | Wire.Epoch_reply { rid = id; _ } ->
      Mutex.lock mu;
      (match Hashtbl.find sent_at id with
       | t0 ->
         Hashtbl.remove sent_at id;
         Metrics.observe h_rtt (Unix.gettimeofday () -. t0)
       | exception Not_found -> ());
      Hashtbl.replace replies id msg;
      Mutex.unlock mu;
      Condition.broadcast cond
    | Wire.Batch msgs -> List.iter (handler ~src:0) msgs
    | _ -> ()
  in
  Socket_net.listen net me handler;
  let tr = Socket_net.transport net in
  tr.Transport.send ~src:me ~dst:server (Wire.Hello { proc });
  let t =
    {
      net;
      tr;
      me;
      server;
      proc;
      mu;
      smu = Mutex.create ();
      cond;
      replies;
      sent_at;
      h_rtt;
      c_batches = Metrics.counter metrics "client_batches";
      next_seq = 0;
      next_rid = -1;
      epoch = 0;
      batch_max = max 1 (min batch_max Wire.max_batch);
      flush_every;
      pending_rev = [];
      npending = 0;
      closed = false;
      flusher = None;
    }
  in
  (* deadline flusher: bounds how long a lone queued op can sit waiting
     for enough company to fill a batch *)
  if flush_every > 0.0 then
    t.flusher <-
      Some
        (Thread.create
           (fun () ->
             while not t.closed do
               Thread.delay t.flush_every;
               if not t.closed then try flush t with _ -> ()
             done)
           ());
  t

(* Queue an operation; ship the batch eagerly once it is full. *)
let req t op =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Mutex.lock t.mu;
  if t.closed then begin
    (* fail deterministically rather than queue into a session whose
       final batch is already gone *)
    Mutex.unlock t.mu;
    invalid_arg "Client.req: client is closed"
  end;
  Hashtbl.replace t.sent_at seq (Unix.gettimeofday ());
  t.pending_rev <- Wire.Req { seq; op } :: t.pending_rev;
  t.npending <- t.npending + 1;
  let full = t.npending >= t.batch_max in
  Mutex.unlock t.mu;
  if full then flush t;
  seq

(* A reply that already arrived costs no flush: ops queued by a
   pipelining caller keep accumulating into one batch frame instead of
   trickling out one Req per frame.  Only when we actually have to block
   must everything queued (including [id]'s own request) be on the wire
   first. *)
let await t id =
  Mutex.lock t.mu;
  match Hashtbl.find t.replies id with
  | m ->
    Hashtbl.remove t.replies id;
    Mutex.unlock t.mu;
    m
  | exception Not_found ->
    Mutex.unlock t.mu;
    flush t;
    Mutex.lock t.mu;
    while not (Hashtbl.mem t.replies id || t.closed) do
      Condition.wait t.cond t.mu
    done;
    (match Hashtbl.find t.replies id with
     | m ->
       Hashtbl.remove t.replies id;
       Mutex.unlock t.mu;
       m
     | exception Not_found ->
       (* close sealed the session and tore the reply endpoint down
          while we were blocked: the answer can never arrive, so fail
          now instead of waiting forever *)
       Mutex.unlock t.mu;
       invalid_arg "Client.await: closed with the request in flight")

(* A write or transaction is acknowledged by an empty [Resp]; the
   server refuses an op with a [Nack]. *)
let answer what = function
  | Wire.Nack _ -> invalid_arg (what ^ ": rejected")
  | _ -> invalid_arg (what ^ ": unexpected reply")

let ack what = function
  | Wire.Resp { result = None; _ } -> ()
  | m -> answer what m

let read_k t ~key =
  match await t (req t (Wire.Read_k { key })) with
  | Wire.Resp { result = Some v; _ } -> v
  | m -> answer "Client.read_k" m

let write_k t ~key v =
  ack "Client.write_k" (await t (req t (Wire.Write_k { key; value = v })))

(* Structural validity is checked here with the server's own
   predicate, so an invalid op fails before it is sent. *)
let txn_k t writes =
  if not (Txn.valid_keys (List.map fst writes)) then
    invalid_arg "Client.txn_k: empty, duplicate, negative or oversize keys";
  ack "Client.txn_k" (await t (req t (Wire.Txn_k { writes })))

let snap_k t keys =
  if not (Txn.valid_keys keys) then
    invalid_arg "Client.snap_k: empty, duplicate, negative or oversize keys";
  match await t (req t (Wire.Snap_k { keys })) with
  | Wire.Resp_snap { values; _ } -> values
  | m -> answer "Client.snap_k" m

let post t op = ignore (req t op)

(* A control request bypasses the batcher: everything queued goes out
   first, then the request under a fresh rid, and the caller blocks for
   its answer. *)
let control t request =
  if Mutex.protect t.mu (fun () -> t.closed) then
    invalid_arg "Client: control request on a closed client";
  flush t;
  let rid = t.next_rid in
  t.next_rid <- rid - 1;
  t.tr.Transport.send ~src:t.me ~dst:t.server (request rid);
  await t rid

let stats t =
  match control t (fun rid -> Wire.Stats_req { rid }) with
  | Wire.Stats_reply { stats; _ } -> stats
  | _ -> invalid_arg "Client.stats: unexpected reply"

let epoch t =
  match control t (fun rid -> Wire.Epoch_req { rid }) with
  | Wire.Epoch_reply { epoch; _ } ->
    t.epoch <- max t.epoch epoch;
    t.epoch
  | _ -> invalid_arg "Client.epoch: unexpected reply"

let reshard ?(attempts = 8) t ~key ~to_shard =
  if key < 0 then invalid_arg "Client.reshard: negative key";
  if to_shard < 0 then invalid_arg "Client.reshard: negative shard";
  let rec go n believed =
    match
      control t (fun rid ->
          Wire.Reconfig { rid; key; to_shard; epoch = believed })
    with
    | Wire.Reconfig_ack { epoch = e; ok; _ } ->
      t.epoch <- max t.epoch e;
      if ok then t.epoch
      else if n > 1 then begin
        (* a nack echoing OUR epoch means the coordinator was busy (or
           the request invalid), not that we were stale: back off a beat
           so an in-flight migration can cut over before the retry *)
        if e = believed then Thread.delay 0.005;
        go (n - 1) (max e believed)
      end
      else invalid_arg "Client.reshard: migration kept being refused"
    | _ -> invalid_arg "Client.reshard: unexpected reply"
  in
  go (max 1 attempts) t.epoch

(* Pipelined keyed execution with a bounded number of outstanding ops;
   the batcher under [req] coalesces whatever the window admits. *)
let run_keyed ?(window = 8) t script =
  let ops =
    Array.of_list
      (List.map
         (function
           | key, Histories.Event.Read -> Wire.Read_k { key }
           | key, Histories.Event.Write v -> Wire.Write_k { key; value = v })
         script)
  in
  let n = Array.length ops in
  let seqs = Array.make n (-1) in
  let initial = min window n in
  for i = 0 to initial - 1 do
    seqs.(i) <- req t ops.(i)
  done;
  let results = ref [] in
  for i = 0 to n - 1 do
    (match await t seqs.(i) with
     | Wire.Resp { result; _ } -> results := result :: !results
     | m -> answer "Client.run_keyed" m);
    (* completion of the i-th slides the window forward by one *)
    let j = i + initial in
    if j < n then seqs.(j) <- req t ops.(j)
  done;
  List.rev !results

let close t =
  (* closing and detaching the last partial batch must be one atomic
     step: a separate flush-then-close leaves a window in which the
     deadline flusher owns the batch (or a late req refills the queue)
     while close races ahead — and a Bye overtaking that batch on the
     wire makes the server drop the ops of a then-dead session,
     silently.  After this section no new op can be queued (req fails
     closed) and whatever was pending is ours to send. *)
  send_pending t (fun t ->
      t.closed <- true;
      (* wake every blocked await: their replies will never arrive
         once the endpoint below is gone, and they fail closed *)
      Condition.broadcast t.cond;
      take_pending_locked t);
  (* every earlier batch went out under [smu] before ours; joining the
     flusher just stops its thread *)
  (match t.flusher with None -> () | Some th -> Thread.join th);
  t.tr.Transport.send ~src:t.me ~dst:t.server Wire.Bye;
  (* wind down our endpoint so a later connect with the same processor
     id gets a fresh one (and peers a fresh route to it) *)
  Socket_net.unlisten t.net t.me
