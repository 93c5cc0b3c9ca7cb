(* Unix-domain socket transport: non-blocking sockets driven by one
   {!Event_loop}.  Every endpoint's (listening node's) accepts, reads,
   handler invocations and timer callbacks run on that loop's thread,
   which is what serializes a node's handlers — no per-node lock on
   the hot path.  Outbound connections write inline from the sending
   thread and fall back to a per-connection pending queue drained on
   writability when the kernel buffer fills (EAGAIN), so a slow peer
   never blocks a sender.

   Sends are lossy by contract (drop rather than stall) and retry once
   on a fresh connection.  Timers carry an incarnation guard: a timer
   captures its node's endpoint at arm time and fires only if that very
   endpoint value (physical equality) is still registered and not
   stopped. *)

type endpoint = {
  node : int;
  lfd : Unix.file_descr;
  handler : src:int -> Wire.msg -> unit;
  stopped : bool Atomic.t;
  mutable lclosed : bool;  (* [lfd] closed; guarded by [t.mu] *)
  mutable rconns : rconn list;  (* guarded by [t.mu] *)
}

(* One accepted inbound connection: a non-blocking fd plus its
   frame-reassembly buffer, the reader that decodes its frames and the
   parse turn's pending messages.  Only the loop thread touches
   [rbuf]/[rlen]/[reader]/[turn]; [rclosed] transitions under [t.mu]. *)
and rconn = {
  rfd : Unix.file_descr;
  rep : endpoint;
  mutable rbuf : Bytes.t;
  mutable rlen : int;
  mutable rclosed : bool;
  reader : Wire.reader;
  turn : turn;
}

(* The messages one parse turn has decoded but not yet delivered, all
   from [pend_src]: [pend_first], then [pend_rev] newest first.  Held
   per connection, so a turn allocates no state of its own, and a turn
   of one frame conses nothing. *)
and turn = {
  mutable pend_first : Wire.msg;
  mutable pend_rev : Wire.msg list;
  mutable pend_n : int;
  mutable pend_src : int;
}

(* Outbound connection.  [wmu] serializes writers and guards the
   frame buffer and the pending-output queue shared with the drain
   callback on the loop.  A frame is encoded into [wbuf], which the
   connection reuses; only bytes that must wait get a [Bytes] of their
   own on [outq]. *)
type conn = {
  fd : Unix.file_descr;
  wmu : Mutex.t;
  mutable wbuf : Bytes.t;
  outq : (Bytes.t * int ref) Queue.t;  (* (frame, bytes already sent) *)
  mutable outq_bytes : int;
  mutable warmed : bool;  (* writability callback armed *)
  mutable dead : bool;
}

(* Counters and histograms interned once at [create]; hot paths touch
   only the resolved handles. *)
type ctrs = {
  frames_sent : Metrics.counter;
  frames_delivered : Metrics.counter;
  frames_dropped : Metrics.counter;
  frames_retried : Metrics.counter;
  frames_oversized : Metrics.counter;
  frames_unencodable : Metrics.counter;
  decode_errors : Metrics.counter;
  conn_opened : Metrics.counter;
  conn_closed : Metrics.counter;
  conn_failed : Metrics.counter;
  conn_stall : Metrics.counter;
  write_queued : Metrics.counter;
  timer_fires : Metrics.counter;
  timers_dropped : Metrics.counter;
  crashes : Metrics.counter;
  handler_service : Metrics.histogram;
}

(* Reusable read-buffer freelist: every inbound connection borrows one
   [chunk]-sized buffer; buffers grown past [chunk] (oversized frames)
   are not returned, so the pool cannot hoard. *)
module Bufpool = struct
  let chunk = 64 * 1024
  let max_free = 64

  type t = { mu : Mutex.t; mutable free : Bytes.t list; mutable nfree : int }

  let create () = { mu = Mutex.create (); free = []; nfree = 0 }

  let take p =
    Mutex.protect p.mu (fun () ->
        match p.free with
        | b :: rest ->
          p.free <- rest;
          p.nfree <- p.nfree - 1;
          Some b
        | [] -> None)
    |> function
    | Some b -> b
    | None -> Bytes.create chunk

  let give p b =
    if Bytes.length b = chunk then
      Mutex.protect p.mu (fun () ->
          if p.nfree < max_free then begin
            p.free <- b :: p.free;
            p.nfree <- p.nfree + 1
          end)
end

type t = {
  dir : string;
  loop : Event_loop.t;
  loop_thread : Thread.t;
  mu : Mutex.t;  (* guards the tables and the [rconns] lists *)
  eps : (int, endpoint) Hashtbl.t;
  conns : (int, conn) Hashtbl.t;  (* outbound, keyed by destination *)
  sndbuf : int option;
  pool : Bufpool.t;
  closed : bool Atomic.t;
  metrics : Metrics.t;
  c : ctrs;
}

let max_frame = Wire.max_frame
let connect_timeout = 1.0

(* Cap on bytes queued behind one stalled connection before further
   frames to it are counted drops: the transport is lossy by contract,
   and unbounded queues would just turn backpressure into memory. *)
let out_cap = 8 * 1024 * 1024

(* Per-readability-callback read budget, so one firehose peer cannot
   starve the other connections sharing the loop. *)
let read_budget = 256 * 1024

let fresh_dir () =
  let base = Filename.get_temp_dir_name () in
  let rec go n =
    let d =
      Filename.concat base
        (Fmt.str "bloomnet-%d-%d" (Unix.getpid ()) (n + Random.bits ()))
    in
    match Unix.mkdir d 0o700 with
    | () -> d
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> go (n + 1)
  in
  go 0

let create ?dir ?sndbuf ?metrics () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let dir =
    match dir with
    | Some d ->
      (try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      d
    | None -> fresh_dir ()
  in
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  let c =
    {
      frames_sent = Metrics.counter metrics "frames_sent";
      frames_delivered = Metrics.counter metrics "frames_delivered";
      frames_dropped = Metrics.counter metrics "frames_dropped";
      frames_retried = Metrics.counter metrics "frames_retried";
      frames_oversized = Metrics.counter metrics "frames_oversized";
      frames_unencodable = Metrics.counter metrics "frames_unencodable";
      decode_errors = Metrics.counter metrics "decode_errors";
      conn_opened = Metrics.counter metrics "conn_opened";
      conn_closed = Metrics.counter metrics "conn_closed";
      conn_failed = Metrics.counter metrics "conn_failed";
      conn_stall = Metrics.counter metrics "conn_stall";
      write_queued = Metrics.counter metrics "write_queued";
      timer_fires = Metrics.counter metrics "timer_fires";
      timers_dropped = Metrics.counter metrics "timers_dropped";
      crashes = Metrics.counter metrics "crashes";
      handler_service = Metrics.histogram metrics "handler_service";
    }
  in
  let loop = Event_loop.create () in
  {
    dir;
    loop;
    loop_thread = Thread.create Event_loop.run loop;
    mu = Mutex.create ();
    eps = Hashtbl.create 8;
    conns = Hashtbl.create 8;
    sndbuf;
    pool = Bufpool.create ();
    closed = Atomic.make false;
    metrics;
    c;
  }

let metrics t = t.metrics
let path t node = Filename.concat t.dir (Fmt.str "n%d.sock" node)

let le32 b off = Int32.to_int (Bytes.get_int32_le b off)

(* ------------------------------------------------------------------ *)
(* Inbound path                                                        *)

let close_rconn t rc =
  let doit =
    Mutex.protect t.mu (fun () ->
        if rc.rclosed then false
        else begin
          rc.rclosed <- true;
          rc.rep.rconns <- List.filter (fun o -> o != rc) rc.rep.rconns;
          true
        end)
  in
  if doit then begin
    Event_loop.remove_fd t.loop rc.rfd;
    (try Unix.close rc.rfd with Unix.Unix_error _ -> ());
    Bufpool.give t.pool rc.rbuf
  end

let deliver t rc ~src msg =
  let ep = rc.rep in
  if not (Atomic.get ep.stopped) then begin
    let t0 = Unix.gettimeofday () in
    ep.handler ~src msg;
    Metrics.observe t.c.handler_service (Unix.gettimeofday () -. t0)
  end

(* Hand the parse turn's pending messages to the handler: one message
   as itself, several as one [Batch] in arrival order. *)
let flush_turn t rc =
  let tu = rc.turn in
  let n = tu.pend_n and first = tu.pend_first and rest = tu.pend_rev in
  tu.pend_first <- Wire.Bye;
  tu.pend_rev <- [];
  tu.pend_n <- 0;
  if n = 1 then deliver t rc ~src:tu.pend_src first
  else if n > 1 then
    deliver t rc ~src:tu.pend_src (Wire.Batch (first :: List.rev rest))

(* Peel every complete frame out of the reassembly buffer; each body is
   decoded in place through the connection's reader, never copied (a
   decoded message shares no storage with the buffer, so the buffer may
   be compacted or reused at once).
   A partial frame that cannot fit in the remaining capacity compacts
   (and if needed grows) the buffer so the read loop always has room
   to make progress.

   Consecutive frames from the same source that surface in one parse
   turn are handed to the handler as a single [Wire.Batch]: one
   readiness event then costs one handler turn, and a receiver that
   coalesces its replies per turn (replicas, corked server cores)
   answers a whole read burst with one frame per destination instead
   of one per inbound frame.  With several worker domains multiplying
   the quorum frame count this is what keeps the syscall budget flat. *)
let parse_frames t rc =
  let tu = rc.turn in
  let off = ref 0 in
  let continue = ref true in
  while !continue && not rc.rclosed do
    let avail = rc.rlen - !off in
    if avail < Wire.header_size then continue := false
    else begin
      let blen = le32 rc.rbuf !off in
      if blen < 0 || blen > max_frame then begin
        (* corrupt length: the stream can no longer be trusted *)
        Metrics.incr t.c.decode_errors;
        flush_turn t rc;
        close_rconn t rc
      end
      else if avail < Wire.header_size + blen then begin
        let needed = Wire.header_size + blen in
        if Bytes.length rc.rbuf - !off < needed then begin
          Bytes.blit rc.rbuf !off rc.rbuf 0 avail;
          rc.rlen <- avail;
          off := 0;
          if Bytes.length rc.rbuf < needed then begin
            let nb = Bytes.create needed in
            Bytes.blit rc.rbuf 0 nb 0 rc.rlen;
            rc.rbuf <- nb
          end
        end;
        continue := false
      end
      else begin
        let src = le32 rc.rbuf (!off + 4) in
        let body_off = !off + Wire.header_size in
        off := body_off + blen;
        match Wire.read rc.reader rc.rbuf ~off:body_off ~len:blen with
        | exception Wire.Malformed _ ->
          Metrics.incr t.c.decode_errors;
          flush_turn t rc;
          close_rconn t rc
        | msg ->
          Metrics.incr t.c.frames_delivered;
          if src <> tu.pend_src then flush_turn t rc;
          tu.pend_src <- src;
          if tu.pend_n = 0 then tu.pend_first <- msg
          else tu.pend_rev <- msg :: tu.pend_rev;
          tu.pend_n <- tu.pend_n + 1;
          (* keep turn batches well under the wire batch cap, and the
             latency of the first op in a burst bounded *)
          if tu.pend_n >= 1024 then flush_turn t rc
      end
    end
  done;
  flush_turn t rc;
  if (not rc.rclosed) && !off > 0 then begin
    let rest = rc.rlen - !off in
    if rest > 0 then Bytes.blit rc.rbuf !off rc.rbuf 0 rest;
    rc.rlen <- rest
  end

(* Read and parse until a read comes back short or the budget is
   spent.  A read that returns less than the room it offered found the
   socket empty, so the turn ends there instead of paying one more read
   that fails with EAGAIN: [select] is level-triggered, so bytes that
   arrive later mark the fd readable on the next turn. *)
let on_readable t rc () =
  let budget = ref read_budget in
  let continue = ref true in
  while !continue && not rc.rclosed do
    if rc.rlen = Bytes.length rc.rbuf then begin
      (* full buffer with no complete frame: mid-frame — grow *)
      let nb = Bytes.create (2 * Bytes.length rc.rbuf) in
      Bytes.blit rc.rbuf 0 nb 0 rc.rlen;
      rc.rbuf <- nb
    end;
    let room = Bytes.length rc.rbuf - rc.rlen in
    match Unix.read rc.rfd rc.rbuf rc.rlen room with
    | 0 ->
      close_rconn t rc;
      continue := false
    | n ->
      rc.rlen <- rc.rlen + n;
      budget := !budget - n;
      parse_frames t rc;
      if n < room || !budget <= 0 then continue := false
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception (Unix.Unix_error _ | Sys_error _) ->
      close_rconn t rc;
      continue := false
  done

let on_acceptable t ep () =
  let continue = ref true in
  while !continue do
    match Unix.accept ep.lfd with
    | cfd, _ ->
      Unix.set_nonblock cfd;
      let rc =
        { rfd = cfd; rep = ep; rbuf = Bufpool.take t.pool; rlen = 0;
          rclosed = false; reader = Wire.reader ();
          turn =
            { pend_first = Wire.Bye; pend_rev = []; pend_n = 0;
              pend_src = min_int } }
      in
      let stopped =
        Mutex.protect t.mu (fun () ->
            if Atomic.get ep.stopped then true
            else begin
              ep.rconns <- rc :: ep.rconns;
              false
            end)
      in
      if stopped then (try Unix.close cfd with Unix.Unix_error _ -> ())
      else Event_loop.add_read t.loop cfd (fun () -> on_readable t rc ())
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> continue := false
  done

(* ------------------------------------------------------------------ *)
(* Listen                                                              *)

let listen t node handler =
  let p = path t node in
  (try Unix.unlink p with Unix.Unix_error _ -> ());
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX p);
  Unix.listen lfd 64;
  Unix.set_nonblock lfd;
  let ep =
    { node; lfd; handler; stopped = Atomic.make false; lclosed = false;
      rconns = [] }
  in
  Mutex.protect t.mu (fun () -> Hashtbl.replace t.eps node ep);
  Event_loop.add_read t.loop lfd (on_acceptable t ep)

(* ------------------------------------------------------------------ *)
(* Outbound connections                                                *)

let drop_conn t dst =
  match
    Mutex.protect t.mu (fun () ->
        match Hashtbl.find_opt t.conns dst with
        | Some c ->
          Hashtbl.remove t.conns dst;
          Metrics.incr t.c.conn_closed;
          Some c
        | None -> None)
  with
  | None -> ()
  | Some c ->
    Mutex.protect c.wmu (fun () -> c.dead <- true);
    Event_loop.remove_fd t.loop c.fd;
    (try Unix.close c.fd with Unix.Unix_error _ -> ())

(* Connect without ever blocking the caller for long: the socket is
   non-blocking, and a connection that cannot complete within
   [connect_timeout] (or at all — on Unix-domain sockets a full
   listener backlog surfaces as EAGAIN) is abandoned and counted as a
   [conn_stall].  Crucially this runs with NO lock held. *)
let try_connect t dst =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* test hook: a tiny send buffer forces the short-write/EAGAIN path
     that production only hits under real congestion *)
  (match t.sndbuf with
   | Some n -> (try Unix.setsockopt_int fd Unix.SO_SNDBUF n
                with Unix.Unix_error _ -> ())
   | None -> ());
  let close_quietly () = try Unix.close fd with Unix.Unix_error _ -> () in
  match
    Unix.set_nonblock fd;
    Unix.connect fd (Unix.ADDR_UNIX (path t dst))
  with
  | () -> Some fd
  | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) ->
    (* not the documented Unix-domain behaviour, but cheap to handle:
       wait (bounded) for the connect to resolve *)
    (match Unix.select [] [ fd ] [] connect_timeout with
     | _, [ _ ], _ ->
       (match Unix.getsockopt_error fd with
        | None -> Some fd
        | Some _ ->
          close_quietly ();
          Metrics.incr t.c.conn_failed;
          None)
     | _ ->
       close_quietly ();
       Metrics.incr t.c.conn_stall;
       None
     | exception (Unix.Unix_error _ | Sys_error _) ->
       close_quietly ();
       Metrics.incr t.c.conn_failed;
       None)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    (* the peer exists but is not accepting (backlog full): dropping
       the frame beats stalling every sender behind this destination *)
    close_quietly ();
    Metrics.incr t.c.conn_stall;
    None
  | exception (Unix.Unix_error _ | Sys_error _) ->
    close_quietly ();
    Metrics.incr t.c.conn_failed;
    None

(* The connection to [dst], made if there is none.  The lookup runs on
   every send, so it allocates nothing: the table is locked directly
   rather than through [Mutex.protect], whose closure would cost every
   frame ([Hashtbl.find] on an int key raises only [Not_found]), and
   the result is not wrapped in an option.
   @raise Not_found if [dst] cannot be reached. *)
let get_conn t dst =
  Mutex.lock t.mu;
  match Hashtbl.find t.conns dst with
  | c ->
    Mutex.unlock t.mu;
    c
  | exception Not_found ->
    Mutex.unlock t.mu;
    (* connect OUTSIDE the table lock: a slow or unreachable peer must
       not stall sends to every other destination (the lock is only
       retaken to install the result, tolerating a racing winner) *)
    (match try_connect t dst with
     | None -> raise Not_found
     | Some fd ->
       Mutex.protect t.mu (fun () ->
           match Hashtbl.find_opt t.conns dst with
           | Some winner ->
             (* another sender connected while we did; keep theirs *)
             (try Unix.close fd with Unix.Unix_error _ -> ());
             winner
           | None ->
             let c =
               { fd; wmu = Mutex.create (); wbuf = Bytes.empty;
                 outq = Queue.create ();
                 outq_bytes = 0; warmed = false; dead = false }
             in
             Hashtbl.replace t.conns dst c;
             Metrics.incr t.c.conn_opened;
             c))

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)

(* Non-blocking write attempt: bytes written, or [-1] on EAGAIN. *)
let rec write_nb fd b off len =
  match Unix.write fd b off len with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_nb fd b off len
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> -1

(* Drain the pending queue on writability (loop thread, [wmu] held).
   Raises on a real write error — the caller tears the conn down. *)
let rec drain_locked t c =
  match Queue.peek_opt c.outq with
  | None ->
    if c.warmed then begin
      Event_loop.set_write t.loop c.fd None;
      c.warmed <- false
    end
  | Some (b, off) ->
    let len = Bytes.length b - !off in
    (match write_nb c.fd b !off len with
     | -1 -> ()  (* still blocked: stay armed *)
     | n when n = len ->
       ignore (Queue.pop c.outq);
       c.outq_bytes <- c.outq_bytes - n;
       drain_locked t c
     | n ->
       off := !off + n;
       c.outq_bytes <- c.outq_bytes - n)

let rec drain_cb t dst c () =
  let failed =
    Mutex.protect c.wmu (fun () ->
        if c.dead then false
        else
          try
            drain_locked t c;
            false
          with Unix.Unix_error _ | Sys_error _ ->
            c.dead <- true;
            true)
  in
  if failed then begin
    (* forget the route (next send reconnects) and release the fd —
       we are on the loop thread, so closing here is safe *)
    Mutex.protect t.mu (fun () ->
        match Hashtbl.find_opt t.conns dst with
        | Some cur when cur == c ->
          Hashtbl.remove t.conns dst;
          Metrics.incr t.c.conn_closed
        | _ -> ());
    Event_loop.remove_fd t.loop c.fd;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

and arm_write t dst c =
  (* [wmu] held *)
  if not c.warmed then begin
    c.warmed <- true;
    Event_loop.set_write t.loop c.fd (Some (drain_cb t dst c))
  end

(* Write [b.(off) .. b.(len - 1)] ([wmu] held).  On EAGAIN the unsent
   rest is copied onto the queue, as [b] is the connection's reused
   buffer, and the writability callback takes over.  Raises on a real
   write error. *)
let rec write_from t dst c b off len =
  if off >= len then `Ok
  else
    match write_nb c.fd b off (len - off) with
    | -1 ->
      let rest = len - off in
      Queue.add (Bytes.sub b off rest, ref 0) c.outq;
      c.outq_bytes <- c.outq_bytes + rest;
      Metrics.incr t.c.write_queued;
      arm_write t dst c;
      `Ok
    | n -> write_from t dst c b (off + n) len

(* The smallest frame buffer a connection allocates; one grown past
   [Bufpool.chunk] is dropped once its frame is written, so one big
   frame does not stay resident. *)
let wbuf_min = 4096

(* One frame out, encoded under [wmu] ([size] is its body's
   [Wire.encoded_size], already checked against [max_frame]).  With
   nothing queued it is encoded into the connection's buffer and
   written inline; a short write queues a copy of the rest.  Behind
   queued bytes it is encoded into a [Bytes] of its own and queued.
   Locked directly, not through [Mutex.protect], so that a send
   allocates no closure: every path out of the body unlocks. *)
let conn_write t dst c ~src ~size msg =
  let len = Wire.header_size + size in
  Mutex.lock c.wmu;
  match
    if c.dead then `Fail
    else if c.outq_bytes > 0 then
      if c.outq_bytes + len > out_cap then `Backpressure
      else begin
        let b = Bytes.create len in
        match Wire.write_frame b ~pos:0 ~src ~size msg with
        | exception Invalid_argument _ -> `Unencodable
        | () ->
          Queue.add (b, ref 0) c.outq;
          c.outq_bytes <- c.outq_bytes + len;
          `Ok
      end
    else begin
      if Bytes.length c.wbuf < len then
        c.wbuf <-
          Bytes.create (max len (max wbuf_min (2 * Bytes.length c.wbuf)));
      match Wire.write_frame c.wbuf ~pos:0 ~src ~size msg with
      | exception Invalid_argument _ -> `Unencodable
      | () ->
        let r =
          try write_from t dst c c.wbuf 0 len
          with Unix.Unix_error _ | Sys_error _ ->
            c.dead <- true;
            `Fail
        in
        if Bytes.length c.wbuf > Bufpool.chunk then c.wbuf <- Bytes.empty;
        r
    end
  with
  | r ->
    Mutex.unlock c.wmu;
    r
  | exception e ->
    Mutex.unlock c.wmu;
    raise e

(* A frame that cannot be framed (a body over [max_frame], or a field
   outside its encoding range) is counted apart and never sent; any
   other frame is sent, and dropped if it cannot be written. *)
let send t ~src ~dst msg =
  let size = Wire.encoded_size msg in
  let r =
    if size > max_frame then `Oversized
    else
      match get_conn t dst with
      | exception Not_found -> `No_conn  (* dead or absent peer: lossy *)
      | c ->
        (match conn_write t dst c ~src ~size msg with
         | `Fail ->
           (* the peer may have restarted behind our cached connection
              (e.g. a client re-run with the same processor id): retry
              once on a fresh connection before giving the frame up *)
           drop_conn t dst;
           Metrics.incr t.c.frames_retried;
           (match get_conn t dst with
            | exception Not_found -> `No_conn
            | c ->
              let r = conn_write t dst c ~src ~size msg in
              if r = `Fail then drop_conn t dst;
              r)
         | r -> r)
  in
  match r with
  | `Ok -> Metrics.incr t.c.frames_sent
  | `Oversized -> Metrics.incr t.c.frames_oversized
  | `Unencodable -> Metrics.incr t.c.frames_unencodable
  | `No_conn | `Backpressure | `Fail ->
    Metrics.incr t.c.frames_sent;
    Metrics.incr t.c.frames_dropped

(* ------------------------------------------------------------------ *)
(* Timers                                                              *)

(* The incarnation guard (the counterpart of
   Sim_run's [incarnations.(r) == rep] check): the endpoint value
   captured when the timer was armed must still be the registered one,
   and alive, at fire time — a node that was unlistened, crashed, or
   replaced by a re-listen between arm and fire can never observe the
   stale callback.  [armed = None] (the node was not registered at arm
   time) always drops: firing [f] would race it against a later
   listener's handlers. *)
(* Locked directly, like [get_conn]: timers arm and fire per op. *)
let find_ep t node =
  Mutex.lock t.mu;
  let ep = Hashtbl.find_opt t.eps node in
  Mutex.unlock t.mu;
  ep

let timer_fire t ~node ~armed f =
  match armed with
  | None -> Metrics.incr t.c.timers_dropped
  | Some aep ->
    let live =
      match find_ep t node with
      | Some cur -> cur == aep && not (Atomic.get aep.stopped)
      | None -> false
    in
    if live then begin
      Metrics.incr t.c.timer_fires;
      f ()
    end
    else Metrics.incr t.c.timers_dropped

let set_timer t ~node ~delay f =
  let armed = find_ep t node in
  (* scheduled on the loop: the callback is serialized with the node's
     handlers structurally *)
  Event_loop.after t.loop delay (fun () -> timer_fire t ~node ~armed f)

let transport t =
  {
    Transport.send = (fun ~src ~dst msg -> send t ~src ~dst msg);
    set_timer = (fun ~node ~delay f -> set_timer t ~node ~delay f);
    now = Unix.gettimeofday;
  }

(* ------------------------------------------------------------------ *)
(* Teardown                                                            *)

let stop_endpoint t ep =
  Atomic.set ep.stopped true;
  let close_lfd =
    Mutex.protect t.mu (fun () ->
        if ep.lclosed then false
        else begin
          ep.lclosed <- true;
          true
        end)
  in
  if close_lfd then begin
    Event_loop.remove_fd t.loop ep.lfd;
    try Unix.close ep.lfd with Unix.Unix_error _ -> ()
  end;
  let rcs = Mutex.protect t.mu (fun () -> ep.rconns) in
  List.iter (fun rc -> close_rconn t rc) rcs

let unlisten t node =
  (match find_ep t node with
   | Some ep ->
     Atomic.set ep.stopped true;
     Mutex.protect t.mu (fun () -> Hashtbl.remove t.eps node);
     stop_endpoint t ep
   | None -> ());
  (* drop our cached route so a later listener on the same node gets a
     fresh connection instead of frames sunk into the dead endpoint *)
  drop_conn t node;
  try Unix.unlink (path t node) with Unix.Unix_error _ -> ()

let crash t node =
  (match find_ep t node with
   | Some ep ->
     Metrics.incr t.c.crashes;
     stop_endpoint t ep
   | None -> ());
  drop_conn t node

let shutdown t =
  Atomic.set t.closed true;
  let eps =
    Mutex.protect t.mu (fun () -> Hashtbl.fold (fun _ e acc -> e :: acc) t.eps [])
  in
  List.iter (fun ep -> Atomic.set ep.stopped true) eps;
  (* stop the loop first so no callback races the closes below *)
  Event_loop.stop t.loop;
  Thread.join t.loop_thread;
  List.iter
    (fun ep ->
      if not ep.lclosed then begin
        ep.lclosed <- true;
        try Unix.close ep.lfd with Unix.Unix_error _ -> ()
      end;
      List.iter
        (fun rc ->
          if not rc.rclosed then begin
            rc.rclosed <- true;
            try Unix.close rc.rfd with Unix.Unix_error _ -> ()
          end)
        ep.rconns)
    eps;
  Mutex.protect t.mu (fun () ->
      Hashtbl.iter
        (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
        t.conns;
      Hashtbl.reset t.conns);
  List.iter
    (fun ep -> try Unix.unlink (path t ep.node) with Unix.Unix_error _ -> ())
    eps
