(* A select-backed readiness loop with an epoll-shaped interface.
   See the .mli for the contract; the invariants that matter here:

   - every callback runs on the loop thread (the thread inside [run]);
   - the tables are guarded by [mu] because registration may come from
     any thread, but callbacks are looked up fresh under [mu] right
     before each dispatch, so a callback removed (or replaced) by an
     earlier callback of the same iteration never fires stale;
   - the wakeup pipe makes every cross-thread mutation visible to a
     sleeping select without waiting out its timeout;
   - a turn allocates nothing the loop keeps: the fd lists handed to
     [select] are cached and rebuilt only after the interest set
     changed ([dirty]), and timers,
     dispatch and the wake pipe run through top-level functions and
     preallocated buffers.  What is left per turn is [select]'s own
     result and the float it sleeps for.  [mu] is locked directly, not
     through [Mutex.protect], whose closure would cost every call. *)

type fd_interest = {
  mutable on_read : (unit -> unit) option;
  mutable on_write : (unit -> unit) option;
}

(* Binary min-heap of timers keyed by (deadline, seq); [seq] breaks
   ties so equal deadlines fire in arming order. *)
module Theap = struct
  type entry = { deadline : float; seq : int; f : unit -> unit }

  type t = { mutable a : entry array; mutable n : int }

  let dummy = { deadline = 0.0; seq = 0; f = ignore }
  let create () = { a = Array.make 16 dummy; n = 0 }

  let lt x y =
    x.deadline < y.deadline || (x.deadline = y.deadline && x.seq < y.seq)

  let swap h i j =
    let tmp = h.a.(i) in
    h.a.(i) <- h.a.(j);
    h.a.(j) <- tmp

  let push h e =
    if h.n = Array.length h.a then begin
      let a' = Array.make (2 * h.n) dummy in
      Array.blit h.a 0 a' 0 h.n;
      h.a <- a'
    end;
    h.a.(h.n) <- e;
    h.n <- h.n + 1;
    let i = ref (h.n - 1) in
    while !i > 0 && lt h.a.(!i) h.a.((!i - 1) / 2) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  (* The earliest deadline; the heap must be non-empty. *)
  let earliest h = h.a.(0).deadline

  let due h now = h.n > 0 && earliest h <= now

  (* The earliest timer, removed; the heap must be non-empty. *)
  let pop h =
    let top = h.a.(0) in
    h.n <- h.n - 1;
    h.a.(0) <- h.a.(h.n);
    h.a.(h.n) <- dummy;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < h.n && lt h.a.(l) h.a.(!m) then m := l;
      if r < h.n && lt h.a.(r) h.a.(!m) then m := r;
      if !m = !i then continue := false
      else begin
        swap h !i !m;
        i := !m
      end
    done;
    top
end

type t = {
  mu : Mutex.t;
  fds : (Unix.file_descr, fd_interest) Hashtbl.t;
  timers : Theap.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  wake_byte : Bytes.t;  (* the one byte every [wake] writes *)
  drain_buf : Bytes.t;  (* loop thread only: [drain_wake]'s read buffer *)
  mutable wake_armed : bool;  (* a wake byte is already in the pipe *)
  mutable dirty : bool;  (* [fds] changed since [reads]/[writes] were built *)
  mutable reads : Unix.file_descr list;  (* cached: [wake_r] + read interest *)
  mutable writes : Unix.file_descr list;  (* cached: write interest *)
  stopped : bool Atomic.t;
  mutable loop_tid : int;  (* Thread.id of the thread inside [run], or -1 *)
  mutable tseq : int;
}

(* Cap on one sleep so a lost wakeup can only ever delay, not hang. *)
let max_sleep = 0.1

let create () =
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  {
    mu = Mutex.create ();
    fds = Hashtbl.create 16;
    timers = Theap.create ();
    wake_r;
    wake_w;
    wake_byte = Bytes.make 1 '!';
    drain_buf = Bytes.create 64;
    wake_armed = false;
    dirty = true;
    reads = [];
    writes = [];
    stopped = Atomic.make false;
    loop_tid = -1;
    tseq = 0;
  }

let in_loop t = t.loop_tid = Thread.id (Thread.self ())

(* One byte in the pipe is enough to interrupt any number of pending
   selects; [wake_armed] keeps redundant writers off the syscall. *)
let wake t =
  (* from the loop thread itself no wake is needed: the next iteration
     recomputes the interest set and timers before sleeping *)
  if not (in_loop t) then begin
    Mutex.lock t.mu;
    let arm = not t.wake_armed in
    t.wake_armed <- true;
    Mutex.unlock t.mu;
    if arm then
      try ignore (Unix.write t.wake_w t.wake_byte 0 1)
      with
      | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE), _, _)
      -> ()
  end

let rec drain_pipe t =
  match Unix.read t.wake_r t.drain_buf 0 64 with
  | 64 -> drain_pipe t
  | _ -> ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain_pipe t

let drain_wake t =
  drain_pipe t;
  Mutex.lock t.mu;
  t.wake_armed <- false;
  Mutex.unlock t.mu

let stop t =
  Atomic.set t.stopped true;
  wake t

(* Callers hold [mu]. *)
let interest_of t fd =
  match Hashtbl.find t.fds fd with
  | i -> i
  | exception Not_found ->
    let i = { on_read = None; on_write = None } in
    Hashtbl.replace t.fds fd i;
    i

let add_read t fd cb =
  Mutex.lock t.mu;
  (interest_of t fd).on_read <- Some cb;
  t.dirty <- true;
  Mutex.unlock t.mu;
  wake t

let set_write t fd cb =
  Mutex.lock t.mu;
  (match cb with
   | None when not (Hashtbl.mem t.fds fd) -> ()  (* disarming an unknown fd *)
   | _ ->
     (interest_of t fd).on_write <- cb;
     t.dirty <- true);
  Mutex.unlock t.mu;
  wake t

let remove_fd t fd =
  Mutex.lock t.mu;
  Hashtbl.remove t.fds fd;
  t.dirty <- true;
  Mutex.unlock t.mu;
  wake t

let after t delay f =
  if delay < 0.0 then invalid_arg "Event_loop.after: negative delay";
  let deadline = Unix.gettimeofday () +. delay in
  Mutex.lock t.mu;
  let seq = t.tseq in
  t.tseq <- seq + 1;
  Theap.push t.timers { deadline; seq; f };
  Mutex.unlock t.mu;
  wake t

let guard f = try f () with _ -> ()

(* A closed-but-still-registered fd (a layering bug upstream) makes
   select raise EBADF; pruning the dead entries beats spinning. *)
let prune_bad t =
  Mutex.lock t.mu;
  let bad =
    Hashtbl.fold
      (fun fd _ acc ->
        match Unix.fstat fd with
        | _ -> acc
        | exception Unix.Unix_error _ -> fd :: acc)
      t.fds []
  in
  Mutex.unlock t.mu;
  List.iter (fun fd -> remove_fd t fd) bad

(* Callers hold [mu].  Runs only after the interest set changed, so
   its lists are the only allocation proportional to the fd count. *)
let rebuild_locked t =
  let r = ref [ t.wake_r ] and w = ref [] in
  Hashtbl.iter
    (fun fd i ->
      if i.on_read <> None then r := fd :: !r;
      if i.on_write <> None then w := fd :: !w)
    t.fds;
  t.reads <- !r;
  t.writes <- !w;
  t.dirty <- false

(* Pop and fire every timer due at [now], one at a time under [mu], so
   a timer armed by a firing one is seen too if it is already due. *)
let rec fire_due t now =
  Mutex.lock t.mu;
  if Theap.due t.timers now then begin
    let e = Theap.pop t.timers in
    Mutex.unlock t.mu;
    guard e.Theap.f;
    fire_due t now
  end
  else Mutex.unlock t.mu

(* The fd's current callback of the given direction, fetched under the
   lock: an earlier callback of this batch may have removed or
   replaced it. *)
let fire t fd ~write =
  Mutex.lock t.mu;
  let cb =
    match Hashtbl.find t.fds fd with
    | i -> if write then i.on_write else i.on_read
    | exception Not_found -> None
  in
  Mutex.unlock t.mu;
  match cb with Some cb -> guard cb | None -> ()

let rec dispatch_reads t = function
  | [] -> ()
  | fd :: rest ->
    if fd = t.wake_r then drain_wake t else fire t fd ~write:false;
    dispatch_reads t rest

let rec dispatch_writes t = function
  | [] -> ()
  | fd :: rest ->
    fire t fd ~write:true;
    dispatch_writes t rest

(* Callers hold [mu]. *)
let timeout_locked t now =
  if t.timers.Theap.n = 0 then max_sleep
  else Float.max 0.0 (Float.min max_sleep (Theap.earliest t.timers -. now))

let run t =
  t.loop_tid <- Thread.id (Thread.self ());
  while not (Atomic.get t.stopped) do
    (* 1. due timers *)
    let now = Unix.gettimeofday () in
    fire_due t now;
    if not (Atomic.get t.stopped) then begin
      (* 2. select on the current interest set *)
      Mutex.lock t.mu;
      if t.dirty then rebuild_locked t;
      let reads = t.reads and writes = t.writes in
      let timeout = timeout_locked t now in
      Mutex.unlock t.mu;
      match Unix.select reads writes [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (Unix.EBADF, _, _) -> prune_bad t
      | ready_r, ready_w, _ ->
        dispatch_reads t ready_r;
        dispatch_writes t ready_w
    end
  done;
  t.loop_tid <- -1
