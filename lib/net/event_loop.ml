(* A select-backed readiness loop with an epoll-shaped interface.
   See the .mli for the contract; the invariants that matter here:

   - every callback runs on the loop thread (the thread inside [run]);
   - the tables are guarded by [mu] because registration may come from
     any thread, but callbacks are looked up fresh under [mu] right
     before each dispatch, so a callback removed (or replaced) by an
     earlier callback of the same iteration never fires stale;
   - the wakeup pipe makes every cross-thread mutation visible to a
     sleeping select without waiting out its timeout. *)

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

  let peek h = if h.n = 0 then None else Some h.a.(0)

  let pop h =
    if h.n = 0 then None
    else begin
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
      Some top
    end
end

type t = {
  mu : Mutex.t;
  fds : (Unix.file_descr, fd_interest) Hashtbl.t;
  timers : Theap.t;
  posts : (unit -> unit) Queue.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable wake_armed : bool;  (* a wake byte is already in the pipe *)
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
    posts = Queue.create ();
    wake_r;
    wake_w;
    wake_armed = false;
    stopped = Atomic.make false;
    loop_tid = -1;
    tseq = 0;
  }

let in_loop t = t.loop_tid = Thread.id (Thread.self ())

(* One byte in the pipe is enough to interrupt any number of pending
   selects; [wake_armed] keeps redundant writers off the syscall. *)
let wake t =
  (* from the loop thread itself no wake is needed: the next iteration
     recomputes the interest set, timers and post queue before
     sleeping *)
  if not (in_loop t) then begin
    let arm =
      Mutex.protect t.mu (fun () ->
          if t.wake_armed then false
          else begin
            t.wake_armed <- true;
            true
          end)
    in
    if arm then
      try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1)
      with
      | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE), _, _)
      -> ()
  end

let drain_wake t =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r buf 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  Mutex.protect t.mu (fun () -> t.wake_armed <- false)

let post t f =
  Mutex.protect t.mu (fun () -> Queue.add f t.posts);
  wake t

let stop t =
  Atomic.set t.stopped true;
  wake t

let interest_of t fd =
  match Hashtbl.find_opt t.fds fd with
  | Some i -> i
  | None ->
    let i = { on_read = None; on_write = None } in
    Hashtbl.replace t.fds fd i;
    i

let add_read t fd cb =
  Mutex.protect t.mu (fun () -> (interest_of t fd).on_read <- Some cb);
  wake t

let set_write t fd cb =
  Mutex.protect t.mu (fun () ->
      match (cb, Hashtbl.find_opt t.fds fd) with
      | None, None -> ()  (* disarming an unknown fd: no-op *)
      | _ -> (interest_of t fd).on_write <- cb);
  wake t

let remove_fd t fd =
  Mutex.protect t.mu (fun () -> Hashtbl.remove t.fds fd);
  wake t

let after t delay f =
  if delay < 0.0 then invalid_arg "Event_loop.after: negative delay";
  let deadline = Unix.gettimeofday () +. delay in
  Mutex.protect t.mu (fun () ->
      let seq = t.tseq in
      t.tseq <- seq + 1;
      Theap.push t.timers { deadline; seq; f });
  wake t

let guard f = try f () with _ -> ()

(* A closed-but-still-registered fd (a layering bug upstream) makes
   select raise EBADF; pruning the dead entries beats spinning. *)
let prune_bad t =
  let bad =
    Mutex.protect t.mu (fun () ->
        Hashtbl.fold
          (fun fd _ acc ->
            match Unix.fstat fd with
            | _ -> acc
            | exception Unix.Unix_error _ -> fd :: acc)
          t.fds [])
  in
  List.iter (fun fd -> remove_fd t fd) bad

let run t =
  t.loop_tid <- Thread.id (Thread.self ());
  while not (Atomic.get t.stopped) do
    (* 1. posted closures *)
    let jobs =
      Mutex.protect t.mu (fun () ->
          let js = Queue.fold (fun acc j -> j :: acc) [] t.posts in
          Queue.clear t.posts;
          List.rev js)
    in
    List.iter guard jobs;
    (* 2. due timers *)
    let now = Unix.gettimeofday () in
    let rec fire_due () =
      let due =
        Mutex.protect t.mu (fun () ->
            match Theap.peek t.timers with
            | Some e when e.Theap.deadline <= now -> Theap.pop t.timers
            | _ -> None)
      in
      match due with
      | Some e ->
        guard e.Theap.f;
        fire_due ()
      | None -> ()
    in
    fire_due ();
    if not (Atomic.get t.stopped) then begin
      (* 3. select on the current interest set *)
      let reads, writes, timeout =
        Mutex.protect t.mu (fun () ->
            let r = ref [ t.wake_r ] and w = ref [] in
            Hashtbl.iter
              (fun fd i ->
                if i.on_read <> None then r := fd :: !r;
                if i.on_write <> None then w := fd :: !w)
              t.fds;
            let timeout =
              if not (Queue.is_empty t.posts) then 0.0
              else
                match Theap.peek t.timers with
                | None -> max_sleep
                | Some e ->
                  Float.max 0.0
                    (Float.min max_sleep (e.Theap.deadline -. now))
            in
            (!r, !w, timeout))
      in
      match Unix.select reads writes [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (Unix.EBADF, _, _) -> prune_bad t
      | ready_r, ready_w, _ ->
        List.iter
          (fun fd ->
            if fd = t.wake_r then drain_wake t
            else
              (* re-fetch under the lock: an earlier callback of this
                 batch may have removed or replaced this fd's interest *)
              match
                Mutex.protect t.mu (fun () ->
                    Option.bind (Hashtbl.find_opt t.fds fd) (fun i ->
                        i.on_read))
              with
              | Some cb -> guard cb
              | None -> ())
          ready_r;
        List.iter
          (fun fd ->
            match
              Mutex.protect t.mu (fun () ->
                  Option.bind (Hashtbl.find_opt t.fds fd) (fun i ->
                      i.on_write))
            with
            | Some cb -> guard cb
            | None -> ())
          ready_w
    end
  done;
  t.loop_tid <- -1
