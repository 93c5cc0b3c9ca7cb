(* Event_loop's contract, driven directly: registration from other
   threads, the cached interest set, dispatch order within a turn, and
   the allocation cost of one turn. *)

module L = Net.Event_loop

(* A pipe holding [n] unread bytes: readable until drained. *)
let readable_pipe n =
  let r, w = Unix.pipe () in
  if n > 0 then ignore (Unix.write w (Bytes.make n 'x') 0 n);
  (r, w)

let close_pipes ps =
  List.iter
    (fun (r, w) ->
      Unix.close r;
      Unix.close w)
    ps

(* [f loop] with a fresh loop running on its own thread, which is
   stopped and joined afterwards. *)
let with_loop f =
  let loop = L.create () in
  let th = Thread.create L.run loop in
  Fun.protect
    ~finally:(fun () ->
      L.stop loop;
      Thread.join th)
    (fun () -> f loop)

(* Spin (bounded) until [cond] holds. *)
let wait_for ?(limit = 2.0) cond =
  let deadline = Unix.gettimeofday () +. limit in
  while (not (cond ())) && Unix.gettimeofday () < deadline do
    Thread.delay 0.001
  done;
  cond ()

(* Return once an idle [loop] has slept in [select] for about 20 ms:
   a zero-delay timer fires just before the select that starts its
   0.1 s sleep, so at least 80 ms of that sleep are left. *)
let asleep loop =
  let ran = Atomic.make false in
  L.after loop 0. (fun () -> Atomic.set ran true);
  ignore (wait_for (fun () -> Atomic.get ran));
  Thread.delay 0.02

(* Seconds until [cond] holds after [act] ran on the sleeping [loop];
   well under the 80 ms left of the sleep only if [act] woke it. *)
let latency loop act cond =
  asleep loop;
  let t0 = Unix.gettimeofday () in
  act ();
  Alcotest.(check bool) "callback ran" true (wait_for cond);
  Unix.gettimeofday () -. t0

let add_read_from_other_thread () =
  (* a registration from this thread must interrupt the loop's sleep,
     and the rebuilt interest set must include the new fd on the very
     next turn *)
  with_loop (fun loop ->
      for _ = 1 to 3 do
        let ((r, _) as p) = readable_pipe 1 in
        let fired = Atomic.make false in
        let s =
          latency loop
            (fun () ->
              L.add_read loop r (fun () ->
                  L.remove_fd loop r;
                  Atomic.set fired true))
            (fun () -> Atomic.get fired)
        in
        close_pipes [ p ];
        Alcotest.(check bool)
          (Fmt.str "seen without waiting out the sleep (%.4f s)" s)
          true (s < 0.05)
      done)

let set_write_disarm_stops () =
  (* a pipe's write end stays writable: armed, its callback fires every
     turn; disarmed (here by itself, on its third call) it must stop,
     while an always-readable fd keeps the loop turning *)
  let ((r, w) as p) = readable_pipe 1 in
  let writes = Atomic.make 0 and turns = Atomic.make 0 in
  with_loop (fun loop ->
      L.add_read loop r (fun () -> Atomic.incr turns);
      L.set_write loop w
        (Some
           (fun () ->
             Atomic.incr writes;
             if Atomic.get writes = 3 then L.set_write loop w None));
      Alcotest.(check bool) "armed callback fired" true
        (wait_for (fun () -> Atomic.get writes >= 3));
      let t = Atomic.get turns in
      Alcotest.(check bool) "loop kept turning" true
        (wait_for (fun () -> Atomic.get turns >= t + 100)));
  close_pipes [ p ];
  Alcotest.(check int) "no call after disarming" 3 (Atomic.get writes)

let removed_in_batch_never_fires () =
  (* both fds are readable before the loop starts, so the first select
     reports both; whichever callback runs first removes the other,
     which must then not fire although it is in that select's result *)
  let ((ra, _) as pa) = readable_pipe 1 and ((rb, _) as pb) = readable_pipe 1 in
  let loop = L.create () in
  let fired = ref [] in
  let cb self other name () =
    fired := name :: !fired;
    L.remove_fd loop other;
    L.remove_fd loop self;
    L.stop loop
  in
  L.add_read loop ra (cb ra rb "a");
  L.add_read loop rb (cb rb ra "b");
  Thread.join (Thread.create L.run loop);
  close_pipes [ pa; pb ];
  Alcotest.(check int)
    (Fmt.str "exactly one fired (%s)" (String.concat "," !fired))
    1 (List.length !fired)

let timer_order () =
  (* deadline order, and arming order between equal delays *)
  let loop = L.create () in
  let seen = ref [] in
  let note name () =
    seen := name :: !seen;
    if List.length !seen = 5 then L.stop loop
  in
  L.after loop 0.03 (note "a");
  L.after loop 0.01 (note "b");
  L.after loop 0.02 (note "c");
  L.after loop 0.0 (note "d");
  L.after loop 0.0 (note "e");
  Thread.join (Thread.create L.run loop);
  Alcotest.(check (list string)) "fire order" [ "d"; "e"; "b"; "c"; "a" ]
    (List.rev !seen)

let zero_timer_before_fds () =
  (* a timer with delay 0 fires before the fd callbacks of the turn it
     is due in — armed before the loop starts, and armed by an fd
     callback, whose fd is still readable on the next turn *)
  let ((r, _) as p) = readable_pipe 1 in
  let loop = L.create () in
  let seen = ref [] in
  let note s = seen := s :: !seen in
  let calls = ref 0 in
  L.add_read loop r (fun () ->
      incr calls;
      note "fd";
      if !calls = 1 then L.after loop 0.0 (fun () -> note "timer")
      else begin
        L.remove_fd loop r;
        L.stop loop
      end);
  L.after loop 0.0 (fun () -> note "first timer");
  Thread.join (Thread.create L.run loop);
  close_pipes [ p ];
  Alcotest.(check (list string)) "order"
    [ "first timer"; "fd"; "timer"; "fd" ]
    (List.rev !seen)

(* Minor words one loop turn allocates with [fds] registered read fds,
   one of which always holds an unread byte: its callback counts turns
   and reads the domain's minor-word counter at turn [warmup] and again
   [turns] turns later, while this thread waits in [Thread.join]. *)
let turn_words ~fds ~warmup ~turns =
  let pipes = List.init fds (fun i -> readable_pipe (if i = 0 then 1 else 0)) in
  let loop = L.create () in
  let n = ref 0 and w0 = ref 0.0 and w1 = ref 0.0 in
  List.iteri
    (fun i (r, _) ->
      if i = 0 then
        L.add_read loop r (fun () ->
            incr n;
            if !n = warmup then w0 := Gc.minor_words ()
            else if !n = warmup + turns then begin
              w1 := Gc.minor_words ();
              L.stop loop
            end)
      else L.add_read loop r ignore)
    pipes;
  Thread.join (Thread.create L.run loop);
  close_pipes pipes;
  (!w1 -. !w0) /. float_of_int turns

let turn_cost_pinned () =
  let words = turn_words ~fds:16 ~warmup:1_000 ~turns:10_000 in
  Alcotest.(check bool)
    (Fmt.str "%.1f minor words per turn with 16 fds <= 16" words)
    true (words <= 16.0)

let tc name f = Alcotest.test_case name `Quick f

let suite =
  [
    tc "add_read from another thread is seen on the next turn"
      add_read_from_other_thread;
    tc "set_write disarmed stops firing" set_write_disarm_stops;
    tc "an fd removed earlier in the batch never fires"
      removed_in_batch_never_fires;
    tc "timers fire in deadline, then arming, order" timer_order;
    tc "a zero-delay timer fires before the turn's fd callbacks"
      zero_timer_before_fds;
    tc "one turn allocates at most 16 words with 16 fds" turn_cost_pinned;
  ]
