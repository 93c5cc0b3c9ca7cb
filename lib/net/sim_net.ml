type faults = {
  drop : float;
  duplicate : float;
  min_delay : float;
  max_delay : float;
  immune : src:Transport.node -> dst:Transport.node -> bool;
}

let no_immunity ~src:_ ~dst:_ = false

let reliable =
  {
    drop = 0.0;
    duplicate = 0.0;
    min_delay = 1.0;
    max_delay = 1.0;
    immune = no_immunity;
  }

let lossy ?(drop = 0.1) ?(duplicate = 0.05) ?(min_delay = 0.5)
    ?(max_delay = 2.0) () =
  { drop; duplicate; min_delay; max_delay; immune = no_immunity }

type stats = {
  delivered : int;
  dropped : int;
  duplicated : int;
  blocked : int;
  timer_fires : int;
}

(* The event queue.  Each pending event owns a slot: its time in a
   [Float.Array] and its [seq], [src] and [dst] in int arrays, so
   queueing an event boxes nothing.  A delivery's message sits in
   [msg]; a timer's callback in [fn], its [src] is [timer_src] and its
   [dst] its owner ([-1] for {!at}); a task's callback in [fn] too, its
   [src] [task_src] and its [dst] its node.  Free slots wait on a stack, and
   every array doubles when the slots run out.  [heap] is a plain
   binary min-heap of slot indices on (time, seq); seq breaks ties so
   the order of simultaneous events is the order they were scheduled
   in. *)
let timer_src = min_int
let task_src = min_int + 1

module Q = struct
  type t = {
    mutable time : Float.Array.t;
    mutable seq : int array;
    mutable src : int array;
    mutable dst : int array;
    mutable msg : Wire.msg array;
    mutable fn : (unit -> unit) array;
    mutable free : int array;  (* the first [nfree] are free slots *)
    mutable nfree : int;
    mutable heap : int array;  (* the first [n] are the heap *)
    mutable n : int;
  }

  (* what a free slot holds, so that it keeps no payload alive *)
  let no_msg = Wire.Query { rid = 0; reg = 0 }
  let no_fn () = ()

  let create () =
    let cap = 16 in
    {
      time = Float.Array.make cap 0.0;
      seq = Array.make cap 0;
      src = Array.make cap 0;
      dst = Array.make cap 0;
      msg = Array.make cap no_msg;
      fn = Array.make cap no_fn;
      free = Array.init cap (fun i -> cap - 1 - i);
      nfree = cap;
      heap = Array.make cap 0;
      n = 0;
    }

  (* Double every array.  Only called with no slot free, so the new
     slots are the only free ones. *)
  let grow q =
    let cap = Array.length q.seq in
    let cap' = 2 * cap in
    let wider a x =
      let a' = Array.make cap' x in
      Array.blit a 0 a' 0 cap;
      a'
    in
    let time = Float.Array.make cap' 0.0 in
    Float.Array.blit q.time 0 time 0 cap;
    q.time <- time;
    q.seq <- wider q.seq 0;
    q.src <- wider q.src 0;
    q.dst <- wider q.dst 0;
    q.msg <- wider q.msg no_msg;
    q.fn <- wider q.fn no_fn;
    q.heap <- wider q.heap 0;
    q.free <- Array.init cap' (fun i -> cap' - 1 - i);
    q.nfree <- cap

  let[@inline] alloc q =
    if q.nfree = 0 then grow q;
    q.nfree <- q.nfree - 1;
    q.free.(q.nfree)

  let release q s =
    q.msg.(s) <- no_msg;
    q.fn.(s) <- no_fn;
    q.free.(q.nfree) <- s;
    q.nfree <- q.nfree + 1

  let[@inline] lt q a b =
    let ta = Float.Array.get q.time a and tb = Float.Array.get q.time b in
    ta < tb || (ta = tb && q.seq.(a) < q.seq.(b))

  let push q s =
    let h = q.heap in
    let i = ref q.n in
    q.n <- q.n + 1;
    while !i > 0 && lt q s h.((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      h.(!i) <- h.(p);
      i := p
    done;
    h.(!i) <- s

  (* the earliest slot, or [-1] when empty *)
  let pop q =
    if q.n = 0 then -1
    else begin
      let h = q.heap in
      let top = h.(0) in
      q.n <- q.n - 1;
      let last = h.(q.n) and n = q.n in
      let i = ref 0 and continue = ref (n > 0) in
      while !continue do
        let l = (2 * !i) + 1 in
        let c = if l + 1 < n && lt q h.(l + 1) h.(l) then l + 1 else l in
        if c < n && lt q h.(c) last then begin
          h.(!i) <- h.(c);
          i := c
        end
        else continue := false
      done;
      if n > 0 then h.(!i) <- last;
      top
    end

  (* the queued slots, in (time, seq) order *)
  let sorted q =
    let a = Array.sub q.heap 0 q.n in
    Array.sort
      (fun x y -> if lt q x y then -1 else if lt q y x then 1 else 0)
      a;
    a
end

(* Metric handles interned once at [create]: the same counter names as
   {!Socket_net}, so harness code reads one schema over either
   transport. *)
type ctrs = {
  m_sent : Metrics.counter;
  m_delivered : Metrics.counter;
  m_dropped : Metrics.counter;
  m_duplicated : Metrics.counter;
  m_blocked : Metrics.counter;
  m_timer_fires : Metrics.counter;
  m_timers_dropped : Metrics.counter;
  m_crashes : Metrics.counter;
  m_amnesia : Metrics.counter;
}

(* A float-only record, so updating it boxes nothing: the clock, and
   the latest delivery time scheduled on an immune link. *)
type cell = { mutable v : float }

type t = {
  rng : Random.State.t;
  faults : faults;
  span : float;
      (* the delay draw's range, boxed once here rather than at every
         draw *)
  q : Q.t;
  links : (int, cell) Hashtbl.t;  (* immune links, by [link_key] *)
  handlers : (int, src:int -> Wire.msg -> unit) Hashtbl.t;
  dead : (int, unit) Hashtbl.t;
  amnesiac : (int, unit) Hashtbl.t;
  recovery : (int, unit -> unit) Hashtbl.t;
  paused : (int, int list) Hashtbl.t;
      (* the slots of a dead node's timers that fell due, latest
         first: they wait for its restart *)
  mutable cut : (int list * int list) option;
  clock : cell;
  mutable boxed : float;
      (* the clock as {!now} last returned it: boxed once per distinct
         time that is read, not once per event *)
  mutable seqno : int;
  trace : Trace.t option;
  c : ctrs;
}

let create ~seed ~faults ?metrics ?trace () =
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  let c =
    {
      m_sent = Metrics.counter metrics "frames_sent";
      m_delivered = Metrics.counter metrics "frames_delivered";
      m_dropped = Metrics.counter metrics "frames_dropped";
      m_duplicated = Metrics.counter metrics "frames_duplicated";
      m_blocked = Metrics.counter metrics "frames_blocked";
      m_timer_fires = Metrics.counter metrics "timer_fires";
      m_timers_dropped = Metrics.counter metrics "timers_dropped";
      m_crashes = Metrics.counter metrics "crashes";
      m_amnesia = Metrics.counter metrics "amnesia_crashes";
    }
  in
  {
    rng = Random.State.make [| seed; 0x6e657421 |];
    faults;
    span = faults.max_delay -. faults.min_delay +. epsilon_float;
    q = Q.create ();
    links = Hashtbl.create 16;
    handlers = Hashtbl.create 16;
    dead = Hashtbl.create 4;
    amnesiac = Hashtbl.create 4;
    recovery = Hashtbl.create 4;
    paused = Hashtbl.create 4;
    cut = None;
    clock = { v = 0.0 };
    boxed = 0.0;
    seqno = 0;
    trace;
    c;
  }

let now t =
  let c = t.clock.v in
  if c <> t.boxed then t.boxed <- c;
  t.boxed

(* Every trace point matches on [t.trace] itself and builds its record
   only under [Some]: a record allocated before that test would cost
   every untraced send and delivery. *)
let record tr t kind = Trace.record tr ~time:(now t) kind

(* Queue an event: a delivery of [msg] from [src] to [dst], or a timer
   of node [dst] ([src] is [timer_src]) that runs [fn]. *)
let[@inline] schedule t time ~src ~dst msg fn =
  let q = t.q in
  let s = Q.alloc q in
  Float.Array.set q.Q.time s time;
  q.Q.seq.(s) <- t.seqno;
  t.seqno <- t.seqno + 1;
  q.Q.src.(s) <- src;
  q.Q.dst.(s) <- dst;
  q.Q.msg.(s) <- msg;
  q.Q.fn.(s) <- fn;
  Q.push q s

let link_key src dst = (src lsl 32) lor (dst land 0xffff_ffff)

(* An immune link is FIFO: a delivery is never scheduled before the
   link's previous one (equal times keep send order by [seq]). *)
let[@inline] fifo t ~src ~dst time =
  match Hashtbl.find t.links (link_key src dst) with
  | l ->
    if time > l.v then l.v <- time;
    l.v
  | exception Not_found ->
    Hashtbl.replace t.links (link_key src dst) { v = time };
    time

let severed t src dst =
  match t.cut with
  | None -> false
  | Some (a, b) ->
    (List.mem src a && List.mem dst b) || (List.mem src b && List.mem dst a)

(* [Random.State.float rng span], bit for bit and drawing the same
   bits: the 53-bit float in (0, 1) it forms from [bits64], redrawn on
   0, times [span].  Inlined, so the draw is never boxed. *)
let[@inline] uniform rng span =
  let n = ref (Int64.shift_right_logical (Random.State.bits64 rng) 11) in
  while Int64.equal !n 0L do
    n := Int64.shift_right_logical (Random.State.bits64 rng) 11
  done;
  Int64.to_float !n *. 0x1.p-53 *. span

(* When a delivery sent now arrives.  Drawn for every link, immune or
   not, so the RNG stream does not depend on which links are. *)
let[@inline] arrival t =
  t.clock.v +. (t.faults.min_delay +. uniform t.rng t.span)

let drop t ~src ~dst reason =
  Metrics.incr t.c.m_dropped;
  match t.trace with
  | None -> ()
  | Some tr -> record tr t (Trace.Drop { src; dst; reason })

let send t ~src ~dst msg =
  (* every frame offered to the network counts as sent, duplicates
     included, so that at quiescence
     sent = delivered + dropped + blocked *)
  Metrics.incr t.c.m_sent;
  if Hashtbl.mem t.dead dst then drop t ~src ~dst Trace.Dead
  else if severed t src dst then begin
    Metrics.incr t.c.m_blocked;
    match t.trace with
    | None -> ()
    | Some tr ->
      record tr t (Trace.Drop { src; dst; reason = Trace.Partition })
  end
  else begin
    let f = t.faults in
    let immune = f.immune ~src ~dst in
    if (not immune) && f.drop > 0.0 && uniform t.rng 1.0 < f.drop
    then drop t ~src ~dst Trace.Loss
    else begin
      let time = arrival t in
      schedule t
        (if immune then fifo t ~src ~dst time else time)
        ~src ~dst msg Q.no_fn;
      (match t.trace with
       | None -> ()
       | Some tr -> record tr t (Trace.Send { src; dst; msg }));
      if
        (not immune) && f.duplicate > 0.0
        && uniform t.rng 1.0 < f.duplicate
      then begin
        Metrics.incr t.c.m_duplicated;
        Metrics.incr t.c.m_sent;
        schedule t (arrival t) ~src ~dst msg Q.no_fn
      end
    end
  end

let set_timer t ~node ~delay f =
  schedule t (t.clock.v +. delay) ~src:timer_src ~dst:node Q.no_msg f

let task t node f = schedule t t.clock.v ~src:task_src ~dst:node Q.no_msg f

let transport t =
  {
    Transport.send = (fun ~src ~dst msg -> send t ~src ~dst msg);
    set_timer = (fun ~node ~delay f -> set_timer t ~node ~delay f);
    now = (fun () -> now t);
  }

let register t node handler = Hashtbl.replace t.handlers node handler

let crash t node =
  if not (Hashtbl.mem t.dead node) then Metrics.incr t.c.m_crashes;
  Hashtbl.replace t.dead node ()

let crash_amnesia t node =
  crash t node;
  if not (Hashtbl.mem t.amnesiac node) then Metrics.incr t.c.m_amnesia;
  Hashtbl.replace t.amnesiac node ();
  match t.trace with
  | None -> ()
  | Some tr -> record tr t (Trace.Note (Fmt.str "amnesia-crash node=%d" node))

let on_restart t node f = Hashtbl.replace t.recovery node f

(* A due timer of a live node (or an [at] callback, node -1) runs now;
   one of a paused node keeps its slot and waits for its restart. *)
let timer t s =
  let q = t.q in
  let node = q.Q.dst.(s) in
  if node <> -1 && Hashtbl.mem t.dead node then
    Hashtbl.replace t.paused node
      (s :: Option.value ~default:[] (Hashtbl.find_opt t.paused node))
  else begin
    let f = q.Q.fn.(s) in
    Q.release q s;
    Metrics.incr t.c.m_timer_fires;
    (match t.trace with
     | None -> ()
     | Some tr -> record tr t (Trace.Timer_fire { node }));
    f ()
  end

(* Drop every timer [node] armed, still queued or already [due], and
   count each in [timers_dropped]: the incarnation that armed it is
   over. *)
let drop_timers t node due =
  let q = t.q in
  let dropped s =
    Metrics.incr t.c.m_timers_dropped;
    Q.release q s
  in
  let queued = Array.sub q.Q.heap 0 q.Q.n in
  q.Q.n <- 0;
  Array.iter
    (fun s ->
      if q.Q.src.(s) = timer_src && q.Q.dst.(s) = node then dropped s
      else Q.push q s)
    queued;
  List.iter dropped due

let restart t node =
  Hashtbl.remove t.dead node;
  let seq = t.q.Q.seq in
  let due =
    Option.value ~default:[] (Hashtbl.find_opt t.paused node)
    |> List.sort (fun a b -> Int.compare seq.(a) seq.(b))
  in
  Hashtbl.remove t.paused node;
  if Hashtbl.mem t.amnesiac node then begin
    (* an amnesiac node lost its volatile state, so this is a new
       incarnation: no timer the old one armed may fire on it, and the
       recovery hook must rebuild the handler's state (from stable
       storage, or empty) before any further delivery *)
    Hashtbl.remove t.amnesiac node;
    drop_timers t node due;
    match Hashtbl.find_opt t.recovery node with Some f -> f () | None -> ()
  end
  else
    (* the end of a pause: what fell due meanwhile fires now, in
       arming order (a callback that crashes the node again parks the
       rest anew) *)
    List.iter (timer t) due

let alive t node = not (Hashtbl.mem t.dead node)
let partition t a b = t.cut <- Some (a, b)
let heal t = t.cut <- None

let at t time f =
  let clock = t.clock.v in
  schedule t
    (clock +. Float.max 0.0 (time -. clock))
    ~src:timer_src ~dst:(-1) Q.no_msg f

(* Run the event in slot [s], which has left the heap.  A delivery's
   slot is free again before its handler runs. *)
let execute t s =
  let q = t.q in
  let time = Float.Array.get q.Q.time s in
  if time > t.clock.v then t.clock.v <- time;
  let src = q.Q.src.(s) in
  if src = timer_src then timer t s
  else if src = task_src then begin
    let f = q.Q.fn.(s) in
    Q.release q s;
    f ()
  end
  else begin
    let dst = q.Q.dst.(s) and msg = q.Q.msg.(s) in
    Q.release q s;
    if Hashtbl.mem t.dead dst then drop t ~src ~dst Trace.Dead
    else begin
      match Hashtbl.find t.handlers dst with
      | h ->
        Metrics.incr t.c.m_delivered;
        (match t.trace with
         | None -> ()
         | Some tr -> record tr t (Trace.Deliver { src; dst; msg }));
        h ~src msg
      | exception Not_found -> drop t ~src ~dst Trace.No_handler
    end
  end

let peek t =
  let q = t.q in
  if q.Q.n = 0 then None
  else
    let s = q.Q.heap.(0) in
    if q.Q.src.(s) < 0 then Some (q.Q.dst.(s), None)
    else Some (q.Q.dst.(s), Some q.Q.msg.(s))

let step t =
  let s = Q.pop t.q in
  if s < 0 then false
  else begin
    execute t s;
    true
  end

(* Controlled stepping: a schedule explorer wants to pick *which*
   pending event fires next rather than always taking the earliest.
   [Q.sorted] snapshots the queue in canonical (time, seq) order — the
   same total order {!step} drains it in — so an index into the
   snapshot names an event deterministically. *)

type pending_ev = {
  idx : int;
  seq : int;
  time : float;
  timer : bool;
  src : int;
  dst : int;
  msg : Wire.msg option;
}

(* Only the oldest delivery of each immune link is offered: the link
   is FIFO, and in (time, seq) order its oldest comes first.  Timers
   and tasks are always offered. *)
let pending t =
  let q = t.q in
  let heads = Hashtbl.create 8 in
  let offered s =
    let src = q.Q.src.(s) and dst = q.Q.dst.(s) in
    src < 0
    || (not (t.faults.immune ~src ~dst))
    || (not (Hashtbl.mem heads (link_key src dst)))
       && (Hashtbl.replace heads (link_key src dst) ();
           true)
  in
  Q.sorted q |> Array.to_list
  |> List.mapi (fun idx s -> (idx, s))
  |> List.filter (fun (_, s) -> offered s)
  |> List.map (fun (idx, s) ->
         let timer = q.Q.src.(s) = timer_src and dst = q.Q.dst.(s) in
         let src, msg =
           if q.Q.src.(s) < 0 then (dst, None)
           else (q.Q.src.(s), Some q.Q.msg.(s))
         in
         {
           idx;
           seq = q.Q.seq.(s);
           time = Float.Array.get q.Q.time s;
           timer;
           src;
           dst;
           msg;
         })

let fire t i =
  let q = t.q in
  let a = Q.sorted q in
  let n = Array.length a in
  if i < 0 || i >= n then false
  else begin
    (* The snapshot less the chosen event is sorted, hence a heap: it
       becomes the queue, then the event runs.  O(n log n) for the
       sort, fine for the small configurations explorers use. *)
    Array.blit a 0 q.Q.heap 0 i;
    Array.blit a (i + 1) q.Q.heap i (n - i - 1);
    q.Q.n <- n - 1;
    execute t a.(i);
    true
  end

let run ?(max_steps = 1_000_000) t =
  let steps = ref 0 in
  while !steps < max_steps && step t do
    incr steps
  done;
  !steps

let stats t =
  let c = t.c in
  {
    delivered = Metrics.value c.m_delivered;
    dropped = Metrics.value c.m_dropped;
    duplicated = Metrics.value c.m_duplicated;
    blocked = Metrics.value c.m_blocked;
    timer_fires = Metrics.value c.m_timer_fires;
  }
