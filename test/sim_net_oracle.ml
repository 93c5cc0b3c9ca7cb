(* A test-only oracle: the entry-record Sim_net that the slot-array one
   replaced, kept verbatim but for its trace points (no property reads a
   trace) so a property can compare the two after every command.  Only
   the tests use it. *)

open Net

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

type ev =
  | Deliver of { src : int; dst : int; msg : Wire.msg }
  | Timer of { node : int; f : unit -> unit }

type entry = { time : float; seq : int; ev : ev }

(* A plain binary min-heap on (time, seq); seq breaks ties so the order
   of simultaneous events is the order they were scheduled in. *)
module Heap = struct
  type t = { mutable a : entry array; mutable n : int }

  let dummy = { time = 0.0; seq = 0; ev = Timer { node = -1; f = ignore } }
  let create () = { a = Array.make 64 dummy; n = 0 }
  let lt x y = x.time < y.time || (x.time = y.time && x.seq < y.seq)

  let push h e =
    if h.n = Array.length h.a then begin
      let a' = Array.make (2 * h.n) dummy in
      Array.blit h.a 0 a' 0 h.n;
      h.a <- a'
    end;
    let i = ref h.n in
    h.n <- h.n + 1;
    h.a.(!i) <- e;
    while !i > 0 && lt h.a.(!i) h.a.((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      let tmp = h.a.(p) in
      h.a.(p) <- h.a.(!i);
      h.a.(!i) <- tmp;
      i := p
    done

  (* [dummy] when empty, not [None]: no option per event *)
  let pop h =
    if h.n = 0 then dummy
    else begin
      let top = h.a.(0) in
      h.n <- h.n - 1;
      h.a.(0) <- h.a.(h.n);
      h.a.(h.n) <- dummy;
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.n && lt h.a.(l) h.a.(!smallest) then smallest := l;
        if r < h.n && lt h.a.(r) h.a.(!smallest) then smallest := r;
        if !smallest = !i then continue := false
        else begin
          let tmp = h.a.(!smallest) in
          h.a.(!smallest) <- h.a.(!i);
          h.a.(!i) <- tmp;
          i := !smallest
        end
      done;
      top
    end
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

(* The latest delivery time scheduled on an immune link: a float-only
   record, so updating it boxes nothing. *)
type link = { mutable last : float }

type t = {
  rng : Random.State.t;
  faults : faults;
  heap : Heap.t;
  links : (int, link) Hashtbl.t;  (* immune links, by [link_key] *)
  handlers : (int, src:int -> Wire.msg -> unit) Hashtbl.t;
  dead : (int, unit) Hashtbl.t;
  amnesiac : (int, unit) Hashtbl.t;
  recovery : (int, unit -> unit) Hashtbl.t;
  paused : (int, entry list) Hashtbl.t;
      (* a dead node's timers that fell due, latest first: they wait
         for its restart *)
  mutable cut : (int list * int list) option;
  mutable clock : float;
  mutable seqno : int;
  c : ctrs;
}

let create ~seed ~faults ?metrics () =
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
    heap = Heap.create ();
    links = Hashtbl.create 16;
    handlers = Hashtbl.create 16;
    dead = Hashtbl.create 4;
    amnesiac = Hashtbl.create 4;
    recovery = Hashtbl.create 4;
    paused = Hashtbl.create 4;
    cut = None;
    clock = 0.0;
    seqno = 0;
    c;
  }

let now t = t.clock

let schedule t time ev =
  let seq = t.seqno in
  t.seqno <- seq + 1;
  Heap.push t.heap { time; seq; ev }

let link_key src dst = (src lsl 32) lor (dst land 0xffff_ffff)

(* An immune link is FIFO: a delivery is never scheduled before the
   link's previous one (equal times keep send order by [seq]). *)
let fifo t ~src ~dst time =
  match Hashtbl.find t.links (link_key src dst) with
  | l ->
    l.last <- Float.max time l.last;
    l.last
  | exception Not_found ->
    Hashtbl.replace t.links (link_key src dst) { last = time };
    time

let severed t src dst =
  match t.cut with
  | None -> false
  | Some (a, b) ->
    (List.mem src a && List.mem dst b) || (List.mem src b && List.mem dst a)

(* When a delivery sent now arrives.  Drawn for every link, immune or
   not, so the RNG stream does not depend on which links are. *)
let arrival t =
  let f = t.faults in
  t.clock
  +. (f.min_delay
     +. Random.State.float t.rng (f.max_delay -. f.min_delay +. epsilon_float))

let drop t = Metrics.incr t.c.m_dropped

let send t ~src ~dst msg =
  (* every frame offered to the network counts as sent, duplicates
     included, so that at quiescence
     sent = delivered + dropped + blocked *)
  Metrics.incr t.c.m_sent;
  if Hashtbl.mem t.dead dst then drop t
  else if severed t src dst then Metrics.incr t.c.m_blocked
  else begin
    let f = t.faults in
    let immune = f.immune ~src ~dst in
    if (not immune) && f.drop > 0.0 && Random.State.float t.rng 1.0 < f.drop
    then drop t
    else begin
      let time = arrival t in
      schedule t
        (if immune then fifo t ~src ~dst time else time)
        (Deliver { src; dst; msg });
      if
        (not immune) && f.duplicate > 0.0
        && Random.State.float t.rng 1.0 < f.duplicate
      then begin
        Metrics.incr t.c.m_duplicated;
        Metrics.incr t.c.m_sent;
        schedule t (arrival t) (Deliver { src; dst; msg })
      end
    end
  end

let set_timer t ~node ~delay f =
  schedule t (t.clock +. delay) (Timer { node; f })

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
  Hashtbl.replace t.amnesiac node ()

let on_restart t node f = Hashtbl.replace t.recovery node f

(* A due timer of a live node (or an [at] callback, node -1) runs now;
   one of a paused node waits for its restart. *)
let timer t e =
  match e.ev with
  | Deliver _ -> ()
  | Timer { node; _ } when node <> -1 && Hashtbl.mem t.dead node ->
    Hashtbl.replace t.paused node
      (e :: Option.value ~default:[] (Hashtbl.find_opt t.paused node))
  | Timer { f; _ } ->
    Metrics.incr t.c.m_timer_fires;
    f ()

(* Drop every timer [node] armed, still queued or already [due], and
   count each in [timers_dropped]: the incarnation that armed it is
   over. *)
let drop_timers t node due =
  let queued = Array.sub t.heap.Heap.a 0 t.heap.Heap.n in
  t.heap.Heap.n <- 0;
  Array.iter
    (fun e ->
      match e.ev with
      | Timer { node = n; _ } when n = node ->
        Metrics.incr t.c.m_timers_dropped
      | _ -> Heap.push t.heap e)
    queued;
  Metrics.add t.c.m_timers_dropped (List.length due)

let restart t node =
  Hashtbl.remove t.dead node;
  let due =
    Option.value ~default:[] (Hashtbl.find_opt t.paused node)
    |> List.sort (fun a b -> Int.compare a.seq b.seq)
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
  schedule t
    (t.clock +. Float.max 0.0 (time -. t.clock))
    (Timer { node = -1; f })

let execute t ({ time; ev; _ } as e) =
  t.clock <- Float.max t.clock time;
  match ev with
  | Deliver { src; dst; msg } ->
    if Hashtbl.mem t.dead dst then drop t
    else begin
      match Hashtbl.find t.handlers dst with
      | h ->
        Metrics.incr t.c.m_delivered;
        h ~src msg
      | exception Not_found -> drop t
    end
  | Timer _ -> timer t e

let peek t =
  if t.heap.Heap.n = 0 then None
  else
    match t.heap.Heap.a.(0).ev with
    | Deliver { dst; msg; _ } -> Some (dst, Some msg)
    | Timer { node; _ } -> Some (node, None)

let step t =
  let e = Heap.pop t.heap in
  if e == Heap.dummy then false
  else begin
    execute t e;
    true
  end

(* Controlled stepping: a schedule explorer wants to pick *which*
   pending event fires next rather than always taking the earliest.
   [sorted_entries] snapshots the queue in canonical (time, seq) order
   — the same total order {!step} drains it in — so an index into the
   snapshot names an event deterministically. *)
let sorted_entries t =
  let a = Array.sub t.heap.Heap.a 0 t.heap.Heap.n in
  Array.sort
    (fun x y -> if Heap.lt x y then -1 else if Heap.lt y x then 1 else 0)
    a;
  a

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
   is FIFO, and in (time, seq) order its oldest comes first. *)
let pending t =
  let heads = Hashtbl.create 8 in
  let offered p =
    p.timer
    || (not (t.faults.immune ~src:p.src ~dst:p.dst))
    || (not (Hashtbl.mem heads (link_key p.src p.dst)))
       && (Hashtbl.replace heads (link_key p.src p.dst) ();
           true)
  in
  sorted_entries t |> Array.to_list
  |> List.mapi (fun idx e ->
         let timer, src, dst, msg =
           match e.ev with
           | Deliver { src; dst; msg } -> (false, src, dst, Some msg)
           | Timer { node; _ } -> (true, node, node, None)
         in
         { idx; seq = e.seq; time = e.time; timer; src; dst; msg })
  |> List.filter offered

let fire t i =
  let a = sorted_entries t in
  if i < 0 || i >= Array.length a then false
  else begin
    (* Rebuild the heap without the chosen entry, then execute it.
       O(n log n), fine for the small configurations explorers use. *)
    t.heap.Heap.n <- 0;
    Array.iteri (fun j e -> if j <> i then Heap.push t.heap e) a;
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
