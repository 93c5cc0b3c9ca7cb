(* A test-only oracle: the slot-array Monitor as it was before monitors
   folded, kept verbatim so a property can compare the folding one with
   it after every event, edge counts included (the list-based
   [Monitor_oracle] keeps an obligation edge per read, so its edge
   counts differ).  Only the tests use it. *)

open Histories

type 'v verdict =
  | Ok_so_far
  | Violation of 'v Fastcheck.violation

(* The monitor keeps everything in arrays it reuses, so that observing
   an event allocates nothing once they have grown to the history's
   concurrency: a service runs one monitor per key on every op.

   Each live write owns a {e slot}, an index into the slot arrays of
   [core]; slot 0 is the initial value's node 0.  A dropped write's
   slot goes on a free list and is handed to a later write.  A write is
   named by its {e node}, numbered in write-invocation order as a
   [Fastcheck.Cycle] payload reports it; a reference that may outlive
   the write is a (slot, node) pair, live while the slot still holds
   that node. *)

(* ------------------------------------------------------------------ *)
(* Growable int buffers.  A buffer of k-field rows stores row [i] at    *)
(* [a.(k*i)] .. [a.(k*i + k - 1)].                                     *)

module Ints = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = [||]; len = 0 }

  let push v x =
    if v.len = Array.length v.a then begin
      let a = Array.make (max 4 (2 * v.len)) 0 in
      Array.blit v.a 0 a 0 v.len;
      v.a <- a
    end;
    v.a.(v.len) <- x;
    v.len <- v.len + 1

  let pop v =
    v.len <- v.len - 1;
    v.a.(v.len)
end

(* ------------------------------------------------------------------ *)

type activity = Idle | Writing | Reading

(* One per processor, reused by each of its operations. *)
type pending = {
  proc : Event.proc;
  mutable doing : activity;
  mutable slot : int;  (* [Writing]: the write's slot *)
  mutable since : int;  (* [clock] at invocation *)
  mutable before : int;
      (* [Writing]: obligations made before the invocation;
         [Reading]: reads completed before it *)
  snap : Ints.t;
      (* (slot, node) rows: the write frontier at invocation (rules a
         and b), then for [Reading] the read frontier's sources (rule d) *)
  mutable n_wf : int;  (* ints of [snap] that hold the write frontier *)
}

(* Scratch for searches and pruning, one set per domain: a monitor's
   operations never interleave with another's on one domain. *)
type scratch = { stack : Ints.t; fwd : Ints.t; bwd : Ints.t; pool : Ints.t }

let scratch =
  Domain.DLS.new_key (fun () ->
      {
        stack = Ints.create ();
        fwd = Ints.create ();
        bwd = Ints.create ();
        pool = Ints.create ();
      })

type 'v core = {
  dummy : 'v;  (* fills free [value] slots *)
  (* slot arrays *)
  mutable node : int array;  (* -1 while free *)
  mutable ord : int array;
      (* position in the topological order; while free, the next free
         slot *)
  mutable value : 'v array;
  mutable done_at : int array;
      (* [clock] after its completion: which frontier members a later
         completion supersedes *)
  mutable left : int array;
      (* [clock] when a write completion took it off the write
         frontier, [max_int] before *)
  mutable succ : int array array;
  mutable n_succ : int array;
  mutable pred : int array array;
  mutable n_pred : int array;
  mutable mark : int array;  (* search visit stamp *)
  mutable used : int;  (* slots ever handed out *)
  mutable free : int;  (* first free slot, -1 if none *)
  mutable index : int array;  (* value -> slot, open addressing, -1 empty *)
  mutable n_nodes : int;
  mutable n_edges : int;
  mutable next_node : int;
  mutable next_ord : int;
  mutable stamp : int;  (* the last search's visit stamp *)
  (* the frontiers *)
  mutable clock : int;  (* write completions so far *)
  mutable prune_at : int;  (* [clock] at which the next [prune] runs *)
  wfront : Ints.t;  (* write frontier: slots, oldest first *)
  superseded : Ints.t;  (* slots off the write frontier, still live *)
  rfront : Ints.t;
      (* read frontier: (slot, node, completion number) rows of the
         reads' sources, oldest first *)
  mutable reads_done : int;
  obligations : Ints.t;
      (* rule c: (slot, node, number) rows, at most one per source,
         numbered in the order they were made, ascending *)
  mutable obligations_made : int;
  mutable retired_below : int;  (* obligations numbered below are retired *)
  mutable procs : pending array;  (* the processors seen, in order *)
  mutable n_procs : int;
}

type 'v t = {
  init : 'v;
  mutable state : 'v verdict;
  mutable core : 'v core option;  (* built by the first event *)
}

let create ~init = { init; state = Ok_so_far; core = None }

let verdict t = t.state

let stats t =
  match t.core with None -> (1, 0) | Some c -> (c.n_nodes, c.n_edges)

let initial_slots = 4

let new_core init =
  let c =
    {
      dummy = init;
      node = Array.make initial_slots (-1);
      ord = Array.make initial_slots 0;
      value = Array.make initial_slots init;
      done_at = Array.make initial_slots max_int;
      left = Array.make initial_slots max_int;
      succ = Array.make initial_slots [||];
      n_succ = Array.make initial_slots 0;
      pred = Array.make initial_slots [||];
      n_pred = Array.make initial_slots 0;
      mark = Array.make initial_slots 0;
      used = 1;
      free = -1;
      index = Array.make (2 * initial_slots) (-1);
      n_nodes = 1;
      n_edges = 0;
      next_node = 1;
      next_ord = 1;
      stamp = 0;
      clock = 0;
      prune_at = 0;
      wfront = Ints.create ();
      superseded = Ints.create ();
      rfront = Ints.create ();
      reads_done = 0;
      obligations = Ints.create ();
      obligations_made = 0;
      retired_below = 0;
      procs = [||];
      n_procs = 0;
    }
  in
  c.node.(0) <- 0 (* the virtual initial write, order 0 *);
  c

let core t =
  match t.core with
  | Some c -> c
  | None ->
    let c = new_core t.init in
    t.core <- Some c;
    c

(* ------------------------------------------------------------------ *)
(* Value index: live writes' values to their slots, linear probing     *)
(* over a power-of-two table kept at most half full.                   *)

let home c v = Hashtbl.hash v land (Array.length c.index - 1)

let find_value c v =
  let idx = c.index in
  let mask = Array.length idx - 1 in
  let i = ref (home c v) and found = ref (-1) in
  while !found < 0 && idx.(!i) >= 0 do
    if c.value.(idx.(!i)) = v then found := idx.(!i)
    else i := (!i + 1) land mask
  done;
  !found

(* [s] is not yet counted in [n_nodes], which counts node 0 too. *)
let rec insert_slot c s =
  if 2 * c.n_nodes > Array.length c.index then begin
    let old = c.index in
    c.index <- Array.make (2 * Array.length old) (-1);
    Array.iter (fun s -> if s >= 0 then insert_slot c s) old
  end;
  let idx = c.index in
  let mask = Array.length idx - 1 in
  let i = ref (home c c.value.(s)) in
  while idx.(!i) >= 0 do
    i := (!i + 1) land mask
  done;
  idx.(!i) <- s

(* Backward-shift deletion: each later member of the probe run moves
   into the hole unless its home lies cyclically in (hole, j]. *)
let remove_slot c s =
  let idx = c.index in
  let mask = Array.length idx - 1 in
  let hole = ref (home c c.value.(s)) in
  while idx.(!hole) <> s do
    hole := (!hole + 1) land mask
  done;
  let j = ref ((!hole + 1) land mask) in
  while idx.(!j) >= 0 do
    let h = home c c.value.(idx.(!j)) in
    let stays =
      if !hole < !j then !hole < h && h <= !j else !hole < h || h <= !j
    in
    if not stays then begin
      idx.(!hole) <- idx.(!j);
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  idx.(!hole) <- -1

(* ------------------------------------------------------------------ *)
(* Slots.                                                               *)

let grow a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let alloc_slot c =
  if c.free >= 0 then begin
    let s = c.free in
    c.free <- c.ord.(s);
    s
  end
  else begin
    let n = Array.length c.node in
    if c.used = n then begin
      c.node <- grow c.node (2 * n) (-1);
      c.ord <- grow c.ord (2 * n) 0;
      c.value <- grow c.value (2 * n) c.dummy;
      c.done_at <- grow c.done_at (2 * n) max_int;
      c.left <- grow c.left (2 * n) max_int;
      c.succ <- grow c.succ (2 * n) [||];
      c.n_succ <- grow c.n_succ (2 * n) 0;
      c.pred <- grow c.pred (2 * n) [||];
      c.n_pred <- grow c.n_pred (2 * n) 0;
      c.mark <- grow c.mark (2 * n) 0
    end;
    c.used <- c.used + 1;
    c.used - 1
  end

(* A new write's node, last in the order; returns its slot. *)
let add_node c v =
  let s = alloc_slot c in
  c.node.(s) <- c.next_node;
  c.next_node <- c.next_node + 1;
  c.ord.(s) <- c.next_ord;
  c.next_ord <- c.next_ord + 1;
  c.value.(s) <- v;
  c.done_at.(s) <- max_int;
  c.left.(s) <- max_int;
  insert_slot c s;
  c.n_nodes <- c.n_nodes + 1;
  s

(* ------------------------------------------------------------------ *)
(* Dynamic constraint graph with a Pearce-Kelly online topological     *)
(* order: each edge insertion either respects the current order or     *)
(* triggers a local reordering of the affected region; a cycle is      *)
(* detected when the forward search from the edge's head reaches its   *)
(* tail.                                                               *)

let push_adj rows counts s x =
  let n = counts.(s) in
  if n = Array.length rows.(s) then rows.(s) <- grow rows.(s) (max 2 (2 * n)) 0;
  rows.(s).(n) <- x;
  counts.(s) <- n + 1

let remove_adj rows counts s x =
  let a = rows.(s) and n = counts.(s) - 1 in
  let i = ref 0 in
  while a.(!i) <> x do
    incr i
  done;
  a.(!i) <- a.(n);
  counts.(s) <- n

let has_edge c x y =
  let a = c.succ.(x) and n = c.n_succ.(x) in
  let i = ref 0 in
  while !i < n && a.(!i) <> y do
    incr i
  done;
  !i < n

(* Collect into [sc.fwd] the nodes reachable from [y] through nodes
   ordered at most [ub]; true as soon as [x] is one of them. *)
let search_forward c sc ~x ~y ~ub =
  c.stamp <- c.stamp + 1;
  let stamp = c.stamp and stack = sc.stack in
  stack.len <- 0;
  sc.fwd.len <- 0;
  c.mark.(y) <- stamp;
  Ints.push stack y;
  let cycle = ref false in
  while (not !cycle) && stack.len > 0 do
    let n = Ints.pop stack in
    Ints.push sc.fwd n;
    let a = c.succ.(n) in
    for i = 0 to c.n_succ.(n) - 1 do
      let m = a.(i) in
      if m = x then cycle := true
      else if c.mark.(m) <> stamp && c.ord.(m) <= ub then begin
        c.mark.(m) <- stamp;
        Ints.push stack m
      end
    done
  done;
  !cycle

(* Collect into [sc.bwd] the nodes reaching [x] through nodes ordered
   at least [lb]. *)
let search_backward c sc ~x ~lb =
  c.stamp <- c.stamp + 1;
  let stamp = c.stamp and stack = sc.stack in
  stack.len <- 0;
  sc.bwd.len <- 0;
  c.mark.(x) <- stamp;
  Ints.push stack x;
  while stack.len > 0 do
    let n = Ints.pop stack in
    Ints.push sc.bwd n;
    let a = c.pred.(n) in
    for i = 0 to c.n_pred.(n) - 1 do
      let m = a.(i) in
      if c.mark.(m) <> stamp && c.ord.(m) >= lb then begin
        c.mark.(m) <- stamp;
        Ints.push stack m
      end
    done
  done

let rec sift ord a i n =
  let l = (2 * i) + 1 in
  if l < n then begin
    let m = if l + 1 < n && ord.(a.(l + 1)) > ord.(a.(l)) then l + 1 else l in
    if ord.(a.(m)) > ord.(a.(i)) then begin
      let x = a.(i) in
      a.(i) <- a.(m);
      a.(m) <- x;
      sift ord a m n
    end
  end

(* Heapsort a buffer of slots by their order. *)
let sort_by_ord ord (v : Ints.t) =
  let a = v.a and n = v.len in
  for i = (n / 2) - 1 downto 0 do
    sift ord a i n
  done;
  for last = n - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift ord a 0 last
  done

(* Reassign the affected positions: backward block first, then forward
   block, keeping each block's relative order. *)
let reorder c sc =
  let ord = c.ord and b = sc.bwd and f = sc.fwd and pool = sc.pool in
  sort_by_ord ord b;
  sort_by_ord ord f;
  pool.len <- 0;
  let i = ref 0 and j = ref 0 in
  while !i < b.len || !j < f.len do
    if !j >= f.len || (!i < b.len && ord.(b.a.(!i)) < ord.(f.a.(!j))) then begin
      Ints.push pool ord.(b.a.(!i));
      incr i
    end
    else begin
      Ints.push pool ord.(f.a.(!j));
      incr j
    end
  done;
  for k = 0 to b.len - 1 do
    ord.(b.a.(k)) <- pool.a.(k)
  done;
  for k = 0 to f.len - 1 do
    ord.(f.a.(k)) <- pool.a.(b.len + k)
  done

(* [add_edge c x y] between two live slots: true when the edge closes a
   cycle.  The edge then stays, as the violation does. *)
let add_edge c x y =
  if x = y then true
  else if has_edge c x y then false
  else begin
    push_adj c.succ c.n_succ x y;
    push_adj c.pred c.n_pred y x;
    c.n_edges <- c.n_edges + 1;
    let ox = c.ord.(x) and oy = c.ord.(y) in
    if ox < oy then false
    else begin
      let sc = Domain.DLS.get scratch in
      if search_forward c sc ~x ~y ~ub:ox then true
      else begin
        search_backward c sc ~x ~lb:oy;
        reorder c sc;
        false
      end
    end
  end

(* ------------------------------------------------------------------ *)

let fail t v = t.state <- Violation v

(* Node 0, the virtual initial write, precedes every write.  It keeps
   the smallest order, so those edges are implicit, and an edge into
   it always closes a cycle.  Edges out of a dropped write are skipped:
   no live node but 0 reaches it (see [prune]), so they lie on no path
   between live nodes.  The edge runs from write (slot [xs], node [xn])
   to the live write ([ys], [yn]). *)
let edge t c xs xn ys yn =
  match t.state with
  | Violation _ -> ()
  | Ok_so_far ->
    if yn = 0 then fail t (Fastcheck.Cycle [ xn - 1; -1 ])
    else if xn <> 0 && c.node.(xs) = xn then
      if add_edge c xs ys then fail t (Fastcheck.Cycle [ xn - 1; yn - 1 ])

let is_superseded c s = c.left.(s) < max_int

(* Drop every superseded write that no read may still return.  A write
   that left the write frontier was followed, in real time, by a
   completed write; a read invoked after that may not return it, so the
   write is kept only while a read invoked before it left is pending.
   It must also have no live predecessor but 0: the dropped set then
   stays closed under ancestors, so dropping it, and skipping the edges
   out of it later, loses no path between live nodes.  Dropping a write
   may free its successors, so a whole chain goes in one pass.  A pass
   costs O(|superseded|), so the next one waits that many write
   completions. *)
let prune c =
  let oldest = ref max_int in
  for i = 0 to c.n_procs - 1 do
    let pd = c.procs.(i) in
    if pd.doing = Reading && pd.since < !oldest then oldest := pd.since
  done;
  let oldest = !oldest and sup = c.superseded in
  let work = (Domain.DLS.get scratch).stack in
  work.len <- 0;
  for i = 0 to sup.len - 1 do
    let s = sup.a.(i) in
    if c.left.(s) <= oldest && c.n_pred.(s) = 0 then Ints.push work s
  done;
  while work.len > 0 do
    let s = Ints.pop work in
    let a = c.succ.(s) in
    for i = 0 to c.n_succ.(s) - 1 do
      let m = a.(i) in
      remove_adj c.pred c.n_pred m s;
      if c.n_pred.(m) = 0 && is_superseded c m && c.left.(m) <= oldest then
        Ints.push work m
    done;
    c.n_edges <- c.n_edges - c.n_succ.(s);
    c.n_succ.(s) <- 0;
    remove_slot c s;
    c.node.(s) <- -1;
    c.value.(s) <- c.dummy;
    c.n_nodes <- c.n_nodes - 1;
    c.ord.(s) <- c.free;
    c.free <- s
  done;
  let k = ref 0 in
  for i = 0 to sup.len - 1 do
    let s = sup.a.(i) in
    if c.node.(s) >= 0 then begin
      sup.a.(!k) <- s;
      incr k
    end
  done;
  sup.len <- !k;
  c.prune_at <- c.clock + !k

let rec find_proc c p i =
  if i = c.n_procs then -1
  else if c.procs.(i).proc = p then i
  else find_proc c p (i + 1)

let pending_of c p =
  let i = find_proc c p 0 in
  if i >= 0 then c.procs.(i)
  else begin
    let pd =
      {
        proc = p;
        doing = Idle;
        slot = 0;
        since = 0;
        before = 0;
        snap = Ints.create ();
        n_wf = 0;
      }
    in
    if c.n_procs = Array.length c.procs then
      c.procs <- grow c.procs (max 2 (2 * c.n_procs)) pd;
    c.procs.(c.n_procs) <- pd;
    c.n_procs <- c.n_procs + 1;
    pd
  end

(* Start [pd]'s snapshot with the write frontier as (slot, node) rows. *)
let snapshot_wfront c pd =
  let dst = pd.snap and f = c.wfront in
  dst.len <- 0;
  for i = 0 to f.len - 1 do
    Ints.push dst f.a.(i);
    Ints.push dst c.node.(f.a.(i))
  done;
  pd.n_wf <- dst.len

let handle_invoke t c p op =
  let pd = pending_of c p in
  if pd.doing <> Idle then
    invalid_arg "Monitor.observe: processor not sequential";
  match op with
  | Event.Write v ->
    if v = t.init || find_value c v >= 0 then
      fail t (Fastcheck.Duplicate_write v)
    else begin
      let s = add_node c v in
      let n = c.node.(s) in
      (* rule c: completed reads' sources precede every later write.
         Retired obligations are the oldest rows. *)
      let ob = c.obligations in
      let first = ref 0 in
      while !first < ob.len && ob.a.(!first + 2) < c.retired_below do
        first := !first + 3
      done;
      if !first > 0 then begin
        Array.blit ob.a !first ob.a 0 (ob.len - !first);
        ob.len <- ob.len - !first
      end;
      for i = (ob.len / 3) - 1 downto 0 do
        edge t c ob.a.(3 * i) ob.a.((3 * i) + 1) s n
      done;
      pd.doing <- Writing;
      pd.slot <- s;
      pd.since <- c.clock;
      pd.before <- c.obligations_made;
      snapshot_wfront c pd
    end
  | Event.Read ->
    pd.doing <- Reading;
    pd.since <- c.clock;
    pd.before <- c.reads_done;
    snapshot_wfront c pd;
    let r = c.rfront in
    for i = 0 to (r.len / 3) - 1 do
      Ints.push pd.snap r.a.(3 * i);
      Ints.push pd.snap r.a.((3 * i) + 1)
    done

let complete_write t c pd =
  pd.doing <- Idle;
  let s = pd.slot in
  let n = c.node.(s) in
  (* rule a: maximal writes completed before our invocation precede us *)
  let wf = pd.snap.a in
  for i = (pd.n_wf / 2) - 1 downto 0 do
    edge t c wf.(2 * i) wf.((2 * i) + 1) s n
  done;
  (* this completion dominates the frontier at our invocation, whose
     members still on the frontier are those completed before it *)
  c.clock <- c.clock + 1;
  let f = c.wfront in
  let k = ref 0 in
  for i = 0 to f.len - 1 do
    let m = f.a.(i) in
    if c.done_at.(m) <= pd.since then begin
      c.left.(m) <- c.clock;
      Ints.push c.superseded m
    end
    else begin
      f.a.(!k) <- m;
      incr k
    end
  done;
  f.len <- !k;
  Ints.push f s;
  c.done_at.(s) <- c.clock;
  (* retire rule-c obligations that predate our invocation *)
  if pd.before > c.retired_below then c.retired_below <- pd.before;
  if c.clock >= c.prune_at then prune c

(* Keep the 3-int rows of [r] whose third field is at least [lo]. *)
let keep_rows_from (r : Ints.t) lo =
  let k = ref 0 in
  for i = 0 to (r.len / 3) - 1 do
    if r.a.((3 * i) + 2) >= lo then begin
      Array.blit r.a (3 * i) r.a !k 3;
      k := !k + 3
    end
  done;
  r.len <- !k

let complete_read t c pd v =
  let sigma = if v = t.init then 0 else find_value c v in
  if sigma < 0 then
    (* never written, or dropped by [prune]: then a write completed
       before this read began overwrote it *)
    fail t (Fastcheck.Unknown_value v)
  else begin
    let sn = c.node.(sigma) and a = pd.snap.a in
    (* rule b: completed writes before our invocation precede sigma;
       rule d: so do sources of reads completed before it *)
    for i = (pd.n_wf / 2) - 1 downto 0 do
      let xn = a.((2 * i) + 1) in
      if xn <> sn then edge t c a.(2 * i) xn sigma sn
    done;
    for i = (pd.snap.len / 2) - 1 downto pd.n_wf / 2 do
      let xn = a.((2 * i) + 1) in
      if xn <> sn then edge t c a.(2 * i) xn sigma sn
    done;
    (* rule c: an obligation against future writes.  A later one from
       the same source retires no earlier, so it replaces that row;
       node 0's edges are implicit. *)
    if sn <> 0 then begin
      let ob = c.obligations in
      let k = ref 0 in
      for i = 0 to (ob.len / 3) - 1 do
        if ob.a.((3 * i) + 1) <> sn then begin
          Array.blit ob.a (3 * i) ob.a !k 3;
          k := !k + 3
        end
      done;
      ob.len <- !k;
      Ints.push ob sigma;
      Ints.push ob sn;
      Ints.push ob c.obligations_made;
      c.obligations_made <- c.obligations_made + 1
    end;
    (* we dominate the read frontier at our invocation: the entries
       completed before it *)
    let r = c.rfront in
    keep_rows_from r pd.before;
    Ints.push r sigma;
    Ints.push r sn;
    Ints.push r c.reads_done;
    c.reads_done <- c.reads_done + 1
  end

let handle_respond t c p res =
  let i = find_proc c p 0 in
  if i < 0 || c.procs.(i).doing = Idle then
    invalid_arg "Monitor.observe: response without request";
  let pd = c.procs.(i) in
  match (pd.doing, res) with
  | Writing, None -> complete_write t c pd
  | Writing, Some _ -> invalid_arg "Monitor.observe: write acked with value"
  | _, Some v ->
    pd.doing <- Idle;
    complete_read t c pd v
  | _, None ->
    pd.doing <- Idle;
    invalid_arg "Monitor.observe: read acked without value"

let observe t ev =
  match t.state with
  | Violation _ -> t.state
  | Ok_so_far ->
    let c = core t in
    (match ev with
     | Event.Invoke (p, op) -> handle_invoke t c p op
     | Event.Respond (p, res) -> handle_respond t c p res);
    t.state

let observe_all t evs =
  List.fold_left (fun _ ev -> observe t ev) t.state evs
