(* The register table lives either in a plain hashtable (volatile — a
   restart from amnesia loses it) or inside a Storage.t, which appends
   every accepted Store to its WAL before the handler builds the ack. *)
type backing =
  | Volatile of (int, int * Wire.payload) Hashtbl.t
  | Durable of Storage.t

(* Receive half of a two-bit FIFO link: the next sequence number this
   link will deliver, plus frames that arrived early.  Volatile — which
   is exactly why the twobit engine's fault model stops at crash-stop
   (see Engine_twobit): an amnesia restart would reset [next] and
   deadlock the link on sequence numbers the engine has already retired. *)
type rlink = {
  mutable next : int;
  future : (int, Wire.msg) Hashtbl.t;  (* seq -> frame, arrived early *)
}

type t = {
  unset : int * Wire.payload;  (* (0, initial): a never-stored register *)
  backing : backing;
      (* global reg index -> (timestamp, payload); absent = never
         stored, i.e. (0, initial) *)
  links : (int * int, rlink) Hashtbl.t;  (* (engine node, lid) *)
  unordered : bool;
      (* deliberate-bug hook: apply link frames in arrival order,
         ignoring their sequence numbers — the twobit counterpart of
         Quorum's ?read_quorum (see Bug) *)
  mutable handled : int;
  (* Acks waiting on the durable store, a FIFO ring of parallel slots
     (capacity a power of two), oldest at [ack_head]: the ack's kind,
     its destination and its two fields (rid and reg of a [Store_ack],
     lid and seq of an [Ack2]), and the [emit] it leaves through.  The
     store fires completions in the order they were queued, so the one
     completion [fire] handed to every append and marker pops the
     oldest slot. *)
  mutable ack_kind : int array;
  mutable ack_src : int array;
  mutable ack_a : int array;
  mutable ack_b : int array;
  mutable ack_emit : (Transport.node -> Wire.msg -> unit) array;
  mutable ack_head : int;
  mutable ack_count : int;
  mutable fire : unit -> unit;
  (* [handle_emit]'s last tupled [emit] and its curried wrapper, built
     once per distinct [emit] rather than once per call *)
  mutable tupled : Transport.node * Wire.msg -> unit;
  mutable curried : Transport.node -> Wire.msg -> unit;
}

let store_ack = 0
let ack2 = 1
let no_emit _ _ = ()

let ack_msg kind a b =
  if kind = store_ack then Wire.Store_ack { rid = a; reg = b }
  else Wire.Ack2 { lid = a; seq = b }

(* Emit the oldest waiting ack, its fields read before [emit] runs. *)
let pop_ack t =
  let i = t.ack_head in
  let emit = t.ack_emit.(i) in
  let src = t.ack_src.(i) in
  let m = ack_msg t.ack_kind.(i) t.ack_a.(i) t.ack_b.(i) in
  t.ack_emit.(i) <- no_emit;
  t.ack_head <- (i + 1) land (Array.length t.ack_src - 1);
  t.ack_count <- t.ack_count - 1;
  emit src m

(* Double the ring, its slots re-laid from the oldest at index 0. *)
let grow_acks t =
  let n = Array.length t.ack_src in
  let move a fill =
    let b = Array.make (2 * n) fill in
    for j = 0 to n - 1 do
      b.(j) <- a.((t.ack_head + j) land (n - 1))
    done;
    b
  in
  t.ack_kind <- move t.ack_kind 0;
  t.ack_src <- move t.ack_src 0;
  t.ack_a <- move t.ack_a 0;
  t.ack_b <- move t.ack_b 0;
  t.ack_emit <- move t.ack_emit no_emit;
  t.ack_head <- 0

let push_ack t ~emit ~src kind a b =
  if t.ack_count = Array.length t.ack_src then grow_acks t;
  let i = (t.ack_head + t.ack_count) land (Array.length t.ack_src - 1) in
  t.ack_kind.(i) <- kind;
  t.ack_src.(i) <- src;
  t.ack_a.(i) <- a;
  t.ack_b.(i) <- b;
  t.ack_emit.(i) <- emit;
  t.ack_count <- t.ack_count + 1

let create ~init ?storage ?(unordered = false) () =
  let backing =
    match storage with
    | None -> Volatile (Hashtbl.create 16)
    | Some st -> Durable st
  in
  let t =
    {
      unset = (0, Registers.Tagged.initial init);
      backing;
      links = Hashtbl.create 4;
      unordered;
      handled = 0;
      ack_kind = Array.make 16 0;
      ack_src = Array.make 16 0;
      ack_a = Array.make 16 0;
      ack_b = Array.make 16 0;
      ack_emit = Array.make 16 no_emit;
      ack_head = 0;
      ack_count = 0;
      fire = ignore;
      tupled = ignore;
      curried = no_emit;
    }
  in
  t.fire <- (fun () -> pop_ack t);
  t

(* the stored pair itself, or [unset]: no option per lookup *)
let lookup t reg =
  match t.backing with
  | Volatile regs -> (
    match Hashtbl.find regs reg with p -> p | exception Not_found -> t.unset)
  | Durable st -> Storage.find st reg ~default:t.unset

(* Store an entry, then emit its ack (of [kind], fields [a] and [b]) to
   [src] once it is durable: at once for a volatile table, from the
   group-commit completion for a durable one (inline when the store has
   no commit queue — the sync case). *)
let store t ~emit ~src kind a b reg ts pl =
  match t.backing with
  | Volatile regs ->
    Hashtbl.replace regs reg (ts, pl);
    emit src (ack_msg kind a b)
  | Durable st ->
    push_ack t ~emit ~src kind a b;
    Storage.append_async st ~reg ~ts pl ~k:t.fire

(* Emit an ack once everything already accepted is durable — the ack
   path for duplicates, whose original may still sit in the commit
   queue. *)
let after_durable t ~emit ~src kind a b =
  match t.backing with
  | Volatile _ -> emit src (ack_msg kind a b)
  | Durable st ->
    push_ack t ~emit ~src kind a b;
    Storage.on_durable st t.fire

(* Deliver one in-sequence (or, under the unordered bug, any) two-bit
   frame: apply it and emit its reply.  The apply counter is the
   replica's own per-register timestamp — under in-order delivery it
   advances exactly with the engine's store order, so the durable
   backing's ts-monotone apply is satisfied for free. *)
let deliver2 t ~src ~emit msg =
  match msg with
  | Wire.Store2 { lid; seq; reg; pl } when reg >= 0 ->
    let cur, _ = lookup t reg in
    (* persist before ack, like the ABD arm below: the Ack2 leaves the
       replica only once the entry's batch is durable *)
    store t ~emit ~src ack2 lid seq reg (cur + 1) pl
  | Wire.Query2 { lid; seq; reg } when reg >= 0 ->
    let _, pl = lookup t reg in
    emit src (Wire.Query2_reply { lid; seq; pl })
  | _ -> ()

(* Re-answer a frame the link already delivered (the engine's
   retransmission raced the reply): respond from current state, apply
   nothing.  Answering a duplicate query with a possibly-newer value is
   safe — the engine is the only writer, so anything newer was written
   by an operation the pending read may linearize after.  A duplicate
   Store2 still gates its Ack2 on the commit queue: the original may
   not be durable yet. *)
let reanswer2 t ~src ~emit msg =
  match msg with
  | Wire.Store2 { lid; seq; _ } -> after_durable t ~emit ~src ack2 lid seq
  | Wire.Query2 { lid; seq; reg } when reg >= 0 ->
    let _, pl = lookup t reg in
    emit src (Wire.Query2_reply { lid; seq; pl })
  | _ -> ()

let rlink_of t key =
  match Hashtbl.find_opt t.links key with
  | Some l -> l
  | None ->
    let l = { next = 0; future = Hashtbl.create 8 } in
    Hashtbl.replace t.links key l;
    l

let handle_link t ~src ~lid ~seq ~emit msg =
  if t.unordered then deliver2 t ~src ~emit msg
  else begin
    let l = rlink_of t (src, lid) in
    if seq < l.next then reanswer2 t ~src ~emit msg
    else if seq > l.next then
      (* a gap: park the frame; the engine keeps retransmitting the
         missing sequence numbers until the gap closes *)
      Hashtbl.replace l.future seq msg
    else begin
      l.next <- l.next + 1;
      deliver2 t ~src ~emit msg;
      (* drain any parked successors that are now in sequence *)
      let rec drain () =
        match Hashtbl.find_opt l.future l.next with
        | Some m ->
          Hashtbl.remove l.future l.next;
          l.next <- l.next + 1;
          deliver2 t ~src ~emit m;
          drain ()
        | None -> ()
      in
      drain ()
    end
  end

let rec handle t ~src ~emit msg =
  t.handled <- t.handled + 1;
  match msg with
  | Wire.Query { rid; reg } when reg >= 0 ->
    let ts, pl = lookup t reg in
    emit src (Wire.Query_reply { rid; reg; ts; pl })
  | Wire.Store { rid; reg; ts; pl } when reg >= 0 ->
    let cur, _ = lookup t reg in
    (* persist before ack: the Store_ack is emitted from the durable
       store's completion — inline for a sync store, from the group
       commit for a batched one — so an acknowledged timestamp can
       never be forgotten by a (recovering) restart *)
    if ts > cur then store t ~emit ~src store_ack rid reg reg ts pl
    else
      (* duplicate or stale: nothing to apply, but the original entry
         may still be in the commit queue — ack only after it commits *)
      after_durable t ~emit ~src store_ack rid reg
  | Wire.Store2 { lid; seq; _ } | Wire.Query2 { lid; seq; _ } ->
    handle_link t ~src ~lid ~seq ~emit msg
  | Wire.Batch msgs -> List.iter (handle t ~src ~emit) msgs
  | _ -> ()

let handle_emit t ~src ~emit msg =
  if t.tupled != emit then begin
    t.tupled <- emit;
    t.curried <- (fun dst m -> emit (dst, m))
  end;
  handle t ~src ~emit:t.curried msg

let drive t ~transport ~node =
  match t.backing with
  | Durable st -> Storage.drive st ~transport ~node
  | Volatile _ -> ()

(* A socket replica node.  The flush timer is armed through the corked
   transport, so the acks a deadline flush releases leave as one frame
   per peer too. *)
let serve t ~transport ~me =
  let tr, cork = Transport.cork transport in
  let emit dst m = tr.Transport.send ~src:me ~dst m in
  let step t ~src msg =
    handle t ~src ~emit msg;
    drive t ~transport:tr ~node:me
  in
  Transport.handle cork step t

let contents t =
  match t.backing with
  | Volatile regs ->
    Hashtbl.fold (fun reg p acc -> (reg, p) :: acc) regs []
    |> List.sort compare
  | Durable st -> Storage.contents st

let storage t = match t.backing with Volatile _ -> None | Durable st -> Some st
let lookup_reg t reg = lookup t reg
let handled t = t.handled
