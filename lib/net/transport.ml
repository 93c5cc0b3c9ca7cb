type node = int

let server = 100
let client p = 200 + p

type t = {
  send : src:node -> dst:node -> Wire.msg -> unit;
  set_timer : node:node -> delay:float -> (unit -> unit) -> unit;
  now : unit -> float;
}

let null =
  {
    send = (fun ~src:_ ~dst:_ _ -> ());
    set_timer = (fun ~node:_ ~delay:_ _ -> ());
    now = (fun () -> 0.0);
  }

(* One destination's messages in the open turn, in send order: the
   first [n] of [msgs], an array that doubles when full and is reused
   turn after turn, so a send conses nothing.  A slot belongs to its
   destination for the cork's life.  The open turn's slots form a ring
   through [next], from the cork's [root] back to it, in first-send
   order; a slot outside the turn points to itself and holds no
   message. *)
type slot = {
  dst : node;
  mutable msgs : Wire.msg array;
  mutable n : int;
  mutable next : slot;
}

type cork = {
  base : t;
  mutable src : node;  (* the node every send names *)
  mutable depth : int;
  slots : (node, slot) Hashtbl.t;  (* every destination ever sent to *)
  root : slot;  (* the ring's anchor, no destination's *)
  mutable last : slot;  (* the turn's newest destination, or [root] *)
}

(* Chunked well under both the decoder's [Wire.max_batch] and
   [Wire.max_frame]. *)
let cork_chunk = 2048

let new_slot dst =
  let rec s = { dst; msgs = Array.make 4 Wire.Bye; n = 0; next = s } in
  s

(* Empty a slot, so that it keeps no shipped or unsent message alive. *)
let clear s =
  Array.fill s.msgs 0 s.n Wire.Bye;
  s.n <- 0

let rec unlink_from c s =
  if s != c.root then begin
    let next = s.next in
    s.next <- s;
    clear s;
    unlink_from c next
  end

(* Ship [s]'s messages from [i] on, [cork_chunk] at a time: a chunk of
   one as itself, a longer one as a [Batch] whose list is built once,
   back to front, clearing each entry it takes. *)
let rec ship_chunks c s i =
  let len = Int.min cork_chunk (s.n - i) in
  let msgs = s.msgs in
  if len = 1 then begin
    let m = msgs.(i) in
    msgs.(i) <- Wire.Bye;
    c.base.send ~src:c.src ~dst:s.dst m
  end
  else begin
    let l = ref [] in
    for j = i + len - 1 downto i do
      l := msgs.(j) :: !l;
      msgs.(j) <- Wire.Bye
    done;
    c.base.send ~src:c.src ~dst:s.dst (Wire.Batch !l);
    if i + len < s.n then ship_chunks c s (i + len)
  end

(* Each slot leaves the turn as it ships.  A send that raises ends the
   turn: the slots after it are unlinked unsent, so that their
   destinations start the next turn afresh. *)
let rec ship_from c s =
  if s != c.root then begin
    let next = s.next in
    s.next <- s;
    (match ship_chunks c s 0 with
     | () -> s.n <- 0
     | exception e ->
       let bt = Printexc.get_raw_backtrace () in
       clear s;
       unlink_from c next;
       Printexc.raise_with_backtrace e bt);
    ship_from c next
  end

let ship c =
  let s = c.root.next in
  c.root.next <- c.root;
  c.last <- c.root;
  ship_from c s

let close c =
  c.depth <- c.depth - 1;
  if c.depth = 0 && c.root.next != c.root then ship c

let close_raise c e =
  let bt = Printexc.get_raw_backtrace () in
  close c;
  Printexc.raise_with_backtrace e bt

(* [turn] and [handle] match rather than [Fun.protect], whose
   [finally] closure would cost every turn; both ship on either exit *)
let turn c f =
  c.depth <- c.depth + 1;
  match f () with () -> close c | exception e -> close_raise c e

let handle c h x ~src msg =
  c.depth <- c.depth + 1;
  match h x ~src msg with () -> close c | exception e -> close_raise c e

(* Found in constant time, and allocated once per destination: a pool
   worker's turn can reach every replica and every client it answers. *)
let slot c dst =
  match Hashtbl.find c.slots dst with
  | s -> s
  | exception Not_found ->
    let s = new_slot dst in
    Hashtbl.replace c.slots dst s;
    s

let push s msg =
  if s.n = Array.length s.msgs then begin
    let a = Array.make (2 * s.n) Wire.Bye in
    Array.blit s.msgs 0 a 0 s.n;
    s.msgs <- a
  end;
  s.msgs.(s.n) <- msg;
  s.n <- s.n + 1

let corked_send c ~src ~dst msg =
  if c.depth = 0 then c.base.send ~src ~dst msg
  else
    let s = slot c dst in
    if s.next == s then begin
      s.next <- c.root;
      c.last.next <- s;
      c.last <- s;
      c.src <- src
    end;
    push s msg

let cork base =
  let root = new_slot (-1) in
  let c =
    { base; src = -1; depth = 0; slots = Hashtbl.create 8; root; last = root }
  in
  let set_timer ~node ~delay f =
    base.set_timer ~node ~delay (fun () -> turn c f)
  in
  ({ base with send = corked_send c; set_timer }, c)
