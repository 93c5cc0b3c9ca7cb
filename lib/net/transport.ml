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

(* One destination's messages in the open turn: [first], then [rest]
   newest first.  A one-message destination conses nothing.  A slot
   belongs to its destination for the cork's life.  The open turn's
   slots form a ring through [next], from the cork's [root] back to
   it, in first-send order; a slot outside the turn points to itself. *)
type slot = {
  dst : node;
  mutable first : Wire.msg;
  mutable rest : Wire.msg list;
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

let rec take n acc = function
  | m :: rest when n > 0 -> take (n - 1) (m :: acc) rest
  | rest -> (List.rev acc, rest)

let rec ship_chunks base ~src ~dst ms =
  match take cork_chunk [] ms with
  | [ m ], [] -> base.send ~src ~dst m
  | chunk, rest ->
    base.send ~src ~dst (Wire.Batch chunk);
    if rest <> [] then ship_chunks base ~src ~dst rest

let unlink s =
  s.next <- s;
  s.first <- Wire.Bye;
  s.rest <- []

let rec unlink_from c s =
  if s != c.root then begin
    let next = s.next in
    unlink s;
    unlink_from c next
  end

(* Each slot leaves the turn as it ships.  A send that raises ends the
   turn: the slots after it are unlinked unsent, so that their
   destinations start the next turn afresh. *)
let rec ship_from c s =
  if s != c.root then begin
    let { dst; first; rest; next } = s in
    unlink s;
    (match
       if rest = [] then c.base.send ~src:c.src ~dst first
       else ship_chunks c.base ~src:c.src ~dst (first :: List.rev rest)
     with
     | () -> ()
     | exception e ->
       let bt = Printexc.get_raw_backtrace () in
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
    let rec s = { dst; first = Wire.Bye; rest = []; next = s } in
    Hashtbl.replace c.slots dst s;
    s

let corked_send c ~src ~dst msg =
  if c.depth = 0 then c.base.send ~src ~dst msg
  else
    let s = slot c dst in
    if s.next != s then s.rest <- msg :: s.rest
    else begin
      s.first <- msg;
      s.next <- c.root;
      c.last.next <- s;
      c.last <- s;
      c.src <- src
    end

let cork base =
  let rec root = { dst = -1; first = Wire.Bye; rest = []; next = root } in
  let c =
    { base; src = -1; depth = 0; slots = Hashtbl.create 8; root; last = root }
  in
  let set_timer ~node ~delay f =
    base.set_timer ~node ~delay (fun () -> turn c f)
  in
  ({ base with send = corked_send c; set_timer }, c)
