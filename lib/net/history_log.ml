module E = Histories.Event

(* Chunk [k] is [times.(k)], [keys.(k)] and [evs.(k)]; its event [i]
   sits at index [i] of each.  Three directories rather than one of
   chunk records: a new chunk of more than 256 events then allocates
   nothing on the minor heap. *)
type t = {
  mutable times : Float.Array.t array;
  mutable keys : int array array;
  mutable evs : int E.t array array;
  mutable n : int;  (* chunks in use: the full ones, then the last *)
  mutable fill : int;  (* events in the last chunk *)
  mutable len : int;
}

let create () =
  { times = [||]; keys = [||]; evs = [||]; n = 0; fill = 0; len = 0 }

(* chunk sizes: 16, then doubling up to this *)
let max_chunk = 4096

let length l = l.len

let grow a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let add_chunk l ev =
  let size =
    if l.n = 0 then 16
    else min max_chunk (2 * Array.length l.keys.(l.n - 1))
  in
  let times = Float.Array.make size 0.0
  and keys = Array.make size 0
  and evs = Array.make size ev in
  if l.n = Array.length l.keys then begin
    let dir = max 4 (2 * l.n) in
    l.times <- grow l.times dir times;
    l.keys <- grow l.keys dir keys;
    l.evs <- grow l.evs dir evs
  end;
  l.times.(l.n) <- times;
  l.keys.(l.n) <- keys;
  l.evs.(l.n) <- evs;
  l.n <- l.n + 1;
  l.fill <- 0

let append l time key ev =
  if l.n = 0 || l.fill = Array.length l.keys.(l.n - 1) then add_chunk l ev;
  let k = l.n - 1 and i = l.fill in
  Float.Array.set l.times.(k) i time;
  l.keys.(k).(i) <- key;
  l.evs.(k).(i) <- ev;
  l.fill <- i + 1;
  l.len <- l.len + 1

(* [f k i] for each event, at index [i] of chunk [k], in order. *)
let map l f =
  let acc = ref [] in
  for k = l.n - 1 downto 0 do
    let last =
      if k = l.n - 1 then l.fill - 1 else Array.length l.keys.(k) - 1
    in
    for i = last downto 0 do
      acc := f k i :: !acc
    done
  done;
  !acc

let events l = map l (fun k i -> l.evs.(k).(i))
let keyed l = map l (fun k i -> (l.keys.(k).(i), l.evs.(k).(i)))
let timed l = map l (fun k i -> (Float.Array.get l.times.(k) i, l.evs.(k).(i)))
