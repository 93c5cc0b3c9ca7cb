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

(* A corked destination's buffered messages, newest first. *)
type corked = { src : node; mutable rev : Wire.msg list }

(* Chunked well under both the decoder's [Wire.max_batch] and
   [Wire.max_frame]. *)
let cork_chunk = 2048

let cork base =
  let depth = ref 0 in
  let buf : (node, corked) Hashtbl.t = Hashtbl.create 8 in
  (* ship each destination's messages, batching whenever there is more
     than one *)
  let ship () =
    if Hashtbl.length buf > 0 then begin
      let items = Hashtbl.fold (fun dst c acc -> (dst, c) :: acc) buf [] in
      Hashtbl.reset buf;
      List.iter
        (fun (dst, { src; rev }) ->
          let rec go = function
            | [] -> ()
            | [ m ] -> base.send ~src ~dst m
            | ms ->
              let rec take n acc = function
                | rest when n = 0 -> (List.rev acc, rest)
                | [] -> (List.rev acc, [])
                | m :: rest -> take (n - 1) (m :: acc) rest
              in
              let chunk, rest = take cork_chunk [] ms in
              base.send ~src ~dst (Wire.Batch chunk);
              go rest
          in
          go (List.rev rev))
        items
    end
  in
  (* ships on both exits; matched rather than [Fun.protect]ed, whose
     [finally] closure would cost every turn *)
  let turn f =
    incr depth;
    match f () with
    | () ->
      decr depth;
      if !depth = 0 then ship ()
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      decr depth;
      if !depth = 0 then ship ();
      Printexc.raise_with_backtrace e bt
  in
  let send ~src ~dst msg =
    if !depth = 0 then base.send ~src ~dst msg
    else
      match Hashtbl.find_opt buf dst with
      | Some c -> c.rev <- msg :: c.rev
      | None -> Hashtbl.replace buf dst { src; rev = [ msg ] }
  in
  let set_timer ~node ~delay f =
    base.set_timer ~node ~delay (fun () -> turn f)
  in
  ({ base with send; set_timer }, turn)
