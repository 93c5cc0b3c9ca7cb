module Vm = Registers.Vm
module Tagged = Registers.Tagged

let writer_index ~level proc = (proc lsr level) land 1

let write_prog ~level ~proc w =
  let i = writer_index ~level proc in
  Vm.bind (Vm.read (1 - i)) (fun other ->
      (* t := i (+) t' *)
      let t = (i = 1) <> Tagged.tag other in
      Vm.write i (Tagged.make w t))

let read_prog () =
  Vm.bind (Vm.read 0) (fun c0 ->
      Vm.bind (Vm.read 1) (fun c1 ->
          let r = Tagged.tag_sum c0 c1 in
          Vm.bind (Vm.read r) (fun c2 -> Vm.return (Tagged.v c2))))

let bloom ?(level = 0) ~init ~other_init () =
  {
    Vm.spec =
      [|
        Vm.atomic_cell (Tagged.initial init);
        Vm.atomic_cell (Tagged.initial other_init);
      |];
    read = (fun ~proc:_ -> read_prog ());
    write = (fun ~proc w -> write_prog ~level ~proc w);
  }

let real_reads_per_read = 3
let real_accesses_per_write = (1, 1)

let is_local_cell c = c >= 2

(* Writer [i]'s copy of its own register [Reg_i] is cell [2 + i]. *)
let copy_cell i = 2 + i

(* A writer's read through its copy: 1 real read of [Reg_{-i}]; when
   the tag sum points away, [away i other] finishes the read. *)
let copy_read ~away ~proc =
  let i = writer_index ~level:0 proc in
  Vm.bind (Vm.read (copy_cell i)) (fun own ->
      Vm.bind (Vm.read (1 - i)) (fun other ->
          let c0, c1 = if i = 0 then (own, other) else (other, own) in
          if Tagged.tag_sum c0 c1 = i then Vm.return (Tagged.v own)
          else away i other))

let cached_read_prog ~proc =
  copy_read ~proc ~away:(fun i _ ->
      Vm.bind (Vm.read (1 - i)) (fun c2 -> Vm.return (Tagged.v c2)))

let cached_write_prog ~proc w =
  let i = writer_index ~level:0 proc in
  Vm.bind (Vm.read (1 - i)) (fun other ->
      let t = (i = 1) <> Tagged.tag other in
      let tagged = Tagged.make w t in
      Vm.bind (Vm.write i tagged) (fun () -> Vm.write (copy_cell i) tagged))

let with_copies ~read ~init ~other_init =
  {
    Vm.spec =
      [|
        Vm.atomic_cell (Tagged.initial init);
        Vm.atomic_cell (Tagged.initial other_init);
        Vm.atomic_cell (Tagged.initial init);       (* Wr0's copy of Reg0 *)
        Vm.atomic_cell (Tagged.initial other_init); (* Wr1's copy of Reg1 *)
      |];
    read =
      (fun ~proc -> if proc = 0 || proc = 1 then read ~proc else read_prog ());
    write = cached_write_prog;
  }

let bloom_cached ~init ~other_init () =
  with_copies ~read:cached_read_prog ~init ~other_init

(* The open question: return the one real read's value even when the
   tag sum points away. *)
let bloom_cached_single_read ~init ~other_init () =
  let read = copy_read ~away:(fun _ other -> Vm.return (Tagged.v other)) in
  with_copies ~read ~init ~other_init
