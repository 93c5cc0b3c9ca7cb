module Vm = Registers.Vm
module Tagged = Registers.Tagged

(* Every program below is a direct chain of [Vm.Read]/[Vm.Write]
   nodes, not a [Vm.bind] tower: stepping one builds only the next
   node and its continuation, where [bind] would rebuild each node and
   wrap its continuation once per enclosing bind.  The service steps
   one of these per client op.  Continuations that capture nothing,
   and the reader's whole first node, are static. *)

let writer_index ~level proc = (proc lsr level) land 1

let done_ () = Vm.Ret ()

let write_prog ~level ~proc w =
  let i = writer_index ~level proc in
  Vm.Read
    ( 1 - i,
      fun other ->
        (* t := i (+) t' *)
        let t = (i = 1) <> Tagged.tag other in
        Vm.Write (i, Tagged.make w t, done_) )

let reader =
  Vm.Read
    ( 0,
      fun c0 ->
        Vm.Read
          ( 1,
            fun c1 ->
              Vm.Read (Tagged.tag_sum c0 c1, fun c2 -> Vm.Ret (Tagged.v c2)) ) )

let read_prog () = reader

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

(* A writer's read through its copy: 1 real read of [Reg_{-i}].  When
   the tag sum points away, the full read reads [Reg_{-i}] again and
   the [single] variant returns the value it just read. *)
let copy_read ~single i =
  Vm.Read
    ( copy_cell i,
      fun own ->
        Vm.Read
          ( 1 - i,
            fun other ->
              let sum =
                if i = 0 then Tagged.tag_sum own other
                else Tagged.tag_sum other own
              in
              if sum = i then Vm.Ret (Tagged.v own)
              else if single then Vm.Ret (Tagged.v other)
              else Vm.Read (1 - i, fun c2 -> Vm.Ret (Tagged.v c2)) ) )

let cached_read_prog ~proc = copy_read ~single:false (writer_index ~level:0 proc)

let cached_write_prog ~proc w =
  let i = writer_index ~level:0 proc in
  Vm.Read
    ( 1 - i,
      fun other ->
        let tagged = Tagged.make w ((i = 1) <> Tagged.tag other) in
        Vm.Write (i, tagged, fun () -> Vm.Write (copy_cell i, tagged, done_)) )

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
  let read ~proc = copy_read ~single:true (writer_index ~level:0 proc) in
  with_copies ~read ~init ~other_init
