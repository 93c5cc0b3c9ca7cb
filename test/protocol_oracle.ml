(* A test-only oracle: Bloom's programs as they were built with
   [Vm.bind] before Core.Protocol wrote them as direct
   [Vm.Read]/[Vm.Write] chains, kept verbatim so a property can check
   that both make the same accesses and return the same results.  Only
   the tests use it. *)

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

let copy_cell i = 2 + i

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

let single_read_prog ~proc =
  copy_read ~proc ~away:(fun _ other -> Vm.return (Tagged.v other))
