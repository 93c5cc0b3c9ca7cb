(** The Bloom two-writer protocol (Section 5 of the paper), as
    micro-step programs over two atomic cells holding tagged values.

    Writer [i], writing [w]:
    {v
      read  t', v'  from Reg_{-i}
      t := i (+) t'
      write t, w    to  Reg_i
    v}

    Reader:
    {v
      read t0, v0 from Reg_0
      read t1, v1 from Reg_1
      r := t0 (+) t1
      read t2, v2 from Reg_r
      return v2
    v}

    A simulated read costs 3 real reads and a write 1 real read + 1
    real write.  A writer that keeps a copy of its own register reads
    in 1 or 2 real reads ({!cached_read_prog}, the paper's Section 5);
    the network service runs that version for its two writers.

    The programs are pure (no state outside the cells), so they may be
    explored exhaustively by the model checker as well as run randomly
    or on shared memory.

    {[
      let reg = Core.Protocol.bloom ~init:0 ~other_init:0 () in
      let trace =
        Registers.Run_coarse.run ~seed:1 reg
          [ { Registers.Vm.proc = 0; script = [ Write 7 ] };
            { Registers.Vm.proc = 2; script = [ Read ] } ]
      in
      (* certify with the paper's own proof *)
      match Core.Certifier.certify (Core.Gamma.analyse ~init:0 trace) with
      | Certified _ -> ()
      | Failed msg -> failwith msg
    ]} *)

val writer_index : level:int -> Histories.Event.proc -> int
(** Which of the two real registers a processor owns: bit [level] of
    the processor id.  [level = 0] is the plain two-writer register
    (processors 0 and 1 are the writers); higher levels implement the
    tournament grouping of Section 8, where e.g. at [level = 1]
    processors {0,1} share register 0 and {2,3} share register 1. *)

val write_prog :
  level:int ->
  proc:Histories.Event.proc ->
  'v ->
  ('v Registers.Tagged.t, unit) Registers.Vm.prog
(** The three-line writer code above, for the processor's register at
    the given tournament level. *)

val read_prog : unit -> ('v Registers.Tagged.t, 'v) Registers.Vm.prog
(** The reader code above (identical for every reader). *)

val bloom :
  ?level:int ->
  init:'v ->
  other_init:'v ->
  unit ->
  ('v Registers.Tagged.t, 'v) Registers.Vm.built
(** The simulated register over two atomic cells: [Reg0] initialised to
    [(init, 0)] and [Reg1] to [(other_init, 0)].  Both tag bits are 0,
    so the register's initial value is [init]; [other_init] is
    irrelevant to the semantics (the paper's footnote 4) and defaults
    are not provided to keep traces explicit.  [level] defaults to 0,
    the correct two-writer register.  [level >= 1] {e is} the broken
    tournament extension run directly over two multi-writer atomic
    cells — the setting of the paper's Figure 5 counterexample. *)

val real_reads_per_read : int
(** = 3, the paper's claim for a simulated read. *)

val real_accesses_per_write : int * int
(** = (1 read, 1 write), the paper's claim for a simulated write. *)

(** {1 The Section 5 local-copy optimisation, in the model}

    "The number of real reads that such a writer performs in a
    simulated read may be reduced to one or two by having the writer
    keep a local copy of its own real register."

    The copy is modelled as an extra cell private to each writer
    (cells 2 and 3), so the programs stay pure and the optimisation can
    be model-checked exhaustively — the paper states the claim without
    proof.  Private-cell accesses are not real-register traffic; filter
    them with {!is_local_cell} when counting.

    The message-passing service ([Net.Server]) runs {!cached_read_prog}
    and {!cached_write_prog} for its writer sessions and keeps cells 2
    and 3 as an in-memory table: a read by a writer costs 1 or 2
    replicated real reads instead of 3. *)

val cached_read_prog :
  proc:Histories.Event.proc -> ('v Registers.Tagged.t, 'v) Registers.Vm.prog
(** Writer [proc]'s read ([proc] is 0 or 1) through its copy of its own
    register [Reg_i] (cell [2 + i]):
    {v
      own   := copy of Reg_i             (no real access)
      read  t', v' from Reg_{-i}
      if the tag sum of own and t' is i: return own's value
      else read t2, v2 from Reg_{-i}; return v2
    v}
    1 real read when the tag sum points at its own register, 2 when it
    points away.  Correct only while the copy holds [Reg_i]'s value,
    i.e. every write to [Reg_i] is {!cached_write_prog}. *)

val cached_write_prog :
  proc:Histories.Event.proc ->
  'v ->
  ('v Registers.Tagged.t, unit) Registers.Vm.prog
(** {!write_prog} at level 0, then the same tagged value stored into
    the writer's copy (cell [2 + i]): 1 real read + 1 real write. *)

val bloom_cached :
  init:'v ->
  other_init:'v ->
  unit ->
  ('v Registers.Tagged.t, 'v) Registers.Vm.built
(** Like {!bloom} (level 0 only), but built from {!cached_read_prog}
    and {!cached_write_prog}: processors 0 and 1 read through their
    local copies, which start at the registers' initial values.  Other
    processors read with {!read_prog}. *)

val bloom_cached_single_read :
  init:'v ->
  other_init:'v ->
  unit ->
  ('v Registers.Tagged.t, 'v) Registers.Vm.built
(** An open question, not a proven protocol.  A writer's own register
    cannot change while that writer reads, so when the tag sum points
    away this variant returns the value of its one real read of
    [Reg_{-i}] instead of reading [Reg_{-i}] again: every writer read
    costs exactly 1 real read.  Small configurations check atomic
    exhaustively ([mcheck --protocol bloom-cached-single-read]); no
    proof exists, and the service does not run it. *)

val is_local_cell : int -> bool
(** Cells 2 and 3 are the writers' private copies. *)
