type access_summary = {
  op_reads : int * int;
  op_read_writes : int * int;
  wr_reads : int * int;
  wr_writes : int * int;
  n_reads : int;
  n_writes : int;
}

let widen (lo, hi) x = (min lo x, max hi x)

let empty_range = (max_int, min_int)

let summarise_accesses trace =
  let counts = Registers.Vm.prim_counts trace in
  List.fold_left
    (fun acc (_, op, r, w) ->
      match op with
      | Histories.Event.Read ->
        {
          acc with
          op_reads = widen acc.op_reads r;
          op_read_writes = widen acc.op_read_writes w;
          n_reads = acc.n_reads + 1;
        }
      | Histories.Event.Write _ ->
        {
          acc with
          wr_reads = widen acc.wr_reads r;
          wr_writes = widen acc.wr_writes w;
          n_writes = acc.n_writes + 1;
        })
    {
      op_reads = empty_range;
      op_read_writes = empty_range;
      wr_reads = empty_range;
      wr_writes = empty_range;
      n_reads = 0;
      n_writes = 0;
    }
    counts

let pp_range ppf (lo, hi) =
  if lo > hi then Fmt.string ppf "-"
  else if lo = hi then Fmt.int ppf lo
  else Fmt.pf ppf "%d..%d" lo hi

let pp_access_summary ppf s =
  Fmt.pf ppf
    "@[<v>simulated read : %a real reads, %a real writes  (%d ops)@,\
     simulated write: %a real reads, %a real writes  (%d ops)@]"
    pp_range s.op_reads pp_range s.op_read_writes s.n_reads pp_range s.wr_reads
    pp_range s.wr_writes s.n_writes

module Reservoir = struct
  (* [acc] holds the running sum and maximum: a float array stores
     them unboxed, where a mutable float field of this mixed record
     would box a fresh float on every [add].  [buf] starts small and
     doubles up to [cap] as observations arrive, so a reservoir that
     sees few of them costs little: the simulator builds a dozen per
     run, and the explorer one run per schedule. *)
  type t = {
    mutable buf : float array;
    cap : int;
    rng : Random.State.t;
    mutable n : int;  (* total observations offered *)
    acc : float array;  (* [| sum; max |] *)
  }

  let initial = 16

  let create ?(capacity = 2048) ~seed () =
    if capacity <= 0 then invalid_arg "Stats.Reservoir.create: capacity";
    {
      buf = Array.make (min capacity initial) 0.0;
      cap = capacity;
      rng = Random.State.make [| seed; 0x7265731b |];
      n = 0;
      acc = [| 0.0; neg_infinity |];
    }

  let grow r =
    let buf = Array.make (min r.cap (2 * Array.length r.buf)) 0.0 in
    Array.blit r.buf 0 buf 0 r.n;
    r.buf <- buf

  (* Vitter's algorithm R: after n observations each one is retained
     with probability cap/n, so the kept samples are a uniform sample
     of the whole stream and percentiles stay unbiased however long
     the run. *)
  let add r x =
    if r.n < r.cap then begin
      if r.n = Array.length r.buf then grow r;
      r.buf.(r.n) <- x
    end
    else begin
      (* [full_int]: draws as [int] does below 2^30, and past it does
         not raise, so [add] never raises (callers hold a lock) *)
      let j = Random.State.full_int r.rng (r.n + 1) in
      if j < r.cap then r.buf.(j) <- x
    end;
    r.n <- r.n + 1;
    r.acc.(0) <- r.acc.(0) +. x;
    if x > r.acc.(1) then r.acc.(1) <- x

  let count r = r.n
  let sum r = r.acc.(0)
  let max_value r = if r.n = 0 then nan else r.acc.(1)
  let mean r = if r.n = 0 then nan else r.acc.(0) /. float_of_int r.n
  let samples r = Array.sub r.buf 0 (min r.n r.cap)
end

let percentile samples p =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: out of range";
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  let idx = int_of_float (Float.of_int (n - 1) *. p /. 100.0 +. 0.5) in
  sorted.(max 0 (min (n - 1) idx))

let percentile_opt samples p =
  if Array.length samples = 0 then None else Some (percentile samples p)

let mean samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Stats.mean: empty";
  Array.fold_left ( +. ) 0.0 samples /. float_of_int n
