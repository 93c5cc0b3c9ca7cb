(* Live reconfiguration: migrate one key to another shard's engine —
   and thereby to that shard's replica group — while the server keeps
   serving reads and writes of the key.  The server owns one [t] and
   routes every keyed micro-operation through {!read}/{!write}; outside
   a migration those are exactly {!Registry.read}/{!Registry.write}.

   The handoff runs in phases, all driven by the server's single
   execution thread (per-core: no locks needed):

   - {e Entry}: on an accepted [Wire.Reconfig] the key enters the
     dual-write discipline — every write micro-op is installed on both
     the outgoing and the incoming group (one timestamp, issued and
     appended once by [Registry.write_ts], both legs sent only once it
     is durable) and acks only when both majorities ack;
     reads satisfy the stricter intersection (ABD: collect from both
     groups, take the max timestamp, write the winner back to the
     outgoing group; twobit: the outgoing group alone is current, by
     FIFO-link order).
   - {e Settle}: wait until every client op admitted {e before} entry
     has finished.  A write micro-op issued pre-entry went to the old
     group only; once its op completes, its ack majority intersects
     any later read majority of the old group, so the sync below
     cannot miss it.  Ops admitted after entry dual-write and need no
     waiting — the settle count is monotone under traffic.
   - {e Sync}: for each of the key's registers, sample the freshest
     (ts, value) from the outgoing group ([read_ts], no write-back)
     and install it verbatim on the incoming one ([write_at]).  A
     register with a dual write in flight ("hot") is skipped: the dual
     write is already installing a strictly newer value on the new
     group, and skipping keeps the install from overtaking it on the
     twobit apply counter (for ABD the ts-monotone apply would make an
     install harmless anyway).
   - {e Drain}: park new admissions on the key (the server leaves them
     queued) and wait for in-flight ops to finish, so the cutover is
     not concurrent with any half-done op.
   - {e Done}: install the advanced {!Shard_map} (epoch + 1) in the
     registry, ack the requester with the new epoch, and unpark the
     key — parked ops re-dispatch and route to the new shard.

   The deliberate-bug hook [skip_dual_write] drops the incoming-group
   leg of every dual write: a write acked by the old group alone during
   migration is invisible to a post-cutover read, which the explorer
   must catch as a monitor violation (see Explore). *)

type phase = Settle | Sync | Drain

type mig = {
  key : int;
  from_shard : int;
  to_shard : int;
  mutable phase : phase;
  mutable sync_left : int;
  hot : int array;  (* per register bit: dual writes in flight *)
  finish : ok:bool -> epoch:int -> unit;
}

type t = {
  reg : Registry.t;
  enabled : bool;
  skip_dual_write : bool;
  mutable mig : mig option;
  (* in-flight client ops per key, split by admission generation:
     pre-entry ("old") ops gate Settle, their dual-writing successors
     ("new") gate Drain.  Counted for every key, all the time — entry
     must know the standing count the instant a migration starts. *)
  infl_old : (int, int) Hashtbl.t;
  infl_new : (int, int) Hashtbl.t;
  mutable unpark : int -> unit;
  started : Metrics.counter;
  completed : Metrics.counter;
  nacked : Metrics.counter;
  dual_writes : Metrics.counter;
  sync_installs : Metrics.counter;
  sync_skips : Metrics.counter;
  parked : Metrics.counter;
}

let create ~registry ~metrics ?(enabled = true) ?(skip_dual_write = false) ()
    =
  let c name = Metrics.counter metrics ("reconfig_" ^ name) in
  {
    reg = registry;
    enabled;
    skip_dual_write;
    mig = None;
    infl_old = Hashtbl.create 16;
    infl_new = Hashtbl.create 4;
    unpark = ignore;
    started = c "started";
    completed = c "completed";
    nacked = c "nacked";
    dual_writes = c "dual_writes";
    sync_installs = c "sync_installs";
    sync_skips = c "sync_skips";
    parked = c "parked";
  }

let set_unpark t f = t.unpark <- f
let epoch t = Shard_map.epoch (Registry.map t.reg)

(* [find], not [find_opt]: runs once per op, and allocates no option *)
let count tbl key =
  match Hashtbl.find tbl key with n -> n | exception Not_found -> 0

(* A key's entry stays, at 0, once its ops are done: removing it and
   adding it back would allocate a bucket per op.  The tables hold one
   entry per key this core has run an op on. *)
let bump tbl key d = Hashtbl.replace tbl key (count tbl key + d)

let admitting t key =
  match t.mig with
  | Some m when m.key = key && m.phase = Drain ->
    Metrics.incr t.parked;
    false
  | _ -> true

let cutover t m =
  Registry.set_map t.reg
    (Shard_map.advance (Registry.map t.reg) ~key:m.key ~to_shard:m.to_shard);
  t.mig <- None;
  Metrics.incr t.completed;
  m.finish ~ok:true ~epoch:(epoch t);
  t.unpark m.key

let sync_reg t m i ~done_one =
  (* the hot check runs twice: at issue, and again when the sample
     returns — a dual write that started in between would otherwise be
     overtaken by our (now stale) install on the twobit apply order *)
  if m.hot.(i) > 0 then begin
    Metrics.incr t.sync_skips;
    done_one ()
  end
  else
    let greg = Shard_map.global_reg m.key i in
    Registry.read_ts t.reg ~shard:m.from_shard ~reg:greg ~k:(fun (ts, pl) ->
        if m.hot.(i) > 0 then begin
          Metrics.incr t.sync_skips;
          done_one ()
        end
        else begin
          Metrics.incr t.sync_installs;
          Registry.write_at t.reg ~shard:m.to_shard ~reg:greg ~ts ~value:pl
            ~k:done_one
        end)

let rec start_sync t m =
  m.phase <- Sync;
  m.sync_left <- Shard_map.regs_per_key;
  let done_one () =
    m.sync_left <- m.sync_left - 1;
    if m.sync_left = 0 then begin
      m.phase <- Drain;
      advance t
    end
  in
  for i = 0 to Shard_map.regs_per_key - 1 do
    sync_reg t m i ~done_one
  done

(* phase transitions triggered by op completions (and by entry /
   sync completion, which call this to cover the already-quiescent
   case) *)
and advance t =
  match t.mig with
  | Some m when m.phase = Settle && count t.infl_old m.key = 0 ->
    start_sync t m
  | Some m
    when m.phase = Drain
         && count t.infl_new m.key = 0
         && count t.infl_old m.key = 0 ->
    cutover t m
  | _ -> ()

let op_started t ~key =
  match t.mig with
  | Some m when m.key = key ->
    bump t.infl_new key 1;
    true
  | _ ->
    bump t.infl_old key 1;
    false

let op_finished t ~key ~gen =
  bump (if gen then t.infl_new else t.infl_old) key (-1);
  advance t

let start t ~key ~to_shard ~epoch:req_epoch ~finish =
  let cur = epoch t in
  let nack () =
    Metrics.incr t.nacked;
    finish ~ok:false ~epoch:cur
  in
  if
    (not t.enabled)
    || req_epoch <> cur
    || t.mig <> None
    || key < 0
    || to_shard < 0
    || to_shard >= Registry.shards t.reg
  then nack ()
  else begin
    Metrics.incr t.started;
    let from_shard = Registry.shard_of_key t.reg key in
    if from_shard = to_shard then begin
      (* already placed there: still a configuration change — advance
         the epoch so the requester observes a completed transition *)
      Registry.set_map t.reg
        (Shard_map.advance (Registry.map t.reg) ~key ~to_shard);
      Metrics.incr t.completed;
      finish ~ok:true ~epoch:(epoch t)
    end
    else begin
      let m =
        {
          key;
          from_shard;
          to_shard;
          phase = Settle;
          sync_left = 0;
          hot = Array.make Shard_map.regs_per_key 0;
          finish;
        }
      in
      t.mig <- Some m;
      (* the key may already be op-quiescent: settle (and possibly the
         whole migration, on an idle key) completes immediately *)
      advance t
    end
  end

let read t ~key ~reg ~k =
  match t.mig with
  | Some m when m.key = key -> (
    let greg = Shard_map.global_reg key reg in
    match (Registry.spec t.reg).Engine.kind with
    | Engine.Twobit ->
      (* no comparable timestamps: the outgoing group alone is current
         (every dual write broadcast there first, FIFO links deliver in
         issue order), so the migration read degrades to a plain read
         of the old group (a twobit [read_ts] is a plain read) *)
      Registry.read_ts t.reg ~shard:m.from_shard ~reg:greg ~k:(fun (_, pl) ->
          k pl)
    | Engine.Abd ->
      (* intersection read: collect from both groups, adopt the max
         timestamp, and write the winner back to the outgoing group —
         a later intersection read always includes that group, so
         reader-reader atomicity holds through the handoff *)
      let r_old = ref None and r_new = ref None in
      let try_finish () =
        match (!r_old, !r_new) with
        | Some (ts_o, pl_o), Some (ts_n, pl_n) ->
          let ts, pl = if ts_n > ts_o then (ts_n, pl_n) else (ts_o, pl_o) in
          Registry.write_at t.reg ~shard:m.from_shard ~reg:greg ~ts
            ~value:pl ~k:(fun () -> k pl)
        | _ -> ()
      in
      Registry.read_ts t.reg ~shard:m.from_shard ~reg:greg ~k:(fun r ->
          r_old := Some r;
          try_finish ());
      Registry.read_ts t.reg ~shard:m.to_shard ~reg:greg ~k:(fun r ->
          r_new := Some r;
          try_finish ()))
  | _ -> Registry.read t.reg ~key ~reg ~k

let write t ~key ~reg ~value ~k =
  match t.mig with
  | Some m when m.key = key ->
    let greg = Shard_map.global_reg key reg in
    let leg shard k ts =
      Registry.write_at t.reg ~shard ~reg:greg ~ts ~value ~k
    in
    Metrics.incr t.dual_writes;
    if t.skip_dual_write then
      (* deliberate bug hook: drop the incoming-group leg.  A write
         acked during migration then lives only on the outgoing group,
         and a post-cutover read (new group only) misses it — the
         atomicity violation the explorer must find *)
      Registry.write_ts t.reg ~reg:greg ~value ~k:(leg m.from_shard k)
    else begin
      m.hot.(reg) <- m.hot.(reg) + 1;
      let pending = ref 2 in
      let done_one () =
        decr pending;
        if !pending = 0 then k ()
      in
      (* one timestamp, issued and appended once: the groups stay
         ts-comparable, neither leg leaves before the append is
         durable, and the ack waits for BOTH majorities — the
         dual-quorum write discipline *)
      Registry.write_ts t.reg ~reg:greg ~value ~k:(fun ts ->
          leg m.from_shard done_one ts;
          leg m.to_shard
            (fun () ->
              m.hot.(reg) <- m.hot.(reg) - 1;
              done_one ())
            ts)
    end
  | _ -> Registry.write t.reg ~key ~reg ~value ~k
