(* The server-side owner of the sharded keyspace: one replication
   engine per shard, each the exclusive writer of its shard's keys, all
   speaking from the same node over the same transport.  The engine
   protocol is chosen once per registry ({!Engine.spec}) — shards stay
   engine-homogeneous.  Replies are routed to the owning engine by the
   request-id residue (ABD messages: engine [s] issues rids congruent
   to [s] modulo the shard count) or the link id (two-bit messages:
   engine [s] of worker [w] of a [d]-worker pool speaks link id
   [s * d + w], so the pool routes a reply home by [lid mod d] and the
   worker's registry to its engine by [lid / d]; with one worker the
   link id is the shard index).  Routing must not depend on the
   register index: during a migration two engines carry pending phases
   for the same registers, and only the rid stripe tells their replies
   apart.

   The registry is also every register's one timestamp authority: it
   keeps one floor per global register, recovered once from the server
   store, issues each write's timestamp above it and appends the
   timestamp before any [Store] of it leaves.  The engines only
   replicate the (reg, ts, value) they are given. *)

(* One shard's engine: a closed two-case value, and each engine
   operation below is one [match] on it. *)
type engine = Abd of Quorum.t | Twobit of Engine_twobit.t

type t = {
  mutable map : Shard_map.t;
  spec : Engine.spec;
  engines : engine array;
  worker : int;
  domains : int;  (* a twobit engine's link id is [s * domains + worker] *)
  floors : (int, int) Hashtbl.t;  (* global reg -> highest ts issued *)
  storage : Storage.t option;
  metrics : Metrics.t;
  c_ops : Metrics.counter array;  (* shard<i>_quorum_ops *)
}

(* The [bug] hooks were validated against the engine kind when the
   {!Bug.t} was made; only ABD's weakened read quorum and skipped
   write-back reach an engine (twobit's hook lives in the replicas).
   [rid_base]/[rid_stride] stripe the abd rid space per shard (see
   Quorum); the twobit engine has no rids — its replies are matched by
   link seq on the striped lid. *)
let create ~transport ~me ~replicas ~map ?(engine = Engine.default)
    ?(bug = Bug.none) ?storage ?metrics ?(worker = (0, 1)) () =
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  let worker, domains = worker in
  let n = Shard_map.shards map in
  (* a restarted registry must never reuse a timestamp it already
     handed to the replicas, or a newer value would lose to an older
     one under the ts-monotone apply *)
  let floors = Hashtbl.create 16 in
  Option.iter
    (fun st ->
      List.iter
        (fun (reg, (ts, _)) -> Hashtbl.replace floors reg ts)
        (Storage.contents st))
    storage;
  {
    map;
    spec = engine;
    engines =
      Array.init n (fun s ->
          let replicas = Shard_map.group map ~replicas s in
          match engine.Engine.kind with
          | Engine.Abd ->
            Abd
              (Quorum.create ~transport ~me ~replicas
                 ?read_quorum:bug.Bug.read_quorum
                 ~skip_write_back:bug.Bug.skip_write_back ~metrics
                 ~rid_base:s ~rid_stride:n ())
          | Engine.Twobit ->
            Twobit
              (Engine_twobit.create ~transport ~me ~replicas
                 ~lid:((s * domains) + worker) ~metrics ()));
    worker;
    domains;
    floors;
    storage;
    metrics;
    c_ops =
      Array.init n (fun s ->
          Metrics.counter metrics (Fmt.str "shard%d_quorum_ops" s));
  }

let map t = t.map

let set_map t map =
  if Shard_map.shards map <> Array.length t.engines then
    invalid_arg "Registry.set_map: shard count must not change";
  t.map <- map

let spec t = t.spec
let shards t = Array.length t.engines
let shard_of_key t key = Shard_map.shard_of_key t.map key

let read t ~key ~reg ~k =
  let s = shard_of_key t key in
  Metrics.incr t.c_ops.(s);
  let reg = Shard_map.global_reg key reg in
  match t.engines.(s) with
  | Abd q -> Quorum.read q ~reg ~k
  | Twobit e -> Engine_twobit.read e ~reg ~k

(* [find], not [find_opt]: this runs on every write *)
let floor t reg =
  match Hashtbl.find t.floors reg with ts -> ts | exception Not_found -> 0

let store e ~reg ~ts ~value ~k =
  match e with
  | Abd q -> Quorum.store q ~reg ~ts ~value ~k
  | Twobit e -> Engine_twobit.store e ~reg ~ts ~value ~k

(* Raise [reg]'s floor to [ts], append (reg, ts, value), and store
   the pair through [e] once the append is durable: at once without a
   store, else when its group-commit batch commits.  Every [Store] of
   an issued timestamp leaves after its append, so a restarted registry
   recovers a floor at least as high as any timestamp a replica may
   hold. *)
let issue t e ~reg ~ts ~value ~k =
  Hashtbl.replace t.floors reg ts;
  match t.storage with
  | None -> store e ~reg ~ts ~value ~k
  | Some st ->
    Storage.append_async st ~reg ~ts value ~k:(fun () ->
        store e ~reg ~ts ~value ~k)

(* floor + 1 also dominates every write-back of an earlier read, which
   reuses a timestamp at or below the floor *)
let write t ~key ~reg ~value ~k =
  let s = shard_of_key t key in
  Metrics.incr t.c_ops.(s);
  let reg = Shard_map.global_reg key reg in
  issue t t.engines.(s) ~reg ~ts:(floor t reg + 1) ~value ~k

(* A timestamp at or below the floor was issued, and appended, before:
   only one above it is issued anew. *)
let write_at t ~shard ~reg ~ts ~value ~k =
  let e = t.engines.(shard) in
  if ts <= floor t reg then store e ~reg ~ts ~value ~k
  else issue t e ~reg ~ts ~value ~k

(* [issue] for the dual write, whose two legs [k] sends *)
let write_ts t ~reg ~value ~k =
  let ts = floor t reg + 1 in
  Hashtbl.replace t.floors reg ts;
  match t.storage with
  | None -> k ts
  | Some st -> Storage.append_async st ~reg ~ts value ~k:(fun () -> k ts)

(* A twobit engine has no comparable timestamps on the wire: a sample
   reports ts 0 (and its install, at ts 0, issues nothing; the
   replicas' apply counter orders it).  Sound because the migration
   never syncs a register with a dual write in flight, so an install
   cannot overtake a newer value on the apply counter. *)
let read_ts t ~shard ~reg ~k =
  match t.engines.(shard) with
  | Abd q -> Quorum.read_ts q ~reg ~k
  | Twobit e -> Engine_twobit.read e ~reg ~k:(fun pl -> k (0, pl))

let deliver e ~src msg =
  match e with
  | Abd q -> Quorum.on_message q ~src msg
  | Twobit e -> Engine_twobit.on_message e ~src msg

(* recursive with explicit arguments: no closure per reply, only per
   [Batch] *)
let rec on_message t ~src msg =
  let n = Array.length t.engines in
  match msg with
  | Wire.Query_reply { rid; _ } | Wire.Store_ack { rid; _ } ->
    if rid >= 0 then deliver t.engines.(rid mod n) ~src msg
  | Wire.Ack2 { lid; _ } | Wire.Query2_reply { lid; _ } ->
    if lid >= 0 && lid mod t.domains = t.worker && lid / t.domains < n then
      deliver t.engines.(lid / t.domains) ~src msg
  | Wire.Batch msgs -> List.iter (fun m -> on_message t ~src m) msgs
  | _ -> ()

let resend_pending ?older_than t =
  Array.fold_left
    (fun still e ->
      (match e with
       | Abd q -> Quorum.resend_pending ?older_than q
       | Twobit e -> Engine_twobit.resend_pending ?older_than e)
      || still)
    false t.engines

let stats t = Engine.stats_of t.spec.Engine.kind (Metrics.get t.metrics)
