(* The server-side owner of the sharded keyspace: one replication
   engine per shard, each the exclusive writer of its shard's keys, all
   speaking from the same node over the same transport.  The engine
   protocol is chosen once per registry ({!Engine.spec}) — shards stay
   engine-homogeneous.  Replies are routed to the owning engine by the
   request-id residue (ABD messages: engine [s] issues rids congruent
   to [s] modulo the shard count) or the link id (two-bit messages,
   whose link id is the shard index).  Routing must not depend on the
   register index: during a migration two engines carry pending phases
   for the same registers, and only the rid stripe tells their replies
   apart. *)

type t = {
  mutable map : Shard_map.t;
  spec : Engine.spec;
  engines : Engine.instance array;
  c_ops : Metrics.counter array;  (* shard<i>_quorum_ops *)
}

let create ~transport ~me ~replicas ~map ?(engine = Engine.default) ?bug
    ?storage ?metrics () =
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  let n = Shard_map.shards map in
  {
    map;
    spec = engine;
    engines =
      (* the engines share one store safely: each is the exclusive
         writer of its shard's (disjoint) global registers *)
      Array.init n (fun s ->
          Engines.create engine ?bug ~transport ~me
            ~replicas:(Shard_map.group map ~replicas s)
            ~lid:s ?storage ~metrics ~rid_base:s ~rid_stride:n ());
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
let engine t shard = t.engines.(shard)

let read t ~key ~reg ~k =
  let s = shard_of_key t key in
  Metrics.incr t.c_ops.(s);
  Engine.read t.engines.(s) ~reg:(Shard_map.global_reg key reg) ~k

let write t ~key ~reg ~value ~k =
  let s = shard_of_key t key in
  Metrics.incr t.c_ops.(s);
  Engine.write t.engines.(s) ~reg:(Shard_map.global_reg key reg) ~value ~k

(* recursive with explicit arguments: no closure per reply, only per
   [Batch] *)
let rec on_message t ~src msg =
  let n = Array.length t.engines in
  match msg with
  | Wire.Query_reply { rid; _ } | Wire.Store_ack { rid; _ } ->
    if rid >= 0 then Engine.on_message t.engines.(rid mod n) ~src msg
  | Wire.Ack2 { lid; _ } | Wire.Query2_reply { lid; _ } ->
    if lid >= 0 && lid < n then Engine.on_message t.engines.(lid) ~src msg
  | Wire.Batch msgs -> List.iter (fun m -> on_message t ~src m) msgs
  | _ -> ()

let resend_pending ?older_than t =
  Array.fold_left
    (fun still e -> Engine.resend_pending ?older_than e || still)
    false t.engines

let stats t =
  Array.fold_left
    (fun acc e -> Engine.add_stats acc (Engine.stats e))
    Engine.zero_stats t.engines
