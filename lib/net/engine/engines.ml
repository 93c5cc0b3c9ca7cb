(* Engine factory: one {!Engine.spec} in, one packed instance out.  The
   [bug] hooks were validated against the engine kind when the
   {!Bug.t} was made; only ABD's weakened read quorum and skipped
   write-back reach an engine (twobit's hook lives in the replicas). *)

(* [rid_base]/[rid_stride] stripe the abd rid space per shard (see
   Quorum); the twobit engine has no rids — its replies are matched by
   link seq on the shard-indexed lid — so it ignores them. *)
let create (spec : Engine.spec) ?(bug = Bug.none) ~transport ~me ~replicas
    ~lid ?storage ?metrics ?rid_base ?rid_stride () =
  match spec.Engine.kind with
  | Engine.Abd ->
    Engine_abd.create ~transport ~me ~replicas ?read_quorum:bug.Bug.read_quorum
      ~skip_write_back:bug.Bug.skip_write_back ?storage ?metrics ?rid_base
      ?rid_stride ()
  | Engine.Twobit ->
    Engine_twobit.instance ~transport ~me ~replicas ~lid ?storage ?metrics ()
