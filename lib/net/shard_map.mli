(** Sharding of the register keyspace, with epoch-stamped placement.

    The service hosts one independent two-writer register per {e key}.
    A [Shard_map] decides, deterministically, (a) which {e shard} —
    which {!Quorum} engine of the server's {!Registry} — owns a key,
    and (b) which replicas form that shard's quorum group.  Placement
    is a pure function of the key and the map parameters (a fixed
    SplitMix64 hash plus an explicit per-key override list), so every
    node of a cluster holding the same map computes the same answer
    without coordination.

    A value of this type is immutable: all functions here are pure,
    non-blocking and safe to call from any thread.  Reconfiguration
    ({!advance}) builds a {e new} map with the next {!epoch}; the
    {!Reconfig} coordinator installs it only after the dual-quorum
    handoff completes, and nodes compare maps by epoch. *)

type t

val regs_per_key : int
(** Real registers per key: [2], the paper's Reg{_0}/Reg{_1} pair. *)

val create : ?group_size:int -> shards:int -> unit -> t
(** A map over [shards] shards at epoch [0] with no overrides.
    [group_size] (default: every replica) bounds each shard's quorum
    group; groups are overlapping windows rotated by shard index, so
    load spreads when the replica pool is larger than one group.
    @raise Invalid_argument if [shards <= 0] or [group_size <= 0]. *)

val shards : t -> int

val epoch : t -> int
(** The configuration epoch: [0] at {!create}, incremented by each
    {!advance}.  Two maps derived from the same [create] by the same
    [advance] sequence are equal; epoch alone orders configurations. *)

val overrides : t -> (int * int) list
(** The explicit (key, shard) placements layered over the hash, newest
    first.  Empty at {!create}. *)

val base_shard_of_key : t -> int -> int
(** The static hash placement of a key, ignoring overrides.  This is
    the placement used for {e worker ownership} in {!Server_pool}: a
    migrated key keeps executing on its original worker domain (which
    owns an instance of every shard engine), so reply routing never
    depends on the mutable override set. *)

val shard_of_key : t -> int -> int
(** The shard owning a key, in [[0, shards)]: the newest override if
    one exists, else {!base_shard_of_key}.  Total and stable within an
    epoch. *)

val advance : t -> key:int -> to_shard:int -> t
(** [advance t ~key ~to_shard] is the next configuration: epoch
    [epoch t + 1] with [key] placed on [to_shard] (an override that
    restores the hash placement is erased rather than recorded).  Pure
    — the argument map is unchanged.
    @raise Invalid_argument if [key < 0] or [to_shard] is out of
    range. *)

val global_reg : int -> int -> int
(** [global_reg key i] flattens (key, register bit [i]) into the
    global real-register index carried by {!Wire.msg.Query} /
    {!Wire.msg.Store}: [key * regs_per_key + i].
    @raise Invalid_argument if [key < 0] or [i] is not a valid
    register bit. *)

val key_of_reg : int -> int
(** Inverse of {!global_reg} up to the register bit: the key a global
    register index belongs to. *)

val group : t -> replicas:Transport.node list -> int -> Transport.node list
(** The quorum group of a shard, as a sublist of [replicas] (the whole
    pool when [group_size] is unset or not smaller than the pool).
    @raise Invalid_argument if the shard is out of range. *)
