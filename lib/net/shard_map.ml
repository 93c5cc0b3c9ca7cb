(* Consistent placement of register ids onto shards and of shards onto
   replica groups.  Pure data: no I/O, no mutation after [create] — a
   reconfiguration produces a *new* map (see [advance]) stamped with
   the next epoch, so a map value may be shared freely across threads
   and epochs compare by integer. *)

type t = {
  shards : int;
  group_size : int option;
  epoch : int;
  overrides : (int * int) list;  (* key -> shard, newest placement wins *)
}

let regs_per_key = 2

(* SplitMix64 finalizer: a fixed, avalanching int mix so that nearby
   keys spread over shards instead of striping, and the placement is
   identical in every process of a cluster (no [Hashtbl.hash]
   versioning, no randomized seeds). *)
let mix k =
  let open Int64 in
  let z = of_int k in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  let z = logxor z (shift_right_logical z 31) in
  (* keep the low 62 bits: always a non-negative OCaml int, even after
     [to_int]'s 63-bit truncation *)
  to_int (logand z 0x3FFFFFFFFFFFFFFFL)

let create ?group_size ~shards () =
  if shards <= 0 then invalid_arg "Shard_map.create: shards must be positive";
  (match group_size with
   | Some g when g <= 0 ->
     invalid_arg "Shard_map.create: group_size must be positive"
   | _ -> ());
  { shards; group_size; epoch = 0; overrides = [] }

let shards t = t.shards
let epoch t = t.epoch
let overrides t = t.overrides

let base_shard_of_key t key =
  if t.shards = 1 then 0 else mix key mod t.shards

let shard_of_key t key =
  match List.assoc_opt key t.overrides with
  | Some s -> s
  | None -> base_shard_of_key t key

let advance t ~key ~to_shard =
  if key < 0 then invalid_arg "Shard_map.advance: negative key";
  if to_shard < 0 || to_shard >= t.shards then
    invalid_arg "Shard_map.advance: target shard out of range";
  let rest = List.remove_assoc key t.overrides in
  let overrides =
    (* an override that restores the hash placement is dropped, so a
       key migrated home leaves no residue and maps stay small *)
    if to_shard = base_shard_of_key t key then rest
    else (key, to_shard) :: rest
  in
  { t with epoch = t.epoch + 1; overrides }

let global_reg key i =
  if key < 0 then invalid_arg "Shard_map.global_reg: negative key";
  if i < 0 || i >= regs_per_key then
    invalid_arg "Shard_map.global_reg: register bit out of range";
  (key * regs_per_key) + i

let key_of_reg reg = reg / regs_per_key

let group t ~replicas shard =
  if shard < 0 || shard >= t.shards then
    invalid_arg "Shard_map.group: shard out of range";
  let n = List.length replicas in
  match t.group_size with
  | None -> replicas
  | Some g when g >= n -> replicas
  | Some g ->
    (* rotate a window of g replicas, starting at a shard-determined
       offset: deterministic, static, and spreads load when there are
       more replicas than a single quorum group needs *)
    let arr = Array.of_list replicas in
    List.init g (fun i -> arr.((shard + i) mod n))
