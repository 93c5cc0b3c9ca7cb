(* A test-only oracle: the list-based Storage that the in-place
   group-commit queue replaced (its queue a list of framed-record
   strings, each commit one [String.concat]), kept as it was but for
   its backends (the simulated disk alone) and its compaction (the
   snapshot cadence alone, as in Storage), so a property can run both
   stores side by side and compare them after every call.  Only the
   tests use it. *)

open Net

(* the store's own entry, so its codec encodes what Storage appends *)
type entry = Storage.entry = { reg : int; ts : int; pl : Wire.payload }

exception Corrupt of string

(* ------------------------------------------------------------------ *)
(* Backends                                                            *)

type backend = {
  load_snapshot : unit -> string option;
  load_wal : unit -> string;
  append_wal : string -> unit;
  truncate_wal : int -> unit;
  install_snapshot : string -> unit;
}

module Disk = struct
  type write_fate =
    | Persist
    | Torn of int

  type t = {
    wal : Buffer.t;
    mutable snap : string option;
    mutable appends : int;
    mutable snapshots : int;
    mutable dead : bool;
    mutable hook : (int -> write_fate) option;
  }

  let create () =
    {
      wal = Buffer.create 256;
      snap = None;
      appends = 0;
      snapshots = 0;
      dead = false;
      hook = None;
    }

  let set_hook t f = t.hook <- Some f
  let clear_hook t = t.hook <- None
  let revive t = t.dead <- false
  let is_dead t = t.dead
  let appends t = t.appends
  let snapshots t = t.snapshots
  let wal_size t = Buffer.length t.wal
  let wal_bytes t = Buffer.contents t.wal
  let snapshot_bytes t = t.snap

  let backend t =
    {
      load_snapshot = (fun () -> t.snap);
      load_wal = (fun () -> Buffer.contents t.wal);
      append_wal =
        (fun s ->
          if not t.dead then begin
            t.appends <- t.appends + 1;
            match t.hook with
            | None -> Buffer.add_string t.wal s
            | Some h ->
              (match h t.appends with
               | Persist -> Buffer.add_string t.wal s
               | Torn keep ->
                 let keep = max 0 (min keep (String.length s)) in
                 Buffer.add_substring t.wal s 0 keep;
                 t.dead <- true)
          end);
      truncate_wal = (fun n -> if not t.dead then Buffer.truncate t.wal n);
      install_snapshot =
        (fun s ->
          if not t.dead then begin
            t.snapshots <- t.snapshots + 1;
            t.snap <- Some s;
            Buffer.clear t.wal
          end);
    }
end

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE, the zlib polynomial) — table-driven, no dependencies.
   The register is an [int] (63 bits hold the 32): an [Int32] ref would
   box one value per byte, about 629k words for a 205 KB snapshot. *)

let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32_bytes b off len =
  let c = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    c :=
      Array.unsafe_get crc_table
        ((!c lxor Char.code (Bytes.unsafe_get b i)) land 0xFF)
      lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let crc32 s = crc32_bytes (Bytes.unsafe_of_string s) 0 (String.length s)

(* ------------------------------------------------------------------ *)
(* Record framing                                                      *)

let header_size = 8
let max_record = Wire.max_frame

(* Fill in the [len][crc] header of a record whose payload already
   sits in [b] after [header_size] bytes. *)
let seal b =
  let n = Bytes.length b - header_size in
  if n > max_record then invalid_arg "Storage: record payload too large";
  Bytes.set_int32_le b 0 (Int32.of_int n);
  Bytes.set_int32_le b 4 (crc32_bytes b header_size n);
  Bytes.unsafe_to_string b

let frame_record payload =
  let n = String.length payload in
  let b = Bytes.create (header_size + n) in
  Bytes.blit_string payload 0 b header_size n;
  seal b

type tail =
  | Clean
  | Torn_tail of { valid : int; dropped : int }

let scan s =
  let len = String.length s in
  let pos = ref 0 in
  let records = ref [] in
  let stop = ref false in
  while not !stop do
    if !pos + header_size > len then stop := true
    else begin
      let n = Int32.to_int (String.get_int32_le s !pos) in
      let crc = String.get_int32_le s (!pos + 4) in
      if n < 0 || n > max_record || !pos + header_size + n > len then
        stop := true
      else begin
        let payload = String.sub s (!pos + header_size) n in
        if crc32 payload <> crc then stop := true
        else begin
          records := payload :: !records;
          pos := !pos + header_size + n
        end
      end
    end
  done;
  let tail =
    if !pos = len then Clean
    else Torn_tail { valid = !pos; dropped = len - !pos }
  in
  (List.rev !records, tail)

(* ------------------------------------------------------------------ *)
(* Entry / snapshot codecs                                             *)

let entry_size = 25

let write_entry b off ~reg ~ts pl =
  Bytes.set_int64_le b off (Int64.of_int reg);
  Bytes.set_int64_le b (off + 8) (Int64.of_int ts);
  Bytes.set_int64_le b (off + 16) (Int64.of_int (Registers.Tagged.v pl));
  Bytes.set b (off + 24) (if Registers.Tagged.tag pl then '\001' else '\000')

let encode_entry e =
  let b = Bytes.create entry_size in
  write_entry b 0 ~reg:e.reg ~ts:e.ts e.pl;
  Bytes.unsafe_to_string b

(* [frame_record (encode_entry e)], encoded in place *)
let entry_record e =
  let b = Bytes.create (header_size + entry_size) in
  write_entry b header_size ~reg:e.reg ~ts:e.ts e.pl;
  seal b

let decode_entry_at s off =
  let reg = Int64.to_int (String.get_int64_le s off) in
  let ts = Int64.to_int (String.get_int64_le s (off + 8)) in
  let v = Int64.to_int (String.get_int64_le s (off + 16)) in
  match s.[off + 24] with
  | '\000' -> Some { reg; ts; pl = Registers.Tagged.make v false }
  | '\001' -> Some { reg; ts; pl = Registers.Tagged.make v true }
  | _ -> None

let decode_entry s =
  if String.length s <> entry_size then None else decode_entry_at s 0

let snap_magic = "SNP1"

let encode_snapshot contents =
  let b = Buffer.create (12 + (entry_size * List.length contents)) in
  Buffer.add_string b snap_magic;
  Buffer.add_int64_le b (Int64.of_int (List.length contents));
  List.iter
    (fun (reg, (ts, pl)) -> Buffer.add_string b (encode_entry { reg; ts; pl }))
    contents;
  Buffer.contents b

let decode_snapshot s =
  let hdr = 4 + 8 in
  if String.length s < hdr || String.sub s 0 4 <> snap_magic then None
  else begin
    let count = Int64.to_int (String.get_int64_le s 4) in
    if count < 0 || String.length s <> hdr + (count * entry_size) then None
    else begin
      let rec go i acc =
        if i = count then Some (List.rev acc)
        else
          match decode_entry_at s (hdr + (i * entry_size)) with
          | None -> None
          | Some e -> go (i + 1) ((e.reg, (e.ts, e.pl)) :: acc)
      in
      go 0 []
    end
  end

(* ------------------------------------------------------------------ *)
(* The store                                                           *)

type commit_config = { batch_max : int; flush_every : float }

(* A queued item: the framed record bytes, how many entries it carries
   (1 for an append, 0 for an on_durable marker), and the completion to
   fire once its batch is durable. *)
type pending_item = string * int * (unit -> unit)

type t = {
  be : backend;
  snapshot_every : int;
  batch_max : int;  (* 1 = group commit off: every append commits *)
  flush_deadline : float;  (* advisory deadline for drivers; 0 = none *)
  mu : Mutex.t;
  tbl : (int, int * Wire.payload) Hashtbl.t;
  mutable pending_rev : pending_item list;  (* newest first *)
  mutable npending : int;  (* entries (not markers) queued *)
  mutable since_snapshot : int;
  mutable appends : int;
  mutable batch_commits : int;
  mutable max_batch : int;
  mutable snapshots_taken : int;
  recovered_snapshot : int;
  recovered_wal : int;
  torn_bytes : int;
  mutable wal_size : int;
  mutable flush_armed : bool;  (* owned by [drive]: one timer at a time *)
}

let apply tbl e =
  match Hashtbl.find tbl e.reg with
  | cur, _ when cur >= e.ts -> ()
  | _ | (exception Not_found) -> Hashtbl.replace tbl e.reg (e.ts, e.pl)

let create ?(snapshot_every = 0) ?group_commit be =
  let tbl = Hashtbl.create 16 in
  let recovered_snapshot =
    match be.load_snapshot () with
    | None -> 0
    | Some bytes ->
      (match scan bytes with
       | [ payload ], Clean ->
         (match decode_snapshot payload with
          | Some contents ->
            List.iter
              (fun (reg, (ts, pl)) -> Hashtbl.replace tbl reg (ts, pl))
              contents;
            List.length contents
          | None -> raise (Corrupt "snapshot payload undecodable"))
       | _ -> raise (Corrupt "snapshot framing or checksum"))
  in
  let wal = be.load_wal () in
  let records, tail = scan wal in
  let recovered_wal =
    List.fold_left
      (fun n payload ->
        match decode_entry payload with
        | Some e ->
          apply tbl e;
          n + 1
        | None -> raise (Corrupt "wal record undecodable"))
      0 records
  in
  let torn_bytes, wal_size =
    match tail with
    | Clean -> (0, String.length wal)
    | Torn_tail { valid; dropped } ->
      (* repair: the torn tail is gone for good, so truncate the file
         back to the prefix — new appends must not land after garbage *)
      be.truncate_wal valid;
      (dropped, valid)
  in
  let batch_max, flush_deadline =
    match group_commit with
    | None -> (1, 0.0)
    | Some { batch_max; flush_every } -> (max 1 batch_max, flush_every)
  in
  {
    be;
    snapshot_every;
    batch_max;
    flush_deadline;
    mu = Mutex.create ();
    tbl;
    pending_rev = [];
    npending = 0;
    since_snapshot = recovered_wal;
    appends = 0;
    batch_commits = 0;
    max_batch = 0;
    snapshots_taken = 0;
    recovered_snapshot;
    recovered_wal;
    torn_bytes;
    wal_size;
    flush_armed = false;
  }

let batch_max t = t.batch_max
let flush_deadline t = t.flush_deadline

let contents_locked t =
  Hashtbl.fold (fun reg p acc -> (reg, p) :: acc) t.tbl []
  |> List.sort compare

(* [frame_record (encode_snapshot (contents_locked t))], encoded in
   place: the registers sort as an [int array] and every entry is
   written straight into the one record. *)
let snapshot_record_locked t =
  let n = Hashtbl.length t.tbl in
  let regs = Array.make n 0 in
  let i = ref 0 in
  Hashtbl.iter
    (fun reg _ ->
      regs.(!i) <- reg;
      incr i)
    t.tbl;
  Array.sort Int.compare regs;
  let off = header_size + String.length snap_magic + 8 in
  let b = Bytes.create (off + (entry_size * n)) in
  Bytes.blit_string snap_magic 0 b header_size (String.length snap_magic);
  Bytes.set_int64_le b (off - 8) (Int64.of_int n);
  for i = 0 to n - 1 do
    let reg = regs.(i) in
    let ts, pl = Hashtbl.find t.tbl reg in
    write_entry b (off + (entry_size * i)) ~reg ~ts pl
  done;
  seal b

let snapshot_locked t =
  t.be.install_snapshot (snapshot_record_locked t);
  t.snapshots_taken <- t.snapshots_taken + 1;
  t.since_snapshot <- 0;
  t.wal_size <- 0

(* Drain the queue as ONE backend append (one write + one fsync), then
   hand back the completions to fire — outside the lock, so a
   completion may re-enter the store.  Snapshot install + WAL truncate
   happen here too, on the committing path, never on an enqueue. *)
let commit_locked t =
  match t.pending_rev with
  | [] -> []
  | items_rev ->
    let items = List.rev items_rev in
    t.pending_rev <- [];
    t.npending <- 0;
    let data = String.concat "" (List.map (fun (r, _, _) -> r) items) in
    let entries = List.fold_left (fun n (_, c, _) -> n + c) 0 items in
    if data <> "" then t.be.append_wal data;
    t.appends <- t.appends + entries;
    t.wal_size <- t.wal_size + String.length data;
    t.since_snapshot <- t.since_snapshot + entries;
    t.batch_commits <- t.batch_commits + 1;
    if entries > t.max_batch then t.max_batch <- entries;
    if t.snapshot_every > 0 && t.since_snapshot >= t.snapshot_every then
      snapshot_locked t;
    List.map (fun (_, _, k) -> k) items

let run_completions ks = List.iter (fun k -> k ()) ks

let flush t =
  Mutex.lock t.mu;
  let ks = commit_locked t in
  Mutex.unlock t.mu;
  run_completions ks

let append_async t e ~k =
  let rec_ = entry_record e in
  Mutex.lock t.mu;
  (* eager apply: reads served from the table may observe the entry
     before it is durable.  Safe for both engines — ABD reads write the
     value back through a persist-before-ack majority before returning,
     and the twobit engine's fault model is crash-stop (no amnesia) —
     while the ack for THIS entry still waits for its batch. *)
  apply t.tbl e;
  t.pending_rev <- (rec_, 1, k) :: t.pending_rev;
  t.npending <- t.npending + 1;
  let ks = if t.npending >= t.batch_max then commit_locked t else [] in
  Mutex.unlock t.mu;
  run_completions ks

let append t e =
  append_async t e ~k:ignore;
  (* with group commit off, append_async already committed (batch of
     one); with it on, a sync append forces the pending batch out *)
  if t.batch_max > 1 then flush t

let on_durable t k =
  Mutex.lock t.mu;
  let now = t.pending_rev = [] in
  if not now then t.pending_rev <- ("", 0, k) :: t.pending_rev;
  Mutex.unlock t.mu;
  if now then k ()

let pending t =
  Mutex.lock t.mu;
  let n = t.npending in
  Mutex.unlock t.mu;
  n

let rec drive t ~(transport : Transport.t) ~node =
  if pending t > 0 then
    if t.flush_deadline <= 0.0 then flush t
    else if not t.flush_armed then begin
      t.flush_armed <- true;
      transport.set_timer ~node ~delay:t.flush_deadline (fun () ->
          t.flush_armed <- false;
          flush t;
          drive t ~transport ~node)
    end

let snapshot t =
  Mutex.lock t.mu;
  let ks = commit_locked t in
  snapshot_locked t;
  Mutex.unlock t.mu;
  run_completions ks

(* [find], not [find_opt]: a replica looks up on every message, and
   the pair goes back as the table holds it, with no option around it *)
let find t reg ~default =
  Mutex.lock t.mu;
  let r =
    match Hashtbl.find t.tbl reg with p -> p | exception Not_found -> default
  in
  Mutex.unlock t.mu;
  r

let contents t =
  Mutex.lock t.mu;
  let c = contents_locked t in
  Mutex.unlock t.mu;
  c

type stats = {
  appends : int;
  batch_commits : int;
  max_batch : int;
  snapshots_taken : int;
  recovered_snapshot : int;
  recovered_wal : int;
  torn_bytes : int;
  wal_size : int;
}

let stats (t : t) =
  Mutex.lock t.mu;
  let s =
    {
      appends = t.appends;
      batch_commits = t.batch_commits;
      max_batch = t.max_batch;
      snapshots_taken = t.snapshots_taken;
      recovered_snapshot = t.recovered_snapshot;
      recovered_wal = t.recovered_wal;
      torn_bytes = t.torn_bytes;
      wal_size = t.wal_size;
    }
  in
  Mutex.unlock t.mu;
  s
