type entry = { reg : int; ts : int; pl : Wire.payload }

exception Corrupt of string

(* ------------------------------------------------------------------ *)
(* Backends                                                            *)

type backend = {
  load_snapshot : unit -> string option;
  load_wal : unit -> string;
  append_wal : Bytes.t -> int -> unit;
  truncate_wal : int -> unit;
  install_snapshot : string -> unit;
  close : unit -> unit;
}

(* mkdir -p: a --data-dir like data/replica0 needs its parents too *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Unix.write and Unix.fsync may fail with EINTR when a signal lands
   mid-syscall; raising out of the store would leave a torn WAL record
   that recovery then treats as a crash.  Retry — EINTR means nothing
   was committed to the failure. *)
let rec write_retry fd b off len =
  try Unix.write fd b off len
  with Unix.Unix_error (Unix.EINTR, _, _) -> write_retry fd b off len

let rec fsync_retry fd =
  try Unix.fsync fd with Unix.Unix_error (Unix.EINTR, _, _) -> fsync_retry fd

let file_backend ?(fsync = false) ~dir () =
  mkdir_p dir;
  let wal_path = Filename.concat dir "wal" in
  let snap_path = Filename.concat dir "snapshot" in
  let tmp_path = Filename.concat dir "snapshot.tmp" in
  (* fsync the containing directory: file creation and rename update
     the directory, not the file, so without this the WAL file itself
     or the renamed snapshot can vanish on power failure even though
     their contents were fsync'd. *)
  let fsync_dir () =
    if fsync then
      match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
      | dfd ->
        Fun.protect
          ~finally:(fun () ->
            try Unix.close dfd with Unix.Unix_error _ -> ())
          (fun () -> fsync_retry dfd)
      | exception Unix.Unix_error _ -> ()
  in
  (* O_APPEND: every write lands at the end of the file, the end an
     ftruncate left included, so no append seeks first *)
  let wal_fd =
    Unix.openfile wal_path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  fsync_dir ();
  let read_all path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let write_fully fd b n =
    let off = ref 0 in
    while !off < n do
      off := !off + write_retry fd b !off (n - !off)
    done
  in
  {
    load_snapshot =
      (fun () ->
        if Sys.file_exists snap_path then Some (read_all snap_path) else None);
    load_wal = (fun () -> read_all wal_path);
    append_wal =
      (fun b n ->
        write_fully wal_fd b n;
        if fsync then fsync_retry wal_fd);
    truncate_wal =
      (fun n ->
        Unix.ftruncate wal_fd n;
        if fsync then fsync_retry wal_fd);
    install_snapshot =
      (fun s ->
        let fd =
          Unix.openfile tmp_path
            [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
            0o644
        in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            write_fully fd (Bytes.unsafe_of_string s) (String.length s);
            if fsync then fsync_retry fd);
        (* rename is the commit point: a crash before it leaves the old
           snapshot, after it the new one + a stale WAL, both safe.
           The rename only becomes durable once the directory itself is
           fsync'd. *)
        Sys.rename tmp_path snap_path;
        fsync_dir ();
        Unix.ftruncate wal_fd 0;
        if fsync then fsync_retry wal_fd);
    close = (fun () -> Unix.close wal_fd);
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
        (fun b n ->
          if not t.dead then begin
            t.appends <- t.appends + 1;
            match t.hook with
            | None -> Buffer.add_subbytes t.wal b 0 n
            | Some h ->
              (match h t.appends with
               | Persist -> Buffer.add_subbytes t.wal b 0 n
               | Torn keep ->
                 Buffer.add_subbytes t.wal b 0 (max 0 (min keep n));
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
      close = ignore;
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

(* an [int], so a record sealed in place boxes no [Int32] *)
let crc_bits b off len =
  let c = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    c :=
      Array.unsafe_get crc_table
        ((!c lxor Char.code (Bytes.unsafe_get b i)) land 0xFF)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32 s =
  Int32.of_int (crc_bits (Bytes.unsafe_of_string s) 0 (String.length s))

(* ------------------------------------------------------------------ *)
(* Record framing                                                      *)

let header_size = 8
let max_record = Wire.max_frame

(* Fill in the [len][crc] header at [off] of a record whose [n]-byte
   payload already sits in [b] after it. *)
let seal_at b off n =
  if n > max_record then invalid_arg "Storage: record payload too large";
  Bytes.set_int32_le b off (Int32.of_int n);
  Bytes.set_int32_le b (off + 4)
    (Int32.of_int (crc_bits b (off + header_size) n))

let seal b =
  seal_at b 0 (Bytes.length b - header_size);
  Bytes.unsafe_to_string b

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

(* The pending batch is one byte buffer of framed records plus an array
   of completions in queue order: an append's [k], or an [on_durable]
   marker, which carries no bytes and is only queued behind an entry.
   A slot past the last completion holds [none]. *)
let none () = ()

type t = {
  be : backend;
  snapshot_every : int;  (* appends between snapshots; 0 = never *)
  batch_max : int;  (* 1 = group commit off: every append commits *)
  flush_deadline : float;  (* advisory deadline for drivers; 0 = none *)
  mu : Mutex.t;
  tbl : (int, int * Wire.payload) Hashtbl.t;
  mutable buf : Bytes.t;  (* the batch's framed records, [len] bytes *)
  mutable len : int;
  mutable ks : (unit -> unit) array;  (* the batch's completions *)
  mutable nks : int;
  mutable spare : (unit -> unit) array;
      (* all [none]: the next commit's queue; [[||]] while a commit
         runs it *)
  mutable npending : int;  (* entries (not markers) queued *)
  mutable since_snapshot : int;
  mutable appends : int;
  mutable batch_commits : int;
  mutable cap_commits : int;
  mutable deadline_commits : int;
  mutable forced_commits : int;
  mutable max_batch : int;
  mutable snapshots_taken : int;
  recovered_snapshot : int;
  recovered_wal : int;
  torn_bytes : int;
  mutable wal_size : int;
  mutable flush_armed : bool;  (* owned by [drive]: one timer at a time *)
  mutable flush_timer : (unit -> unit) option;  (* built by [drive] once *)
  mutable closed : bool;
}

let apply tbl reg ts pl =
  match Hashtbl.find tbl reg with
  | cur, _ when cur >= ts -> ()
  | _ | (exception Not_found) -> Hashtbl.replace tbl reg (ts, pl)

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
          apply tbl e.reg e.ts e.pl;
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
    buf = Bytes.create (16 * (header_size + entry_size));
    len = 0;
    ks = Array.make 16 none;
    nks = 0;
    spare = Array.make 16 none;
    npending = 0;
    since_snapshot = recovered_wal;
    appends = 0;
    batch_commits = 0;
    cap_commits = 0;
    deadline_commits = 0;
    forced_commits = 0;
    max_batch = 0;
    snapshots_taken = 0;
    recovered_snapshot;
    recovered_wal;
    torn_bytes;
    wal_size;
    flush_armed = false;
    flush_timer = None;
    closed = false;
  }

let batch_max t = t.batch_max
let flush_deadline t = t.flush_deadline

let contents_locked t =
  Hashtbl.fold (fun reg p acc -> (reg, p) :: acc) t.tbl []
  |> List.sort compare

(* Sift [a.(i)] down the max-heap [a.(0 .. n-1)]. *)
let rec sift (a : int array) i n =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && a.(l + 1) > a.(l) then l + 1 else l in
    if a.(c) > a.(i) then begin
      let x = a.(i) in
      a.(i) <- a.(c);
      a.(c) <- x;
      sift a c n
    end
  end

(* Heapsort in place, allocating nothing.  Not [Array.sort]: its
   heapsort raises an int-carrying exception as it sifts, about 3
   minor words per register, and a snapshot sorts every register of
   the table on the committing path. *)
let sort_ints a =
  let n = Array.length a in
  for i = (n / 2) - 1 downto 0 do
    sift a i n
  done;
  for last = n - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift a 0 last
  done

(* The snapshot record of [contents_locked t], encoded in place: the
   registers sort as an [int array] and every entry is written straight
   into the one record. *)
let snapshot_record_locked t =
  let n = Hashtbl.length t.tbl in
  let regs = Array.make n 0 in
  let i = ref 0 in
  Hashtbl.iter
    (fun reg _ ->
      regs.(!i) <- reg;
      incr i)
    t.tbl;
  sort_ints regs;
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

(* Queue one completion, doubling the array when it is full. *)
let push_locked t k =
  if t.nks = Array.length t.ks then begin
    let ks = Array.make (2 * t.nks) none in
    Array.blit t.ks 0 ks 0 t.nks;
    t.ks <- ks
  end;
  t.ks.(t.nks) <- k;
  t.nks <- t.nks + 1

(* What started a commit, for the [stats] counters. *)
type cause = Cap | Deadline | Forced

(* Drain the queue as ONE backend append (one write + one fsync), then
   hand back the completions to fire — outside the lock, so a
   completion may re-enter the store.  Snapshot install + WAL truncate
   happen here too, on the committing path, never on an enqueue.  The
   queue's array goes to the caller and the spare takes its place; a
   commit nested in (or racing) the run of an earlier one finds no
   spare and takes a fresh array. *)
let commit_locked t cause =
  if t.nks = 0 then [||]
  else begin
    let ks = t.ks and entries = t.npending in
    if Array.length t.spare > 0 then begin
      t.ks <- t.spare;
      t.spare <- [||]
    end
    else t.ks <- Array.make (Array.length ks) none;
    t.nks <- 0;
    t.npending <- 0;
    t.be.append_wal t.buf t.len;
    t.appends <- t.appends + entries;
    t.wal_size <- t.wal_size + t.len;
    t.len <- 0;
    t.since_snapshot <- t.since_snapshot + entries;
    t.batch_commits <- t.batch_commits + 1;
    (match cause with
     | Cap -> t.cap_commits <- t.cap_commits + 1
     | Deadline -> t.deadline_commits <- t.deadline_commits + 1
     | Forced -> t.forced_commits <- t.forced_commits + 1);
    if entries > t.max_batch then t.max_batch <- entries;
    (* the one compaction rule, taken with the whole queue durable *)
    if t.snapshot_every > 0 && t.since_snapshot >= t.snapshot_every then
      snapshot_locked t;
    ks
  end

(* Fire a committed batch's completions in queue order, clearing each
   slot first, then keep the array as the spare if there is none. *)
let run_completions t ks =
  if Array.length ks > 0 then begin
    let i = ref 0 in
    while !i < Array.length ks && ks.(!i) != none do
      let k = ks.(!i) in
      ks.(!i) <- none;
      incr i;
      k ()
    done;
    Mutex.lock t.mu;
    if Array.length t.spare = 0 then t.spare <- ks;
    Mutex.unlock t.mu
  end

let commit t cause =
  Mutex.lock t.mu;
  let ks = commit_locked t cause in
  Mutex.unlock t.mu;
  run_completions t ks

let flush t = commit t Forced

let append_async t ~reg ~ts pl ~k =
  Mutex.lock t.mu;
  if t.closed then begin
    Mutex.unlock t.mu;
    invalid_arg "Storage.append_async: the store is closed"
  end;
  (* eager apply: reads served from the table may observe the entry
     before it is durable.  Safe for both engines — ABD reads write the
     value back through a persist-before-ack majority before returning,
     and the twobit engine's fault model is crash-stop (no amnesia) —
     while the ack for THIS entry still waits for its batch. *)
  apply t.tbl reg ts pl;
  let size = header_size + entry_size in
  if t.len + size > Bytes.length t.buf then begin
    let buf = Bytes.create (2 * Bytes.length t.buf) in
    Bytes.blit t.buf 0 buf 0 t.len;
    t.buf <- buf
  end;
  write_entry t.buf (t.len + header_size) ~reg ~ts pl;
  seal_at t.buf t.len entry_size;
  t.len <- t.len + size;
  push_locked t k;
  t.npending <- t.npending + 1;
  let ks = if t.npending >= t.batch_max then commit_locked t Cap else [||] in
  Mutex.unlock t.mu;
  run_completions t ks

let append t e =
  append_async t ~reg:e.reg ~ts:e.ts e.pl ~k:ignore;
  (* with group commit off, append_async already committed (batch of
     one); with it on, a sync append forces the pending batch out *)
  if t.batch_max > 1 then flush t

let on_durable t k =
  Mutex.lock t.mu;
  let now = t.nks = 0 in
  if not now then push_locked t k;
  Mutex.unlock t.mu;
  if now then k ()

let pending t =
  Mutex.lock t.mu;
  let n = t.npending in
  Mutex.unlock t.mu;
  n

(* The timer closure is built by the first arming and kept: a store has
   one driver, so the [transport] and [node] it captures are the ones
   every later call passes. *)
let rec drive t ~(transport : Transport.t) ~node =
  if pending t > 0 then
    if t.flush_deadline <= 0.0 then commit t Deadline
    else if not t.flush_armed then begin
      t.flush_armed <- true;
      let fire =
        match t.flush_timer with
        | Some fire -> fire
        | None ->
          let fire () =
            t.flush_armed <- false;
            commit t Deadline;
            drive t ~transport ~node
          in
          t.flush_timer <- Some fire;
          fire
      in
      transport.set_timer ~node ~delay:t.flush_deadline fire
    end

let snapshot t =
  Mutex.lock t.mu;
  let ks = commit_locked t Forced in
  snapshot_locked t;
  Mutex.unlock t.mu;
  run_completions t ks

(* The pending batch commits in the same critical section that refuses
   later appends, so every queued completion fires; then the backend
   lets go of its descriptor, once. *)
let close t =
  Mutex.lock t.mu;
  let ks = commit_locked t Forced in
  let was = t.closed in
  t.closed <- true;
  Mutex.unlock t.mu;
  run_completions t ks;
  if not was then t.be.close ()

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
  cap_commits : int;
  deadline_commits : int;
  forced_commits : int;
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
      cap_commits = t.cap_commits;
      deadline_commits = t.deadline_commits;
      forced_commits = t.forced_commits;
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
