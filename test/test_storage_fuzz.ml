(* Property-based fuzzing of the durable-storage codec with seeded
   [Random.State] generators (the test_wire_fuzz idiom): WAL entries
   and snapshots must round-trip, [scan] must be total and return only
   whole checksummed records on WALs truncated or bit-flipped anywhere,
   recovery must repair a torn tail back to the valid prefix without
   ever fabricating state, and a corrupted snapshot must fail closed
   with [Corrupt]. *)

module S = Net.Storage
module O = Storage_oracle

let tc = Helpers.tc

(* Full-range int: stitch three [Random.State.bits] calls so negative
   values, [min_int] neighbourhoods and high bits all occur. *)
let any_int rng =
  match Random.State.int rng 8 with
  | 0 -> 0
  | 1 -> max_int
  | 2 -> min_int
  | 3 -> -1
  | _ ->
    let b () = Random.State.bits rng in
    b () lor (b () lsl 30) lor (b () lsl 60)

let any_payload rng =
  Registers.Tagged.make (any_int rng) (Random.State.bool rng)

let any_entry rng =
  { S.reg = any_int rng; ts = any_int rng; pl = any_payload rng }

(* A sane WAL workload: small register set, strictly increasing
   timestamps per register — what a real replica writes. *)
let workload rng n =
  let next_ts = Hashtbl.create 4 in
  List.init n (fun _ ->
      let reg = Random.State.int rng 3 in
      let ts = 1 + Option.value ~default:0 (Hashtbl.find_opt next_ts reg) in
      Hashtbl.replace next_ts reg ts;
      { S.reg; ts; pl = any_payload rng })

(* The state a WAL prefix must recover to: the ts-guarded fold. *)
let fold_entries entries =
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun e ->
      match Hashtbl.find_opt tbl e.S.reg with
      | Some (cur, _) when cur >= e.S.ts -> ()
      | _ -> Hashtbl.replace tbl e.S.reg (e.S.ts, e.S.pl))
    entries;
  Hashtbl.fold (fun reg p acc -> (reg, p) :: acc) tbl [] |> List.sort compare

let wal_of entries =
  String.concat "" (List.map (fun e -> O.frame_record (O.encode_entry e)) entries)

(* A raw in-memory backend over explicit bytes, so tests can hand the
   store arbitrarily corrupted files and watch what it does to them. *)
let backend_of_bytes ?snap wal0 =
  let wal = ref wal0 in
  ( {
      S.load_snapshot = (fun () -> snap);
      load_wal = (fun () -> !wal);
      append_wal = (fun b n -> wal := !wal ^ Bytes.sub_string b 0 n);
      truncate_wal = (fun n -> wal := String.sub !wal 0 n);
      install_snapshot = (fun _ -> ());
      close = ignore;
    },
    wal )

let crc_known_answer () =
  (* the IEEE check value: crc32 of "123456789" *)
  Alcotest.(check int32) "crc32 check value" 0xCBF43926l (S.crc32 "123456789");
  Alcotest.(check int32) "crc32 of empty" 0l (S.crc32 "")

(* The checksum by its definition, one bit at a time: the table-driven
   [S.crc32] must agree with it on every input. *)
let crc32_bitwise s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done)
    s;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let any_bytes rng n = String.init n (fun _ -> Char.chr (Random.State.int rng 256))

let fuzz_crc_definition () =
  let rng = Random.State.make [| 0x5706 |] in
  for i = 1 to 300 do
    let s = any_bytes rng (Random.State.int rng 300) in
    if S.crc32 s <> crc32_bitwise s then
      Alcotest.failf "iteration %d: crc32 differs from the bitwise definition" i
  done

let crc_allocation_free () =
  (* the checksum runs over every WAL record and every snapshot: it
     must not allocate per byte (an [Int32] accumulator boxes one value
     per byte, ~196k words here) *)
  let s = any_bytes (Random.State.make [| 0x5707 |]) 65536 in
  let w0 = Gc.minor_words () in
  let c = S.crc32 s in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int32) "value" (crc32_bitwise s) c;
  if words >= 16. then
    Alcotest.failf "crc32 over 64 KiB allocated %.0f minor words" words

let fuzz_store_bytes_are_reference_codec () =
  (* a durable store encodes its WAL records and snapshots in place;
     the bytes must be exactly the reference codec's: each WAL record
     [frame_record (encode_entry e)], the snapshot [frame_record
     (encode_snapshot (contents st))] *)
  let rng = Random.State.make [| 0x5708 |] in
  for i = 1 to 100 do
    let disk = S.Disk.create () in
    let st = S.create (S.Disk.backend disk) in
    let entries = List.init (Random.State.int rng 60) (fun _ -> any_entry rng) in
    List.iter (S.append st) entries;
    if S.Disk.wal_bytes disk <> wal_of entries then
      Alcotest.failf "iteration %d: WAL bytes differ from the reference codec" i;
    S.snapshot st;
    if
      S.Disk.snapshot_bytes disk
      <> Some (O.frame_record (O.encode_snapshot (S.contents st)))
    then
      Alcotest.failf "iteration %d: snapshot bytes differ from the reference \
                      codec" i
  done

let fuzz_entry_roundtrip () =
  let rng = Random.State.make [| 0x5701 |] in
  for i = 1 to 2_000 do
    let e = any_entry rng in
    match S.decode_entry (O.encode_entry e) with
    | Some e' when e' = e -> ()
    | _ -> Alcotest.failf "iteration %d: entry did not round-trip" i
  done

let fuzz_snapshot_roundtrip () =
  let rng = Random.State.make [| 0x5702 |] in
  for i = 1 to 500 do
    let n = Random.State.int rng 40 in
    let contents =
      List.init n (fun r -> (r, (any_int rng, any_payload rng)))
    in
    match S.decode_snapshot (O.encode_snapshot contents) with
    | Some c when c = contents -> ()
    | _ -> Alcotest.failf "iteration %d: snapshot did not round-trip" i
  done

let fuzz_scan_roundtrip () =
  (* arbitrary byte-string payloads framed back to back scan out
     verbatim, with a clean tail *)
  let rng = Random.State.make [| 0x5703 |] in
  for i = 1 to 500 do
    let n = Random.State.int rng 20 in
    let payloads =
      List.init n (fun _ ->
          String.init (Random.State.int rng 64) (fun _ ->
              Char.chr (Random.State.int rng 256)))
    in
    let records, tail =
      S.scan (String.concat "" (List.map O.frame_record payloads))
    in
    if records <> payloads || tail <> S.Clean then
      Alcotest.failf "iteration %d: scan did not round-trip" i
  done

let truncation_matrix () =
  (* cut a known WAL at EVERY byte length: scan must return exactly the
     whole records that fit and flag the rest as the torn tail *)
  let rng = Random.State.make [| 0x5704 |] in
  let entries = workload rng 6 in
  let wal = wal_of entries in
  let rec_size = String.length wal / 6 in
  for cut = 0 to String.length wal do
    let records, tail = S.scan (String.sub wal 0 cut) in
    let whole = cut / rec_size in
    Alcotest.(check int) (Fmt.str "cut %d: whole records" cut) whole
      (List.length records);
    let expect_tail =
      if cut mod rec_size = 0 then S.Clean
      else
        S.Torn_tail
          { valid = whole * rec_size; dropped = cut - (whole * rec_size) }
    in
    if tail <> expect_tail then Alcotest.failf "cut %d: wrong tail verdict" cut
  done

let fuzz_bitflip_prefix () =
  (* flip one bit anywhere in a valid WAL: the checksum must kill the
     record it lands in, scan keeps exactly the records before it *)
  let rng = Random.State.make [| 0x5705 |] in
  let entries = workload rng 8 in
  let wal = wal_of entries in
  let rec_size = String.length wal / 8 in
  for i = 1 to 1_000 do
    let pos = Random.State.int rng (String.length wal) in
    let bit = Random.State.int rng 8 in
    let b = Bytes.of_string wal in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
    match S.scan (Bytes.to_string b) with
    | exception e ->
      Alcotest.failf "iteration %d: scan raised %s" i (Printexc.to_string e)
    | records, tail ->
      let hit = pos / rec_size in
      Alcotest.(check int)
        (Fmt.str "iteration %d: records before the flip survive" i)
        hit (List.length records);
      if tail = S.Clean then
        Alcotest.failf "iteration %d: corrupted WAL scanned clean" i
  done

let fuzz_recovery_is_prefix () =
  (* truncate a WAL at a random point and append random garbage: the
     store must open without raising, recover exactly the ts-guarded
     fold of the surviving whole records, and repair the file so a
     second open finds it clean *)
  let rng = Random.State.make [| 0x5706 |] in
  for i = 1 to 300 do
    let entries = workload rng (1 + Random.State.int rng 20) in
    let wal = wal_of entries in
    let rec_size = String.length wal / List.length entries in
    let cut = Random.State.int rng (String.length wal + 1) in
    let garbage =
      String.init (Random.State.int rng 30) (fun _ ->
          Char.chr (Random.State.int rng 256))
    in
    let bytes = String.sub wal 0 cut ^ garbage in
    let be, wal_ref = backend_of_bytes bytes in
    match S.create be with
    | exception e ->
      Alcotest.failf "iteration %d: create raised %s on a corrupt WAL" i
        (Printexc.to_string e)
    | st ->
      let whole = cut / rec_size in
      let expected =
        fold_entries (List.filteri (fun j _ -> j < whole) entries)
      in
      if S.contents st <> expected then
        Alcotest.failf "iteration %d: recovered state is not the prefix fold" i;
      let s = S.stats st in
      Alcotest.(check int)
        (Fmt.str "iteration %d: records replayed" i)
        whole s.S.recovered_wal;
      (* repair happened: the surviving file is the valid prefix *)
      Alcotest.(check int)
        (Fmt.str "iteration %d: file truncated to the prefix" i)
        (whole * rec_size)
        (String.length !wal_ref);
      let st' = S.create (fst (backend_of_bytes !wal_ref)) in
      if S.contents st' <> expected then
        Alcotest.failf "iteration %d: repaired file reopens differently" i;
      Alcotest.(check int)
        (Fmt.str "iteration %d: second open clean" i)
        0 (S.stats st').S.torn_bytes
  done

let snapshot_bitflips_fail_closed () =
  (* a snapshot is trusted state: EVERY single-bit corruption of the
     snapshot file must raise [Corrupt], never open with guessed
     contents *)
  let rng = Random.State.make [| 0x5707 |] in
  let contents =
    List.init 5 (fun r -> (r, (r + 1, Registers.Tagged.make (100 + r) (r mod 2 = 0))))
  in
  let snap = O.frame_record (O.encode_snapshot contents) in
  (* sanity: the uncorrupted snapshot opens and recovers *)
  let st = S.create (fst (backend_of_bytes ~snap "")) in
  Alcotest.(check int) "pristine snapshot recovers" 5
    (S.stats st).S.recovered_snapshot;
  for pos = 0 to String.length snap - 1 do
    let bit = Random.State.int rng 8 in
    let b = Bytes.of_string snap in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
    match S.create (fst (backend_of_bytes ~snap:(Bytes.to_string b) "")) with
    | exception S.Corrupt _ -> ()
    | exception e ->
      Alcotest.failf "flip at %d: raised %s, not Corrupt" pos
        (Printexc.to_string e)
    | _ -> Alcotest.failf "flip at %d: corrupted snapshot opened" pos
  done

let snapshot_truncations_fail_closed () =
  let contents = List.init 4 (fun r -> (r, (1, Registers.Tagged.make r false))) in
  let snap = O.frame_record (O.encode_snapshot contents) in
  for cut = 0 to String.length snap - 1 do
    match S.create (fst (backend_of_bytes ~snap:(String.sub snap 0 cut) "")) with
    | exception S.Corrupt _ -> ()
    | _ -> Alcotest.failf "truncation at %d: opened" cut
  done;
  (* trailing garbage after the one snapshot record is just as bad *)
  (match S.create (fst (backend_of_bytes ~snap:(snap ^ "x") "")) with
   | exception S.Corrupt _ -> ()
   | _ -> Alcotest.fail "snapshot with trailing garbage opened");
  (* well-framed but undecodable payload: checksum fine, magic wrong *)
  match
    S.create (fst (backend_of_bytes ~snap:(O.frame_record "XXXXXXXXXXXX") ""))
  with
  | exception S.Corrupt _ -> ()
  | _ -> Alcotest.fail "well-framed junk snapshot opened"

let fuzz_group_commit_prefix () =
  (* a group-commit store ships ONE backend write per batch — the
     concatenated records of its members — and those bytes must be
     indistinguishable from sync appends: same WAL, and truncation at
     any byte still recovers exactly the ts-guarded prefix fold *)
  let rng = Random.State.make [| 0x5708 |] in
  for i = 1 to 200 do
    let n = 1 + Random.State.int rng 30 in
    let bm = 1 + Random.State.int rng 8 in
    let entries = workload rng n in
    let be0, wal_ref = backend_of_bytes "" in
    let writes = ref 0 in
    let be =
      {
        be0 with
        S.append_wal =
          (fun b n ->
            incr writes;
            be0.S.append_wal b n);
      }
    in
    let st =
      S.create ~group_commit:{ S.batch_max = bm; flush_every = 0.0 } be
    in
    let acked = ref 0 in
    List.iter
      (fun e ->
        S.append_async st ~reg:e.S.reg ~ts:e.S.ts e.S.pl ~k:(fun () ->
            incr acked))
      entries;
    S.flush st;
    if !acked <> n then
      Alcotest.failf "iteration %d: %d of %d ops acked" i !acked n;
    let expect_writes = (n + bm - 1) / bm in
    Alcotest.(check int)
      (Fmt.str "iteration %d (n=%d bm=%d): one backend write per batch" i n
         bm)
      expect_writes !writes;
    if !wal_ref <> wal_of entries then
      Alcotest.failf
        "iteration %d: batched WAL bytes differ from sync appends" i;
    let wal = !wal_ref in
    let rec_size = String.length wal / n in
    let cut = Random.State.int rng (String.length wal + 1) in
    let st' = S.create (fst (backend_of_bytes (String.sub wal 0 cut))) in
    let whole = cut / rec_size in
    if
      S.contents st'
      <> fold_entries (List.filteri (fun j _ -> j < whole) entries)
    then
      Alcotest.failf
        "iteration %d: batched WAL cut at byte %d is not the prefix fold" i
        cut
  done

let wal_decode_failure_is_corrupt () =
  (* a checksummed WAL record that is not an entry means the file was
     written by something else entirely: that is Corrupt, not a torn
     tail to shrug off *)
  let wal = O.frame_record "not an entry" in
  match S.create (fst (backend_of_bytes wal)) with
  | exception S.Corrupt _ -> ()
  | _ -> Alcotest.fail "undecodable checksummed record accepted"

let suite =
  [
    tc "crc32 known answer" crc_known_answer;
    tc "fuzz: entries round-trip" fuzz_entry_roundtrip;
    tc "fuzz: snapshots round-trip" fuzz_snapshot_roundtrip;
    tc "fuzz: framed records scan back" fuzz_scan_roundtrip;
    tc "truncation at every byte: exact prefix + tail verdict"
      truncation_matrix;
    tc "fuzz: bit flips never extend the prefix" fuzz_bitflip_prefix;
    tc "fuzz: recovery = ts-guarded prefix fold, file repaired"
      fuzz_recovery_is_prefix;
    tc "fuzz: group-commit batches are sync bytes, cut anywhere"
      fuzz_group_commit_prefix;
    tc "snapshot: every bit flip fails closed" snapshot_bitflips_fail_closed;
    tc "snapshot: every truncation fails closed"
      snapshot_truncations_fail_closed;
    tc "wal: undecodable checksummed record is Corrupt"
      wal_decode_failure_is_corrupt;
    tc "fuzz: crc32 = the bitwise definition" fuzz_crc_definition;
    tc "crc32 over 64 KiB allocates O(1) words" crc_allocation_free;
    tc "fuzz: store bytes = the reference codec"
      fuzz_store_bytes_are_reference_codec;
  ]
