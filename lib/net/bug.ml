type t = {
  read_quorum : int option;
  skip_write_back : bool;
  unordered : bool;
  torn_txn : bool;
  skip_dual_write : bool;
}

let none =
  {
    read_quorum = None;
    skip_write_back = false;
    unordered = false;
    torn_txn = false;
    skip_dual_write = false;
  }

(* A weakened read quorum or a skipped write-back is meaningless to the
   twobit protocol (reads take one reply and write nothing back by
   design) and unordered links are meaningless to ABD (timestamps
   already tolerate reordering), so a mismatched hook is an error, not
   a silent no-op. *)
let make ?read_quorum ?(skip_write_back = false) ?(unordered = false)
    ?(torn_txn = false) ?(skip_dual_write = false) ~engine ~replicas
    ~migration () =
  (match read_quorum with
   | Some q when q < 1 || q > replicas ->
     invalid_arg
       (Fmt.str
          "Bug.make: read_quorum %d out of range for %d replicas (want 1..%d)"
          q replicas replicas)
   | _ -> ());
  (match engine with
   | Engine.Abd ->
     if unordered then
       invalid_arg
         "Bug.make: unordered is a twobit-engine bug hook; the abd engine \
          has no link layer to disorder"
   | Engine.Twobit ->
     if read_quorum <> None then
       invalid_arg
         "Bug.make: read_quorum is an abd-engine bug hook; the twobit engine \
          reads from a single reply by design";
     if skip_write_back then
       invalid_arg
         "Bug.make: skip_write_back is an abd-engine bug hook; twobit reads \
          have no write-back to skip");
  if skip_dual_write && not migration then
    invalid_arg
      "Bug.make: skip_dual_write is the reconfiguration bug hook; it needs a \
       reconfig migration to skip dual writes of";
  { read_quorum; skip_write_back; unordered; torn_txn; skip_dual_write }

let flag b = if b then 1 else 0

let fields t =
  [
    ("read_quorum", Option.value ~default:0 t.read_quorum);
    ("unordered", flag t.unordered);
    ("torn_txn", flag t.torn_txn);
    ("skip_dual_write", flag t.skip_dual_write);
    ("skip_write_back", flag t.skip_write_back);
  ]

let of_fields get ~engine ~replicas ~migration =
  let on name = get name = Some 1 in
  let read_quorum = match get "read_quorum" with Some 0 -> None | q -> q in
  make ?read_quorum ~skip_write_back:(on "skip_write_back")
    ~unordered:(on "unordered") ~torn_txn:(on "torn_txn")
    ~skip_dual_write:(on "skip_dual_write") ~engine ~replicas ~migration ()
