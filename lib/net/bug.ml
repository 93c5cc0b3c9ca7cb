type t = {
  read_quorum : int option;
  skip_write_back : bool;
  unordered : bool;
  torn_txn : bool;
  skip_dual_write : bool;
  stale_copy : bool;
  no_widen : bool;
}

let none =
  {
    read_quorum = None;
    skip_write_back = false;
    unordered = false;
    torn_txn = false;
    skip_dual_write = false;
    stale_copy = false;
    no_widen = false;
  }
