(* The ABD-style quorum protocol as an {!Engine.instance}: a thin
   adapter over {!Quorum}, which keeps its standalone API (and tests).
   Byte accounting lives here rather than in Quorum: the adapter wraps
   the transport and meters every message the engine sends. *)

type t = { q : Quorum.t; bytes : int ref; cbytes : int ref }

module Impl = struct
  type nonrec t = t

  let read t ~reg ~k = Quorum.read t.q ~reg ~k
  let write t ~reg ~value ~k = Quorum.write t.q ~reg ~value ~k
  let read_ts t ~reg ~k = Quorum.read_ts t.q ~reg ~k
  let write_at t ~reg ~ts ~value ~k = Quorum.write_at t.q ~reg ~ts ~value ~k
  let write_ts t ~reg ~value ~k = Quorum.write_ts t.q ~reg ~value ~k
  let on_message t ~src msg = Quorum.on_message t.q ~src msg
  let resend_pending ?older_than t = Quorum.resend_pending ?older_than t.q

  let stats t =
    let s = Quorum.stats t.q in
    {
      Engine.reads = s.Quorum.reads;
      writes = s.Quorum.writes;
      messages_sent = s.Quorum.messages_sent;
      retransmissions = s.Quorum.retransmissions;
      bytes_sent = !(t.bytes);
      control_bytes_sent = !(t.cbytes);
    }
end

let create ~transport ~me ~replicas ?read_quorum ?skip_write_back ?storage
    ?metrics ?rid_base ?rid_stride () =
  let bytes = ref 0 and cbytes = ref 0 in
  let metered =
    {
      transport with
      Transport.send =
        (fun ~src ~dst msg ->
          bytes := !bytes + Wire.encoded_size msg;
          cbytes := !cbytes + Wire.control_bytes msg;
          transport.Transport.send ~src ~dst msg);
    }
  in
  let t =
    {
      q =
        Quorum.create ~transport:metered ~me ~replicas ?read_quorum
          ?skip_write_back ?storage ?metrics ?rid_base ?rid_stride ();
      bytes;
      cbytes;
    }
  in
  Engine.Instance ((module Impl), t)
