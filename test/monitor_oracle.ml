(* A test-only oracle: the list-and-hashtable Monitor that the slot-array
   one replaced, kept verbatim so a property can compare the two after
   every event.  Only the tests use it. *)

open Histories

type 'v verdict =
  | Ok_so_far
  | Violation of 'v Fastcheck.violation

(* ------------------------------------------------------------------ *)
(* Dynamic constraint graph with a Pearce-Kelly online topological     *)
(* order: each edge insertion either respects the current order or     *)
(* triggers a local reordering of the affected region; a cycle is      *)
(* detected when the forward search from the edge's head reaches its   *)
(* tail.                                                               *)

module Graph = struct
  type t = {
    out_edges : (int, int list) Hashtbl.t;
    in_edges : (int, int list) Hashtbl.t;
    ord : (int, int) Hashtbl.t;
    mutable next_ord : int;
    mutable n_edges : int;
  }

  (* Sized for one register's live writes, which pruning keeps to a
     handful: a service holds one monitor per key. *)
  let create () =
    {
      out_edges = Hashtbl.create 8;
      in_edges = Hashtbl.create 8;
      ord = Hashtbl.create 8;
      next_ord = 0;
      n_edges = 0;
    }

  let add_node g n =
    Hashtbl.replace g.ord n g.next_ord;
    g.next_ord <- g.next_ord + 1

  let mem g n = Hashtbl.mem g.ord n
  let succs g n = Option.value ~default:[] (Hashtbl.find_opt g.out_edges n)
  let preds g n = Option.value ~default:[] (Hashtbl.find_opt g.in_edges n)
  let ord g n = Hashtbl.find g.ord n

  (* Forward DFS from [start] among nodes with ord <= ub; returns
     [Error ()] if [target] is reached (a cycle), otherwise the set of
     visited nodes. *)
  let dfs_forward g ~start ~target ~ub =
    let visited = Hashtbl.create 16 in
    let rec go n =
      if n = target then Error ()
      else if Hashtbl.mem visited n then Ok ()
      else begin
        Hashtbl.replace visited n ();
        List.fold_left
          (fun acc m ->
            match acc with
            | Error () -> acc
            | Ok () -> if ord g m <= ub then go m else Ok ())
          (Ok ()) (succs g n)
      end
    in
    match go start with
    | Error () -> Error ()
    | Ok () -> Ok visited

  let dfs_backward g ~start ~lb =
    let visited = Hashtbl.create 16 in
    let rec go n =
      if not (Hashtbl.mem visited n) then begin
        Hashtbl.replace visited n ();
        List.iter (fun m -> if ord g m >= lb then go m) (preds g n)
      end
    in
    go start;
    visited

  (* [add_edge g x y] between two present nodes: returns [Error ()]
     when the edge closes a cycle. *)
  let add_edge g x y =
    if x = y then Error ()
    else begin
      Hashtbl.replace g.out_edges x (y :: succs g x);
      Hashtbl.replace g.in_edges y (x :: preds g y);
      g.n_edges <- g.n_edges + 1;
      let ox = ord g x and oy = ord g y in
      if ox < oy then Ok ()
      else
        match dfs_forward g ~start:y ~target:x ~ub:ox with
        | Error () -> Error ()
        | Ok forward ->
          let backward = dfs_backward g ~start:x ~lb:oy in
          (* reassign the affected positions: backward block first,
             then forward block, keeping each block's relative order *)
          let by_ord set =
            Hashtbl.fold (fun n () acc -> (ord g n, n) :: acc) set []
            |> List.sort compare |> List.map snd
          in
          let bs = by_ord backward and fs = by_ord forward in
          let pool =
            List.sort compare
              (List.map (ord g) bs @ List.map (ord g) fs)
          in
          List.iter2
            (fun n o -> Hashtbl.replace g.ord n o)
            (bs @ fs) pool;
          Ok ()
    end

  (* Remove [n] and every edge at it.  The remaining nodes keep their
     order, which stays topological.  An edge may be listed twice. *)
  let remove_node g n =
    let unlink tbl m =
      match Hashtbl.find_opt tbl m with
      | None -> ()
      | Some l ->
        (match List.filter (fun k -> k <> n) l with
         | [] -> Hashtbl.remove tbl m
         | l -> Hashtbl.replace tbl m l)
    in
    let out = succs g n and inc = preds g n in
    List.iter (unlink g.in_edges) out;
    List.iter (unlink g.out_edges) inc;
    g.n_edges <- g.n_edges - List.length out - List.length inc;
    Hashtbl.remove g.out_edges n;
    Hashtbl.remove g.in_edges n;
    Hashtbl.remove g.ord n

  let n_nodes g = Hashtbl.length g.ord
end

(* ------------------------------------------------------------------ *)

(* A write's graph node.  [left] is the write completion (a [clock]
   tick) that took it off the write frontier, [max_int] until then. *)
type 'v write = { node : int; value : 'v; mutable left : int }

type 'v pending =
  | Pending_write of {
      w : 'v write;
      wfrontier : 'v write list;  (* write frontier at invocation (rule a) *)
      obligations : 'v obligation list;  (* to retire at completion *)
    }
  | Pending_read of {
      since : int;  (* [clock] at invocation *)
      wfrontier : 'v write list;  (* rule b *)
      rfrontier : int list;  (* sigma nodes of the read frontier (rule d) *)
    }

and 'v obligation = {
  ob_sigma : int;
  mutable retired : bool;
}

type 'v read_entry = {
  re_sigma : int;
  re_id : int;  (* unique, for frontier removal *)
}

type 'v t = {
  init : 'v;
  graph : Graph.t;
  value_node : ('v, int) Hashtbl.t;  (* live writes only *)
  mutable next_node : int;
  inflight : (Event.proc, 'v pending) Hashtbl.t;
  mutable write_frontier : 'v write list;
  mutable superseded : 'v write list;  (* off the write frontier, still live *)
  mutable clock : int;  (* write completions so far *)
  mutable prune_at : int;  (* [clock] at which the next [prune] runs *)
  mutable read_frontier : 'v read_entry list;
  mutable read_frontier_snapshots : (int, int list) Hashtbl.t;
      (* proc -> read-entry ids seen at invocation (for removal) *)
  mutable obligations : 'v obligation list;
  mutable next_read_entry : int;
  mutable state : 'v verdict;
}

let create ~init =
  let graph = Graph.create () in
  Graph.add_node graph 0 (* the virtual initial write *);
  {
    init;
    graph;
    value_node = Hashtbl.create 8;
    next_node = 1;
    inflight = Hashtbl.create 8;
    write_frontier = [];
    superseded = [];
    clock = 0;
    prune_at = 0;
    read_frontier = [];
    read_frontier_snapshots = Hashtbl.create 8;
    obligations = [];
    next_read_entry = 0;
    state = Ok_so_far;
  }

let verdict t = t.state

let stats t = (Graph.n_nodes t.graph, t.graph.Graph.n_edges)

let fail t v =
  t.state <- Violation v;
  t.state

(* Node 0, the virtual initial write, precedes every write.  It keeps
   the smallest order, so those edges are implicit, and an edge into
   it always closes a cycle.  Edges out of a dropped write are skipped:
   no live node but 0 reaches it (see [prune]), so they lie on no path
   between live nodes. *)
let edge t x y =
  match t.state with
  | Violation _ -> ()
  | Ok_so_far ->
    if y = 0 then ignore (fail t (Fastcheck.Cycle [ x - 1; -1 ]))
    else if x <> 0 && Graph.mem t.graph x then
      match Graph.add_edge t.graph x y with
      | Ok () -> ()
      | Error () -> ignore (fail t (Fastcheck.Cycle [ x - 1; y - 1 ]))

(* Drop every superseded write that no read may still return.  A write
   that left the write frontier was followed, in real time, by a
   completed write; a read invoked after that may not return it, so the
   write is kept only while a read invoked before it left is pending.
   It must also have no live predecessor but 0: the dropped set then
   stays closed under ancestors, so dropping it, and skipping the edges
   out of it later, loses no path between live nodes.  Visiting in
   topological order drops a whole chain in one pass.  A pass costs
   O(|superseded|), so the next one waits that many write
   completions. *)
let prune t =
  let oldest_read =
    Hashtbl.fold
      (fun _ p acc ->
        match p with
        | Pending_read { since; _ } -> min since acc
        | Pending_write _ -> acc)
      t.inflight max_int
  in
  let by_ord =
    List.sort
      (fun a b -> compare (Graph.ord t.graph a.node) (Graph.ord t.graph b.node))
      t.superseded
  in
  t.superseded <-
    List.filter
      (fun w ->
        if w.left <= oldest_read && Graph.preds t.graph w.node = [] then begin
          Graph.remove_node t.graph w.node;
          Hashtbl.remove t.value_node w.value;
          false
        end
        else true)
      by_ord;
  t.prune_at <- t.clock + List.length t.superseded

let handle_invoke t p op =
  if Hashtbl.mem t.inflight p then
    invalid_arg "Monitor.observe: processor not sequential";
  match op with
  | Event.Write v ->
    if v = t.init || Hashtbl.mem t.value_node v then
      ignore (fail t (Fastcheck.Duplicate_write v))
    else begin
      let node = t.next_node in
      t.next_node <- t.next_node + 1;
      Hashtbl.replace t.value_node v node;
      Graph.add_node t.graph node;
      (* rule c: completed reads' sources precede every later write *)
      let obligations =
        List.filter (fun ob -> not ob.retired) t.obligations
      in
      t.obligations <- obligations;
      List.iter (fun ob -> edge t ob.ob_sigma node) obligations;
      Hashtbl.replace t.inflight p
        (Pending_write
           {
             w = { node; value = v; left = max_int };
             wfrontier = t.write_frontier;
             obligations;
           })
    end
  | Event.Read ->
    Hashtbl.replace t.read_frontier_snapshots p
      (List.map (fun re -> re.re_id) t.read_frontier);
    Hashtbl.replace t.inflight p
      (Pending_read
         {
           since = t.clock;
           wfrontier = t.write_frontier;
           rfrontier = List.map (fun re -> re.re_sigma) t.read_frontier;
         })

let handle_respond t p res =
  match Hashtbl.find_opt t.inflight p with
  | None -> invalid_arg "Monitor.observe: response without request"
  | Some (Pending_write { w; wfrontier; obligations }) ->
    if res <> None then invalid_arg "Monitor.observe: write acked with value";
    Hashtbl.remove t.inflight p;
    (* rule a: maximal writes completed before our invocation precede us *)
    List.iter (fun f -> edge t f.node w.node) wfrontier;
    (* this completion dominates the snapshot frontier *)
    t.clock <- t.clock + 1;
    let left, stay =
      List.partition (fun f -> List.memq f wfrontier) t.write_frontier
    in
    List.iter (fun f -> f.left <- t.clock) left;
    t.write_frontier <- w :: stay;
    t.superseded <- left @ t.superseded;
    (* retire rule-c obligations that predate our invocation *)
    List.iter (fun ob -> ob.retired <- true) obligations;
    if t.clock >= t.prune_at then prune t
  | Some (Pending_read { wfrontier; rfrontier; _ }) ->
    Hashtbl.remove t.inflight p;
    let v =
      match res with
      | Some v -> v
      | None -> invalid_arg "Monitor.observe: read acked without value"
    in
    let sigma =
      if v = t.init then Some 0 else Hashtbl.find_opt t.value_node v
    in
    (match sigma with
     | None ->
       (* never written, or dropped by [prune]: then a write completed
          before this read began overwrote it *)
       ignore (fail t (Fastcheck.Unknown_value v))
     | Some sigma ->
       (* rule b: completed writes before our invocation precede sigma *)
       List.iter
         (fun f -> if f.node <> sigma then edge t f.node sigma)
         wfrontier;
       (* rule d: sources of reads completed before our invocation
          precede our source *)
       List.iter (fun s -> if s <> sigma then edge t s sigma) rfrontier;
       (* rule c: register an obligation against future writes *)
       let ob = { ob_sigma = sigma; retired = false } in
       t.obligations <- ob :: t.obligations;
       (* update the read frontier: we dominate the snapshot *)
       let snapshot =
         Option.value ~default:[]
           (Hashtbl.find_opt t.read_frontier_snapshots p)
       in
       Hashtbl.remove t.read_frontier_snapshots p;
       let entry = { re_sigma = sigma; re_id = t.next_read_entry } in
       t.next_read_entry <- t.next_read_entry + 1;
       t.read_frontier <-
         entry
         :: List.filter
              (fun re -> not (List.mem re.re_id snapshot))
              t.read_frontier)

let observe t ev =
  match t.state with
  | Violation _ -> t.state
  | Ok_so_far ->
    (match ev with
     | Event.Invoke (p, op) -> handle_invoke t p op
     | Event.Respond (p, res) -> handle_respond t p res);
    t.state

let observe_all t evs =
  List.fold_left (fun _ ev -> observe t ev) t.state evs
