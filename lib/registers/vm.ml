type sem =
  | Safe
  | Regular
  | Atomic

type 'c cell_spec = {
  sem : sem;
  init : 'c;
  domain : 'c list;
}

let atomic_cell init = { sem = Atomic; init; domain = [] }

type ('c, 'a) prog =
  | Ret of 'a
  | Read of int * ('c -> ('c, 'a) prog)
  | Write of int * 'c * (unit -> ('c, 'a) prog)

let return a = Ret a

let rec bind p f =
  match p with
  | Ret a -> f a
  | Read (c, k) -> Read (c, fun v -> bind (k v) f)
  | Write (c, v, k) -> Write (c, v, fun () -> bind (k ()) f)

let read c = Read (c, fun v -> Ret v)
let write c v = Write (c, v, fun () -> Ret ())

let steps ~probe p =
  let rec go n p =
    if n > 10_000 then invalid_arg "Vm.steps: program exceeds 10000 accesses"
    else
      match p with
      | Ret _ -> n
      | Read (_, k) -> go (n + 1) (k probe)
      | Write (_, _, k) -> go (n + 1) (k ())
  in
  go 0 p

type ('c, 'v) built = {
  spec : 'c cell_spec array;
  read : proc:int -> ('c, 'v) prog;
  write : proc:int -> 'v -> ('c, unit) prog;
}

let rec subst p ~read ~write =
  match p with
  | Ret a -> Ret a
  | Read (c, k) -> bind (read c) (fun v -> subst (k v) ~read ~write)
  | Write (c, v, k) -> bind (write c v) (fun () -> subst (k ()) ~read ~write)

let stack outer ~inner =
  let parts = Array.init (Array.length outer.spec) inner in
  (* Lay the inner registers' cells out consecutively. *)
  let offsets = Array.make (Array.length parts) 0 in
  let total = ref 0 in
  Array.iteri
    (fun i p ->
      offsets.(i) <- !total;
      total := !total + Array.length p.spec)
    parts;
  ignore !total;
  let spec = Array.concat (Array.to_list (Array.map (fun p -> p.spec) parts)) in
  let shift off p =
    let rec go = function
      | Ret a -> Ret a
      | Read (c, k) -> Read (c + off, fun v -> go (k v))
      | Write (c, v, k) -> Write (c + off, v, fun () -> go (k ()))
    in
    go p
  in
  let read_cell ~proc i = shift offsets.(i) (parts.(i).read ~proc) in
  let write_cell ~proc i v = shift offsets.(i) (parts.(i).write ~proc v) in
  {
    spec;
    read =
      (fun ~proc ->
        subst (outer.read ~proc) ~read:(read_cell ~proc)
          ~write:(write_cell ~proc));
    write =
      (fun ~proc v ->
        subst (outer.write ~proc v) ~read:(read_cell ~proc)
          ~write:(write_cell ~proc));
  }

type 'v process = {
  proc : Histories.Event.proc;
  script : 'v Histories.Event.op list;
}

let op_prog built ~proc = function
  | Histories.Event.Read -> bind (built.read ~proc) (fun v -> Ret (Some v))
  | Histories.Event.Write v -> bind (built.write ~proc v) (fun () -> Ret None)

type ('c, 'v) trace_event =
  | Sim of 'v Histories.Event.t
  | Prim_read of Histories.Event.proc * int * 'c
  | Prim_write of Histories.Event.proc * int * 'c

let history_of_trace trace =
  List.filter_map
    (function
      | Sim e -> Some e
      | Prim_read _ | Prim_write _ -> None)
    trace

let pp_trace_event pp_c pp_v ppf = function
  | Sim e -> Histories.Event.pp pp_v ppf e
  | Prim_read (p, c, v) -> Fmt.pf ppf "  *read^%d Reg%d = %a" p c pp_c v
  | Prim_write (p, c, v) -> Fmt.pf ppf "  *write^%d Reg%d := %a" p c pp_c v

let prim_counts trace =
  (* Walk the trace; primitive accesses between a processor's Invoke
     and Respond belong to that operation. *)
  let open Histories.Event in
  let inflight = Hashtbl.create 8 in
  let out = ref [] in
  let handle = function
    | Sim (Invoke (p, op)) -> Hashtbl.replace inflight p (op, 0, 0)
    | Sim (Respond (p, _)) ->
      (match Hashtbl.find_opt inflight p with
       | Some (op, r, w) ->
         Hashtbl.remove inflight p;
         out := (p, op, r, w) :: !out
       | None -> ())
    | Prim_read (p, _, _) ->
      (match Hashtbl.find_opt inflight p with
       | Some (op, r, w) -> Hashtbl.replace inflight p (op, r + 1, w)
       | None -> ())
    | Prim_write (p, _, _) ->
      (match Hashtbl.find_opt inflight p with
       | Some (op, r, w) -> Hashtbl.replace inflight p (op, r, w + 1)
       | None -> ())
  in
  List.iter handle trace;
  List.rev !out
