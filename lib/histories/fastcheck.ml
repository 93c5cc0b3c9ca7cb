type 'v violation =
  | Thin_air of int
  | Duplicate_write of 'v
  | Cycle of int list
  | Unknown_value of 'v

type 'v verdict =
  | Atomic of 'v Operation.t list
  | Violation of 'v violation

let pp_violation pp_v ppf = function
  | Thin_air id -> Fmt.pf ppf "read #%d returned a value never written" id
  | Duplicate_write v ->
    Fmt.pf ppf "value %a written more than once (unique-value precondition)"
      pp_v v
  | Cycle ids ->
    Fmt.pf ppf "cyclic ordering constraints among writes %a"
      Fmt.(Dump.list int) ids
  | Unknown_value v ->
    Fmt.pf ppf "read returned %a: never written, or overwritten before the read \
                began" pp_v v

(* Nodes of the constraint graph: 0 is the virtual write of the initial
   value, node [i + 1] is [writes.(i)]. *)
let check_unique ~init ops =
  let reads =
    List.filter (fun o -> Operation.is_read o && not (Operation.is_pending o)) ops
  in
  let writes = Array.of_list (List.filter Operation.is_write ops) in
  let nw = Array.length writes in
  let n = nw + 1 in
  let value_of i =
    match writes.(i).Operation.kind with
    | Operation.Write_op v -> v
    | Operation.Read_op -> assert false
  in
  let by_value = Hashtbl.create (2 * nw + 1) in
  let duplicate = ref None in
  Array.iteri
    (fun i _ ->
      let v = value_of i in
      if v = init || Hashtbl.mem by_value v then begin
        if !duplicate = None then duplicate := Some v
      end
      else Hashtbl.replace by_value v (i + 1))
    writes;
  match !duplicate with
  | Some v -> Violation (Duplicate_write v)
  | None ->
    (* Resolve the reads-from mapping through the values. *)
    let thin_air = ref None in
    let sigma =
      List.filter_map
        (fun (r : 'v Operation.t) ->
          match r.Operation.result with
          | None -> None
          | Some v ->
            if v = init then Some (r, 0)
            else
              (match Hashtbl.find_opt by_value v with
               | Some node -> Some (r, node)
               | None ->
                 if !thin_air = None then thin_air := Some r.Operation.id;
                 None))
        reads
    in
    (match !thin_air with
     | Some id -> Violation (Thin_air id)
     | None ->
       (* A pending write nobody read can simply be dropped. *)
       let observed = Array.make n false in
       observed.(0) <- true;
       List.iter (fun (_, s) -> observed.(s) <- true) sigma;
       let included = Array.make n true in
       for i = 0 to nw - 1 do
         if Operation.is_pending writes.(i) && not observed.(i + 1) then
           included.(i + 1) <- false
       done;
       let adj = Array.make n [] in
       let future_read = ref None in
       let add_edge a b =
         if included.(a) && included.(b) then
           if a = b then begin
             if !future_read = None then future_read := Some a
           end
           else adj.(a) <- b :: adj.(a)
       in
       (* Initial value precedes every write. *)
       for i = 1 to n - 1 do
         add_edge 0 i
       done;
       (* Real-time order among writes. *)
       for i = 0 to nw - 1 do
         for j = 0 to nw - 1 do
           if i <> j && Operation.precedes writes.(i) writes.(j) then
             add_edge (i + 1) (j + 1)
         done
       done;
       (* Write-read and read-write constraints. *)
       List.iter
         (fun (r, s) ->
           for w = 1 to n - 1 do
             (* a write completed before [r] must not intervene after
                [sigma r] — unless it is [sigma r] itself *)
             if w <> s && Operation.precedes writes.(w - 1) r then
               add_edge w s;
             (* [r] entirely before [w] forces [sigma r] before [w];
                with [w = sigma r] this is a read from the future *)
             if Operation.precedes r writes.(w - 1) then add_edge s w
           done)
         sigma;
       (* No new-old inversion between reads. *)
       List.iter
         (fun (r1, s1) ->
           List.iter
             (fun (r2, s2) ->
               if s1 <> s2 && Operation.precedes r1 r2 then add_edge s1 s2)
             sigma)
         sigma;
       let node_op_id node =
         if node = 0 then -1 else writes.(node - 1).Operation.id
       in
       (match !future_read with
        | Some node -> Violation (Cycle [ node_op_id node ])
        | None ->
          (* Iterative 3-colour DFS: detect a cycle or produce a
             (reverse) topological order. *)
          let white = 0 and grey = 1 and black = 2 in
          let colour = Array.make n white in
          let topo = ref [] in
          let cycle = ref None in
          let rec visit path v =
            if colour.(v) = grey then begin
              (* Unwind [path] up to the previous occurrence of [v]. *)
              let rec take acc = function
                | [] -> acc
                | x :: rest -> if x = v then v :: acc else take (x :: acc) rest
              in
              if !cycle = None then cycle := Some (take [] path)
            end
            else if colour.(v) = white then begin
              colour.(v) <- grey;
              List.iter
                (fun w -> if !cycle = None then visit (v :: path) w)
                adj.(v);
              colour.(v) <- black;
              topo := v :: !topo
            end
          in
          for v = 0 to n - 1 do
            if included.(v) && !cycle = None then visit [] v
          done;
          (match !cycle with
           | Some nodes -> Violation (Cycle (List.map node_op_id nodes))
           | None ->
             (* Witness: writes in topological order, each followed by
                the reads of its value (in invocation order). *)
             let cluster = Array.make n [] in
             List.iter (fun (r, s) -> cluster.(s) <- r :: cluster.(s)) sigma;
             let witness =
               List.concat_map
                 (fun node ->
                   let rs =
                     List.sort
                       (fun (a : 'v Operation.t) b ->
                         compare a.Operation.inv b.Operation.inv)
                       cluster.(node)
                   in
                   if node = 0 then rs else writes.(node - 1) :: rs)
                 !topo
             in
             assert (Seq_spec.is_legal ~init witness);
             Atomic witness)))

let is_atomic ~init ops =
  match check_unique ~init ops with
  | Atomic _ -> true
  | Violation _ -> false
