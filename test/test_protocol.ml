open Helpers
module Vm = Registers.Vm
module Tagged = Registers.Tagged
module P = Core.Protocol

let writer_index_levels () =
  Alcotest.(check int) "level 0, proc 0" 0 (P.writer_index ~level:0 0);
  Alcotest.(check int) "level 0, proc 1" 1 (P.writer_index ~level:0 1);
  (* tournament grouping: {0,1} share register 0, {2,3} register 1 *)
  Alcotest.(check int) "level 1, proc 0" 0 (P.writer_index ~level:1 0);
  Alcotest.(check int) "level 1, proc 1" 0 (P.writer_index ~level:1 1);
  Alcotest.(check int) "level 1, proc 2" 1 (P.writer_index ~level:1 2);
  Alcotest.(check int) "level 1, proc 3" 1 (P.writer_index ~level:1 3)

(* Claim C3: wait-freedom with exact access counts. *)
let write_is_two_accesses () =
  let r, w = P.real_accesses_per_write in
  Alcotest.(check int) "1 read" 1 r;
  Alcotest.(check int) "1 write" 1 w;
  Alcotest.(check int) "write: 2 accesses" 2
    (Vm.steps ~probe:(Tagged.initial 0) (P.write_prog ~level:0 ~proc:0 99))

let read_is_three_accesses () =
  Alcotest.(check int) "claimed" 3 P.real_reads_per_read;
  Alcotest.(check int) "read: 3 accesses" 3
    (Vm.steps ~probe:(Tagged.initial 0) (P.read_prog ()))

(* The tag choice: t := i (+) t'. *)
let writer0_copies_tag () =
  let observe other =
    let rec go cells = function
      | Vm.Ret () -> cells
      | Vm.Read (1, k) -> go cells (k other)
      | Vm.Write (0, tv, k) ->
        let _ = k () in
        Some tv
      | Vm.Read _ | Vm.Write _ -> Alcotest.fail "wrong register accessed"
    in
    go None (P.write_prog ~level:0 ~proc:0 7)
  in
  (match observe (Tagged.make 5 false) with
   | Some tv -> Alcotest.(check bool) "tag 0 when other is 0" false (Tagged.tag tv)
   | None -> Alcotest.fail "no write");
  match observe (Tagged.make 5 true) with
  | Some tv -> Alcotest.(check bool) "tag 1 when other is 1" true (Tagged.tag tv)
  | None -> Alcotest.fail "no write"

let writer1_complements_tag () =
  let observe other =
    let rec go = function
      | Vm.Ret () -> None
      | Vm.Read (0, k) -> go (k other)
      | Vm.Write (1, tv, _) -> Some tv
      | Vm.Read _ | Vm.Write _ -> Alcotest.fail "wrong register accessed"
    in
    go (P.write_prog ~level:0 ~proc:1 7)
  in
  (match observe (Tagged.make 5 false) with
   | Some tv -> Alcotest.(check bool) "tag 1 when other is 0" true (Tagged.tag tv)
   | None -> Alcotest.fail "no write");
  match observe (Tagged.make 5 true) with
  | Some tv -> Alcotest.(check bool) "tag 0 when other is 1" false (Tagged.tag tv)
  | None -> Alcotest.fail "no write"

let reader_follows_tag_sum () =
  (* reads Reg0, Reg1, then register (t0 (+) t1) *)
  let final_read ~t0 ~t1 =
    let rec go step = function
      | Vm.Ret _ -> Alcotest.fail "ended early"
      | Vm.Read (c, k) ->
        (match step with
         | 0 ->
           Alcotest.(check int) "first read Reg0" 0 c;
           go 1 (k (Tagged.make 0 t0))
         | 1 ->
           Alcotest.(check int) "second read Reg1" 1 c;
           go 2 (k (Tagged.make 0 t1))
         | _ -> c)
      | Vm.Write _ -> Alcotest.fail "reader must not write"
    in
    go 0 (P.read_prog ())
  in
  Alcotest.(check int) "0,0 -> Reg0" 0 (final_read ~t0:false ~t1:false);
  Alcotest.(check int) "1,1 -> Reg0" 0 (final_read ~t0:true ~t1:true);
  Alcotest.(check int) "0,1 -> Reg1" 1 (final_read ~t0:false ~t1:true);
  Alcotest.(check int) "1,0 -> Reg1" 1 (final_read ~t0:true ~t1:false)

let sequential_semantics () =
  let reg = bloom () in
  let trace =
    Registers.Run_coarse.run_scheduled
      ~schedule:[ 0; 0; 2; 2; 2; 1; 1; 2; 2; 2 ] reg
      [ { Vm.proc = 0; script = [ write 5 ] };
        { Vm.proc = 1; script = [ write 6 ] };
        { Vm.proc = 2; script = [ read; read ] } ]
  in
  let returns =
    List.filter_map
      (function
        | Vm.Sim (Histories.Event.Respond (2, Some v)) -> Some v
        | _ -> None)
      trace
  in
  Alcotest.(check (list int)) "reads see the writes in order" [ 5; 6 ] returns

let quiescent_writer_sets_tag_sum () =
  (* Section 5: "if one writer is quiescent while the other writes, the
     active writer can set the sum of the tag bits to its own index" *)
  let check_writer i =
    let reg = bloom () in
    let trace =
      Registers.Run_coarse.run_scheduled ~schedule:[ i; i ] reg
        [ { Vm.proc = i; script = [ write 9 ] } ]
    in
    let cells = Registers.Run_coarse.cells_after reg trace in
    Alcotest.(check int)
      (Fmt.str "sum equals %d" i)
      i
      (Tagged.tag_sum cells.(0) cells.(1))
  in
  check_writer 0;
  check_writer 1

let alternating_writers_alternate_sum () =
  let reg = bloom () in
  let trace =
    Registers.Run_coarse.run_scheduled
      ~schedule:[ 0; 0; 1; 1; 0; 0; 1; 1 ] reg
      [ { Vm.proc = 0; script = [ write 1; write 2 ] };
        { Vm.proc = 1; script = [ write 3; write 4 ] } ]
  in
  let g = Core.Gamma.analyse ~init:0 trace in
  Array.iter
    (fun (w : int Core.Gamma.write) ->
      Alcotest.(check bool)
        (Fmt.str "solo write #%d potent" w.Core.Gamma.w_id)
        true w.Core.Gamma.potent)
    g.Core.Gamma.writes

(* The direct-chain programs against the [bind]-built ones they
   replaced ({!Protocol_oracle}): fed the same tagged cell values, both
   make the same accesses (cell, and value written) in the same order
   and return the same result. *)
type access = R of int | W of int * int Tagged.t

let run_prog feed prog =
  let rec go i acc = function
    | Vm.Ret a -> (List.rev acc, a)
    | Vm.Read (c, k) ->
      go (i + 1) (R c :: acc) (k (List.nth feed (i mod List.length feed)))
    | Vm.Write (c, v, k) -> go i (W (c, v) :: acc) (k ())
  in
  go 0 [] prog

let same_accesses () =
  let gen =
    QCheck2.Gen.(
      tup4 (int_range 0 3) (int_range 0 1) small_nat
        (list_size (int_range 1 4) (pair small_nat bool)))
  in
  qc ~count:500 "direct chains = bind-built programs, access by access" gen
    (fun (proc, level, w, cells) ->
      let feed = List.map (fun (v, t) -> Tagged.make v t) cells in
      let same name a b =
        if run_prog feed a <> run_prog feed b then
          QCheck2.Test.fail_reportf "%s differs (proc %d, level %d)" name proc
            level;
        true
      in
      let single = P.bloom_cached_single_read ~init:0 ~other_init:0 () in
      same "write_prog"
        (P.write_prog ~level ~proc w)
        (Protocol_oracle.write_prog ~level ~proc w)
      && same "read_prog" (P.read_prog ()) (Protocol_oracle.read_prog ())
      && same "cached_write_prog"
           (P.cached_write_prog ~proc w)
           (Protocol_oracle.cached_write_prog ~proc w)
      && same "cached_read_prog"
           (P.cached_read_prog ~proc)
           (Protocol_oracle.cached_read_prog ~proc)
      && same "single-read variant"
           (single.Vm.read ~proc)
           (if proc < 2 then Protocol_oracle.single_read_prog ~proc
            else Protocol_oracle.read_prog ()))

(* Minor words to step a program to its end in a bare loop that feeds
   each read from a fixed array. *)
let stepping_words prog =
  let feed = Array.init 4 (fun i -> Tagged.make i (i land 1 = 1)) in
  let rec go i = function
    | Vm.Ret _ -> ()
    | Vm.Read (_, k) -> go (i + 1) (k feed.(i land 3))
    | Vm.Write (_, _, k) -> go i (k ())
  in
  words_per_call ~warmup:100 ~n:2_000 (fun i -> go i (prog i))

let cached_write_words () =
  let words = stepping_words (fun i -> P.cached_write_prog ~proc:(i land 1) i) in
  Alcotest.(check bool)
    (Fmt.str "%.1f words per cached_write_prog <= 24" words)
    true (words <= 24.0)

let suite =
  [
    tc "writer register assignment per level" writer_index_levels;
    tc "write = 1 real read + 1 real write (claim C1/C3)"
      write_is_two_accesses;
    tc "read = 3 real reads (claim C1/C3)" read_is_three_accesses;
    tc "writer 0 copies the other tag" writer0_copies_tag;
    tc "writer 1 complements the other tag" writer1_complements_tag;
    tc "reader re-reads register t0 xor t1" reader_follows_tag_sum;
    tc "sequential read-your-writes semantics" sequential_semantics;
    tc "a quiescent-peer write sets the tag sum to its index"
      quiescent_writer_sets_tag_sum;
    tc "non-overlapping writes are all potent" alternating_writers_alternate_sum;
    same_accesses ();
    tc "stepping cached_write_prog: <= 24 words (45 with bind)"
      cached_write_words;
  ]
