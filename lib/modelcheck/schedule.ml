type key = { node : int; tag : string }

(* Two choices commute when they are handled by distinct nodes: a
   handler only touches its own node's state, so firing them in either
   order reaches the same global state.  Anything owned by node -1
   (global fates: partitions, heals) conservatively depends on
   everything. *)
let independent a b = a.node >= 0 && b.node >= 0 && a.node <> b.node

type 'a system = {
  reset : unit -> 'a;
  enabled : 'a -> key list;
  apply : 'a -> int -> unit;
}

type stats = {
  schedules : int;
  transitions : int;
  pruned : int;
  max_depth_seen : int;
  exhausted : bool;
}

(* Depth-first stateless search: states are mutable and cannot be
   un-applied, so visiting a sibling replays the schedule prefix from a
   fresh reset.  The first branch out of each state reuses the live
   state, which makes a straight-line (singleton-choice) run cost one
   replay total.

   Contract with [system]: [enabled] is called exactly once on a state
   before each [apply] — implementations may build the index → action
   table for [apply] as a side effect of [enabled]. *)
let explore ?(max_schedules = max_int) ?(max_depth = 1_000_000)
    ?(prune = true) sys ~on_leaf =
  let schedules = ref 0 in
  let transitions = ref 0 in
  let pruned = ref 0 in
  let deepest = ref 0 in
  let truncated = ref false in
  let stopped = ref false in
  let replay path =
    (* returns the state with [enabled] not yet called at the end *)
    let st = sys.reset () in
    List.iter
      (fun i ->
        ignore (sys.enabled st);
        sys.apply st i)
      path;
    st
  in
  let rec go st path_rev depth sleep =
    if not !stopped then begin
      if depth > !deepest then deepest := depth;
      let keys = Array.of_list (sys.enabled st) in
      let n = Array.length keys in
      if n = 0 || depth >= max_depth then begin
        if n > 0 then truncated := true;
        incr schedules;
        (match on_leaf st (List.rev path_rev) with
         | `Stop -> stopped := true
         | `Continue -> ());
        if !schedules >= max_schedules then stopped := true
      end
      else begin
        let consumed = ref false in
        let done_keys = ref [] in
        for i = 0 to n - 1 do
          if not !stopped then begin
            let k = keys.(i) in
            if prune && List.exists (fun s -> s = k) sleep then incr pruned
            else begin
              let child =
                if not !consumed then begin
                  consumed := true;
                  st
                end
                else begin
                  let st' = replay (List.rev path_rev) in
                  ignore (sys.enabled st');
                  st'
                end
              in
              sys.apply child i;
              incr transitions;
              let child_sleep =
                if prune then
                  List.filter (fun s -> independent s k) (sleep @ !done_keys)
                else []
              in
              go child (i :: path_rev) (depth + 1) child_sleep;
              done_keys := k :: !done_keys
            end
          end
        done
      end
    end
  in
  go (sys.reset ()) [] 0 [];
  {
    schedules = !schedules;
    transitions = !transitions;
    pruned = !pruned;
    max_depth_seen = !deepest;
    exhausted = not (!truncated || !stopped);
  }

(* Zeller–Hildebrandt delta debugging on lists: greedily remove chunks
   while [test] (= "still exhibits the failure") stays true. *)
let ddmin ~test xs =
  let remove_chunk xs start len =
    List.filteri (fun i _ -> i < start || i >= start + len) xs
  in
  let rec go xs n =
    let len = List.length xs in
    if len <= 1 || n > len then xs
    else begin
      let chunk = max 1 (len / n) in
      let rec try_from start =
        if start >= len then None
        else
          let candidate = remove_chunk xs start chunk in
          if List.length candidate < len && test candidate then Some candidate
          else try_from (start + chunk)
      in
      match try_from 0 with
      | Some smaller -> go smaller (max 2 (n - 1))
      | None -> if chunk = 1 then xs else go xs (min len (2 * n))
    end
  in
  if test xs then go xs 2 else xs
