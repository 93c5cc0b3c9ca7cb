type counter = { cname : string; cell : int Atomic.t }

type histogram = {
  hname : string;
  hmu : Mutex.t;
  res : Harness.Stats.Reservoir.t;
}

type t = {
  mu : Mutex.t;
  counters : (string, counter) Hashtbl.t;
  hists : (string, histogram) Hashtbl.t;
}

let create () =
  { mu = Mutex.create (); counters = Hashtbl.create 32; hists = Hashtbl.create 8 }

let counter t name =
  Mutex.protect t.mu (fun () ->
      match Hashtbl.find_opt t.counters name with
      | Some c -> c
      | None ->
        let c = { cname = name; cell = Atomic.make 0 } in
        Hashtbl.replace t.counters name c;
        c)

let incr c = Atomic.incr c.cell
let add c n = ignore (Atomic.fetch_and_add c.cell n)
let value c = Atomic.get c.cell

(* A high-water mark: racing writers each retry until the cell holds at
   least their value. *)
let rec raise_to c n =
  let v = Atomic.get c.cell in
  if n > v && not (Atomic.compare_and_set c.cell v n) then raise_to c n

(* Deterministic reservoir seed per name: metric output under the
   simulated transport stays a pure function of (seed, workload). *)
let histogram t name =
  Mutex.protect t.mu (fun () ->
      match Hashtbl.find_opt t.hists name with
      | Some h -> h
      | None ->
        let h =
          {
            hname = name;
            hmu = Mutex.create ();
            res = Harness.Stats.Reservoir.create ~seed:(Hashtbl.hash name) ();
          }
        in
        Hashtbl.replace t.hists name h;
        h)

(* no [Mutex.protect]: its closure would cost every observation, and
   [Reservoir.add] cannot raise *)
let observe h x =
  Mutex.lock h.hmu;
  Harness.Stats.Reservoir.add h.res x;
  Mutex.unlock h.hmu

type summary = {
  count : int;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
  max : float;
}

let summarise h =
  Mutex.protect h.hmu (fun () ->
      let n = Harness.Stats.Reservoir.count h.res in
      if n = 0 then
        { count = 0; mean = nan; p50 = nan; p90 = nan; p99 = nan; max = nan }
      else
        let s = Harness.Stats.Reservoir.samples h.res in
        {
          count = n;
          mean = Harness.Stats.Reservoir.mean h.res;
          p50 = Harness.Stats.percentile s 50.0;
          p90 = Harness.Stats.percentile s 90.0;
          p99 = Harness.Stats.percentile s 99.0;
          max = Harness.Stats.Reservoir.max_value h.res;
        })

let counters t =
  Mutex.protect t.mu (fun () ->
      Hashtbl.fold (fun name c acc -> (name, Atomic.get c.cell) :: acc) t.counters [])
  |> List.sort compare

let histograms t =
  Mutex.protect t.mu (fun () ->
      Hashtbl.fold (fun name h acc -> (name, h) :: acc) t.hists [])
  |> List.sort compare
  |> List.map (fun (name, h) -> (name, summarise h))

let get t name =
  match
    Mutex.protect t.mu (fun () -> Hashtbl.find_opt t.counters name)
  with
  | Some c -> Atomic.get c.cell
  | None -> 0

let us x = if Float.is_finite x then int_of_float (x *. 1e6) else 0

let wire_stats t =
  counters t
  @ List.concat_map
      (fun (name, s) ->
        [
          (name ^ "_count", s.count);
          (name ^ "_p50_us", us s.p50);
          (name ^ "_p99_us", us s.p99);
        ])
      (histograms t)

let pp ppf t =
  let cs = counters t and hs = histograms t in
  Fmt.pf ppf "@[<v>counters:";
  List.iter (fun (n, v) -> Fmt.pf ppf "@,  %-24s %d" n v) cs;
  if hs <> [] then begin
    Fmt.pf ppf "@,histograms (transport clock units):";
    List.iter
      (fun (n, s) ->
        Fmt.pf ppf "@,  %-24s n=%-7d mean=%.6f p50=%.6f p99=%.6f max=%.6f" n
          s.count s.mean s.p50 s.p99 s.max)
      hs
  end;
  Fmt.pf ppf "@]"
