module E = Histories.Event

type kind =
  | Send of { src : int; dst : int; info : string }
  | Deliver of { src : int; dst : int; info : string }
  | Drop of { src : int; dst : int; reason : string }
  | Timer_fire of { node : int }
  | Invoke of { key : int; proc : int; op : int E.op }
  | Respond of { key : int; proc : int; result : int option }
  | Note of string

type event = { time : float; kind : kind }

type t = {
  mu : Mutex.t;
  buf : event array;
  cap : int;
  mutable n : int;  (* total events recorded over the whole run *)
}

let dummy = { time = 0.0; kind = Note "" }

let create ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity";
  { mu = Mutex.create (); buf = Array.make capacity dummy; cap = capacity; n = 0 }

let record t ~time kind =
  Mutex.protect t.mu (fun () ->
      t.buf.(t.n mod t.cap) <- { time; kind };
      t.n <- t.n + 1)

let recorded t = Mutex.protect t.mu (fun () -> t.n)
let overwritten t = Mutex.protect t.mu (fun () -> max 0 (t.n - t.cap))

let events t =
  Mutex.protect t.mu (fun () ->
      if t.n <= t.cap then Array.to_list (Array.sub t.buf 0 t.n)
      else
        List.init t.cap (fun i -> t.buf.((t.n + i) mod t.cap)))

(* ------------------------------------------------------------------ *)
(* JSONL                                                               *)

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let line_of_event { time; kind } =
  let t = Printf.sprintf "\"t\":%.6f" time in
  match kind with
  | Send { src; dst; info } ->
    Printf.sprintf "{%s,\"kind\":\"send\",\"src\":%d,\"dst\":%d,\"msg\":\"%s\"}"
      t src dst (escape info)
  | Deliver { src; dst; info } ->
    Printf.sprintf
      "{%s,\"kind\":\"deliver\",\"src\":%d,\"dst\":%d,\"msg\":\"%s\"}" t src dst
      (escape info)
  | Drop { src; dst; reason } ->
    Printf.sprintf
      "{%s,\"kind\":\"drop\",\"src\":%d,\"dst\":%d,\"reason\":\"%s\"}" t src dst
      (escape reason)
  | Timer_fire { node } ->
    Printf.sprintf "{%s,\"kind\":\"timer\",\"node\":%d}" t node
  | Invoke { key; proc; op = E.Read } ->
    Printf.sprintf
      "{%s,\"kind\":\"invoke\",\"key\":%d,\"proc\":%d,\"op\":\"read\"}" t key proc
  | Invoke { key; proc; op = E.Write v } ->
    Printf.sprintf
      "{%s,\"kind\":\"invoke\",\"key\":%d,\"proc\":%d,\"op\":\"write\",\"value\":%d}"
      t key proc v
  | Respond { key; proc; result = Some v } ->
    Printf.sprintf
      "{%s,\"kind\":\"respond\",\"key\":%d,\"proc\":%d,\"result\":%d}" t key proc
      v
  | Respond { key; proc; result = None } ->
    Printf.sprintf "{%s,\"kind\":\"respond\",\"key\":%d,\"proc\":%d}" t key proc
  | Note s -> Printf.sprintf "{%s,\"kind\":\"note\",\"text\":\"%s\"}" t (escape s)

let dump t path =
  let oc = open_out path in
  List.iter (fun e -> output_string oc (line_of_event e ^ "\n")) (events t);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Replay: recover the operation history from a trace (in memory or    *)
(* from a dumped JSONL file) so it can be re-run through the           *)
(* atomicity checkers offline.                                         *)

let keyed_history t =
  List.filter_map
    (fun { kind; _ } ->
      match kind with
      | Invoke { key; proc; op } -> Some (key, E.Invoke (proc, op))
      | Respond { key; proc; result } -> Some (key, E.Respond (proc, result))
      | _ -> None)
    (events t)

(* A scanner for exactly the key/value shapes [line_of_event] emits —
   not a general JSON parser. *)
let find_sub line pat =
  let n = String.length line and m = String.length pat in
  let rec go i =
    if i + m > n then None
    else if String.sub line i m = pat then Some i
    else go (i + 1)
  in
  go 0

let int_field line key =
  let pat = "\"" ^ key ^ "\":" in
  match find_sub line pat with
  | None -> None
  | Some i ->
    let start = i + String.length pat in
    let stop = ref start in
    while
      !stop < String.length line
      && (match line.[!stop] with '0' .. '9' | '-' -> true | _ -> false)
    do
      incr stop
    done;
    int_of_string_opt (String.sub line start (!stop - start))

let string_field line key =
  let pat = "\"" ^ key ^ "\":\"" in
  match find_sub line pat with
  | None -> None
  | Some i ->
    let start = i + String.length pat in
    (match String.index_from_opt line start '"' with
     | None -> None
     | Some stop -> Some (String.sub line start (stop - start)))

let parse_line line =
  (* [key] is absent from pre-keyspace dumps: default to register 0 *)
  let key = Option.value ~default:0 (int_field line "key") in
  match string_field line "kind" with
  | Some "invoke" ->
    (match (int_field line "proc", string_field line "op") with
     | Some proc, Some "read" -> Some (key, E.Invoke (proc, E.Read))
     | Some proc, Some "write" ->
       Option.map
         (fun v -> (key, E.Invoke (proc, E.Write v)))
         (int_field line "value")
     | _ -> None)
  | Some "respond" ->
    Option.map
      (fun proc -> (key, E.Respond (proc, int_field line "result")))
      (int_field line "proc")
  | _ -> None

let note_of_line line =
  match string_field line "kind" with
  | Some "note" -> string_field line "text"
  | _ -> None

let keyed_history_of_file path =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  String.split_on_char '\n' s |> List.filter_map parse_line
