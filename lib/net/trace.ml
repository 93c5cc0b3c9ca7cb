module E = Histories.Event

type drop = Dead | Partition | Loss | No_handler

type kind =
  | Send of { src : int; dst : int; msg : Wire.msg }
  | Deliver of { src : int; dst : int; msg : Wire.msg }
  | Drop of { src : int; dst : int; reason : drop }
  | Timer_fire of { node : int }
  | Invoke of { key : int; proc : int; op : int E.op }
  | Respond of { key : int; proc : int; result : int option }
  | Note of string

type event = { time : float; kind : kind }

type t = {
  mu : Mutex.t;
  mutable rev : event list;  (* newest first *)
  mutable n : int;
}

let create () = { mu = Mutex.create (); rev = []; n = 0 }

let record t ~time kind =
  Mutex.protect t.mu (fun () ->
      t.rev <- { time; kind } :: t.rev;
      t.n <- t.n + 1)

let recorded t = Mutex.protect t.mu (fun () -> t.n)
let events t = List.rev (Mutex.protect t.mu (fun () -> t.rev))

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

let string_of_drop = function
  | Dead -> "dead"
  | Partition -> "partition"
  | Loss -> "loss"
  | No_handler -> "no-handler"

let line_of_event { time; kind } =
  let t = Printf.sprintf "\"t\":%.6f" time in
  match kind with
  | Send { src; dst; msg } ->
    Printf.sprintf "{%s,\"kind\":\"send\",\"src\":%d,\"dst\":%d,\"msg\":\"%s\"}"
      t src dst (escape (Fmt.str "%a" Wire.pp msg))
  | Deliver { src; dst; msg } ->
    Printf.sprintf
      "{%s,\"kind\":\"deliver\",\"src\":%d,\"dst\":%d,\"msg\":\"%s\"}" t src dst
      (escape (Fmt.str "%a" Wire.pp msg))
  | Drop { src; dst; reason } ->
    Printf.sprintf
      "{%s,\"kind\":\"drop\",\"src\":%d,\"dst\":%d,\"reason\":\"%s\"}" t src dst
      (string_of_drop reason)
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
(* Replay: recover the operation history from a dumped JSONL file so  *)
(* it can be re-run through the atomicity checkers offline.           *)

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
