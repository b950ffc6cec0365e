(* omegad as a real subprocess: launch, readiness, closed-loop client
   connections, the metrics verb, and shutdown. *)

let now = Unix.gettimeofday

type t = { pid : int; sock : string; ctl : Serve.Client.t }

let sock_counter = ref 0

(* Sockets live under _build/perfbench, relative to the working
   directory, so the path stays short and inside the checkout. *)
let fresh_sock dir =
  incr sock_counter;
  Filename.concat dir (Printf.sprintf "omegad-%d-%d.sock" (Unix.getpid ()) !sock_counter)

let rec connect ~deadline sock =
  match Serve.Client.connect sock with
  | c -> c
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
    when now () < deadline ->
      Unix.sleepf 0.0005;
      connect ~deadline sock

(* Launch omegad with its default configuration (only the socket path
   set) and time it until it answers [ping]. *)
let launch ~omegad ~dir =
  let sock = fresh_sock dir in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let t0 = now () in
  let pid =
    Unix.create_process omegad [| omegad; "--socket"; sock |] Unix.stdin devnull
      Unix.stderr
  in
  Unix.close devnull;
  let ctl = connect ~deadline:(t0 +. 30.) sock in
  let pong = Serve.Client.request ctl "{\"id\":0,\"op\":\"ping\"}" in
  let setup = now () -. t0 in
  if not (String.ends_with ~suffix:"\"pong\":true}" pong) then
    failwith ("perfbench: unexpected ping reply " ^ pong);
  ({ pid; sock; ctl }, setup)

let rec wait_exit pid deadline =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ when now () < deadline ->
      Unix.sleepf 0.005;
      wait_exit pid deadline
  | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid)
  | _ -> ()
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

(* Ask for a drain-and-exit and wait for it; kill after 10 s. *)
let shutdown t =
  (try ignore (Serve.Client.request t.ctl "{\"id\":0,\"op\":\"shutdown\"}")
   with _ -> ());
  Serve.Client.close t.ctl;
  wait_exit t.pid (now () +. 10.);
  try Unix.unlink t.sock with Unix.Unix_error _ -> ()

(* Counter values from the metrics verb's OpenMetrics text. *)
let counters t =
  let reply = Serve.Client.request t.ctl "{\"id\":0,\"op\":\"metrics\"}" in
  let text =
    match Obs.Ojson.parse reply with
    | Ok j -> (
        match Obs.Ojson.member "metrics" j with
        | Some (Obs.Ojson.Str s) -> s
        | _ -> failwith "perfbench: metrics reply without text")
    | Error e -> failwith ("perfbench: metrics reply: " ^ e)
  in
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ name; v ] when String.ends_with ~suffix:"_total" name ->
          Some (name, int_of_string v)
      | _ -> None)
    (String.split_on_char '\n' text)

(* [serve.cache_hits] is exported as [omega_serve_cache_hits_total]. *)
let open_metrics_name name =
  "omega_" ^ String.map (fun c -> if c = '.' then '_' else c) name ^ "_total"

let counter cs name =
  Option.value ~default:0 (List.assoc_opt (open_metrics_name name) cs)

(* One closed-loop connection: send a request, wait for its reply,
   repeat, until [deadline] or the end of [lines]. *)
type conn_run = { lat : float array; replies : string array; sent : int }

let closed_loop t ~deadline lines =
  let c = Serve.Client.connect t.sock in
  let n = Array.length lines in
  let lat = Array.make n 0. and replies = Array.make n "" in
  let k = ref 0 in
  while !k < n && now () < deadline do
    let t0 = now () in
    replies.(!k) <- Serve.Client.request c lines.(!k);
    lat.(!k) <- now () -. t0;
    incr k
  done;
  Serve.Client.close c;
  { lat; replies; sent = !k }

(* Run one closed loop per element of [streams] concurrently, one
   domain each. *)
let run_clients t ~deadline streams =
  Array.map Domain.join
    (Array.map
       (fun lines -> Domain.spawn (fun () -> closed_loop t ~deadline lines))
       streams)

(* A reply with its echoed ["id"] removed: the body the server rendered. *)
let body_of_reply ~id reply =
  let prefix = Printf.sprintf "{\"id\":%d," id in
  if String.starts_with ~prefix reply then
    "{" ^ String.sub reply (String.length prefix) (String.length reply - String.length prefix)
  else reply
