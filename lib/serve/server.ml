(* omegad server core — see server.mli. *)

module J = Obs.Ojson

let m_requests = Obs.Metrics.counter "serve.requests"

let m_completed = Obs.Metrics.counter "serve.completed"

let m_partial = Obs.Metrics.counter "serve.partial"

let m_errors = Obs.Metrics.counter "serve.errors"

let m_sweeps = Obs.Metrics.counter "serve.sweeps"

let m_inflight = Obs.Metrics.gauge "serve.inflight"

type config = {
  socket_path : string;
  handlers : int;
  queue_limit : int;
  cache_capacity : int;
  cache_ttl_s : float option;
  idle_sweep_s : float option;
}

let default_config =
  {
    socket_path = "omegad.sock";
    handlers = 2;
    queue_limit = 64;
    cache_capacity = 256;
    cache_ttl_s = Some 300.;
    idle_sweep_s = Some 30.;
  }

type conn = {
  fd : Unix.file_descr;
  rbuf : Buffer.t;  (* unterminated line so far; main loop only *)
  wmu : Mutex.t;  (* guards writes and [alive] *)
  mutable alive : bool;
}

type job = { jconn : conn; jid : J.t; jreq : Proto.query_req }

(* A cached answer: the merged symbolic value, its escaped ["value"]
   string, and the engine events a certified request recorded. Every
   field is immutable, so handler domains share entries freely. *)
type entry = {
  value : Counting.Value.t;
  value_json : string;
  recorded : (Cert.event list * int) option;
}

type t = {
  cfg : config;
  queue : job Admission.t;
  cache : entry Cache.t;
  stopping : bool Atomic.t;
  active : int Atomic.t;  (* requests being processed right now *)
  chunk : Bytes.t;  (* socket read buffer; main loop only *)
}

(* ------------------------------------------------------------------ *)
(* Connection writes (any domain)                                      *)

(* The response channel must survive anything a handler throws at it:
   a peer that vanished mid-request downgrades to a dropped response,
   never to a handler crash. [alive] is checked and cleared under
   [wmu], and [close_conn] takes the same lock, so a write never races
   a close on this connection. *)
let send_line conn line =
  Mutex.lock conn.wmu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.wmu)
    (fun () ->
      if conn.alive then
        let payload = Bytes.of_string (line ^ "\n") in
        let len = Bytes.length payload in
        let rec push off =
          if off < len then
            match Unix.write conn.fd payload off (len - off) with
            | n -> push (off + n)
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> push off
        in
        match push 0 with
        | () -> ()
        | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
            conn.alive <- false)

let close_conn conn =
  Mutex.lock conn.wmu;
  if conn.alive then begin
    conn.alive <- false;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ())
  end;
  Mutex.unlock conn.wmu

(* ------------------------------------------------------------------ *)
(* Request processing (handler domains)                                *)

(* Splice a certificate object into a rendered body (both are canonical
   JSON objects, so the certificate goes before the closing brace). *)
let with_certificate body cert =
  Printf.sprintf "%s,\"certificate\":%s}"
    (String.sub body 0 (String.length body - 1))
    (J.render cert)

(* The server cannot use [Engine.with_instr] (the phase table is
   process-global and [collect] is not reentrant across concurrent
   handlers), so telemetry cards carry a minimal report: real label,
   wall time and options; empty phases/memo/GC deltas. *)
let minimal_report ~wall_s ~options =
  {
    Counting.Instr.label = "omegad";
    wall_s;
    phases = [];
    memo = Omega.Memo.zero_counters ();
    counts = [];
    metrics = [];
    options;
    minor_words = 0.;
    promoted_words = 0.;
    major_words = 0.;
  }

let emit_card ~opts ~(q : Preslang.query) ~outcome ~wall_s ~meta =
  if
    Counting.Telemetry.enabled ()
    || Counting.Telemetry.pending_postmortem () <> None
  then begin
    let card =
      Counting.Telemetry.build ~label:"omegad" ~opts ~vars:q.Preslang.vars
        ~summand:q.Preslang.summand ~outcome
        ~report:(minimal_report ~wall_s ~options:meta)
        q.Preslang.formula
    in
    if Counting.Telemetry.enabled () then Counting.Telemetry.record card;
    Counting.Telemetry.flush_postmortem ~card ()
  end
  else Counting.Telemetry.flush_postmortem ()

(* Append the certificate of a certified request to [body], built from
   the recorded engine events and the request's own query text and
   bindings. *)
let certified (req : Proto.query_req) ~opts (q : Preslang.query) ~outcome
    recorded body =
  match recorded with
  | None -> body
  | Some (events, dropped) ->
      with_certificate body
        (Counting.Certify.build ~opts ~vars:q.Preslang.vars
           ~summand:q.Preslang.summand ~query:req.query
           ~ats:(if req.at = [] then [] else [ req.at ])
           ~outcome ~events ~dropped q.Preslang.formula)

(* The complete body of a cached answer for this request: only [eval]
   is computed, under the request's own bindings. *)
let complete_response req ~opts q e =
  certified req ~opts q ~outcome:(Counting.Certify.Complete e.value) e.recorded
    (Counting.Answer.complete_body ~at:req.Proto.at ~value_json:e.value_json
       e.value)

(* A cache miss: count the parsed query, cache a complete answer under
   [key], and render the body. Every failure mode maps to a typed body,
   so the handler loop (and the server) never sees an exception. *)
let answer_miss t (req : Proto.query_req) ~opts ~key (q : Preslang.query) =
  let fingerprint =
    Counting.Telemetry.fingerprint ~vars:q.Preslang.vars
      ~summand:q.Preslang.summand q.Preslang.formula
  in
  Counting.Telemetry.set_context
    (("query", "omegad") :: ("fingerprint", fingerprint)
    :: Counting.Engine.opts_fields opts);
  let meta = Counting.Engine.opts_fields opts @ [ ("fingerprint", fingerprint) ] in
  let t0 = Unix.gettimeofday () in
  let ctrl = Counting.Governor.ctrl_of req.budget in
  let compute () =
    Ctx.with_ctrl_registered ctrl (fun () ->
        Counting.Governor.sum ~ctrl ~opts ~vars:q.Preslang.vars
          q.Preslang.formula q.Preslang.summand)
  in
  match
    if req.certify then begin
      let outcome, events, dropped = Counting.Certify.with_recording compute in
      (outcome, Some (events, dropped))
    end
    else (compute (), None)
  with
  | outcome, recorded ->
      let wall_s = Unix.gettimeofday () -. t0 in
      let merged v = if req.merge then Counting.Merge.merge_residues v else v in
      let body, tel_outcome =
        match outcome with
        | Counting.Governor.Complete v ->
            let value = merged v in
            let e =
              { value; value_json = Counting.Answer.value_json value; recorded }
            in
            Cache.add t.cache key e;
            Obs.Metrics.incr m_completed;
            (complete_response req ~opts q e, Counting.Telemetry.Complete)
        | Counting.Governor.Partial p ->
            let p =
              {
                p with
                Counting.Governor.pieces = merged p.Counting.Governor.pieces;
                lower = merged p.Counting.Governor.lower;
                upper = Option.map merged p.Counting.Governor.upper;
              }
            in
            let body =
              certified req ~opts q ~outcome:(Counting.Certify.Partial p)
                recorded
                (Counting.Answer.partial_json ~at:req.at p)
            in
            Obs.Metrics.incr m_partial;
            ( body,
              Counting.Telemetry.Partial
                (Counting.Governor.reason_name p.Counting.Governor.reason) )
      in
      emit_card ~opts ~q ~outcome:tel_outcome ~wall_s ~meta;
      body
  | exception Counting.Engine.Unbounded msg ->
      let wall_s = Unix.gettimeofday () -. t0 in
      Obs.Metrics.incr m_errors;
      emit_card ~opts ~q ~outcome:(Counting.Telemetry.Failed "unbounded") ~wall_s
        ~meta;
      Proto.error_body ~cls:"unbounded" ~msg
  | exception Omega.Error.Omega_error { phase; what; context } ->
      let wall_s = Unix.gettimeofday () -. t0 in
      let msg = Omega.Error.to_string ~phase ~what context in
      Obs.Metrics.incr m_errors;
      Obs.Log.error (fun () -> msg);
      Counting.Telemetry.write_postmortem ~trigger:"omega_error" ();
      emit_card ~opts ~q ~outcome:(Counting.Telemetry.Failed "omega_error")
        ~wall_s ~meta;
      Proto.error_body ~cls:"omega_error" ~msg
  | exception exn ->
      let wall_s = Unix.gettimeofday () -. t0 in
      let msg = Printexc.to_string exn in
      Obs.Metrics.incr m_errors;
      Obs.Log.error (fun () -> "omegad: internal: " ^ msg);
      Counting.Telemetry.write_postmortem ~trigger:"internal" ();
      emit_card ~opts ~q ~outcome:(Counting.Telemetry.Failed "internal") ~wall_s
        ~meta;
      Proto.error_body ~cls:"internal" ~msg

(* Answer one admitted count request. Parse, lookup and count all run
   under one request context: the parser mints floor/ceil/mod wildcards
   from the same fresh counter the engine then continues, so a query
   parses to the same formula (and key) on every request, and parser
   and engine wildcards never share a number. *)
let answer_body t (req : Proto.query_req) =
  Obs.Metrics.incr m_requests;
  Ctx.with_request (fun () ->
      match Preslang.parse_query req.query with
      | exception Preslang.Parse_error (pos, msg) ->
          Obs.Metrics.incr m_errors;
          Proto.error_body ~cls:"parse_error"
            ~msg:(Printf.sprintf "at offset %d: %s" pos msg)
      | q -> (
          let opts = Proto.opts_of req in
          let key =
            Cache.query_key ~opts ~merge:req.merge ~certify:req.certify
              ~minted:(Atomic.get (Presburger.Var.current_counter ()))
              q
          in
          match Cache.find t.cache key with
          | Some e ->
              Obs.Metrics.incr m_completed;
              complete_response req ~opts q e
          | None -> answer_miss t req ~opts ~key q))

let handler_loop t =
  let rec loop () =
    match Admission.take t.queue with
    | None -> ()
    | Some job ->
        Atomic.incr t.active;
        Obs.Metrics.set m_inflight (Atomic.get t.active);
        let body =
          (* During drain, already-queued requests are refused rather
             than started (starting one after cancel_inflight would let
             it run to completion and stall the drain). *)
          if Atomic.get t.stopping then
            Proto.error_body ~cls:"unavailable" ~msg:"server is shutting down"
          else
            (* Crash-only: a bug anywhere in the request path degrades to
               a typed internal error for this request; the loop lives. *)
            try answer_body t job.jreq
            with exn ->
              Obs.Metrics.incr m_errors;
              Proto.error_body ~cls:"internal" ~msg:(Printexc.to_string exn)
        in
        Atomic.decr t.active;
        Obs.Metrics.set m_inflight (Atomic.get t.active);
        send_line job.jconn (Proto.with_id job.jid body);
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Reader / accept loop (main domain)                                  *)

let metrics_text () = Obs.Openmetrics.render (Obs.Metrics.snapshot ())

(* Dispatch one complete request line read from [conn]. Inline verbs
   (ping/metrics/shutdown) answer from the reader loop; count requests
   go through admission. *)
let dispatch t conn line =
  if String.trim line <> "" then
    match Proto.parse line with
    | Error (id, msg) ->
        Obs.Metrics.incr m_errors;
        send_line conn (Proto.with_id id (Proto.error_body ~cls:"bad_request" ~msg))
    | Ok { Proto.id; op = Proto.Ping } ->
        send_line conn (Proto.with_id id Proto.pong_body)
    | Ok { Proto.id; op = Proto.Metrics } ->
        send_line conn (Proto.with_id id (Proto.metrics_body (metrics_text ())))
    | Ok { Proto.id; op = Proto.Shutdown } ->
        send_line conn (Proto.with_id id Proto.shutdown_body);
        Atomic.set t.stopping true
    | Ok { Proto.id; op = Proto.Count req } -> (
        match Admission.submit t.queue { jconn = conn; jid = id; jreq = req } with
        | `Accepted -> ()
        | `Shed depth ->
            send_line conn
              (Proto.with_id id
                 (Proto.shed_body ~depth ~limit:(Admission.limit t.queue)))
        | `Closed ->
            send_line conn
              (Proto.with_id id
                 (Proto.error_body ~cls:"unavailable"
                    ~msg:"server is shutting down")))

(* The longest request line read, newline excluded (see server.mli). *)
let max_line_bytes = 1 lsl 20

let read_size = 65536

(* Dispatch the complete lines among the [n] bytes just read into
   [t.chunk]. Only the new bytes are scanned: [conn.rbuf] holds the
   unterminated tail of earlier reads, and is joined to a line only
   once its newline arrives. Returns [false] when a line outgrows
   [max_line_bytes]. *)
let drain_lines t conn n =
  let chunk = t.chunk in
  let rec go start =
    let nl =
      match Bytes.index_from_opt chunk start '\n' with
      | Some i when i < n -> i
      | _ -> -1
    in
    let pending = Buffer.length conn.rbuf in
    if nl < 0 then
      pending + (n - start) <= max_line_bytes
      && begin
           Buffer.add_subbytes conn.rbuf chunk start (n - start);
           true
         end
    else
      pending + (nl - start) <= max_line_bytes
      && begin
           let line =
             if pending = 0 then Bytes.sub_string chunk start (nl - start)
             else begin
               Buffer.add_subbytes conn.rbuf chunk start (nl - start);
               let line = Buffer.contents conn.rbuf in
               Buffer.reset conn.rbuf;
               line
             end
           in
           dispatch t conn line;
           go (nl + 1)
         end
  in
  go 0

(* Read once from [conn]; [false] when the connection must close (peer
   gone, or a request line over the cap, which is answered first). *)
let read_chunk t conn =
  match Unix.read conn.fd t.chunk 0 read_size with
  | 0 -> false
  | n ->
      drain_lines t conn n
      || begin
           Obs.Metrics.incr m_errors;
           send_line conn
             (Proto.with_id J.Null
                (Proto.error_body ~cls:"too_large"
                   ~msg:
                     (Printf.sprintf "request line exceeds %d bytes"
                        max_line_bytes)));
           false
         end
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> false

let install_signal_handlers t =
  (* Peers that vanish must surface as EPIPE write errors, not kill the
     process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let stop _ = Atomic.set t.stopping true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop)

let run ?(config = default_config) () =
  let t =
    {
      cfg = config;
      queue = Admission.create ~limit:config.queue_limit;
      cache =
        Cache.create ~capacity:config.cache_capacity
          ?ttl_s:config.cache_ttl_s ();
      stopping = Atomic.make false;
      active = Atomic.make 0;
      chunk = Bytes.create read_size;
    }
  in
  install_signal_handlers t;
  (try Unix.unlink config.socket_path with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX config.socket_path);
  Unix.listen listen_fd 64;
  Obs.Log.info
    ~fields:(fun () ->
      [
        ("socket", Obs.Trace.Str config.socket_path);
        ("handlers", Obs.Trace.Int config.handlers);
        ("queue_limit", Obs.Trace.Int config.queue_limit);
      ])
    (fun () -> "omegad listening");
  let handlers =
    List.init (max 1 config.handlers) (fun _ ->
        Domain.spawn (fun () -> handler_loop t))
  in
  let conns = ref [] in
  let last_activity = ref (Unix.gettimeofday ()) in
  let maybe_sweep () =
    match t.cfg.idle_sweep_s with
    | Some idle_s
      when Unix.gettimeofday () -. !last_activity >= idle_s
           && Admission.depth t.queue = 0
           && Atomic.get t.active = 0 ->
        (* Idle housekeeping: retire expired cache entries and drop the
           solver memo (whose entries are epoch-dead once their request
           finished, so this is pure reclamation). *)
        ignore (Cache.purge_expired t.cache);
        Omega.Memo.clear_all ();
        Obs.Metrics.incr m_sweeps;
        last_activity := Unix.gettimeofday ()
    | _ -> ()
  in
  while not (Atomic.get t.stopping) do
    let fds = listen_fd :: List.map (fun c -> c.fd) !conns in
    match Unix.select fds [] [] 0.25 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
        if readable = [] then maybe_sweep ()
        else begin
          last_activity := Unix.gettimeofday ();
          List.iter
            (fun fd ->
              if fd == listen_fd then begin
                match Unix.accept listen_fd with
                | cfd, _ ->
                    conns :=
                      {
                        fd = cfd;
                        rbuf = Buffer.create 256;
                        wmu = Mutex.create ();
                        alive = true;
                      }
                      :: !conns
                | exception Unix.Unix_error _ -> ()
              end
              else
                match List.find_opt (fun c -> c.fd == fd) !conns with
                | None -> ()
                | Some conn ->
                    if not (read_chunk t conn) then begin
                      close_conn conn;
                      conns := List.filter (fun c -> c != conn) !conns
                    end)
            readable
        end
  done;
  (* Drain: stop admitting, cancel in-flight work (each request degrades
     to a sound Partial at its next budget checkpoint), let handlers
     finish writing, then tear the socket down. *)
  Obs.Log.info (fun () -> "omegad draining");
  Admission.close t.queue;
  let cancelled = Ctx.cancel_inflight () in
  if cancelled > 0 then
    Obs.Log.info
      ~fields:(fun () -> [ ("cancelled", Obs.Trace.Int cancelled) ])
      (fun () -> "cancelled in-flight requests");
  List.iter Domain.join handlers;
  List.iter close_conn !conns;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink config.socket_path with Unix.Unix_error _ -> ());
  Obs.Log.info (fun () -> "omegad stopped")
