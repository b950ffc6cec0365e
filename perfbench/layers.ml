(* The two ways the benchmark drives the counting library.

   [governed] is the program's own path, exactly what [omcount --json]
   does for a query: parse, fingerprint, Governor.sum, merge, render.
   End-to-end metrics time only this path.

   [traced] makes the same public calls Governor.sum makes, one layer at
   a time, recording a span around each: to_clauses, then
   sum_clauses_governed, then Value.simplify (Merge.combine ...), then
   merge and render. Spans live in memory ([Spans]) and are written out
   when the run ends. The benchmark checks that both paths render
   byte-identical bodies. *)

let opts = Counting.Engine.default
let zat at = List.map (fun (k, v) -> (k, Zint.of_int v)) at

let merged_partial (p : Counting.Governor.partial) =
  let m = Counting.Merge.merge_residues in
  {
    p with
    Counting.Governor.pieces = m p.Counting.Governor.pieces;
    lower = m p.Counting.Governor.lower;
    upper = Option.map m p.Counting.Governor.upper;
  }

let render ~at = function
  | Counting.Governor.Complete v ->
      Counting.Answer.complete_json ~at (Counting.Merge.merge_residues v)
  | Counting.Governor.Partial p -> Counting.Answer.partial_json ~at (merged_partial p)

(* Governor.sum, merge and render for a parsed query. *)
let governed_q ?ctrl ?(opts = opts) (q : Preslang.query) ~at =
  render ~at
    (Counting.Governor.sum ?ctrl ~opts ~vars:q.Preslang.vars q.Preslang.formula
       q.Preslang.summand)

let governed text ~at =
  let q = Preslang.parse_query text in
  ignore
    (Sys.opaque_identity
       (Counting.Telemetry.fingerprint ~vars:q.Preslang.vars
          ~summand:q.Preslang.summand q.Preslang.formula));
  governed_q q ~at

(* ---- spans --------------------------------------------------------- *)

type layer =
  | Request  (** one whole request; every other span's parent *)
  | Parse
  | Fingerprint
  | Dnf
  | Sum
  | Simplify
  | Merge
  | Render
  | Proto_parse
  | Cache_key
  | Cache_find
  | Handler  (** a replayed serve request, from protocol parse to body *)

let layer_name = function
  | Request -> "request"
  | Parse -> "preslang.parse"
  | Fingerprint -> "telemetry.fingerprint"
  | Dnf -> "engine.to_clauses"
  | Sum -> "engine.sum_clauses_governed"
  | Simplify -> "value.simplify"
  | Merge -> "merge.merge_residues"
  | Render -> "answer.complete_json"
  | Proto_parse -> "serve.proto.parse"
  | Cache_key -> "serve.cache.key"
  | Cache_find -> "serve.cache.find"
  | Handler -> "serve.handler"

let layer_index = function
  | Request -> 0
  | Parse -> 1
  | Fingerprint -> 2
  | Dnf -> 3
  | Sum -> 4
  | Simplify -> 5
  | Merge -> 6
  | Render -> 7
  | Proto_parse -> 8
  | Cache_key -> 9
  | Cache_find -> 10
  | Handler -> 11

let n_layers = 12

(* Engine layers whose spans should cover a request's wall time. *)
let engine_layers = [ Parse; Fingerprint; Dnf; Sum; Simplify; Merge; Render ]

module Spans = struct
  type t = {
    mutable len : int;
    mutable req : int array;
    mutable layer : layer array;
    mutable t0 : float array;
    mutable t1 : float array;
    total : float array;  (** summed duration per layer *)
  }

  let create () =
    let cap = 4096 in
    {
      len = 0;
      req = Array.make cap 0;
      layer = Array.make cap Request;
      t0 = Array.make cap 0.;
      t1 = Array.make cap 0.;
      total = Array.make n_layers 0.;
    }

  let grow s =
    let cap = 2 * Array.length s.req in
    let ext a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 s.len;
      b
    in
    s.req <- ext s.req 0;
    s.layer <- ext s.layer Request;
    s.t0 <- ext s.t0 0.;
    s.t1 <- ext s.t1 0.

  let record s ~req layer t0 t1 =
    if s.len = Array.length s.req then grow s;
    s.req.(s.len) <- req;
    s.layer.(s.len) <- layer;
    s.t0.(s.len) <- t0;
    s.t1.(s.len) <- t1;
    s.len <- s.len + 1;
    let k = layer_index layer in
    s.total.(k) <- s.total.(k) +. (t1 -. t0)

  let total s layer = s.total.(layer_index layer)

  (* Chrome trace-event JSON, one complete event per span. Spans of one
     request share [args.req]; its [request] (or, replayed, its
     [serve.handler]) span encloses and caused the others. *)
  let write s path =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc "{\"traceEvents\":[";
        let base = if s.len > 0 then s.t0.(0) else 0. in
        for k = 0 to s.len - 1 do
          Printf.fprintf oc
            "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%d}}"
            (if k = 0 then "" else ",\n")
            (layer_name s.layer.(k))
            ((s.t0.(k) -. base) *. 1e6)
            ((s.t1.(k) -. s.t0.(k)) *. 1e6)
            s.req.(k)
        done;
        output_string oc "]}\n")
end

let span sp ~req layer f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  Spans.record sp ~req layer t0 (Unix.gettimeofday ());
  r

(* Per-query counts gathered on the traced path. *)
type counts = {
  mutable clauses : int;
  stats : Counting.Engine.stats;
  mutable pieces_in : int;  (** pieces entering Value.simplify *)
  mutable pieces_out : int;
  mutable body_bytes : int;
}

let new_counts () =
  {
    clauses = 0;
    stats = Counting.Engine.new_stats ();
    pieces_in = 0;
    pieces_out = 0;
    body_bytes = 0;
  }

(* The layer-by-layer equivalent of [governed_q] for an unlimited
   budget. *)
let traced_q sp counts ~req ?ctrl ?(opts = opts) (q : Preslang.query) ~at =
  let vars = q.Preslang.vars and summand = q.Preslang.summand in
  let ctrl =
    match ctrl with
    | Some c -> c
    | None -> Counting.Governor.ctrl_of Counting.Governor.unlimited
  in
  let per =
    Obs.Budget.with_ctrl ctrl (fun () ->
        let cls =
          span sp ~req Dnf (fun () ->
              Counting.Engine.to_clauses ~opts q.Preslang.formula)
        in
        counts.clauses <- counts.clauses + List.length cls;
        span sp ~req Sum (fun () ->
            Counting.Engine.sum_clauses_governed ~opts ~stats:counts.stats ~vars
              cls summand))
  in
  let vals = List.filter_map Result.to_option per in
  let v =
    span sp ~req Simplify (fun () ->
        let whole = Counting.Merge.combine vals in
        counts.pieces_in <- counts.pieces_in + List.length whole;
        Counting.Value.simplify whole)
  in
  counts.pieces_out <- counts.pieces_out + List.length v;
  let v = span sp ~req Merge (fun () -> Counting.Merge.merge_residues v) in
  let body =
    span sp ~req Render (fun () -> Counting.Answer.complete_json ~at v)
  in
  counts.body_bytes <- counts.body_bytes + String.length body;
  body

(* The layer-by-layer equivalent of [governed]. *)
let traced sp counts ~req text ~at =
  let t_req = Unix.gettimeofday () in
  let q = span sp ~req Parse (fun () -> Preslang.parse_query text) in
  ignore
    (span sp ~req Fingerprint (fun () ->
         Counting.Telemetry.fingerprint ~vars:q.Preslang.vars
           ~summand:q.Preslang.summand q.Preslang.formula));
  let body = traced_q sp counts ~req q ~at in
  Spans.record sp ~req Request t_req (Unix.gettimeofday ());
  body

(* ---- the omegad request path, replayed in process ------------------ *)

(* Mirrors Serve.Server's handling of a count request: protocol parse,
   query parse, fingerprint, cache key and lookup, then on a miss the
   governed count under a fresh request context ([Serve.Ctx]) and a
   cache insert. [engine] computes the body on a miss. Returns the body
   and whether it was a cache hit. *)
let replay ?sp ~req cache line ~engine =
  let timed layer f =
    match sp with Some sp -> span sp ~req layer f | None -> f ()
  in
  let t_req = Unix.gettimeofday () in
  let r =
    match timed Proto_parse (fun () -> Serve.Proto.parse line) with
    | Ok { Serve.Proto.op = Serve.Proto.Count r; _ } -> r
    | _ -> failwith ("perfbench: not a count request: " ^ line)
  in
  let q = timed Parse (fun () -> Preslang.parse_query r.Serve.Proto.query) in
  let opts = Serve.Proto.opts_of r in
  let fingerprint =
    timed Fingerprint (fun () ->
        Counting.Telemetry.fingerprint ~vars:q.Preslang.vars
          ~summand:q.Preslang.summand q.Preslang.formula)
  in
  let key =
    timed Cache_key (fun () ->
        Serve.Cache.key ~fingerprint ~opts ~merge:r.Serve.Proto.merge
          ~certify:r.Serve.Proto.certify ~at:r.Serve.Proto.at)
  in
  let body, hit =
    match timed Cache_find (fun () -> Serve.Cache.find cache key) with
    | Some body -> (body, true)
    | None ->
        let context =
          ("query", "omegad") :: ("fingerprint", fingerprint)
          :: Counting.Engine.opts_fields opts
        in
        let body =
          Serve.Ctx.with_request ~context (fun () ->
              let ctrl = Counting.Governor.ctrl_of r.Serve.Proto.budget in
              Serve.Ctx.with_ctrl_registered ctrl (fun () ->
                  engine ~ctrl ~opts q ~at:r.Serve.Proto.at))
        in
        if String.starts_with ~prefix:"{\"status\":\"complete\"" body then
          Serve.Cache.add cache key body;
        (body, false)
  in
  (match sp with
  | Some sp -> Spans.record sp ~req Handler t_req (Unix.gettimeofday ())
  | None -> ());
  (body, hit)
