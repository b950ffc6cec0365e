(* perfbench: the repository benchmark. See README.md in this directory.

     perfbench.exe --workload compile_stream|splinter_tail|serve_sweep
       --seed N --seconds S --trace 0|1 --omegad PATH

   Prints one info line, then (last line) one JSON object with the keys
   correct, attempted, failed and metrics. --trace 0 measures the
   end-to-end metrics; --trace 1 gives the per-layer decomposition. *)

let now = Unix.gettimeofday

(* ---- small utilities ----------------------------------------------- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of a sorted array. *)
let pct sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float n)) - 1)))

(* /proc files report length 0, so read them to end of file. *)
let read_file path = In_channel.with_open_bin path In_channel.input_all
let read_lines path = String.split_on_char '\n' (read_file path)

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  List.fold_left
    (fun acc l ->
      match String.split_on_char ':' l with
      | [ "VmHWM"; v ] ->
          Scanf.sscanf (String.trim v) "%d kB" (fun kb -> float kb /. 1024.)
      | _ -> acc)
    0.
    (read_lines (Printf.sprintf "/proc/%s/status" pid))

(* User+system CPU seconds of another process, from /proc/<pid>/stat
   (fields 14 and 15, in clock ticks of 1/100 s). *)
let proc_cpu_s pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (* f.(0) is field 3 (state) *)
  float (int_of_string f.(11) + int_of_string f.(12)) /. 100.

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* The [eval] of a complete answer body, [None] for anything else. *)
let answered_eval body =
  match Obs.Ojson.parse body with
  | Ok j when Obs.Ojson.member "status" j = Some (Obs.Ojson.Str "complete") -> (
      match Obs.Ojson.member "eval" j with
      | Some v -> Obs.Ojson.to_int v
      | None -> None)
  | _ -> None

(* ---- result output ------------------------------------------------- *)

type metric = string * float * string

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_info fields =
  print_endline
    ("{\"info\":{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) fields)
    ^ "}}")

let print_result ~correct ~attempted ~failed (metrics : metric list) =
  print_endline
    (Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}"
       correct attempted failed
       (String.concat ","
          (List.map
             (fun (name, v, unit) ->
               Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name (json_num v) unit)
             metrics)))

(* ---- set-up probes ------------------------------------------------- *)

let setup_runs = 31

(* Launch a fresh counting process at [jobs] and time it until it
   reports ready (library initialised, pool spawned). *)
let probe_setup ~jobs =
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--probe"; string_of_int jobs |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = input_line ic in
  let t = now () -. t0 in
  close_in ic;
  ignore (Unix.waitpid [] pid);
  if line <> "ready" then failwith "perfbench: probe did not report ready";
  t

let probe jobs =
  Counting.Pool.set_jobs jobs;
  ignore (Counting.Pool.map_list (fun x -> x + 1) [ 1; 2; 3; 4 ]);
  print_endline "ready"

(* ---- correctness --------------------------------------------------- *)

(* Check every body against its query's oracle; returns the number of
   wrong or unanswered requests and reports the first few. *)
let check_answers (qs : Gen.query array) (bodies : string array) n =
  let bad = ref 0 in
  for k = 0 to n - 1 do
    let q = qs.(k) in
    let expected = q.Gen.oracle () in
    match answered_eval bodies.(k) with
    | Some v when v = expected -> ()
    | got ->
        incr bad;
        if !bad <= 5 then
          Printf.eprintf "perfbench: WRONG %s at %s: expected %d, got %s (%s)\n%!"
            q.Gen.text
            (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) q.Gen.at))
            expected
            (match got with Some v -> string_of_int v | None -> "no eval")
            bodies.(k)
  done;
  !bad

(* ---- metrics shared by the workloads ------------------------------- *)

let cores () = Domain.recommended_domain_count ()

(* Samples strictly beyond a nearest-rank percentile. *)
let beyond samples p = samples - int_of_float (ceil (p *. float samples))

let info_fields ~w ~seed ~jobs ~handlers ~samples ~tail =
  [
    ("workload", Printf.sprintf "%S" w);
    ("seed", string_of_int seed);
    ("cores_available", string_of_int (cores ()));
    ("jobs", string_of_int jobs);
    ("handlers", string_of_int handlers);
    ("ocaml_version", Printf.sprintf "%S" Sys.ocaml_version);
    ("samples", string_of_int samples);
    ("tail_percentile", Printf.sprintf "%g" (tail *. 100.));
    ("beyond_tail", string_of_int (beyond samples tail));
  ]

let e2e_metrics ~attempted ~answered ~elapsed ~cpu ~lats ~tail ~setup ~rss =
  let lats = Array.copy lats in
  Array.sort compare lats;
  [
    ("throughput_qps", float attempted /. elapsed, "1/s");
    ("latency_p50_ms", pct lats 0.5 *. 1e3, "ms");
    ("latency_tail_ms", pct lats tail *. 1e3, "ms");
    ("answered_share", float answered /. float attempted, "share");
    ("setup_s", setup, "s");
    ("peak_rss_mb", rss, "MB");
    ("cpu_ms_per_query", cpu *. 1e3 /. float (max 1 answered), "ms");
  ]

(* ---- in-process workloads ------------------------------------------ *)

type workload = {
  name : string;
  jobs : unit -> int;
  gen : seed:int -> int -> Gen.query array;
  warm : int;  (** warm-up queries, from their own seed, before timing *)
  stream : int;  (** pre-generated measured queries (an upper bound) *)
  trace_queries : int;  (** fixed query count of each traced pass *)
  tail : float;  (** the highest percentile with >= 10 samples beyond it *)
}

let compile_stream =
  {
    name = "compile_stream";
    jobs = (fun () -> 1);
    gen = Gen.compile_stream;
    warm = 2000;
    stream = 60_000;
    trace_queries = 2000;
    tail = 0.99;
  }

let splinter_tail =
  {
    name = "splinter_tail";
    jobs = cores;
    gen = Gen.splinter_tail;
    warm = 49;
    stream = 20_000;
    trace_queries = 49;
    tail = 0.90;
  }

let inprocess_e2e (w : workload) ~seed ~seconds =
  let jobs = w.jobs () in
  let setup = median (List.init setup_runs (fun _ -> probe_setup ~jobs)) in
  Counting.Pool.set_jobs jobs;
  Array.iter
    (fun (q : Gen.query) -> ignore (Layers.governed q.Gen.text ~at:(Layers.zat q.Gen.at)))
    (w.gen ~seed:(seed + 1_000_003) w.warm);
  let qs = w.gen ~seed w.stream in
  let ats = Array.map (fun (q : Gen.query) -> Layers.zat q.Gen.at) qs in
  let n = Array.length qs in
  let lats = Array.make n 0. and bodies = Array.make n "" in
  let cpu0 = self_cpu_s () in
  let t_start = now () in
  let deadline = t_start +. seconds in
  let k = ref 0 in
  while !k < n && now () < deadline do
    let i = !k in
    let t0 = now () in
    bodies.(i) <- Layers.governed qs.(i).Gen.text ~at:ats.(i);
    lats.(i) <- now () -. t0;
    incr k
  done;
  let elapsed = now () -. t_start in
  let cpu = self_cpu_s () -. cpu0 in
  let attempted = !k in
  if attempted = n then
    Printf.eprintf "perfbench: %s used up its %d pre-generated queries\n%!" w.name n;
  let failed = check_answers qs bodies attempted in
  print_info
    (info_fields ~w:w.name ~seed ~jobs ~handlers:0 ~samples:attempted ~tail:w.tail);
  print_result ~correct:(failed = 0) ~attempted ~failed
    (e2e_metrics ~attempted ~answered:(attempted - failed) ~elapsed ~cpu
       ~lats:(Array.sub lats 0 attempted) ~tail:w.tail ~setup
       ~rss:(peak_rss_mb "self"))

(* ---- traced passes ------------------------------------------------- *)

(* Every traced pass starts from the same solver state: empty memo
   tables and rewound fresh-name counters, so the untraced and traced
   passes over the same queries must render the same bytes. *)
let reset_state () =
  Omega.Memo.clear_all ();
  Presburger.Var.reset_fresh ();
  Counting.Engine.reset_fresh_sum_var ()

type pass = {
  bodies : string array;
  lat : float array;  (** per-request seconds *)
  wall : float;  (** whole pass, seconds *)
}

let run_pass n f =
  let bodies = Array.make n "" and lat = Array.make n 0. in
  let t_start = now () in
  for i = 0 to n - 1 do
    let t0 = now () in
    bodies.(i) <- f i;
    lat.(i) <- now () -. t0
  done;
  { bodies; lat; wall = now () -. t_start }

let p50 a =
  let a = Array.copy a in
  Array.sort compare a;
  pct a 0.5

let mismatches (a : string array) (b : string array) =
  let bad = ref 0 in
  Array.iteri (fun i x -> if x <> b.(i) then incr bad) a;
  !bad

(* A traced pass and the library-side deltas around it. *)
type traced = {
  pass : pass;
  sp : Layers.Spans.t;
  counts : Layers.counts;
  memo : Omega.Memo.counters;
  m0 : (string * Obs.Metrics.sample) list;
  m1 : (string * Obs.Metrics.sample) list;
  gc0 : Gc.stat;
  gc1 : Gc.stat;
}

let traced_pass n f =
  let sp = Layers.Spans.create () and counts = Layers.new_counts () in
  let memo0 = Omega.Memo.snapshot () and m0 = Obs.Metrics.snapshot () in
  let gc0 = Gc.quick_stat () in
  let pass = run_pass n (f sp counts) in
  let gc1 = Gc.quick_stat () in
  let memo = Omega.Memo.diff (Omega.Memo.snapshot ()) memo0 in
  { pass; sp; counts; memo; m0; m1 = Obs.Metrics.snapshot (); gc0; gc1 }

let metric_count snap name =
  match List.assoc_opt name snap with
  | Some (Obs.Metrics.Count n) -> n
  | _ -> 0

(* Per-layer metrics of a traced pass, scaled per query. Shares are of
   the summed engine-layer span time. *)
let layer_metrics ~jobs (t : traced) =
  let open Layers in
  let per = float (Array.length t.pass.bodies) in
  let tot l = Spans.total t.sp l in
  let engine = List.fold_left (fun acc l -> acc +. tot l) 0. engine_layers in
  let share l = if engine > 0. then tot l /. engine else 0. in
  let ratio a b = if b = 0 then 0. else float a /. float b in
  let d name = metric_count t.m1 name - metric_count t.m0 name in
  let m = t.memo and st = t.counts.stats and c = t.counts in
  let gc f = float (f t.gc1 - f t.gc0) /. per in
  [
    ("preslang.parse_us", tot Parse *. 1e6 /. per, "us");
    ("preslang.parse_share", share Parse, "share");
    ("telemetry.fingerprint_us", tot Fingerprint *. 1e6 /. per, "us");
    ("answer.render_us", tot Render *. 1e6 /. per, "us");
    ("answer.body_bytes", float c.body_bytes /. per, "bytes");
    ("omega.dnf_ms", tot Dnf *. 1e3 /. per, "ms");
    ("omega.dnf_share", share Dnf, "share");
    ("omega.clauses", float c.clauses /. per, "count");
    ("omega.memo.feas_queries", float m.Omega.Memo.feas_queries /. per, "count");
    ("omega.memo.feas_hit_ratio", ratio m.Omega.Memo.feas_hits m.Omega.Memo.feas_queries, "ratio");
    ("omega.memo.elim_hit_ratio", ratio m.Omega.Memo.elim_hits m.Omega.Memo.elim_queries, "ratio");
    ("omega.memo.gist_queries", float m.Omega.Memo.gist_queries /. per, "count");
    ("omega.memo.eliminations", float m.Omega.Memo.eliminations /. per, "count");
    ("engine.sum_ms", tot Sum *. 1e3 /. per, "ms");
    ("engine.sum_share", share Sum, "share");
    ("engine.residue_splinters", float st.Counting.Engine.residue_splinters /. per, "count");
    ("engine.bound_splits", float st.Counting.Engine.bound_splits /. per, "count");
    ("engine.pieces", float st.Counting.Engine.pieces /. per, "count");
    ("engine.gf_clause_ratio", ratio (d "engine.gf_clauses") c.clauses, "ratio");
    ("pool.tasks", float (d "pool.tasks") /. per, "count");
    ("pool.steals", float (d "pool.steals") /. per, "count");
    ( "pool.busy_share",
      float (d "pool.busy_us") /. 1e6 /. (t.pass.wall *. float jobs),
      "share" );
    ("value.simplify_ms", tot Simplify *. 1e3 /. per, "ms");
    ("value.simplify_share", share Simplify, "share");
    ("value.shrink_ratio", ratio c.pieces_out c.pieces_in, "ratio");
    ("merge.merge_ms", tot Merge *. 1e3 /. per, "ms");
    ("merge.merge_share", share Merge, "share");
    ( "gc.minor_mwords",
      (t.gc1.Gc.minor_words -. t.gc0.Gc.minor_words) /. 1e6 /. per,
      "Mwords" );
    ("gc.minor_collections", gc (fun g -> g.Gc.minor_collections), "count");
    ("gc.major_collections", gc (fun g -> g.Gc.major_collections), "count");
  ]

let trace_dir () =
  let d = Filename.concat "_build" "perfbench" in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let request_line ~id (q : Gen.query) =
  Printf.sprintf "{\"id\":%d,\"query\":\"%s\",\"at\":{%s}}" id
    (Counting.Answer.json_escape q.Gen.text)
    (String.concat ","
       (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%d" k v) q.Gen.at))

(* A warm pass, then [rounds] alternations of an untraced and a traced
   pass over the same [n] requests, each pass started by [reset] and
   built by its factory. Per-layer figures come from the first traced
   pass, whose start state is the same in every run of a seed. *)
let alternations = 3

type alternation = { untraced : pass list; traced : traced list }

let alternate ?(reset = ignore) n ~untraced ~traced =
  reset ();
  ignore (run_pass n (untraced ()));
  let pairs =
    List.init alternations (fun _ ->
        reset ();
        let u = run_pass n (untraced ()) in
        reset ();
        (u, traced_pass n (traced ())))
  in
  { untraced = List.map fst pairs; traced = List.map snd pairs }

let first_traced a = List.hd a.traced
let first_untraced a = List.hd a.untraced

(* Requests whose body differs between any pass and the first untraced
   one. *)
let alternation_mismatches a =
  let base = (first_untraced a).bodies in
  List.fold_left (fun acc p -> acc + mismatches base p.bodies) 0 a.untraced
  + List.fold_left (fun acc t -> acc + mismatches base t.pass.bodies) 0 a.traced

(* Counts a later change may cite as counts: at jobs 1 every traced
   pass, started from the same state, must reproduce them exactly.
   (Minor words repeat exactly across runs of a seed, in the first
   traced pass, but not between passes of one process.) *)
let exact_counts (t : traced) =
  (t.memo, t.counts.Layers.clauses, t.counts.Layers.stats.Counting.Engine.residue_splinters)

let counts_repeat a =
  let first = exact_counts (first_traced a) in
  List.for_all (fun t -> exact_counts t = first) a.traced

let tracing_overhead a =
  (median (List.map (fun t -> t.pass.wall) a.traced)
  /. median (List.map (fun p -> p.wall) a.untraced))
  -. 1.

let all_lat passes = Array.concat (List.map (fun p -> p.lat) passes)

(* Replay request lines in process through the omegad handler path
   (Layers.replay), each pass with a fresh default-capacity answer
   cache. *)
let replays lines =
  let cache () = Serve.Cache.create ~capacity:256 ~ttl_s:300. () in
  alternate (Array.length lines)
    ~untraced:(fun () ->
      let c = cache () in
      fun i ->
        fst
          (Layers.replay ~req:i c lines.(i) ~engine:(fun ~ctrl ~opts q ~at ->
               Layers.governed_q ~ctrl ~opts q ~at)))
    ~traced:(fun () ->
      let c = cache () in
      fun sp counts i ->
        fst
          (Layers.replay ~sp ~req:i c lines.(i) ~engine:(fun ~ctrl ~opts q ~at ->
               Layers.traced_q sp counts ~req:i ~ctrl ~opts q ~at)))

let serve_layer_metrics (r : alternation) ~overhead_p50 ~hit_ratio ~evictions
    ~shed ~errors =
  let rb = first_traced r in
  let per = float (Array.length rb.pass.bodies) in
  let handler = all_lat r.untraced in
  [
    ("serve.proto_parse_us", Layers.Spans.total rb.sp Layers.Proto_parse *. 1e6 /. per, "us");
    ("serve.cache_key_us", Layers.Spans.total rb.sp Layers.Cache_key *. 1e6 /. per, "us");
    ( "serve.handler_ms",
      Array.fold_left ( +. ) 0. handler *. 1e3 /. float (Array.length handler),
      "ms" );
    ("serve.overhead_p50_ms", overhead_p50 *. 1e3, "ms");
    ("serve.cache_hit_ratio", hit_ratio, "ratio");
    ("serve.cache_evictions", float evictions /. per, "count");
    ("serve.shed", float shed /. per, "count");
    ("serve.errors", float errors /. per, "count");
  ]

let inprocess_trace (w : workload) ~seed =
  let jobs = w.jobs () in
  Counting.Pool.set_jobs jobs;
  let qs = w.gen ~seed w.trace_queries in
  let n = Array.length qs in
  let ats = Array.map (fun (q : Gen.query) -> Layers.zat q.Gen.at) qs in
  let d =
    alternate ~reset:reset_state n
      ~untraced:(fun () i -> Layers.governed qs.(i).Gen.text ~at:ats.(i))
      ~traced:(fun () sp counts i ->
        Layers.traced sp counts ~req:i qs.(i).Gen.text ~at:ats.(i))
  in
  let tb = first_traced d in
  let mismatched = alternation_mismatches d in
  let wrong = check_answers qs (first_untraced d).bodies n in
  let engine =
    List.fold_left (fun acc l -> acc +. Layers.Spans.total tb.sp l) 0. Layers.engine_layers
  in
  let coverage = engine /. Layers.Spans.total tb.sp Layers.Request in
  let repeat = counts_repeat d in
  Layers.Spans.write tb.sp
    (Filename.concat (trace_dir ()) (Printf.sprintf "%s-%d.trace.json" w.name seed));
  (* The same queries as omegad requests, replayed through the handler
     path in process: what serving this traffic would add. *)
  let r = replays (Array.mapi (fun i q -> request_line ~id:i q) qs) in
  let replay_mismatched = alternation_mismatches r in
  let rb = first_traced r in
  let hits = metric_count rb.m1 "serve.cache_hits" - metric_count rb.m0 "serve.cache_hits" in
  print_info
    (info_fields ~w:w.name ~seed ~jobs ~handlers:0 ~samples:n ~tail:w.tail
    @ [
        ("traced_bodies_mismatched", string_of_int mismatched);
        ("exact_counts_repeat", string_of_bool repeat);
        ("replay_bodies_mismatched", string_of_int replay_mismatched);
      ]);
  print_result
    ~correct:
      (wrong = 0 && mismatched = 0 && replay_mismatched = 0 && coverage >= 0.95
      && (repeat || jobs > 1))
    ~attempted:n ~failed:wrong
    (layer_metrics ~jobs tb
    @ serve_layer_metrics r
        ~overhead_p50:(p50 (all_lat r.untraced) -. p50 (all_lat d.untraced))
        ~hit_ratio:(float hits /. float n) ~evictions:0 ~shed:0 ~errors:0
    @ [
        ("trace.overhead_share", tracing_overhead d, "share");
        ("trace.layer_coverage", coverage, "share");
      ])

(* ---- serve_sweep: omegad as a subprocess --------------------------- *)

let serve_conns = 2
let serve_shapes = 128
let serve_hot = 32
let serve_hot_per_10 = 4
let serve_stream = 60_000
let serve_trace_requests = 3000
let serve_tail = 0.99

let streams ~seed count =
  let qs =
    Gen.serve_streams ~seed ~n_shapes:serve_shapes ~n_hot:serve_hot
      ~hot_per_10:serve_hot_per_10 ~conns:serve_conns count
  in
  let lines =
    Array.mapi
      (fun c qs -> Array.mapi (fun k q -> request_line ~id:((c * 10_000_000) + k) q) qs)
      qs
  in
  (qs, lines)

(* Served replies checked against the oracles (memoised per query and
   binding); returns the bodies in request order per connection and the
   number of wrong or unanswered replies. *)
let check_served (qs : Gen.query array array) (runs : Omegad_proc.conn_run array) =
  let oracle = Hashtbl.create 4096 in
  let bad = ref 0 in
  let bodies =
    Array.mapi
      (fun c (r : Omegad_proc.conn_run) ->
        Array.init r.Omegad_proc.sent (fun k ->
            let q = qs.(c).(k) in
            let body =
              Omegad_proc.body_of_reply ~id:((c * 10_000_000) + k) r.Omegad_proc.replies.(k)
            in
            let key = (q.Gen.text, q.Gen.at) in
            let expected =
              match Hashtbl.find_opt oracle key with
              | Some v -> v
              | None ->
                  let v = q.Gen.oracle () in
                  Hashtbl.add oracle key v;
                  v
            in
            (match answered_eval body with
            | Some v when v = expected -> ()
            | _ ->
                incr bad;
                if !bad <= 5 then
                  Printf.eprintf "perfbench: WRONG served %s: expected %d, got %s\n%!"
                    (request_line ~id:k q) expected body);
            body))
      runs
  in
  (bodies, !bad)

let with_omegad ~omegad f =
  let t, setup = Omegad_proc.launch ~omegad ~dir:(trace_dir ()) in
  Fun.protect ~finally:(fun () -> Omegad_proc.shutdown t) (fun () -> f t setup)

let warm_served t ~seed =
  let _, lines = streams ~seed:(seed + 1_000_003) 500 in
  ignore (Omegad_proc.run_clients t ~deadline:infinity lines)

let serve_info ~seed ~samples =
  info_fields ~w:"serve_sweep" ~seed ~jobs:(cores ()) ~tail:serve_tail
    ~handlers:Serve.Server.default_config.Serve.Server.handlers ~samples

let serve_e2e ~omegad ~seed ~seconds =
  let probes =
    List.init (setup_runs - 1) (fun _ ->
        let t, setup = Omegad_proc.launch ~omegad ~dir:(trace_dir ()) in
        Omegad_proc.shutdown t;
        setup)
  in
  let qs, lines = streams ~seed serve_stream in
  let runs, elapsed, cpu, rss, setup =
    with_omegad ~omegad (fun t setup ->
        warm_served t ~seed;
        let pid = t.Omegad_proc.pid in
        let cpu0 = proc_cpu_s pid in
        let t_start = now () in
        let runs = Omegad_proc.run_clients t ~deadline:(t_start +. seconds) lines in
        let elapsed = now () -. t_start in
        (runs, elapsed, proc_cpu_s pid -. cpu0, peak_rss_mb (string_of_int pid), setup))
  in
  let _, failed = check_served qs runs in
  let attempted = Array.fold_left (fun acc r -> acc + r.Omegad_proc.sent) 0 runs in
  let lats =
    Array.concat
      (Array.to_list (Array.map (fun r -> Array.sub r.Omegad_proc.lat 0 r.Omegad_proc.sent) runs))
  in
  print_info (serve_info ~seed ~samples:attempted);
  print_result ~correct:(failed = 0) ~attempted ~failed
    (e2e_metrics ~attempted ~answered:(attempted - failed) ~elapsed ~cpu ~lats
       ~tail:serve_tail ~setup:(median (setup :: probes)) ~rss)

let serve_trace ~omegad ~seed =
  Counting.Pool.set_jobs (cores ());
  let qs, lines = streams ~seed (serve_trace_requests / serve_conns) in
  let runs, before, after =
    with_omegad ~omegad (fun t _ ->
        warm_served t ~seed;
        let before = Omegad_proc.counters t in
        let runs = Omegad_proc.run_clients t ~deadline:infinity lines in
        (runs, before, Omegad_proc.counters t))
  in
  let served, wrong = check_served qs runs in
  let delta name = Omegad_proc.counter after name - Omegad_proc.counter before name in
  (* Replay in a fixed interleaving of the connections. *)
  let per_conn = serve_trace_requests / serve_conns in
  let order = Array.init (per_conn * serve_conns) (fun i -> (i mod serve_conns, i / serve_conns)) in
  let r = replays (Array.map (fun (c, k) -> lines.(c).(k)) order) in
  let rb = first_traced r in
  let served_bodies = Array.map (fun (c, k) -> served.(c).(k)) order in
  let mismatched =
    alternation_mismatches r + mismatches (first_untraced r).bodies served_bodies
  in
  let round_trips = Array.concat (Array.to_list (Array.map (fun r -> r.Omegad_proc.lat) runs)) in
  let n = Array.length order in
  let hits = delta "serve.cache_hits" and misses = delta "serve.cache_misses" in
  let spanned =
    List.fold_left
      (fun acc l -> acc +. Layers.Spans.total rb.sp l)
      0.
      Layers.[ Proto_parse; Parse; Fingerprint; Cache_key; Cache_find; Dnf; Sum; Simplify; Merge; Render ]
  in
  Layers.Spans.write rb.sp
    (Filename.concat (trace_dir ()) (Printf.sprintf "serve_sweep-%d.trace.json" seed));
  let replay_p50 = p50 (all_lat r.untraced) in
  print_info
    (serve_info ~seed ~samples:n
    @ [
        ("replay_bodies_mismatched", string_of_int mismatched);
        ("served_p50_ms", Printf.sprintf "%.4f" (p50 round_trips *. 1e3));
        ("replay_p50_ms", Printf.sprintf "%.4f" (replay_p50 *. 1e3));
      ]);
  print_result ~correct:(wrong = 0 && mismatched = 0) ~attempted:n ~failed:wrong
    (layer_metrics ~jobs:(cores ()) rb
    @ serve_layer_metrics r
        ~overhead_p50:(p50 round_trips -. replay_p50)
        ~hit_ratio:(float hits /. float (max 1 (hits + misses)))
        ~evictions:(delta "serve.cache_evictions") ~shed:(delta "serve.shed")
        ~errors:(delta "serve.errors")
    @ [
        ("trace.overhead_share", tracing_overhead r, "share");
        ("trace.layer_coverage", spanned /. Layers.Spans.total rb.sp Layers.Handler, "share");
      ])

(* ---- command line -------------------------------------------------- *)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let omegad = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME  compile_stream | splinter_tail | serve_sweep");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  measured seconds");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) run");
      ("--omegad", Arg.Set_string omegad, "PATH  omegad binary (serve_sweep)");
      ("--probe", Arg.Int (fun j -> probe j; exit 0), "JOBS  set-up probe (internal)");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench";
  let seed = !seed and seconds = !seconds in
  match (!workload, !trace) with
  | "compile_stream", 0 -> inprocess_e2e compile_stream ~seed ~seconds
  | "compile_stream", _ -> inprocess_trace compile_stream ~seed
  | "splinter_tail", 0 -> inprocess_e2e splinter_tail ~seed ~seconds
  | "splinter_tail", _ -> inprocess_trace splinter_tail ~seed
  | "serve_sweep", 0 -> serve_e2e ~omegad:!omegad ~seed ~seconds
  | "serve_sweep", _ -> serve_trace ~omegad:!omegad ~seed
  | other, _ ->
      Printf.eprintf "perfbench: unknown workload %S\n" other;
      exit 2
