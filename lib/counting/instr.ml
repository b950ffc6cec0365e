(* Run reports over the observability substrate. Phase timers are
   hierarchical spans now (Obs.Trace): [time_phase] delegates to
   [Trace.phase], which accumulates (seconds, entries) whether or not
   tracing is enabled and additionally records begin/end events into the
   trace ring buffer when it is. Entering a phase stays two clock reads
   and a hashtbl hit — cheap enough to leave permanently enabled. *)

let now () = Unix.gettimeofday ()

(* Re-entrant: nested same-phase entries bump the entry count but wall
   time accumulates only at the outermost level (Trace keeps a depth
   counter per phase). *)
let time_phase = Obs.Trace.phase

let reset_phases = Obs.Trace.reset_phases

let phase_fields = Obs.Trace.phase_totals

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)

type report = {
  label : string;
  wall_s : float;
  phases : (string * (float * int)) list;
  memo : Omega.Memo.counters;
  counts : (string * int) list;
  metrics : (string * Obs.Metrics.sample) list;
  options : (string * string) list;
  minor_words : float;
  promoted_words : float;
  major_words : float;
}

(* [collect ~label f] runs [f] with fresh phase timers and a memo-counter
   baseline, and pairs its result with the deltas. Nesting is not
   supported (the phase table is global); memo *tables* are left alone,
   so a collected run still benefits from earlier warm-up. Allocation
   deltas come from [Gc.quick_stat] (no heap walk), so sampling them
   costs nothing measurable against the runs being measured. *)
let collect ?(label = "run") ?(options = []) ?(counts = fun () -> []) f =
  reset_phases ();
  let m0 = Omega.Memo.snapshot () in
  let mx0 = Obs.Metrics.snapshot () in
  let g0 = Gc.quick_stat () in
  (* [Gc.minor_words] reads the allocation pointer, so the minor delta is
     word-exact; [quick_stat]'s minor_words only advances at minor
     collections (one-heap granularity on OCaml 5). *)
  let mw0 = Gc.minor_words () in
  let t0 = now () in
  let x = f () in
  let wall_s = now () -. t0 in
  let mw1 = Gc.minor_words () in
  let g1 = Gc.quick_stat () in
  let memo = Omega.Memo.(diff (snapshot ()) m0) in
  let metrics = Obs.Metrics.(diff (snapshot ()) mx0) in
  ( x,
    {
      label;
      wall_s;
      phases = phase_fields ();
      memo;
      counts = counts ();
      metrics;
      options;
      minor_words = mw1 -. mw0;
      promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
      major_words = g1.Gc.major_words -. g0.Gc.major_words;
    } )

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
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

let int_array_json a =
  "[" ^ String.concat "," (List.map string_of_int (Array.to_list a)) ^ "]"

let sample_json = function
  | Obs.Metrics.Count n | Obs.Metrics.Level n -> string_of_int n
  | Obs.Metrics.Hist h ->
      Printf.sprintf "{\"buckets\":%s,\"counts\":%s,\"count\":%d,\"sum\":%d}"
        (int_array_json h.bounds) (int_array_json h.counts) h.count h.sum

let to_json r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "{\"label\":\"%s\",\"wall_s\":%.6f" (json_escape r.label)
       r.wall_s);
  if r.options <> [] then begin
    Buffer.add_string b ",\"options\":{";
    List.iteri
      (fun i (name, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf "\"%s\":\"%s\"" (json_escape name) (json_escape v)))
      r.options;
    Buffer.add_string b "}"
  end;
  Buffer.add_string b ",\"phases\":{";
  List.iteri
    (fun i (name, (s, n)) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "\"%s\":{\"seconds\":%.6f,\"entries\":%d}"
           (json_escape name) s n))
    r.phases;
  Buffer.add_string b "},\"memo\":{";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\"%s\":%d" name v))
    (Omega.Memo.counters_to_fields r.memo);
  Buffer.add_string b "}";
  Buffer.add_string b
    (Printf.sprintf
       ",\"gc\":{\"minor_words\":%.0f,\"promoted_words\":%.0f,\"major_words\":%.0f}"
       r.minor_words r.promoted_words r.major_words);
  if r.counts <> [] then begin
    Buffer.add_string b ",\"engine\":{";
    List.iteri
      (fun i (name, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Printf.sprintf "\"%s\":%d" (json_escape name) v))
      r.counts;
    Buffer.add_string b "}"
  end;
  if r.metrics <> [] then begin
    Buffer.add_string b ",\"metrics\":{";
    List.iteri
      (fun i (name, s) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf "\"%s\":%s" (json_escape name) (sample_json s)))
      r.metrics;
    Buffer.add_string b "}"
  end;
  Buffer.add_char b '}';
  Buffer.contents b

let hit_rate hits queries =
  if queries = 0 then 0. else 100. *. float_of_int hits /. float_of_int queries

let pp fmt r =
  Format.fprintf fmt "@[<v>%s: %.3fs wall@," r.label r.wall_s;
  if r.options <> [] then
    Format.fprintf fmt "  options %s@,"
      (String.concat " "
         (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) r.options));
  List.iter
    (fun (name, (s, n)) ->
      Format.fprintf fmt "  phase %-10s %8.3fs  (%d entries)@," name s n)
    r.phases;
  let m = r.memo in
  Format.fprintf fmt "  feas   %d queries, %d hits (%.1f%%)@," m.feas_queries
    m.feas_hits
    (hit_rate m.feas_hits m.feas_queries);
  Format.fprintf fmt "  redund %d queries, %d hits (%.1f%%)@,"
    m.redundant_queries m.redundant_hits
    (hit_rate m.redundant_hits m.redundant_queries);
  Format.fprintf fmt "  elim   %d queries, gist %d queries (not cached)@,"
    m.elim_queries m.gist_queries;
  Format.fprintf fmt "  eliminations %d, evictions %d@," m.eliminations
    m.evictions;
  Format.fprintf fmt "  alloc  %.0f minor words, %.0f promoted, %.0f major@,"
    r.minor_words r.promoted_words r.major_words;
  List.iter (fun (name, v) -> Format.fprintf fmt "  %-12s %d@," name v) r.counts;
  List.iter
    (fun (name, s) ->
      match s with
      | Obs.Metrics.Count 0 | Obs.Metrics.Level 0 -> ()
      | Obs.Metrics.Count n | Obs.Metrics.Level n ->
          Format.fprintf fmt "  metric %-26s %d@," name n
      | Obs.Metrics.Hist h when h.count = 0 -> ()
      | Obs.Metrics.Hist h ->
          Format.fprintf fmt "  metric %-26s n=%d sum=%d %s@," name h.count
            h.sum (int_array_json h.counts))
    r.metrics;
  Format.fprintf fmt "@]"
