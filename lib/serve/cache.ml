(* Answer cache — see cache.mli. *)

let m_hits = Obs.Metrics.counter "serve.cache_hits"

let m_misses = Obs.Metrics.counter "serve.cache_misses"

let m_evictions = Obs.Metrics.counter "serve.cache_evictions"

let m_entries = Obs.Metrics.gauge "serve.cache_entries"

type 'a node = {
  key : string;
  payload : 'a;
  expires_at : float;  (* infinity when no TTL *)
  mutable prev : 'a node option;  (* toward head = most recent *)
  mutable next : 'a node option;  (* toward tail = least recent *)
}

type 'a t = {
  mu : Mutex.t;
  tbl : (string, 'a node) Hashtbl.t;
  mutable head : 'a node option;
  mutable tail : 'a node option;
  capacity : int;
  ttl_s : float option;
}

let create ~capacity ?ttl_s () =
  {
    mu = Mutex.create ();
    tbl = Hashtbl.create 256;
    head = None;
    tail = None;
    capacity = max 1 capacity;
    ttl_s;
  }

(* List surgery; all under t.mu. *)

let unlink t n =
  (match n.prev with
  | Some p -> p.next <- n.next
  | None -> t.head <- n.next);
  (match n.next with
  | Some s -> s.prev <- n.prev
  | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let drop t n =
  unlink t n;
  Hashtbl.remove t.tbl n.key;
  Obs.Metrics.set m_entries (Hashtbl.length t.tbl)

let find t key =
  Mutex.lock t.mu;
  let r =
    match Hashtbl.find_opt t.tbl key with
    | Some n when n.expires_at >= Unix.gettimeofday () ->
        unlink t n;
        push_front t n;
        Obs.Metrics.incr m_hits;
        Some n.payload
    | Some n ->
        (* Expired: treat as a miss and reclaim the slot. *)
        drop t n;
        Obs.Metrics.incr m_evictions;
        Obs.Metrics.incr m_misses;
        None
    | None ->
        Obs.Metrics.incr m_misses;
        None
  in
  Mutex.unlock t.mu;
  r

let add t key payload =
  Mutex.lock t.mu;
  (match Hashtbl.find_opt t.tbl key with Some n -> drop t n | None -> ());
  let expires_at =
    match t.ttl_s with
    | Some ttl -> Unix.gettimeofday () +. ttl
    | None -> infinity
  in
  let n = { key; payload; expires_at; prev = None; next = None } in
  Hashtbl.replace t.tbl key n;
  push_front t n;
  while Hashtbl.length t.tbl > t.capacity do
    match t.tail with
    | Some last ->
        drop t last;
        Obs.Metrics.incr m_evictions
    | None -> assert false
  done;
  Obs.Metrics.set m_entries (Hashtbl.length t.tbl);
  Mutex.unlock t.mu

let purge_expired t =
  let now = Unix.gettimeofday () in
  Mutex.lock t.mu;
  let stale =
    Hashtbl.fold
      (fun _ n acc -> if n.expires_at < now then n :: acc else acc)
      t.tbl []
  in
  List.iter
    (fun n ->
      drop t n;
      Obs.Metrics.incr m_evictions)
    stale;
  Mutex.unlock t.mu;
  List.length stale

let clear t =
  Mutex.lock t.mu;
  Hashtbl.reset t.tbl;
  t.head <- None;
  t.tail <- None;
  Obs.Metrics.set m_entries 0;
  Mutex.unlock t.mu

let length t =
  Mutex.lock t.mu;
  let n = Hashtbl.length t.tbl in
  Mutex.unlock t.mu;
  n

(* ------------------------------------------------------------------ *)
(* Cache keys                                                          *)

(* The option fields and flags that change an answer, appended to
   either key. Their names and values come from fixed enumerations and
   contain no '|'. *)
let add_options b ~opts ~merge ~certify =
  List.iter
    (fun (k, v) ->
      Buffer.add_char b '|';
      Buffer.add_string b k;
      Buffer.add_char b '=';
      Buffer.add_string b v)
    (Counting.Engine.opts_fields opts);
  Buffer.add_string b (if merge then "|m1" else "|m0");
  Buffer.add_string b (if certify then "|c1" else "|c0")

(* Length-prefixed, so a part that contains a separator (a formula may
   contain '|' and line breaks) cannot run into the next part. *)
let add_part b s =
  Buffer.add_string b (string_of_int (String.length s));
  Buffer.add_char b ':';
  Buffer.add_string b s

let query_key ~opts ~merge ~certify ~minted (q : Preslang.query) =
  let formula = Presburger.Formula.to_string q.Preslang.formula in
  let b = Buffer.create (String.length formula + 128) in
  add_part b (String.concat "," q.Preslang.vars);
  add_part b formula;
  add_part b (Qpoly.to_string q.Preslang.summand);
  add_part b (string_of_int minted);
  add_options b ~opts ~merge ~certify;
  Buffer.contents b

let key ~fingerprint ~opts ~merge ~certify ~at =
  let b = Buffer.create 96 in
  Buffer.add_string b fingerprint;
  add_options b ~opts ~merge ~certify;
  List.iter
    (fun (n, z) ->
      Buffer.add_char b '@';
      Buffer.add_string b n;
      Buffer.add_char b '=';
      Buffer.add_string b (Zint.to_string z))
    at;
  Buffer.contents b
