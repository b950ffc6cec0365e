module V = Presburger.Var
module A = Presburger.Affine

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)

type counters = {
  mutable feas_queries : int;
  mutable feas_hits : int;
  mutable elim_queries : int;
  mutable elim_hits : int;
  mutable gist_queries : int;
  mutable gist_hits : int;
  mutable redundant_queries : int;
  mutable redundant_hits : int;
  mutable eliminations : int;
  mutable evictions : int;
}

let zero_counters () =
  {
    feas_queries = 0;
    feas_hits = 0;
    elim_queries = 0;
    elim_hits = 0;
    gist_queries = 0;
    gist_hits = 0;
    redundant_queries = 0;
    redundant_hits = 0;
    eliminations = 0;
    evictions = 0;
  }

(* Per-domain counter records, registered on first touch in a global
   list. The hot path mutates a plain record the owning domain got from
   DLS — no atomics, no sharing — and [snapshot] sums every registered
   record. Records of dead domains stay registered so their counts are
   never lost. [snapshot]/[reset_counters] are meant to be called while
   worker domains are quiescent (between queries, as [Instr.collect]
   does); concurrent mutation only risks slightly stale sums. *)
let registry_mu = Mutex.create ()
let registry : counters list ref = ref []

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let counters_key =
  Domain.DLS.new_key (fun () ->
      let c = zero_counters () in
      locked registry_mu (fun () -> registry := c :: !registry);
      c)

let local () = Domain.DLS.get counters_key

let add_counters acc c =
  {
    feas_queries = acc.feas_queries + c.feas_queries;
    feas_hits = acc.feas_hits + c.feas_hits;
    elim_queries = acc.elim_queries + c.elim_queries;
    elim_hits = acc.elim_hits + c.elim_hits;
    gist_queries = acc.gist_queries + c.gist_queries;
    gist_hits = acc.gist_hits + c.gist_hits;
    redundant_queries = acc.redundant_queries + c.redundant_queries;
    redundant_hits = acc.redundant_hits + c.redundant_hits;
    eliminations = acc.eliminations + c.eliminations;
    evictions = acc.evictions + c.evictions;
  }

let snapshot () =
  locked registry_mu (fun () ->
      List.fold_left add_counters (zero_counters ()) !registry)

let diff a b =
  {
    feas_queries = a.feas_queries - b.feas_queries;
    feas_hits = a.feas_hits - b.feas_hits;
    elim_queries = a.elim_queries - b.elim_queries;
    elim_hits = a.elim_hits - b.elim_hits;
    gist_queries = a.gist_queries - b.gist_queries;
    gist_hits = a.gist_hits - b.gist_hits;
    redundant_queries = a.redundant_queries - b.redundant_queries;
    redundant_hits = a.redundant_hits - b.redundant_hits;
    eliminations = a.eliminations - b.eliminations;
    evictions = a.evictions - b.evictions;
  }

let reset_counters () =
  locked registry_mu (fun () ->
      List.iter
        (fun c ->
          c.feas_queries <- 0;
          c.feas_hits <- 0;
          c.elim_queries <- 0;
          c.elim_hits <- 0;
          c.gist_queries <- 0;
          c.gist_hits <- 0;
          c.redundant_queries <- 0;
          c.redundant_hits <- 0;
          c.eliminations <- 0;
          c.evictions <- 0)
        !registry)

let counters_to_fields c =
  [
    ("feas_queries", c.feas_queries);
    ("feas_hits", c.feas_hits);
    ("elim_queries", c.elim_queries);
    ("elim_hits", c.elim_hits);
    ("gist_queries", c.gist_queries);
    ("gist_hits", c.gist_hits);
    ("redundant_queries", c.redundant_queries);
    ("redundant_hits", c.redundant_hits);
    ("eliminations", c.eliminations);
    ("evictions", c.evictions);
  ]

(* ------------------------------------------------------------------ *)
(* Enable flag and clear registry                                      *)

(* Default on; OMEGA_MEMO=0 disables from the environment (bench and CI
   comparisons). Atomic so any domain observes a flip immediately. *)
let enabled_flag = Atomic.make (Obs.Envcfg.bool_or "OMEGA_MEMO" ~default:true)
let enabled () = Atomic.get enabled_flag
let clearers_mu = Mutex.create ()
let clearers : (unit -> unit) list ref = ref []

let register_clearer f =
  locked clearers_mu (fun () -> clearers := f :: !clearers)

let clear_all () =
  let fs = locked clearers_mu (fun () -> !clearers) in
  List.iter (fun f -> f ()) fs

let set_enabled b =
  Atomic.set enabled_flag b;
  if not b then clear_all ()

(* ------------------------------------------------------------------ *)
(* Request epochs                                                      *)

(* Cached values embed fresh-minted wild names, and per-request
   renumbering (see [Presburger.Var.install_counter]) makes those names
   collide across requests: request B could hit an entry request A wrote
   and receive A's wilds — wrong identities, and nondeterministic
   output. Each server request therefore runs under a unique {e epoch};
   an entry written under another epoch is treated as a miss and removed
   on sight. A generation bump at request start is not enough: a still
   in-flight request could repopulate shards after the bump. The default
   epoch 0 is shared by the whole process, so standalone tools keep full
   cross-query reuse. *)
let epoch_cell : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)
let current_epoch () = !(Domain.DLS.get epoch_cell)
let set_epoch e = Domain.DLS.get epoch_cell := e

let () =
  Obs.Ambient.register (fun () ->
      let captured = current_epoch () in
      {
        Obs.Ambient.run =
          (fun f ->
            let cell = Domain.DLS.get epoch_cell in
            let saved = !cell in
            cell := captured;
            Fun.protect ~finally:(fun () -> cell := saved) f);
      })

(* ------------------------------------------------------------------ *)
(* Bounded LRU tables                                                  *)

module Lru (K : Hashtbl.HashedType) = struct
  module H = Hashtbl.Make (K)

  type 'v node = {
    key : K.t;
    value : 'v;
    epoch : int;  (* request epoch the entry was written under *)
    mutable prev : 'v node option;
    mutable next : 'v node option;
  }

  (* Each domain owns a private {e shard} of the table (DLS-backed): the
     hot path is exactly the single-domain doubly-linked LRU, with no
     locks and no shared mutable state. Cached results are pure functions
     of their keys, so a miss in one domain for an entry another holds
     costs recomputation, never correctness. [clear] cannot reach into
     another domain's shard safely, so it bumps an atomic {e generation};
     every shard lazily resets itself on its owner's next access when its
     recorded generation is stale. *)
  type 'v shard = {
    tbl : 'v node H.t;
    mutable head : 'v node option;  (* most recently used *)
    mutable tail : 'v node option;  (* least recently used *)
    mutable gen : int;  (* generation this shard last synced to *)
  }

  type 'v t = {
    cap : int;
    shards : 'v shard Domain.DLS.key;
    generation : int Atomic.t;
  }

  let reset_shard s =
    H.reset s.tbl;
    s.head <- None;
    s.tail <- None

  let create cap =
    if cap <= 0 then invalid_arg "Memo.Lru.create: capacity must be positive";
    let generation = Atomic.make 0 in
    let shards =
      Domain.DLS.new_key (fun () ->
          {
            tbl = H.create (min cap 1024);
            head = None;
            tail = None;
            gen = Atomic.get generation;
          })
    in
    let t = { cap; shards; generation } in
    register_clearer (fun () -> Atomic.incr generation);
    t

  let shard t =
    let s = Domain.DLS.get t.shards in
    let g = Atomic.get t.generation in
    if s.gen <> g then begin
      reset_shard s;
      s.gen <- g
    end;
    s

  let clear t = Atomic.incr t.generation

  let unlink s n =
    (match n.prev with Some p -> p.next <- n.next | None -> s.head <- n.next);
    (match n.next with Some x -> x.prev <- n.prev | None -> s.tail <- n.prev);
    n.prev <- None;
    n.next <- None

  let push_front s n =
    n.next <- s.head;
    (match s.head with Some h -> h.prev <- Some n | None -> s.tail <- Some n);
    s.head <- Some n

  let find_opt t k =
    let s = shard t in
    match H.find_opt s.tbl k with
    | None -> None
    | Some n when n.epoch <> current_epoch () ->
        (* Another request's entry: its value may embed that request's
           fresh names. Drop it so the slot can be refilled under the
           current epoch. *)
        unlink s n;
        H.remove s.tbl n.key;
        None
    | Some n ->
        if s.head != Some n then begin
          unlink s n;
          push_front s n
        end;
        Some n.value

  let add t k v =
    let s = shard t in
    if not (H.mem s.tbl k) then begin
      if H.length s.tbl >= t.cap then begin
        match s.tail with
        | Some last ->
            unlink s last;
            H.remove s.tbl last.key;
            let c = local () in
            c.evictions <- c.evictions + 1
        | None -> ()
      end;
      let n =
        { key = k; value = v; epoch = current_epoch (); prev = None; next = None }
      in
      H.replace s.tbl k n;
      push_front s n
    end

  let length t = H.length (shard t).tbl
end

(* ------------------------------------------------------------------ *)
(* Exact, order-sensitive clause keys                                  *)

(* A clause exactly as written: constraint lists compared in order, so
   two clauses that differ only in constraint order are different keys.
   Results keyed this way (redundancy removal, [Value.simplify]'s guard
   buckets) are replayed verbatim, and those results depend on the
   order. Nothing is sorted or interned: the hash folds the affines'
   cached hashes, and [Affine.equal] rejects on a hash mismatch. *)
module Exact = struct
  type t = { clause : Clause.t; h : int }

  let equal a b =
    a.h = b.h
    && List.equal A.equal a.clause.eqs b.clause.eqs
    && List.equal A.equal a.clause.geqs b.clause.geqs
    && List.equal
         (fun (m1, e1) (m2, e2) -> Zint.equal m1 m2 && A.equal e1 e2)
         a.clause.strides b.clause.strides
    && V.Set.equal a.clause.wilds b.clause.wilds

  let hash k = k.h

  let of_clause (c : Clause.t) =
    let mix h x = (h * 65599) + x in
    let h =
      List.fold_left (fun h e -> mix h (A.hash e)) 0 c.eqs |> fun h ->
      List.fold_left (fun h e -> mix h (A.hash e)) (mix h 17) c.geqs
      |> fun h ->
      List.fold_left
        (fun h (m, e) -> mix (mix h (Zint.hash m)) (A.hash e))
        (mix h 23) c.strides
      |> fun h -> V.Set.fold (fun v h -> mix h (V.hash v)) c.wilds (mix h 31)
    in
    { clause = c; h = h land max_int }
end

(* ------------------------------------------------------------------ *)
(* Canonical (rank-renamed) clause keys                                *)

(* Keys for queries whose answers are invariant under renaming some of
   the clause's variables: feasibility treats every variable as
   existential. Renamed variables are abstracted to their rank in
   ascending {!V.compare} order, directly on the coefficient structure —
   no affine or clause is built, which keeps the per-query cost a few
   list allocations.

   Canonicalization is best-effort: a renaming that permutes the
   {!V.compare} order maps to a different key, which only costs a missed
   hit. Soundness needs the converse, and that holds exactly: equal keys
   reconstruct clauses that are syntactically identical up to the rank
   bijection, because ranks are assigned per-clause and [Named] sorts
   before [Wild], so an order-preserving wildcard renaming (the only kind
   {!Clause.rename_wilds} performs) leaves every encoded position
   unchanged. *)
module Fkey = struct
  type vk = R of int | N of V.t  (* rank-abstracted vs. exact variable *)

  let vk_equal a b =
    match (a, b) with
    | R i, R j -> i = j
    | N x, N y -> V.equal x y
    | R _, N _ | N _, R _ -> false

  let vk_compare a b =
    match (a, b) with
    | R i, R j -> Int.compare i j
    | R _, N _ -> -1
    | N _, R _ -> 1
    | N x, N y -> V.compare x y

  let vk_hash = function R i -> (i * 2654435761) land max_int | N v -> V.hash v

  type atom = { cs : (vk * Zint.t) list; k : Zint.t }

  let atom_equal a b =
    Zint.equal a.k b.k
    && List.equal
         (fun (v1, c1) (v2, c2) -> vk_equal v1 v2 && Zint.equal c1 c2)
         a.cs b.cs

  let atom_compare a b =
    let rec go l1 l2 =
      match (l1, l2) with
      | [], [] -> Zint.compare a.k b.k
      | [], _ :: _ -> -1
      | _ :: _, [] -> 1
      | (v1, c1) :: t1, (v2, c2) :: t2 ->
          let c = vk_compare v1 v2 in
          if c <> 0 then c
          else
            let c = Zint.compare c1 c2 in
            if c <> 0 then c else go t1 t2
    in
    go a.cs b.cs

  let atom_hash a =
    List.fold_left
      (fun h (v, c) -> (h * 65599) + (vk_hash v * 31) + Zint.hash c)
      (Zint.hash a.k) a.cs

  type t = {
    eqs : atom list;
    geqs : atom list;
    strides : (Zint.t * atom) list;
    h : int;
  }

  let equal a b =
    a.h = b.h
    && List.equal atom_equal a.eqs b.eqs
    && List.equal atom_equal a.geqs b.geqs
    && List.equal
         (fun (m1, e1) (m2, e2) -> Zint.equal m1 m2 && atom_equal e1 e2)
         a.strides b.strides

  let hash k = k.h

  let cmp_stride (m1, e1) (m2, e2) =
    let c = Zint.compare m1 m2 in
    if c <> 0 then c else atom_compare e1 e2

  (* [encode ranked c]: abstract exactly the variables in [ranked]. *)
  let encode ranked (c : Clause.t) =
    let rmap, _ =
      V.Set.fold
        (fun v (m, i) -> (V.Map.add v i m, i + 1))
        ranked (V.Map.empty, 0)
    in
    let atom_of a =
      let cs =
        A.fold
          (fun v c acc ->
            let vk =
              match V.Map.find_opt v rmap with Some i -> R i | None -> N v
            in
            (vk, c) :: acc)
          a []
      in
      { cs; k = A.constant a }
    in
    let eqs = List.sort atom_compare (List.map atom_of c.eqs) in
    let geqs = List.sort atom_compare (List.map atom_of c.geqs) in
    let strides =
      List.sort cmp_stride (List.map (fun (m, e) -> (m, atom_of e)) c.strides)
    in
    let mix h x = (h * 65599) + x in
    let h =
      List.fold_left (fun h e -> mix h (atom_hash e)) 0 eqs |> fun h ->
      List.fold_left (fun h e -> mix h (atom_hash e)) (mix h 17) geqs
      |> fun h ->
      List.fold_left
        (fun h (m, e) -> mix (mix h (Zint.hash m)) (atom_hash e))
        (mix h 23) strides
      land max_int
    in
    { eqs; geqs; strides; h }
end

(* Feasibility treats every variable as existentially quantified, so the
   key abstracts all variable names. *)
let feas_key (c : Clause.t) = Fkey.encode (Clause.all_vars c) c
