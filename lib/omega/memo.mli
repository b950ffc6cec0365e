(** Memoization substrate for the solver core.

    The Omega test re-solves the same subproblems constantly: splintering,
    bound splitting and DNF conversion generate clauses that differ only by
    wildcard renaming, and the counting recursion asks for feasibility and
    redundancy removal on the same conjunctions thousands of times. Both
    cached entry points ({!Solve.is_feasible}, {!Gist.remove_redundant})
    are pure, so cached results are exact and never invalidated; this
    module provides the bounded LRU tables they use, the two key schemes,
    and the global query/hit counters read by the instrumentation layer
    ([Counting.Instr]). Elimination and [gist] are not cached: their
    measured hit rates did not pay for the memory the entries held. *)

(** {1 Counters} *)

type counters = {
  mutable feas_queries : int;
  mutable feas_hits : int;
  mutable elim_queries : int;  (** {!Solve.eliminate} calls *)
  mutable elim_hits : int;
      (** always 0: elimination is not cached (kept so reports that read
          the field keep their shape) *)
  mutable gist_queries : int;  (** {!Gist.gist} calls *)
  mutable gist_hits : int;  (** always 0: [gist] is not cached *)
  mutable redundant_queries : int;  (** {!Gist.remove_redundant} calls *)
  mutable redundant_hits : int;
  mutable eliminations : int;
      (** elimination bodies actually executed (shadow eliminations and
          scale-and-substitute steps); cache hits skip the work and do not
          count *)
  mutable evictions : int;  (** LRU entries dropped at capacity *)
}

(** The calling domain's live counter record, updated in place by the
    solver. One record per domain (domain-local storage), registered
    globally on first touch, so the hot path needs no atomics. *)
val local : unit -> counters

(** Fresh all-zero record. *)
val zero_counters : unit -> counters

(** Field-wise sum of every domain's counters (including domains that
    have since terminated). Call while worker domains are quiescent;
    concurrent mutation only makes the sums slightly stale. *)
val snapshot : unit -> counters

(** [diff after before] subtracts field-wise. *)
val diff : counters -> counters -> counters

val reset_counters : unit -> unit

(** Field names and values, for report/JSON emission. *)
val counters_to_fields : counters -> (string * int) list

(** {1 Global switch} *)

(** Memoization is on by default. [set_enabled false] also clears every
    table (so stale state cannot survive a later re-enable). *)
val enabled : unit -> bool

val set_enabled : bool -> unit

(** Empty all registered tables (entries are pure, so this affects
    performance only). *)
val clear_all : unit -> unit

(** {1 Request epochs}

    Cached values embed fresh-minted wild names; when a server renumbers
    wilds per request ({!Presburger.Var.install_counter}), names collide
    across requests and a cross-request hit would return another
    request's variable identities. Entries are therefore salted with the
    writer's {e epoch}: a lookup from a different epoch is a miss (and
    removes the entry). The process default is epoch 0 — standalone
    tools never call {!set_epoch} and keep full cross-query reuse. *)

(** The calling domain's current epoch (0 unless a server set one).
    Propagated to pool workers by the [Obs.Ambient] capture. *)
val current_epoch : unit -> int

(** [set_epoch e] makes [e] the calling domain's epoch. The caller is
    responsible for restoring the previous value afterwards. *)
val set_epoch : int -> unit

(** {1 Bounded LRU tables}

    Classic doubly-linked-list LRU over [Hashtbl.Make]. Tables register
    themselves with {!clear_all} on creation.

    Every domain owns a private shard (domain-local storage), so lookups
    and inserts take no locks; entries are pure functions of their keys,
    so per-domain caches affect hit rates only, never results. [clear]
    bumps a shared generation that each shard lazily syncs to on its
    owner's next access. *)
module Lru (K : Hashtbl.HashedType) : sig
  type 'v t

  (** [create cap]: [cap] is the maximum number of entries per domain
      shard. *)
  val create : int -> 'v t

  val find_opt : 'v t -> K.t -> 'v option

  (** Insert (no-op if present), evicting the least recently used entry
      when the shard is full. *)
  val add : 'v t -> K.t -> 'v -> unit

  val clear : 'v t -> unit
  val length : 'v t -> int
end

(** {1 Exact clause keys} *)

module Exact : sig
  (** A clause exactly as written: [eqs], [geqs] and [strides] compared
      in order with {!Presburger.Affine.equal}, the wildcard set with
      [Var.Set.equal]; the hash is built from the cached affine hashes.
      Two clauses that differ only in constraint order get different
      keys. Used where the cached result is replayed verbatim and
      depends on the order: {!Gist.remove_redundant}'s table and
      [Value.simplify]'s guard buckets. *)
  type t

  val equal : t -> t -> bool
  val hash : t -> int
  val of_clause : Clause.t -> t
end

(** {1 Canonical (rank-renamed) clause keys} *)

module Fkey : sig
  (** A canonical key for queries invariant under renaming some of the
      clause's variables: the chosen variables are abstracted to their
      rank (ascending variable order) directly on the coefficient
      structure, without building affines or clauses — cheap enough to
      compute at every level of the feasibility recursion. Clauses that
      differ only by an order-preserving renaming of the abstracted
      variables share a key; equal keys always denote clauses identical
      up to such a renaming, so sharing is sound. *)
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end

(** Key for feasibility queries: every variable is existentially
    quantified, so all variables are rank-abstracted. *)
val feas_key : Clause.t -> Fkey.t
