(** omegad's answer cache: a mutex-guarded LRU with optional TTL,
    polymorphic in what it stores.

    omegad stores the {e symbolic} answer of a query, keyed by
    {!query_key}, which leaves out the [at] bindings: every size a
    client asks for shares one entry, and a hit evaluates [eval] for
    the request's own bindings (see {!Counting.Answer.complete_body}).
    Only [status:"complete"] answers are cached (partial bodies depend
    on the budget that tripped). The cache is shared across handler
    domains, because hits must be visible whichever domain picks the
    repeat up; payloads must therefore be immutable.

    Maintains [serve.cache_hits] / [serve.cache_misses] /
    [serve.cache_evictions] (counters) and [serve.cache_entries]
    (gauge). *)

type 'a t

val create : capacity:int -> ?ttl_s:float -> unit -> 'a t

(** LRU-promoting lookup; counts a hit or a miss. An expired entry is a
    miss (and is reclaimed). *)
val find : 'a t -> string -> 'a option

(** Insert (replacing any entry under the same key), then evict from
    the LRU tail down to capacity. *)
val add : 'a t -> string -> 'a -> unit

(** Drop every expired entry (idle-sweep duty); returns how many. *)
val purge_expired : 'a t -> int

val clear : 'a t -> unit

val length : 'a t -> int

(** [query_key ~opts ~merge ~certify ~minted q] — omegad's key: the
    canonical printed query, then the option fields and the merge and
    certify flags. The printed query is the summation variables,
    [Formula.to_string] of the formula (wildcards print as [$k], which
    no Preslang identifier can spell) and [Qpoly.to_string] of the
    summand, each length-prefixed, plus [minted], the number of
    wildcards parsing [q] minted in the request's context (the engine
    numbers its own wildcards from there).

    The key compares the query itself, never a hash of it, so two
    requests share an entry only if they give the engine the same
    input. It has no [at] bindings, because the engine never reads
    them. [q] must have been parsed under a fresh request context
    ({!Ctx.with_request}), so its wildcard numbers restart at [$1]. *)
val query_key :
  opts:Counting.Engine.options ->
  merge:bool ->
  certify:bool ->
  minted:int ->
  Preslang.query ->
  string

(** [key ~fingerprint ~opts ~merge ~certify ~at] — the key of the
    earlier whole-body cache: the 64-bit
    {!Counting.Telemetry.fingerprint}, the same option fields and flags,
    and the sorted [at] bindings. Distinct queries can share a
    fingerprint, so this key can return another query's answer; omegad
    does not use it. It is kept for callers that model the earlier
    cache (the in-process replay of the benchmark in [perfbench/]). *)
val key :
  fingerprint:string ->
  opts:Counting.Engine.options ->
  merge:bool ->
  certify:bool ->
  at:(string * Zint.t) list ->
  string
