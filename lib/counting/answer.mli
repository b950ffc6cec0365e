(** Canonical JSON answer bodies, shared by [omcount --json] and omegad.

    One renderer produces the body both front ends publish: omcount
    prints it as its whole stdout line; omegad embeds it in response
    frames. A complete body has two parts: the symbolic [value], which
    depends only on the query, and [eval], which depends on the [at]
    bindings. omegad caches the first as {!value_json} and calls
    {!complete_body} per request, so a hit skips the expensive
    [Value.to_string] and still renders the bytes a miss renders. The
    bodies carry no volatile fields (no wall time, no ids) — two runs
    of the same query under per-request fresh-name counters render the
    same bytes. *)

(** [eval_num at v] evaluates [v] under the bindings when that yields a
    plain integer; [None] when symbolic constants remain unbound or the
    result is non-integral. *)
val eval_num : (string * Zint.t) list -> Value.t -> Zint.t option

(** [{"status":"complete","value":"…"(,"eval":n)?}] — [eval] present
    exactly when [eval_num] succeeds under [at]. Equal to
    [complete_body ~at ~value_json:(value_json v) v]. *)
val complete_json : at:(string * Zint.t) list -> Value.t -> string

(** The escaped contents of a complete body's ["value"] string: the
    part of {!complete_json} that does not depend on [at], and nearly
    all of its cost. *)
val value_json : Value.t -> string

(** [complete_body ~at ~value_json v] renders {!complete_json}[ ~at v]
    from [value_json = value_json v], evaluating only [eval]. *)
val complete_body :
  at:(string * Zint.t) list -> value_json:string -> Value.t -> string

(** [{"status":"partial","reason":…,…,"bounds":{…}}] — the governed
    degradation body: reason, progress counts, pieces/lower/upper
    values, and numeric bounds where evaluable. *)
val partial_json : at:(string * Zint.t) list -> Governor.partial -> string

(** JSON string-body escaping used by the renderers. *)
val json_escape : string -> string
