(** Redundant-constraint elimination, the [gist] operator, and implication
    checking (Sections 2.3–2.4 of the paper).

    All three reduce to integer feasibility queries: a constraint [k] is
    redundant with respect to a context [Q] exactly when [Q ∧ ¬k] is
    infeasible. *)

(** Reified atomic constraints, shared with {!Disjoint}. *)
type kind =
  | Kgeq of Presburger.Affine.t
  | Keq of Presburger.Affine.t
  | Kstride of Zint.t * Presburger.Affine.t

val constraints_of : Clause.t -> kind list

val clause_of_constraints :
  Presburger.Var.Set.t -> kind list -> Clause.t

(** Clauses covering [¬k]; the pieces are pairwise disjoint by
    construction. *)
val negate_constraint : kind -> Clause.t list

(** [remove_redundant c] drops every inequality, equality and stride of [c]
    that is implied by the rest of the clause (the paper's "more aggressive
    techniques", backed by the complete feasibility test). Returns [None]
    when [c] itself is infeasible. Memoized in a small {!Memo.Lru} keyed
    on [c] exactly as written ({!Memo.Exact}), bypassed when the memo is
    disabled. *)
val remove_redundant : Clause.t -> Clause.t option

(** [gist p ~given] is a minimal-ish subset of [p]'s constraints such that
    [(gist p ~given) ∧ given ≡ p ∧ given] — "what is interesting about [p]
    if we already know [given]" (Section 2.3). [p] must be wildcard-free
    (project first); raises [Invalid_argument] otherwise. *)
val gist : Clause.t -> given:Clause.t -> Clause.t

(** [implies p q] is [true] when every integer solution of [p] satisfies
    [q]. Complete for wildcard-free [q]; when [q] still contains wildcards
    after {!Clause.eqs_to_strides}, the check is conservative and returns
    [false]. *)
val implies : Clause.t -> Clause.t -> bool
