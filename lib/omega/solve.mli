(** Variable elimination and integer feasibility — the core of the Omega
    test (Section 2 of the paper; algorithms from Pugh, CACM '92, extended
    with the disjoint splintering of Figure 1).

    Elimination of [∃v] from a conjunct combines each lower bound
    [β ≤ b·v] with each upper bound [a·v ≤ α]:

    - the {e real shadow} adds [aβ ≤ bα] — an over-approximation;
    - the {e dark shadow} adds [bα − aβ ≥ (a−1)(b−1)] — an
      under-approximation that is exact when [a = 1] or [b = 1];
    - {e splinters} cover the gap: clauses that still contain [v] but pin
      it with an equality, so it can be eliminated exactly.

    The feasibility recursion is memoized through a bounded LRU table of
    {!Memo} (it is pure, so entries are never invalidated); disable
    globally with [Memo.set_enabled false]. {!eliminate} is not cached:
    its splinter lists rarely recur, and holding them grew the heap. *)

(** How to treat the integer-projection gap. *)
type mode =
  | Exact_overlapping
      (** dark shadow plus the CACM-style splinters; output clauses may
          overlap. *)
  | Exact_disjoint
      (** Figure 1 (right): dark shadow plus gap-pinned splinters that are
          pairwise disjoint and disjoint from the dark shadow. *)
  | Approx_dark  (** dark shadow only: an under-approximation. *)
  | Approx_real  (** real shadow only: an over-approximation. *)

(** Stable lowercase name of a mode, used as a trace/report attribute. *)
val mode_name : mode -> string

(** [eliminate_via_eq v c] exactly eliminates [v] using an equality of [c]
    that contains it (the one with the smallest coefficient): from
    [k·v = rhs] it records the stride [|k| divides rhs] and substitutes
    [k·v] into every other constraint after scaling it by [|k|]
    (inequalities and strides scale soundly by positive constants). The
    counting engine uses the same step to collapse summation variables
    bound by equalities. Raises [Invalid_argument] when no equality
    contains [v]. *)
val eliminate_via_eq : Presburger.Var.t -> Clause.t -> Clause.t

(** [eliminate mode v c] removes [v] (assumed existentially quantified)
    from [c]. [v] must not occur in [c.eqs] or [c.strides] (substitute
    equalities first; convert strides on [v] to equalities); raises
    [Invalid_argument] otherwise. The result is a disjunction of clauses
    not containing [v]. *)
val eliminate : mode -> Presburger.Var.t -> Clause.t -> Clause.t list

(** [project mode vars c] existentially quantifies [vars] away: the result
    is a disjunction of clauses over the remaining variables, in projected
    format (wildcards may remain in equalities; under [Exact_*] modes the
    union is equivalent to [∃vars. c], and under [Exact_disjoint] the
    clauses are pairwise disjoint whenever [c]'s own wildcards permit).
    Clauses are normalized and unsatisfiable ones dropped. *)
val project : mode -> Presburger.Var.t list -> Clause.t -> Clause.t list

(** [is_feasible c] decides whether the clause has an integer solution
    (all variables treated as existentially quantified). *)
val is_feasible : Clause.t -> bool

(** [feasible_conjoin c1 c2] tests satisfiability of the conjunction —
    the overlap test used to build disjoint DNF. *)
val feasible_conjoin : Clause.t -> Clause.t -> bool
