(** Guarded symbolic values — the answers of the counting engine.

    A value is a finite sum of {e pieces} [(Σ : guard : poly)]: when the
    guard (a Presburger condition over the symbolic constants, possibly
    with stride constraints) holds, the piece contributes the
    quasi-polynomial [poly], otherwise [0] (the paper's "nullary
    summation" notation, Section 1). Pieces from the engine have disjoint
    guards, but the sum semantics does not require it. *)

type piece = { guard : Omega.Clause.t; value : Qpoly.t }
type t = piece list

val zero : t

(** [piece guard poly] is a single guarded piece ([poly] unguarded when
    [guard] is {!Omega.Clause.top}). *)
val piece : Omega.Clause.t -> Qpoly.t -> t

val add : t -> t -> t
val neg : t -> t
val scale : Qnum.t -> t -> t

(** [map_values f v] transforms each piece's polynomial. *)
val map_values : (Qpoly.t -> Qpoly.t) -> t -> t

(** {1 Simplification} *)

(** Drop pieces with infeasible or zero content; combine pieces with
    syntactically identical guards; drop guards that are trivially true.
    Guards are reduced (normalize, feasibility, redundancy removal) once
    per distinct raw guard ({!Omega.Memo.Exact}); the result is the same
    as reducing every piece's guard on its own. *)
val simplify : t -> t

(** {1 Evaluation} *)

(** [eval env v] evaluates under an integer assignment of the symbolic
    constants (by name). Guards are decided exactly; the result is the sum
    of the enabled polynomials. *)
val eval : (string -> Zint.t) -> t -> Qnum.t

(** Like {!eval} but requires an integral result (counts always are). *)
val eval_zint : (string -> Zint.t) -> t -> Zint.t

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
