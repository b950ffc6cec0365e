module V = Presburger.Var
module A = Presburger.Affine

(* An atomic constraint, reified so redundancy machinery can treat the
   three kinds uniformly. *)
type kind = Kgeq of A.t | Keq of A.t | Kstride of Zint.t * A.t

let constraints_of (c : Clause.t) =
  List.map (fun e -> Kgeq e) c.geqs
  @ List.map (fun e -> Keq e) c.eqs
  @ List.map (fun (m, e) -> Kstride (m, e)) c.strides

let clause_of_constraints wilds ks =
  List.fold_left
    (fun (c : Clause.t) k ->
      match k with
      | Kgeq e -> { c with geqs = e :: c.geqs }
      | Keq e -> { c with eqs = e :: c.eqs }
      | Kstride (m, e) -> { c with strides = (m, e) :: c.strides })
    { Clause.top with wilds }
    ks

(* Clauses covering the negation of a constraint. Pieces are pairwise
   disjoint by construction (used by Disjoint as well). *)
let negate_constraint = function
  | Kgeq e ->
      (* ¬(e ≥ 0) ⇔ -e - 1 ≥ 0 *)
      [ Clause.make ~geqs:[ A.add_const (A.neg e) Zint.minus_one ] () ]
  | Keq e ->
      [
        Clause.make ~geqs:[ A.add_const e Zint.minus_one ] ();
        Clause.make ~geqs:[ A.add_const (A.neg e) Zint.minus_one ] ();
      ]
  | Kstride (m, e) ->
      (* ¬(m | e) ⇔ e ≡ r (mod m) for some r in [1, m-1] *)
      let rec go r acc =
        if Zint.compare r m >= 0 then List.rev acc
        else
          go (Zint.succ r)
            (Clause.make ~strides:[ (m, A.add_const e (Zint.neg r)) ] () :: acc)
      in
      go Zint.one []

(* [context ⟹ k]: the context (a clause) entails constraint k. *)
let entails context k =
  List.for_all
    (fun neg -> not (Solve.feasible_conjoin context neg))
    (negate_constraint k)

let remove_redundant_core (c : Clause.t) =
  match Clause.normalize c with
  | None -> None
  | Some c ->
      if not (Solve.is_feasible c) then None
      else begin
        (* Iterate over constraints, keeping each only if not implied by
           the others that remain. *)
        let rec filter kept = function
          | [] -> List.rev kept
          | k :: rest ->
              let context =
                clause_of_constraints c.wilds (List.rev_append kept rest)
              in
              if entails context k then filter kept rest
              else filter (k :: kept) rest
        in
        let ks = filter [] (constraints_of c) in
        Clause.normalize (clause_of_constraints c.wilds ks)
      end

module RedundantTbl = Memo.Lru (Memo.Exact)

(* Small: a residue-splintered sum asks about few distinct clauses
   (111 of 1 481 lookups miss for [37*i <= 29*j]), so a few hundred
   entries hold them all without keeping clauses alive for long. *)
let redundant_cache : Clause.t option RedundantTbl.t = RedundantTbl.create 256

let remove_redundant_memo (c : Clause.t) =
  (* Charged before the lookup, as the feasibility memo does: a hit
     still costs one unit of fuel. *)
  Obs.Budget.charge 1;
  let mc = Memo.local () in
  mc.redundant_queries <- mc.redundant_queries + 1;
  if not (Memo.enabled ()) then remove_redundant_core c
  else begin
    (* Exact key: the result is built from [c]'s constraints in order. *)
    let key = Memo.Exact.of_clause c in
    match RedundantTbl.find_opt redundant_cache key with
    | Some r ->
        mc.redundant_hits <- mc.redundant_hits + 1;
        if Obs.Trace.enabled () then
          Obs.Trace.add_attr "memo" (Obs.Trace.Str "hit");
        r
    | None ->
        let r = remove_redundant_core c in
        RedundantTbl.add redundant_cache key r;
        if Obs.Trace.enabled () then
          Obs.Trace.add_attr "memo" (Obs.Trace.Str "miss");
        r
  end

let remove_redundant (c : Clause.t) =
  if Obs.Trace.enabled () then
    Obs.Trace.span "gist.remove_redundant"
      ~attrs:(fun () -> [ ("constraints", Obs.Trace.Int (Clause.size c)) ])
      (fun () ->
        let r = remove_redundant_memo c in
        Obs.Trace.add_attr "constraints_out"
          (Obs.Trace.Int (match r with None -> 0 | Some c' -> Clause.size c'));
        r)
  else remove_redundant_memo c

let gist_core p given =
  let mc = Memo.local () in
  mc.gist_queries <- mc.gist_queries + 1;
  let given = Clause.rename_wilds given in
  let rec filter kept = function
    | [] -> List.rev kept
    | k :: rest ->
        let context =
          Clause.conjoin given
            (clause_of_constraints V.Set.empty (List.rev_append kept rest))
        in
        if entails context k then filter kept rest
        else filter (k :: kept) rest
  in
  let ks = filter [] (constraints_of p) in
  clause_of_constraints V.Set.empty ks

let gist p ~given =
  if not (V.Set.is_empty p.Clause.wilds) then
    Error.fail ~phase:"gist"
      ~context:[ ("wilds", string_of_int (V.Set.cardinal p.Clause.wilds)) ]
      "p must be wildcard-free";
  if Obs.Trace.enabled () then
    Obs.Trace.span "gist"
      ~attrs:(fun () ->
        [
          ("constraints", Obs.Trace.Int (Clause.size p));
          ("given_constraints", Obs.Trace.Int (Clause.size given));
        ])
      (fun () -> gist_core p given)
  else gist_core p given

let implies p q =
  if not (Solve.is_feasible p) then true
  else begin
    let q =
      match Clause.eqs_to_strides (Clause.rename_wilds q) with
      | Some q -> q
      | None -> q (* infeasible q: fall through to the checks below *)
    in
    if not (V.Set.is_empty q.Clause.wilds) then false
    else List.for_all (fun k -> entails p k) (constraints_of q)
  end
