(* Tests for the guarded-value algebra and engine corner cases. *)

module F = Presburger.Formula
module A = Presburger.Affine
module V = Presburger.Var
module C = Omega.Clause
module E = Counting.Engine

let z = Zint.of_int
let v s = A.var (V.named s)
let k n = A.of_int n

let env_of l name =
  match List.assoc_opt name l with
  | Some x -> z x
  | None -> raise Not_found

let eval_q value l = Counting.Value.eval (env_of l) value

let test_value_algebra () =
  let g1 = C.make ~geqs:[ A.add_const (v "n") (z (-1)) ] () in
  let p1 = Counting.Value.piece g1 (Qpoly.var "n") in
  let p2 = Counting.Value.piece C.top (Qpoly.of_int 3) in
  let s = Counting.Value.add p1 p2 in
  Alcotest.(check string) "eval n=5" "8" (Qnum.to_string (eval_q s [ ("n", 5) ]));
  Alcotest.(check string) "eval n=0 guard off" "3"
    (Qnum.to_string (eval_q s [ ("n", 0) ]));
  let neg = Counting.Value.neg s in
  Alcotest.(check string) "neg" "-8" (Qnum.to_string (eval_q neg [ ("n", 5) ]));
  let sc = Counting.Value.scale (Qnum.of_ints 1 2) s in
  Alcotest.(check string) "scale" "4" (Qnum.to_string (eval_q sc [ ("n", 5) ]));
  (* zero pieces vanish *)
  Alcotest.(check int) "piece of zero poly" 0
    (List.length (Counting.Value.piece g1 Qpoly.zero))

let test_value_simplify () =
  let g = C.make ~geqs:[ A.add_const (v "n") (z (-1)) ] () in
  let p1 = Counting.Value.piece g (Qpoly.var "n") in
  let p2 = Counting.Value.piece g (Qpoly.neg (Qpoly.var "n")) in
  (* same guard, values cancel *)
  Alcotest.(check int) "cancelling pieces" 0
    (List.length (Counting.Value.simplify (Counting.Value.add p1 p2)));
  (* infeasible guard dropped *)
  let bad = C.make ~geqs:[ A.add_const (v "n") (z (-1)); A.sub (k 0) (v "n") ] () in
  Alcotest.(check int) "infeasible dropped" 0
    (List.length (Counting.Value.simplify (Counting.Value.piece bad Qpoly.one)));
  (* merge same guards *)
  let both = Counting.Value.add p1 (Counting.Value.piece g Qpoly.one) in
  Alcotest.(check int) "merged" 1
    (List.length (Counting.Value.simplify both))

(* The per-piece [Value.simplify] that guard grouping replaced, kept as
   the reference: every piece runs normalize → feasibility → redundancy
   removal → printing, and pieces fold by the printed guard. *)
let reference_simplify (v : Counting.Value.t) : Counting.Value.t =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (p : Counting.Value.piece) ->
      match C.normalize p.guard with
      | None ->
          if Cert.armed () then
            Cert.record_refuted Cert.Simplify (C.snapshot p.guard)
      | Some g ->
          if Omega.Solve.is_feasible g then begin
            let g =
              match Omega.Gist.remove_redundant g with Some g -> g | None -> g
            in
            let key = C.to_string g in
            match Hashtbl.find_opt tbl key with
            | Some (g0, acc) ->
                Hashtbl.replace tbl key (g0, Qpoly.add acc p.value)
            | None ->
                order := key :: !order;
                Hashtbl.replace tbl key (g, p.value)
          end
          else if Cert.armed () then
            Cert.record_refuted Cert.Simplify (C.snapshot g))
    v;
  List.rev !order
  |> List.filter_map (fun key ->
         let g, value = Hashtbl.find tbl key in
         if Qpoly.is_zero value then None
         else Some { Counting.Value.guard = g; value })

(* Piece lists built from the differential generator's DNF clauses, with
   the shapes grouping must get right: guards repeated verbatim,
   constraint lists reordered (a different raw guard that may print the
   same once reduced), infeasible guards (caught by [normalize] or only
   by the solver), and values that cancel to zero. *)
let gen_pieces seed =
  let st = Random.State.make [| 0x9a7d; seed |] in
  let clauses s =
    let case = Test_differential.gen_case s in
    Omega.Dnf.of_formula case.Test_differential.formula
  in
  let base =
    List.concat_map clauses (List.init 3 (fun _ -> Random.State.int st 300))
  in
  let base = if base = [] then [ C.top ] else base in
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let reorder (c : C.t) =
    { c with geqs = List.rev c.geqs; eqs = List.rev c.eqs; strides = List.rev c.strides }
  in
  let guard () =
    match Random.State.int st 6 with
    | 0 -> reorder (pick base)
    | 1 -> { (pick base) with geqs = k (-1) :: (pick base).geqs }
    | 2 -> C.conjoin (pick base) (C.rename_wilds (pick base))
    | _ -> pick base
  in
  let value () =
    match Random.State.int st 4 with
    | 0 -> Qpoly.of_int (1 + Random.State.int st 3)
    | 1 -> Qpoly.var "n"
    | 2 -> Qpoly.var (pick [ "x"; "y"; "z" ])
    | _ -> Qpoly.of_ints (Random.State.int st 5 - 2) 3
  in
  let guards = List.init (1 + Random.State.int st 4) (fun _ -> guard ()) in
  List.concat
    (List.init (1 + Random.State.int st 12) (fun _ ->
         let g = pick guards in
         let v = value () in
         if Random.State.int st 4 = 0 then
           Counting.Value.add (Counting.Value.piece g v)
             (Counting.Value.piece (pick guards) (Qpoly.neg v))
         else Counting.Value.piece g v))

let render_events events =
  List.map
    (function
      | Cert.Refuted (site, s) ->
          Cert.site_name site ^ " " ^ Obs.Ojson.render (Cert.clause_json s)
      | Cert.Counted _ -> "counted")
    events

let prop_grouped_simplify =
  QCheck.Test.make ~name:"grouped simplify = per-piece simplify" ~count:150
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let pieces = gen_pieces seed in
      let run f =
        let v, events, dropped = Cert.with_recording (fun () -> f pieces) in
        (Counting.Value.to_string v, render_events events, dropped)
      in
      let ((grouped, _, _) as g) = run Counting.Value.simplify in
      let ((reference, _, _) as r) = run reference_simplify in
      if g <> r then
        QCheck.Test.fail_reportf "grouped %s@.reference %s" grouped reference;
      true)

let test_eval_zint_rejects_fractional () =
  let p = Counting.Value.piece C.top (Qpoly.of_ints 1 2) in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Counting.Value.eval_zint (fun _ -> raise Not_found) p);
       false
     with Omega.Error.Omega_error { phase = "value.eval_zint"; _ } -> true)

(* Engine with equalities/strides interacting with the summand. *)
let test_sum_with_equality () =
  (* Σ_{i,j : j = 2i, 1<=i<=n} j  = Σ 2i = n(n+1) *)
  let f =
    F.and_
      [
        F.between (k 1) (v "i") (v "n");
        F.eq (v "j") (A.scale (z 2) (v "i"));
      ]
  in
  let s = E.sum ~vars:[ "i"; "j" ] f (Qpoly.var "j") in
  List.iter
    (fun n ->
      Alcotest.(check string)
        (Printf.sprintf "n=%d" n)
        (string_of_int (n * (n + 1)))
        (Qnum.to_string (eval_q s [ ("n", n) ])))
    [ 0; 1; 5; 9 ]

let test_sum_with_stride_substitution () =
  (* Σ_{i : 1<=i<=n, 3 | i} i = 3·Σ_{w : 1<=w<=n/3} w *)
  let f =
    F.and_ [ F.between (k 1) (v "i") (v "n"); F.stride (z 3) (v "i") ]
  in
  let s = E.sum ~vars:[ "i" ] f (Qpoly.var "i") in
  List.iter
    (fun n ->
      let brute = ref 0 in
      for i = 1 to n do
        if i mod 3 = 0 then brute := !brute + i
      done;
      Alcotest.(check string)
        (Printf.sprintf "n=%d" n)
        (string_of_int !brute)
        (Qnum.to_string (eval_q s [ ("n", n) ])))
    [ 0; 2; 3; 7; 12; 17 ]

let test_multiple_symbolic_constants () =
  (* count {i : a <= i <= b} with two symbolic constants *)
  let f = F.between (v "a") (v "i") (v "b") in
  let c = E.count ~vars:[ "i" ] f in
  List.iter
    (fun (a, b) ->
      Alcotest.(check string)
        (Printf.sprintf "a=%d b=%d" a b)
        (string_of_int (max 0 (b - a + 1)))
        (Qnum.to_string (eval_q c [ ("a", a); ("b", b) ])))
    [ (1, 10); (5, 5); (7, 3); (-4, 2); (0, 0) ]

let test_negative_direction_ranges () =
  (* Σ over i in [-n, n] of i^2 = 2·Σ_{1..n} i² = n(n+1)(2n+1)/3 *)
  let f = F.between (A.neg (v "n")) (v "i") (v "n") in
  let s = E.sum ~vars:[ "i" ] f (Qpoly.mul (Qpoly.var "i") (Qpoly.var "i")) in
  List.iter
    (fun n ->
      Alcotest.(check string)
        (Printf.sprintf "n=%d" n)
        (string_of_int (n * (n + 1) * ((2 * n) + 1) / 3))
        (Qnum.to_string (eval_q s [ ("n", n) ])))
    [ 0; 1; 3; 6 ]

let test_disjunctive_region () =
  (* two disjoint diagonal strips *)
  let f =
    F.or_
      [
        F.and_ [ F.between (k 1) (v "i") (k 5); F.eq (v "j") (v "i") ];
        F.and_
          [ F.between (k 1) (v "i") (k 5); F.eq (v "j") (A.add_const (v "i") (z 10)) ];
      ]
  in
  let c = E.count ~vars:[ "i"; "j" ] f in
  Alcotest.(check string) "10 points" "10"
    (Qnum.to_string (eval_q c []))

let test_implication_api () =
  (* Section 2.4: verify (∃y.P) ⟹ (∃z.Q) via projection + implies *)
  let y = V.fresh_wild () and zv = V.fresh_wild () in
  let p =
    C.make ~wilds:[ y ]
      ~eqs:[ A.sub (v "x") (A.scale (z 4) (A.var y)) ]
      ~geqs:[ A.var y; A.sub (k 10) (A.var y) ]
      ()
  in
  let q =
    C.make ~wilds:[ zv ] ~eqs:[ A.sub (v "x") (A.scale (z 2) (A.var zv)) ] ()
  in
  (* x = 4y (0<=y<=10) implies x = 2z *)
  let p' = Omega.Solve.project Omega.Solve.Exact_overlapping [] p in
  let q' = Omega.Solve.project Omega.Solve.Exact_overlapping [] q in
  match (p', q') with
  | [ pc ], [ qc ] ->
      Alcotest.(check bool) "4Z+bounds ⊆ 2Z" true (Omega.Gist.implies pc qc);
      Alcotest.(check bool) "2Z ⊄ 4Z" false (Omega.Gist.implies qc pc)
  | _ -> Alcotest.fail "expected single clauses"

let suite =
  ( "value",
    [
      Alcotest.test_case "value algebra" `Quick test_value_algebra;
      Alcotest.test_case "value simplify" `Quick test_value_simplify;
      QCheck_alcotest.to_alcotest prop_grouped_simplify;
      Alcotest.test_case "eval_zint fractional" `Quick test_eval_zint_rejects_fractional;
      Alcotest.test_case "sum with equality" `Quick test_sum_with_equality;
      Alcotest.test_case "sum with stride substitution" `Quick
        test_sum_with_stride_substitution;
      Alcotest.test_case "two symbolic constants" `Quick
        test_multiple_symbolic_constants;
      Alcotest.test_case "symmetric range" `Quick test_negative_direction_ranges;
      Alcotest.test_case "disjunctive region" `Quick test_disjunctive_region;
      Alcotest.test_case "implication verification (2.4)" `Quick
        test_implication_api;
    ] )
