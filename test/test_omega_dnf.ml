(* Tests for formula simplification to DNF and disjoint DNF, gist, and
   implication checking. *)

module V = Presburger.Var
module A = Presburger.Affine
module F = Presburger.Formula
module C = Omega.Clause

let z = Zint.of_int
let i = V.named "i"
let j = V.named "j"
let n = V.named "n"
let ai = A.var i
let aj = A.var j
let an = A.var n
let k x = A.of_int x

let env_of l v =
  match List.assoc_opt (V.to_string v) l with
  | Some x -> z x
  | None -> raise Not_found

let union_holds cls env = List.exists (fun c -> C.holds env c) cls

(* Check DNF equivalence against the oracle over a grid. *)
let check_equiv msg f cls grid =
  List.iter
    (fun pt ->
      let env = env_of pt in
      Alcotest.(check bool)
        (Printf.sprintf "%s at %s" msg
           (String.concat ","
              (List.map (fun (v, x) -> Printf.sprintf "%s=%d" v x) pt)))
        (F.holds env f) (union_holds cls env))
    grid

let grid2d lo hi =
  List.concat_map
    (fun a -> List.map (fun b -> [ ("i", a); ("j", b) ]) (List.init (hi - lo + 1) (fun x -> lo + x)))
    (List.init (hi - lo + 1) (fun x -> lo + x))

let test_dnf_basic () =
  (* (1 <= i <= 10) ∧ ¬(3 <= i <= 12 ∧ 2 | i+j) *)
  let f =
    F.and_
      [
        F.between (k 1) ai (k 10);
        F.not_
          (F.and_
             [ F.between (k 3) ai (k 12); F.stride (z 2) (A.add ai aj) ]);
      ]
  in
  let cls = Omega.Dnf.of_formula f in
  check_equiv "negation dnf" f cls (grid2d (-1) 13)

let test_dnf_quantifier () =
  (* ∃j. 1 <= j <= n ∧ i = 2j  ≡  2 ≤ i ≤ 2n ∧ 2 | i *)
  let f =
    F.exists [ j ]
      (F.and_ [ F.between (k 1) aj an; F.eq ai (A.scale (z 2) aj) ])
  in
  let cls = Omega.Dnf.of_formula f in
  List.iter
    (fun iv ->
      List.iter
        (fun nv ->
          let pt = [ ("i", iv); ("n", nv) ] in
          let expected = iv >= 2 && iv <= 2 * nv && iv mod 2 = 0 in
          Alcotest.(check bool)
            (Printf.sprintf "i=%d n=%d" iv nv)
            expected
            (union_holds cls (env_of pt)))
        [ 0; 1; 3; 5 ])
    (List.init 14 (fun x -> x - 1));
  (* all clauses are wildcard-free stride format *)
  List.iter
    (fun c ->
      Alcotest.(check bool) "wild-free" true
        (Presburger.Var.Set.is_empty c.C.wilds))
    cls

let test_dnf_forall () =
  (* ∀i. (1 <= i <= n) → 2|i  — true iff n <= 0 or n = ... only n<=0
     (i=1 breaks it for n>=1). *)
  let f =
    F.forall [ i ]
      (F.implies (F.between (k 1) ai an) (F.stride (z 2) ai))
  in
  let cls = Omega.Dnf.of_formula f in
  List.iter
    (fun nv ->
      Alcotest.(check bool)
        (Printf.sprintf "n=%d" nv)
        (nv <= 0)
        (union_holds cls (env_of [ ("n", nv) ])))
    [ -3; -1; 0; 1; 2; 5 ]

let test_section26 () =
  (* The Section 2.6 formula:
     1≤i≤2n ∧ 1≤i'≤2n ∧ i=i' ∧
       (¬∃i'',j. 1≤i''≤2n ∧ 1≤j≤n−1 ∧ i<i'' ∧ i'=i'' ∧ 2j=i'') ∧
       (¬∃i'',j. 1≤i''≤2n ∧ 1≤j≤n−1 ∧ i<i'' ∧ i'=i'' ∧ 2j+1=i'')
     simplifies to (1=i=i'≤n) ∨ ... — the paper's result is
     (1≤i=i'≤2n ∧ constraints making i' maximal): per the paper,
     (l≤i=i'≤n)∨(1≤i=i'=2n); we verify semantic equivalence pointwise. *)
  let i' = V.named "i'" in
  let ai' = A.var i' in
  let mk_not_exists parity =
    let i'' = V.named "i''" in
    let jj = V.named "jj" in
    F.not_
      (F.exists [ i''; jj ]
         (F.and_
            [
              F.between (k 1) (A.var i'') (A.scale (z 2) an);
              F.between (k 1) (A.var jj) (A.add_const an Zint.minus_one);
              F.lt ai (A.var i'');
              F.eq ai' (A.var i'');
              (match parity with
              | `Even -> F.eq (A.scale (z 2) (A.var jj)) (A.var i'')
              | `Odd ->
                  F.eq
                    (A.add_const (A.scale (z 2) (A.var jj)) Zint.one)
                    (A.var i''));
            ]))
  in
  let f =
    F.and_
      [
        F.between (k 1) ai (A.scale (z 2) an);
        F.between (k 1) ai' (A.scale (z 2) an);
        F.eq ai ai';
        mk_not_exists `Even;
        mk_not_exists `Odd;
      ]
  in
  let cls = Omega.Dnf.of_formula f in
  (* Paper's answer: (1 = i = i' <= n)? Their printed result is
     (l≤i=i'≤n)∨(1≤i=i'=2n) — scanning: the "not exists" constraints say no
     i'' with i < i'' <= 2n and i'' >= 2 exists, i.e. i >= 2n or 2n < 2 or
     (i = i' and nothing bigger than i except possibly 1) — we just check
     pointwise against the oracle. *)
  List.iter
    (fun nv ->
      List.iter
        (fun iv ->
          List.iter
            (fun iv' ->
              let pt = [ ("i", iv); ("i'", iv'); ("n", nv) ] in
              Alcotest.(check bool)
                (Printf.sprintf "n=%d i=%d i'=%d" nv iv iv')
                (F.holds (env_of pt) f)
                (union_holds cls (env_of pt)))
            [ iv - 1; iv; iv + 1 ])
        [ 1; 2; 3; 4; 5; 6; 7; 8 ])
    [ 1; 2; 3 ]

let test_gist () =
  (* gist (1<=i<=9 ∧ i<=n) given (n<=5 ∧ i>=1) should keep i<=9? no:
     i<=n∧n<=5 gives i<=5<=9, so i<=9 is redundant; i>=1 is given. Result
     should be just i <= n. *)
  let p =
    C.make ~geqs:[ A.add_const ai (z (-1)); A.sub (k 9) ai; A.sub an ai ] ()
  in
  let q = C.make ~geqs:[ A.sub (k 5) an; A.add_const ai (z (-1)) ] () in
  let g = Omega.Gist.gist p ~given:q in
  Alcotest.(check int) "single constraint" 1 (C.size g);
  (* law: gist ∧ given ≡ p ∧ given *)
  let lhs = C.conjoin g q and rhs = C.conjoin p q in
  for iv = -2 to 12 do
    for nv = -2 to 12 do
      let env = env_of [ ("i", iv); ("n", nv) ] in
      Alcotest.(check bool)
        (Printf.sprintf "law i=%d n=%d" iv nv)
        (C.holds env rhs) (C.holds env lhs)
    done
  done

let test_implies () =
  let box lo hi = C.make ~geqs:[ A.sub ai (k lo); A.sub (k hi) ai ] () in
  Alcotest.(check bool) "smaller box implies larger" true
    (Omega.Gist.implies (box 2 5) (box 0 10));
  Alcotest.(check bool) "larger does not imply smaller" false
    (Omega.Gist.implies (box 0 10) (box 2 5));
  (* i in [2,4] with 2|i implies i in [2,4] *)
  let even_box =
    C.make ~geqs:[ A.sub ai (k 2); A.sub (k 4) ai ] ~strides:[ (z 2, ai) ] ()
  in
  Alcotest.(check bool) "stride implies" true
    (Omega.Gist.implies even_box (box 2 4));
  (* i in [2,4] ∧ 2|i implies i != 3, i.e. implies (i<=2 ∨ i>=4)?  Single
     clause check: implies i = 2 ∨ i = 4 is not clause-shaped; instead check
     implies stride: i in [4,4] implies 2|i *)
  Alcotest.(check bool) "implies stride" true
    (Omega.Gist.implies (box 4 4) (C.make ~strides:[ (z 2, ai) ] ()));
  Alcotest.(check bool) "not implies stride" false
    (Omega.Gist.implies (box 3 4) (C.make ~strides:[ (z 2, ai) ] ()));
  (* infeasible premise implies anything *)
  Alcotest.(check bool) "ex falso" true
    (Omega.Gist.implies (box 5 2) (box 100 200))

let test_remove_redundant () =
  (* i >= 0, i >= -5 (redundant), i <= n, i <= n + 3 (redundant) *)
  let c =
    C.make
      ~geqs:
        [
          ai;
          A.add_const ai (z 5);
          A.sub an ai;
          A.sub (A.add_const an (z 3)) ai;
        ]
      ()
  in
  (match Omega.Gist.remove_redundant c with
  | Some c' -> Alcotest.(check int) "kept 2" 2 (C.size c')
  | None -> Alcotest.fail "feasible");
  (* infeasible clause *)
  Alcotest.(check bool) "infeasible" true
    (Omega.Gist.remove_redundant
       (C.make ~geqs:[ A.add_const ai (z (-3)); A.sub (k 1) ai ] ())
    = None)

(* The redundancy-removal memo: keyed on the clause exactly as written,
   emptied by [Memo.clear_all], scoped to the request epoch, and never
   able to change a result. *)
let test_remove_redundant_memo () =
  let geqs =
    [ ai; A.add_const ai (z 5); A.sub an ai; A.sub (A.add_const an (z 3)) ai ]
  in
  let c = C.make ~geqs () in
  let reordered = C.make ~geqs:(List.rev geqs) () in
  let render r = Option.fold ~none:"infeasible" ~some:C.to_string r in
  let run c =
    let before = Omega.Memo.snapshot () in
    let r = render (Omega.Gist.remove_redundant c) in
    let d = Omega.Memo.diff (Omega.Memo.snapshot ()) before in
    Alcotest.(check int) "one query" 1 d.redundant_queries;
    (r, d.redundant_hits = 1)
  in
  let expect what ~hit c =
    let r, was_hit = run c in
    Alcotest.(check bool) what hit was_hit;
    r
  in
  Omega.Memo.clear_all ();
  let cold = expect "cold lookup misses" ~hit:false c in
  let warm = expect "repeat hits" ~hit:true c in
  Alcotest.(check string) "hit returns the computed result" cold warm;
  (* constraint order is part of the key: a second entry, not a hit *)
  ignore (expect "reordered clause misses" ~hit:false reordered);
  ignore (expect "reordered clause now hits" ~hit:true reordered);
  ignore (expect "original entry still there" ~hit:true c);
  Omega.Memo.clear_all ();
  ignore (expect "clear_all empties the table" ~hit:false c);
  let epoch = Omega.Memo.current_epoch () in
  Fun.protect
    ~finally:(fun () -> Omega.Memo.set_epoch epoch)
    (fun () ->
      Omega.Memo.set_epoch (epoch + 1);
      ignore (expect "another epoch misses" ~hit:false c));
  Omega.Memo.set_enabled false;
  let off =
    Fun.protect
      ~finally:(fun () -> Omega.Memo.set_enabled true)
      (fun () ->
        ignore (expect "memo off computes" ~hit:false c);
        expect "memo off never hits" ~hit:false c)
  in
  Alcotest.(check string) "memo on and off agree" cold off;
  let infeasible = C.make ~geqs:[ A.add_const ai (z (-3)); A.sub (k 1) ai ] () in
  ignore (expect "infeasible cold" ~hit:false infeasible);
  Alcotest.(check string) "cached infeasibility" "infeasible"
    (expect "infeasible hit" ~hit:true infeasible)

let test_disjoint_conversion () =
  (* Two overlapping boxes: [1,6] and [4,10]. *)
  let box lo hi = C.make ~geqs:[ A.sub ai (k lo); A.sub (k hi) ai ] () in
  let cls = [ box 1 6; box 4 10 ] in
  let d = Omega.Disjoint.to_disjoint cls in
  Alcotest.(check bool) "pairwise disjoint" true (Omega.Disjoint.pairwise_disjoint d);
  for iv = -2 to 13 do
    let env = env_of [ ("i", iv) ] in
    Alcotest.(check bool)
      (Printf.sprintf "union i=%d" iv)
      (union_holds cls env) (union_holds d env)
  done;
  (* subsumed clause is dropped *)
  let d2 = Omega.Disjoint.to_disjoint [ box 2 4; box 1 10 ] in
  Alcotest.(check int) "subset eliminated" 1 (List.length d2);
  (* three-way overlap chain: [1,4], [3,8], [7,12] *)
  let cls3 = [ box 1 4; box 3 8; box 7 12 ] in
  let d3 = Omega.Disjoint.to_disjoint cls3 in
  Alcotest.(check bool) "3-chain disjoint" true
    (Omega.Disjoint.pairwise_disjoint d3);
  for iv = -2 to 14 do
    let env = env_of [ ("i", iv) ] in
    Alcotest.(check bool)
      (Printf.sprintf "3-chain union i=%d" iv)
      (union_holds cls3 env) (union_holds d3 env)
  done

let test_uniformly_generated () =
  (* Section 5.1: memory locations of a[i] and a[i+1], 1<=i<=n, built the
     better way: ∃i,d: 1<=i<=n ∧ 0<=d<=1 ∧ m = i+d. Disjoint DNF should
     cover [1, n+1] with disjoint clauses. *)
  let m = V.named "m" and d = V.named "d" in
  let f =
    F.exists [ i; d ]
      (F.and_
         [
           F.between (k 1) ai an;
           F.between (k 0) (A.var d) (k 1);
           F.eq (A.var m) (A.add ai (A.var d));
         ])
  in
  let cls = Omega.Disjoint.of_formula f in
  Alcotest.(check bool) "disjoint" true (Omega.Disjoint.pairwise_disjoint cls);
  List.iter
    (fun nv ->
      List.iter
        (fun mv ->
          let env = env_of [ ("m", mv); ("n", nv) ] in
          Alcotest.(check bool)
            (Printf.sprintf "m=%d n=%d" mv nv)
            (mv >= 1 && mv <= nv + 1 && nv >= 1)
            (union_holds cls env))
        [ -1; 0; 1; 2; 5; 6; 7 ])
    [ 0; 1; 5 ]

(* Property tests --------------------------------------------------------- *)

let affine_gen =
  QCheck.map
    (fun (a, b, c) -> A.add (A.term (z a) i) (A.add (A.term (z b) j) (k c)))
    (QCheck.triple (QCheck.int_range (-3) 3) (QCheck.int_range (-3) 3)
       (QCheck.int_range (-6) 6))

let rec fgen_sized sz =
  let open QCheck.Gen in
  let aff = QCheck.gen affine_gen in
  let atom_g =
    oneof
      [
        map2 F.geq aff aff;
        map2 F.eq aff aff;
        map2 (fun c e -> F.stride (z (2 + c)) e) (int_range 0 2) aff;
      ]
  in
  if sz = 0 then atom_g
  else
    frequency
      [
        (2, atom_g);
        (2, map2 (fun a b -> F.and_ [ a; b ]) (fgen_sized (sz - 1)) (fgen_sized (sz - 1)));
        (2, map2 (fun a b -> F.or_ [ a; b ]) (fgen_sized (sz - 1)) (fgen_sized (sz - 1)));
        (1, map F.not_ (fgen_sized (sz - 1)));
      ]

let fgen = QCheck.make ~print:F.to_string (fgen_sized 2)

let qf_grid =
  List.concat_map
    (fun a -> List.map (fun b -> [ ("i", a); ("j", b) ]) [ -4; -1; 0; 2; 5 ])
    [ -3; 0; 1; 4; 7 ]

let prop_dnf_equiv =
  QCheck.Test.make ~name:"DNF ≡ formula" ~count:60 fgen (fun f ->
      let cls = Omega.Dnf.of_formula f in
      List.for_all
        (fun pt ->
          Bool.equal (F.holds (env_of pt) f) (union_holds cls (env_of pt)))
        qf_grid)

let prop_disjoint_equiv =
  QCheck.Test.make ~name:"disjoint DNF ≡ formula and disjoint" ~count:40 fgen
    (fun f ->
      let cls = Omega.Disjoint.of_formula f in
      Omega.Disjoint.pairwise_disjoint cls
      && List.for_all
           (fun pt ->
             Bool.equal (F.holds (env_of pt) f) (union_holds cls (env_of pt)))
           qf_grid)

let prop_exists_dnf =
  QCheck.Test.make ~name:"DNF of ∃j.f ≡ ∃j.f" ~count:50 fgen (fun f ->
      (* bound j to keep the oracle exact *)
      let bounded = F.and_ [ F.between (k (-8)) aj (k 8); f ] in
      let ex = F.exists [ j ] bounded in
      let cls = Omega.Dnf.of_formula ex in
      List.for_all
        (fun iv ->
          let pt = [ ("i", iv) ] in
          Bool.equal (F.holds (env_of pt) ex) (union_holds cls (env_of pt)))
        [ -4; -1; 0; 1; 3; 6 ])

let prop_gist_law =
  QCheck.Test.make ~name:"gist law: gist∧given ≡ p∧given" ~count:40
    (QCheck.pair fgen fgen) (fun (fp, fq) ->
      match (Omega.Dnf.of_formula fp, Omega.Dnf.of_formula fq) with
      | p :: _, q :: _ ->
          let g = Omega.Gist.gist p ~given:q in
          List.for_all
            (fun pt ->
              let env = env_of pt in
              Bool.equal
                (C.holds env (C.conjoin p (C.rename_wilds q)))
                (C.holds env (C.conjoin g (C.rename_wilds q))))
            qf_grid
      | _ -> true)

let suite =
  ( "omega-dnf",
    [
      Alcotest.test_case "dnf with negation" `Quick test_dnf_basic;
      Alcotest.test_case "dnf with ∃ (stride format)" `Quick test_dnf_quantifier;
      Alcotest.test_case "dnf with ∀" `Quick test_dnf_forall;
      Alcotest.test_case "Section 2.6 simplification" `Slow test_section26;
      Alcotest.test_case "gist" `Quick test_gist;
      Alcotest.test_case "implies" `Quick test_implies;
      Alcotest.test_case "remove_redundant" `Quick test_remove_redundant;
      Alcotest.test_case "remove_redundant memo" `Quick
        test_remove_redundant_memo;
      Alcotest.test_case "disjoint conversion" `Quick test_disjoint_conversion;
      Alcotest.test_case "uniformly generated set (5.1)" `Quick
        test_uniformly_generated;
      QCheck_alcotest.to_alcotest prop_dnf_equiv;
      QCheck_alcotest.to_alcotest prop_disjoint_equiv;
      QCheck_alcotest.to_alcotest prop_exists_dnf;
      QCheck_alcotest.to_alcotest prop_gist_law;
    ] )
