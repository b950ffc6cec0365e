module V = Presburger.Var
module C = Omega.Clause

type piece = { guard : C.t; value : Qpoly.t }
type t = piece list

let zero : t = []
let piece guard value : t = if Qpoly.is_zero value then [] else [ { guard; value } ]
let add (a : t) (b : t) : t = a @ b
let neg (v : t) = List.map (fun p -> { p with value = Qpoly.neg p.value }) v

let scale q (v : t) =
  if Qnum.is_zero q then []
  else List.map (fun p -> { p with value = Qpoly.scale q p.value }) v

let map_values f (v : t) =
  List.filter_map
    (fun p ->
      let value = f p.value in
      if Qpoly.is_zero value then None else Some { p with value })
    v

(* The guard pipeline's verdict on one raw guard: dropped (with the
   clause a certificate records), or kept and folded into the
   accumulator of its printed form. *)
type slot = { reduced : C.t; mutable acc : Qpoly.t }
type verdict = Refuted of C.t | Kept of slot

module Raw = Hashtbl.Make (Omega.Memo.Exact)

let simplify (v : t) : t =
  (* Pieces are folded by the printed form of their reduced guard, in
     first-appearance order. Splintered answers repeat a few raw guards
     over many pieces, so the pipeline (normalize, feasibility,
     redundancy removal, printing) runs once per distinct raw guard and
     later pieces reuse its verdict. Every piece still takes its own
     turn in order, so the fold order and the certificate recorder's
     events (one per piece with a refuted guard) do not depend on the
     grouping. *)
  let verdicts = Raw.create 16 in
  let printed = Hashtbl.create 16 in
  let slots = ref [] in
  let verdict guard =
    match C.normalize guard with
    | None -> Refuted guard
    | Some g when not (Omega.Solve.is_feasible g) -> Refuted g
    | Some g -> (
        let g =
          match Omega.Gist.remove_redundant g with Some g -> g | None -> g
        in
        let key = C.to_string g in
        match Hashtbl.find_opt printed key with
        | Some slot -> Kept slot
        | None ->
            let slot = { reduced = g; acc = Qpoly.zero } in
            Hashtbl.replace printed key slot;
            slots := slot :: !slots;
            Kept slot)
  in
  List.iter
    (fun p ->
      let key = Omega.Memo.Exact.of_clause p.guard in
      let d =
        match Raw.find_opt verdicts key with
        | Some d -> d
        | None ->
            let d = verdict p.guard in
            Raw.add verdicts key d;
            d
      in
      match d with
      | Refuted c ->
          if Cert.armed () then
            Cert.record_refuted Cert.Simplify (Omega.Clause.snapshot c)
      | Kept slot -> slot.acc <- Qpoly.add slot.acc p.value)
    v;
  List.rev !slots
  |> List.filter_map (fun slot ->
         if Qpoly.is_zero slot.acc then None
         else Some { guard = slot.reduced; value = slot.acc })

let eval env (v : t) =
  let var_env var = env (V.to_string var) in
  List.fold_left
    (fun acc p ->
      if C.holds var_env p.guard then Qnum.add acc (Qpoly.eval env p.value)
      else acc)
    Qnum.zero v

let eval_zint env v =
  let q = eval env v in
  match Qnum.to_zint q with
  | Some z -> z
  | None ->
      Omega.Error.fail ~phase:"value.eval_zint"
        ~context:[ ("value", Qnum.to_string q) ]
        "evaluation produced a non-integral value"

let pp fmt (v : t) =
  match v with
  | [] -> Format.pp_print_string fmt "0"
  | _ ->
      Format.pp_print_list
        ~pp_sep:(fun fmt () -> Format.fprintf fmt "@ + ")
        (fun fmt p ->
          if p.guard = C.top then Format.fprintf fmt "(%a)" Qpoly.pp p.value
          else
            Format.fprintf fmt "(sum : %a : %a)" C.pp p.guard Qpoly.pp p.value)
        fmt v

let to_string v = Format.asprintf "@[%a@]" pp v
