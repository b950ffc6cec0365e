(* Canonical JSON answer bodies — see answer.mli.

   Extracted from omcount so the server returns byte-identical bodies:
   omcount prints these strings to stdout, omegad embeds them in its
   response frames, and its answer cache keeps [value_json] so a hit
   only re-evaluates [eval]. Any change here changes the published
   schema of both. *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let env_of bindings name =
  match List.assoc_opt name bindings with
  | Some z -> z
  | None -> raise Not_found

let eval_num bindings v =
  match Value.eval (env_of bindings) v with
  | q -> Qnum.to_zint q
  | exception Not_found -> None

let value_json value = json_escape (Value.to_string value)

let complete_body ~at ~value_json value =
  let eval =
    match eval_num at value with
    | Some z -> ",\"eval\":" ^ Zint.to_string z
    | None -> ""
  in
  String.concat ""
    [ "{\"status\":\"complete\",\"value\":\""; value_json; "\""; eval; "}" ]

let complete_json ~at value =
  complete_body ~at ~value_json:(value_json value) value

let partial_json ~at (p : Governor.partial) =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"status\":\"partial\",\"reason\":\"%s\",\"pieces_done\":%d,\"clauses_done\":%d,\"clauses_total\":%d"
       (Governor.reason_name p.reason)
       p.pieces_done p.clauses_done p.clauses_total);
  Buffer.add_string b
    (Printf.sprintf ",\"pieces\":\"%s\",\"lower\":\"%s\""
       (json_escape (Value.to_string p.pieces))
       (json_escape (Value.to_string p.lower)));
  (match p.upper with
  | Some u ->
      Buffer.add_string b
        (Printf.sprintf ",\"upper\":\"%s\"" (json_escape (Value.to_string u)))
  | None -> Buffer.add_string b ",\"upper\":null");
  Buffer.add_string b ",\"bounds\":{";
  let bounds = ref [] in
  (match eval_num at p.lower with
  | Some z -> bounds := Printf.sprintf "\"lower\":%s" (Zint.to_string z) :: !bounds
  | None -> ());
  (match p.upper with
  | Some u -> (
      match eval_num at u with
      | Some z ->
          bounds := Printf.sprintf "\"upper\":%s" (Zint.to_string z) :: !bounds
      | None -> ())
  | None -> ());
  Buffer.add_string b (String.concat "," (List.rev !bounds));
  Buffer.add_string b "}}";
  Buffer.contents b
