(* Seeded query generators, one per template family, each paired with an
   enumeration oracle written here from the template's own iteration
   space. The oracles never call into the engine: they are plain loops
   over integers, so an engine bug cannot hide behind its own check. *)

type query = {
  text : string;  (** query text, the only thing the program receives *)
  at : (string * int) list;  (** evaluation bindings, sorted by name *)
  oracle : unit -> int;  (** the count (or sum) at [at], by enumeration *)
}

let rint st lo hi = lo + Random.State.int st (hi - lo + 1)
let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* Floor division and modulus for possibly negative numerators. *)
let fdiv a b =
  let q = a / b in
  if a mod b <> 0 && (a < 0) <> (b < 0) then q - 1 else q

let pmod a m = ((a mod m) + m) mod m

let distinct_count values =
  let h = Hashtbl.create 256 in
  List.iter (fun x -> Hashtbl.replace h x ()) values;
  Hashtbl.length h

(* A family draws a query shape (its text and an oracle over the
   symbolic constants) from one of its cost strata: the choice that
   moves the engine's cost most (a modulus, a divisor, a coefficient
   pair, a sub-shape). Sizes are drawn separately, from [sizes]. *)
type family = {
  name : string;
  params : string list;  (** symbolic constants, sorted *)
  sizes : int * int;  (** range each constant is drawn from *)
  strata : int;
  draw : Random.State.t -> int -> string * ((string -> int) -> int);
      (** [draw st k] draws a shape of stratum [k], [0 <= k < strata] *)
}

let count_loop f =
  let s = ref 0 in
  f (fun () -> incr s);
  !s

(* Triangular and trapezoidal loop nests. *)
let nest st k =
  let a = rint st 0 15 and b = rint st 0 15 and c = rint st 0 15 in
  if k = 0 then
    ( Printf.sprintf "count { i, j : %d <= i and i + %d <= j and j <= n + %d }"
        a c b,
      fun env ->
        let n = env "n" in
        count_loop (fun tick ->
            for i = a to n + b do
              for _ = i + c to n + b do
                tick ()
              done
            done) )
  else
    ( Printf.sprintf "count { i, j : %d <= i <= n and %d <= j <= i + %d }" a b c,
      fun env ->
        let n = env "n" in
        count_loop (fun tick ->
            for i = a to n do
              for _ = b to i + c do
                tick ()
              done
            done) )

(* Small-coefficient rational bounds a*i <= b*j. *)
let ratio st k =
  let a = 1 + (k / 5) and b = 1 + (k mod 5) in
  let lo = rint st 1 15 and d = rint st 0 31 in
  ( Printf.sprintf "count { i, j : %d <= i and j <= n + %d and %d*i <= %d*j }"
      lo d a b,
    fun env ->
      let n = env "n" in
      (* i >= lo >= 1 and a*i <= b*j force j >= 1 *)
      count_loop (fun tick ->
          for j = 1 to n + d do
            for _ = lo to fdiv (b * j) a do
              tick ()
            done
          done) )

(* Polynomial summands over a triangle. *)
let poly st k =
  let a = rint st 0 15 and b = rint st 0 15 and c = rint st 1 15 in
  let text, f =
    match k with
    | 0 -> ("i*j", fun i j -> i * j)
    | 1 -> ("i^2", fun i _ -> i * i)
    | 2 -> (Printf.sprintf "i*j + %d*i" c, fun i j -> (i * j) + (c * i))
    | _ -> (Printf.sprintf "j^2 - %d*i" c, fun i j -> (j * j) - (c * i))
  in
  ( Printf.sprintf "sum { i, j : %d <= i <= j <= n + %d } %s" a b text,
    fun env ->
      let n = env "n" in
      let s = ref 0 in
      for i = a to n + b do
        for j = i to n + b do
          s := !s + f i j
        done
      done;
      !s )

(* Three-deep tetrahedral nests. *)
let tetra st _ =
  let a = rint st 0 19 and b = rint st 0 19 and c = rint st 0 19 in
  ( Printf.sprintf "count { i, j, k : %d <= i <= j and j + %d <= k <= n + %d }"
      a c b,
    fun env ->
      let n = env "n" in
      count_loop (fun tick ->
          for i = a to n + b do
            for j = i to n + b do
              for _ = j + c to n + b do
                tick ()
              done
            done
          done) )

(* Distinct locations touched by x = c*i + d*j + e. *)
let locs st k =
  let c = 1 + (k / 3) and d = 1 + (k mod 3) and e = rint st 0 1023 in
  ( Printf.sprintf
      "count { x : exists (i, j : 0 <= i <= n and 0 <= j <= m and x = %d*i + \
       %d*j + %d) }"
      c d e,
    fun env ->
      let n = env "n" and m = env "m" in
      let xs = ref [] in
      for i = 0 to n do
        for j = 0 to m do
          xs := ((c * i) + (d * j) + e) :: !xs
        done
      done;
      distinct_count !xs )

(* Stride guards m | i + c*j + r. *)
let stride st k =
  let m = 2 + k in
  let r = rint st 0 (m - 1) and c = rint st 1 3 in
  let a = rint st 0 11 and b = rint st 0 11 in
  ( Printf.sprintf
      "count { i, j : %d <= i <= j <= n + %d and %d | i + %d*j + %d }" a b m c r,
    fun env ->
      let n = env "n" in
      count_loop (fun tick ->
          for i = a to n + b do
            for j = i to n + b do
              if pmod (i + (c * j) + r) m = 0 then tick ()
            done
          done) )

(* Cache lines touched: distinct floor((i + o) / L). *)
let cache st k =
  let l = 2 + k in
  let o = rint st 0 (l - 1) and a = rint st 0 15 and b = rint st 0 15 in
  ( Printf.sprintf
      "count { l : exists (i : %d <= i <= n + %d and l = floor((i + %d) / %d)) }"
      a b o l,
    fun env ->
      let n = env "n" in
      let ls = ref [] in
      for i = a to n + b do
        ls := fdiv (i + o) l :: !ls
      done;
      distinct_count !ls )

(* Negated strides: not (m | i + r). *)
let negstride st k =
  let m = 2 + k in
  let r = rint st 0 (m - 1) and a = rint st 0 15 and b = rint st 0 31 in
  ( Printf.sprintf
      "count { i, j : %d <= j <= i <= n + %d and not (%d | i + %d) }" a b m r,
    fun env ->
      let n = env "n" in
      count_loop (fun tick ->
          for i = a to n + b do
            for _ = a to i do
              if pmod (i + r) m <> 0 then tick ()
            done
          done) )

let n_only name sizes strata draw = { name; params = [ "n" ]; sizes; strata; draw }

let families =
  [|
    n_only "nest" (6, 40) 2 nest;
    n_only "ratio" (6, 40) 25 ratio;
    n_only "poly" (6, 40) 4 poly;
    n_only "tetra" (4, 30) 1 tetra;
    { name = "locs"; params = [ "m"; "n" ]; sizes = (2, 24); strata = 9; draw = locs };
    n_only "stride" (6, 40) 5 stride;
    n_only "cache" (6, 60) 15 cache;
    n_only "negstride" (6, 40) 5 negstride;
  |]

let env_of at name = List.assoc name at

let query text oracle at = { text; at; oracle = (fun () -> oracle (env_of at)) }

(* Run-to-run steadiness comes from stratifying every choice that moves
   the cost: a stream is a sequence of rounds, each a fresh random
   permutation of the strata, so any window of a run holds each stratum
   in (nearly) equal share whatever the seed. *)
let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* [rounds st strata] yields the strata in shuffled rounds. *)
let rounds st strata =
  let cur = ref [||] and pos = ref 0 in
  fun () ->
    if !pos = Array.length !cur then begin
      cur := shuffle st strata;
      pos := 0
    end;
    incr pos;
    !cur.(!pos - 1)

(* Draw a shape of [fam] whose text is not in [seen] yet, from the
   stratum [stratum ()] picks (again on every retry). *)
let rec fresh_shape st seen fam stratum =
  let text, oracle = fam.draw st (stratum ()) in
  if Hashtbl.mem seen text then fresh_shape st seen fam stratum
  else begin
    Hashtbl.add seen text ();
    (text, oracle)
  end

(* [compile_stream ~seed count]: [count] queries with pairwise distinct
   texts, families in shuffled rounds, each constant drawn from its
   family's size range. *)
let compile_stream ~seed count =
  let st = Random.State.make [| seed; 0x636f6d70 |] in
  let seen = Hashtbl.create (2 * count) in
  let next = rounds st families in
  Array.init count (fun _ ->
      let fam = next () in
      let text, oracle =
        fresh_shape st seen fam (fun () -> Random.State.int st fam.strata)
      in
      let lo, hi = fam.sizes in
      query text oracle
        (List.map (fun p -> (p, rint st lo hi)) fam.params))

(* Coprime large-coefficient rational bounds a*i <= b*j: residue
   splintering and Value.simplify dominate. The cost grows with the
   divisor a, so a runs through shuffled rounds of 13..61; each a takes
   its coprime partners b in a shuffled cycle, which keeps texts
   distinct for as many rounds as a has partners. *)
let splinter_tail ~seed count =
  let st = Random.State.make [| seed; 0x73706c69 |] in
  let lo = 13 and hi = 61 in
  let partners =
    Array.init (hi - lo + 1) (fun k ->
        let a = lo + k in
        rounds st
          (Array.of_list
             (List.filter
                (fun b -> b <> a && gcd a b = 1)
                (List.init (hi - lo + 1) (fun i -> lo + i)))))
  in
  let next_a = rounds st (Array.init (hi - lo + 1) (fun k -> lo + k)) in
  Array.init count (fun _ ->
      let a = next_a () in
      let b = partners.(a - lo) () in
      query
        (Printf.sprintf "count { i, j : 1 <= i and j <= n and %d*i <= %d*j }" a b)
        (fun env ->
          let n = env "n" in
          let s = ref 0 in
          for j = 1 to n do
            s := !s + max 0 (fdiv (b * j) a)
          done;
          !s)
        [ ("n", rint st 10 40) ])

(* A served shape: one query text swept over sizes (every symbolic
   constant bound to the same size). *)
type shape = {
  s_family : string;
  s_stratum : int;
  s_text : string;
  s_oracle : (string -> int) -> int;
  s_params : string list;
  s_sizes : int array;
}

(* [count] distinct shapes; shape [i] is of family [i mod 8], and each
   family takes its cost strata in shuffled rounds, so every seed's
   shape set holds them in (nearly) equal share. *)
let shapes ~seed count =
  let st = Random.State.make [| seed; 0x73687065 |] in
  let seen = Hashtbl.create (2 * count) in
  let strata = Array.map (fun fam -> rounds st (Array.init fam.strata Fun.id)) families in
  Array.init count (fun i ->
      let f = i mod Array.length families in
      let fam = families.(f) and k = strata.(f) () in
      let text, oracle = fresh_shape st seen fam (fun () -> k) in
      let lo, hi = fam.sizes in
      {
        s_family = fam.name;
        s_stratum = k;
        s_text = text;
        s_oracle = oracle;
        s_params = fam.params;
        s_sizes = Array.init (hi - lo + 1) (fun k -> lo + k);
      })

let at_size shape size =
  query shape.s_text shape.s_oracle
    (List.map (fun p -> (p, size)) shape.s_params)

(* [per_family] hot (shape, size) pairs of every family. A family's hot
   shapes sit evenly spaced in its shapes sorted by stratum, so the hot
   set's cost does not hang on which strata a seed happens to pick. *)
let hot_pairs st shapes ~per_family =
  Array.concat
    (Array.to_list
       (Array.map
          (fun fam ->
            let own =
              List.filter (fun s -> s.s_family = fam.name) (Array.to_list shapes)
              |> List.stable_sort (fun a b -> compare a.s_stratum b.s_stratum)
              |> Array.of_list
            in
            Array.init per_family (fun j ->
                let s = own.(((2 * j) + 1) * Array.length own / (2 * per_family)) in
                (s, s.s_sizes.(Random.State.int st (Array.length s.s_sizes)))))
          families))

(* The served traffic: [conns] closed-loop request streams over
   [n_shapes] shared shapes. In every block of ten requests, [hot_per_10]
   (at random positions) repeat one of [n_hot] fixed (shape, size) pairs
   exactly; the others take the next shape of a shuffled round at the
   next size of that connection's sweep of it. *)
let serve_streams ~seed ~n_shapes ~n_hot ~hot_per_10 ~conns count =
  let shapes = shapes ~seed n_shapes in
  let st = Random.State.make [| seed; 0x686f74 |] in
  let hot = hot_pairs st shapes ~per_family:(n_hot / Array.length families) in
  Array.init conns (fun c ->
      let st = Random.State.make [| seed; c; 0x73776565 |] in
      let cursor =
        Array.map (fun s -> Random.State.int st (Array.length s.s_sizes)) shapes
      in
      let next_shape = rounds st (Array.init n_shapes Fun.id) in
      let next_hot = rounds st hot in
      let block = ref [||] in
      Array.init count (fun i ->
          if i mod 10 = 0 then
            block := shuffle st (Array.init 10 (fun k -> k < hot_per_10));
          if !block.(i mod 10) then
            let s, size = next_hot () in
            at_size s size
          else begin
            let k = next_shape () in
            let s = shapes.(k) in
            let size = s.s_sizes.(cursor.(k) mod Array.length s.s_sizes) in
            cursor.(k) <- cursor.(k) + 1;
            at_size s size
          end))
