(* Shared builders for the benchmark harness. *)

let v s = Logic.Term.Var s
let e s = Structure.Element.Const s

let forall_eq x body =
  Logic.Formula.Forall
    ([ x ], Logic.Formula.Implies (Logic.Formula.Eq (v x, v x), body))

let atom r ts = Logic.Formula.Atom (r, ts)

(* The Section 1 ontologies. *)
let o1 = Dl.Translate.tbox (Dl.Parser.parse_tbox "Hand << == 5 hasFinger")
let o2 =
  Dl.Translate.tbox (Dl.Parser.parse_tbox "Hand << exists hasFinger . Thumb")
let o_union = Logic.Ontology.union o1 o2

(* A hand instance with [n] hands of five named fingers each. *)
let hands n =
  Structure.Instance.of_list
    (List.concat
       (List.init n (fun h ->
            let hand = Printf.sprintf "h%d" h in
            ("Hand", [ e hand ])
            :: List.init 5 (fun f ->
                   ("hasFinger", [ e hand; e (Printf.sprintf "%s_f%d" hand f) ])))))

(* Example 1's ontologies. *)
let o_mat_ptime =
  Logic.Ontology.make
    [ Logic.Formula.Or
        ( Logic.Formula.Forall ([ "x" ], atom "A" [ v "x" ]),
          Logic.Formula.Forall ([ "x" ], atom "B" [ v "x" ]) )
    ]

let o_ucq_cq =
  Logic.Ontology.make
    [ Logic.Formula.Or
        ( Logic.Formula.Forall
            ([ "x" ], Logic.Formula.Or (atom "A" [ v "x" ], atom "B" [ v "x" ])),
          Logic.Formula.Exists ([ "x" ], atom "E" [ v "x" ]) )
    ]

(* The Horn ontology used for Theorem 5: A starts an R-chain demand, B
   propagates back to C. *)
let o_horn =
  Logic.Ontology.make
    [
      forall_eq "x"
        (Logic.Formula.Implies
           ( atom "A" [ v "x" ],
             Logic.Formula.Exists
               ([ "y" ], Logic.Formula.And (atom "R" [ v "x"; v "y" ], atom "B" [ v "y" ]))
           ));
      Logic.Formula.Forall
        ( [ "x"; "y" ],
          Logic.Formula.Implies
            ( atom "R" [ v "x"; v "y" ],
              Logic.Formula.Implies (atom "B" [ v "y" ], atom "C" [ v "x" ]) ) );
    ]

(* An R-chain with an A-seed. *)
let chain n =
  Structure.Instance.of_list
    (("A", [ e "n0" ])
    :: List.init n (fun i ->
           ("R", [ e (Printf.sprintf "n%d" i); e (Printf.sprintf "n%d" (i + 1)) ])))

(* Random undirected graphs. *)
let random_graph ~rng ~n ~p =
  let inst = ref Structure.Instance.empty in
  for i = 0 to n - 1 do
    inst :=
      Structure.Instance.add_element (e (Printf.sprintf "v%d" i)) !inst;
    for j = i + 1 to n - 1 do
      if Random.State.float rng 1.0 < p then begin
        let a = e (Printf.sprintf "v%d" i) and b = e (Printf.sprintf "v%d" j) in
        inst :=
          Structure.Instance.add_fact
            (Structure.Instance.fact "E" [ a; b ])
            (Structure.Instance.add_fact (Structure.Instance.fact "E" [ b; a ]) !inst)
      end
    done
  done;
  !inst

let qc = Query.Parse.cq_of_string "q(x) <- C(x)"
let thumb = Query.Parse.cq_of_string "q(x) <- Thumb(x)"

let time f = Obs.Clock.timed f

(* Certainty and consistency through the engine's deepening front, on
   cold caches: each call first clears the session LRU and the grounding
   memo, so a timed call pays one full grounding per bound visited. *)
let cold_deepen ~max_extra o d step =
  Omq.clear_caches ();
  Reasoner.Engine.deepen ~max_extra (fun k ->
      step (Reasoner.Engine.session ~extra:k o d))

let certain_ucq ~max_extra o d q tuple =
  Option.is_none
    (cold_deepen ~max_extra o d (fun eng ->
         Reasoner.Engine.countermodel eng q tuple))

let certain_cq ~max_extra o d q tuple =
  certain_ucq ~max_extra o d (Query.Ucq.of_cq q) tuple

let certain_disjunction ~max_extra o d pointed =
  Option.is_none
    (cold_deepen ~max_extra o d (fun eng ->
         Reasoner.Engine.countermodel_disjunction eng pointed))

let is_consistent ~max_extra o d =
  Option.is_some (cold_deepen ~max_extra o d Reasoner.Engine.find_model)
