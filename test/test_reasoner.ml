open Helpers
module F = Logic.Formula

let check = Alcotest.(check bool)

(* ---------------------------------------------------------------- *)
(* DPLL                                                              *)
(* ---------------------------------------------------------------- *)

let test_dpll_basic () =
  check "sat" true
    (match Reasoner.Dpll.solve ~nvars:2 [ [ 1; 2 ]; [ -1 ] ] with
    | Reasoner.Dpll.Sat m -> (not m.(0)) && m.(1)
    | Reasoner.Dpll.Unsat -> false);
  check "unsat" true
    (Reasoner.Dpll.solve ~nvars:1 [ [ 1 ]; [ -1 ] ] = Reasoner.Dpll.Unsat);
  check "empty clause" true
    (Reasoner.Dpll.solve ~nvars:1 [ [] ] = Reasoner.Dpll.Unsat)

let test_dpll_enumerate () =
  (* x1 ∨ x2 has three models. *)
  let ms = Reasoner.Dpll.enumerate ~nvars:2 ~project:[ 1; 2 ] [ [ 1; 2 ] ] in
  Alcotest.(check int) "three models" 3 (List.length ms)

let test_dpll_vs_brute =
  QCheck.Test.make ~name:"dpll agrees with brute force" ~count:60
    QCheck.(pair (int_bound 10000) (int_range 1 4))
    (fun (seed, nvars) ->
      let rng = Random.State.make [| seed |] in
      let nclauses = 1 + Random.State.int rng 8 in
      let clause () =
        let len = 1 + Random.State.int rng 3 in
        List.init len (fun _ ->
            let v = 1 + Random.State.int rng nvars in
            if Random.State.bool rng then v else -v)
      in
      let clauses = List.init nclauses (fun _ -> clause ()) in
      let brute_sat =
        let rec assignments n =
          if n = 0 then [ [] ]
          else
            List.concat_map
              (fun a -> [ true :: a; false :: a ])
              (assignments (n - 1))
        in
        List.exists
          (fun a ->
            let arr = Array.of_list a in
            List.for_all
              (List.exists (fun l ->
                   if l > 0 then arr.(l - 1) else not arr.(-l - 1)))
              clauses)
          (assignments nvars)
      in
      Bool.equal brute_sat
        (match Reasoner.Dpll.solve ~nvars clauses with
        | Reasoner.Dpll.Sat _ -> true
        | Reasoner.Dpll.Unsat -> false))

(* One persistent solver driven through random sequences of base
   replacements, clause additions and assumption solves must give the
   verdict of a fresh one-shot solve of the clauses with the base and
   the assumptions as unit clauses, and every model must satisfy all
   three. The solver's trace attributes tell which paths a solve took:
   [base_conflict] marks a conflict at level 1, [base_plants] > 1 a
   learned clause that backjumped to level 0 and dropped the base.
   Sequences run up to 48 steps over up to 16 variables: most
   satisfiable solves are answered by repairing the kept model, so it
   takes that many for CDCL to still learn units that drop the base. *)
let base_conflicts = ref 0
let base_replants = ref 0

let dpll_base_sequence =
  QCheck.Test.make ~name:"persistent base agrees with one-shot solves"
    ~count:400
    QCheck.(pair (int_bound 100000) (int_range 3 16))
    (fun (seed, nvars) ->
      let module D = Reasoner.Dpll in
      let rng = Random.State.make [| seed |] in
      let lit () =
        let v = 1 + Random.State.int rng nvars in
        if Random.State.bool rng then v else -v
      in
      let lits n = List.init n (fun _ -> lit ()) in
      let s = D.make ~nvars in
      let clauses = ref [] and base = ref [] in
      let add c =
        clauses := c :: !clauses;
        D.assert_clause s c
      in
      for _ = 1 to nvars + Random.State.int rng (2 * nvars) do
        add (lits (2 + Random.State.int rng 2))
      done;
      let ok = ref true in
      for _ = 1 to 8 + Random.State.int rng 40 do
        match Random.State.int rng 6 with
        | 0 ->
            base := lits (Random.State.int rng (1 + (nvars / 2)));
            D.set_base s !base
        | 1 -> add (lits (1 + Random.State.int rng 3))
        | _ ->
            let assumptions = lits (Random.State.int rng 4) in
            let r, trace =
              Obs.Trace.collect (fun () -> D.solve_assuming s assumptions)
            in
            List.iter
              (fun (sp : Obs.Trace.span) ->
                List.iter
                  (function
                    | "base_conflict", Obs.Trace.Bool true -> incr base_conflicts
                    | "base_plants", Obs.Trace.Int n when n > 1 ->
                        incr base_replants
                    | _ -> ())
                  sp.attrs)
              (Obs.Trace.spans trace);
            let units = List.map (fun l -> [ l ]) (!base @ assumptions) in
            let expected =
              match D.solve ~nvars (units @ !clauses) with
              | D.Sat _ -> true
              | D.Unsat -> false
            in
            let verdict_ok, model_ok =
              match r with
              | D.Unsat -> (not expected, true)
              | D.Sat m ->
                  ( expected,
                    List.for_all (List.exists (D.lit_true m)) (units @ !clauses) )
            in
            ok := !ok && verdict_ok && model_ok
      done;
      !ok)

let test_dpll_base () =
  base_conflicts := 0;
  base_replants := 0;
  QCheck.Test.check_exn ~rand:(Random.State.make [| 17 |]) dpll_base_sequence;
  check "level-1 conflicts covered" true (!base_conflicts > 0);
  check "learned units dropping the base covered" true (!base_replants > 0)

(* The kept model and its repair, on one solver driven through random
   sequences of clause additions, base replacements, variable growth
   and assumption solves. Every verdict must equal a fresh one-shot
   solve of the clauses with the base and the assumptions as unit
   clauses; every model, the [Sat] array and the [model_bits] bitmap
   alike, must satisfy all three; and the kept model must satisfy every
   clause it is recorded to satisfy after each step. The trace tells
   which path a solve took: [repaired] on its span when the repair
   answered, a [dpll.repair_fallback] event naming the reason when it
   gave up. Clauses of three literals at about the 3-SAT threshold make
   all three paths common. *)
let repairs = ref 0
let fallbacks_fixed = ref 0
let fallbacks_bound = ref 0

let dpll_repair_sequence =
  QCheck.Test.make ~name:"kept-model repair agrees with one-shot solves"
    ~count:300
    QCheck.(pair (int_bound 100000) (int_range 4 48))
    (fun (seed, nvars0) ->
      let module D = Reasoner.Dpll in
      let rng = Random.State.make [| seed |] in
      let nvars = ref nvars0 in
      let lit () =
        let v = 1 + Random.State.int rng !nvars in
        if Random.State.bool rng then v else -v
      in
      let lits n = List.init n (fun _ -> lit ()) in
      let s = D.make ~nvars:!nvars in
      let clauses = ref [] and base = ref [] in
      let add c =
        clauses := c :: !clauses;
        D.assert_clause s c
      in
      for _ = 1 to (3 * !nvars) + Random.State.int rng (2 * !nvars) do
        add (lits 3)
      done;
      let ok = ref true in
      for _ = 1 to 10 + Random.State.int rng 20 do
        match Random.State.int rng 8 with
        | 0 ->
            base := lits (Random.State.int rng (1 + (!nvars / 4)));
            D.set_base s !base
        | 1 -> add (lits (1 + Random.State.int rng 3))
        | 2 ->
            nvars := !nvars + 1 + Random.State.int rng 3;
            D.ensure_nvars s !nvars
        | k ->
            let assumptions = lits (Random.State.int rng 4) in
            let model, trace =
              Obs.Trace.collect (fun () ->
                  if k mod 2 = 0 then
                    match D.solve_assuming s assumptions with
                    | D.Sat m -> Some (Some m)
                    | D.Unsat -> None
                  else if D.sat_assuming s assumptions then Some None
                  else None)
            in
            let bits = Option.map (fun _ -> D.model_bits s) model in
            List.iter
              (fun (sp : Obs.Trace.span) ->
                if List.mem ("repaired", Obs.Trace.Bool true) sp.attrs then
                  incr repairs)
              (Obs.Trace.spans trace);
            List.iter
              (fun (ev : Obs.Trace.event) ->
                match List.assoc_opt "reason" ev.eattrs with
                | Some (Obs.Trace.Str "fixed") -> incr fallbacks_fixed
                | Some (Obs.Trace.Str "bound") -> incr fallbacks_bound
                | _ -> ())
              (Obs.Trace.events trace);
            let all = List.map (fun l -> [ l ]) (!base @ assumptions) @ !clauses in
            let expected =
              match D.solve ~nvars:!nvars all with D.Sat _ -> true | D.Unsat -> false
            in
            let satisfies truth = List.for_all (List.exists truth) all in
            let model_ok =
              match (model, bits) with
              | None, _ -> not expected
              | Some m, Some b ->
                  expected
                  && satisfies (fun l -> D.bit b (abs l) = (l > 0))
                  && (match m with
                     | Some m -> satisfies (D.lit_true m)
                     | None -> true)
              | Some _, None -> false
            in
            ok := !ok && model_ok && D.kept_model_holds s
      done;
      !ok)

let test_dpll_repair () =
  repairs := 0;
  fallbacks_fixed := 0;
  fallbacks_bound := 0;
  QCheck.Test.check_exn ~rand:(Random.State.make [| 23 |]) dpll_repair_sequence;
  check "answered by repair covered" true (!repairs > 0);
  check "fallback on an all-fixed clause covered" true (!fallbacks_fixed > 0);
  check "fallback on the work bound covered" true (!fallbacks_bound > 0)

let test_dpll_model_bits () =
  let module D = Reasoner.Dpll in
  let s = D.make ~nvars:10 in
  D.assert_clause s [ 1; 2 ];
  D.assert_clause s [ -1 ];
  D.set_base s [ 9 ];
  check "sat" true (D.sat_assuming s [ -3 ]);
  let b = D.model_bits s in
  check "forced by a clause" true (D.bit b 2 && not (D.bit b 1));
  check "base literal" true (D.bit b 9);
  check "assumption" false (D.bit b 3);
  check "variables past the end read false" false (D.bit b 1000);
  (* unsat under the base, and only under it *)
  D.set_base s [ 1 ];
  check "base contradicts a unit" false (D.sat_assuming s []);
  check "not broken" false (D.is_broken s);
  D.set_base s [];
  check "empty base" true (D.sat_assuming s [])

(* ---------------------------------------------------------------- *)
(* Bounded model finding                                             *)
(* ---------------------------------------------------------------- *)

let test_consistency () =
  (* ∀x (D(x) → A(x) ∨ B(x)) with D(a): consistent. *)
  check "disj consistent" true
    (Deepen.is_consistent o_disj (inst [ ("D", [ "a" ]) ]));
  (* A ⊓ ¬A: inconsistent. *)
  let contradiction =
    Logic.Ontology.make
      [ forall_eq "x" (F.Implies (atom "D" [ v "x" ], F.And (atom "A" [ v "x" ], F.Not (atom "A" [ v "x" ])))) ]
  in
  check "contradiction" false
    (Deepen.is_consistent contradiction (inst [ ("D", [ "a" ]) ]))

let test_certain_disjunctive () =
  (* O = D ⊑ A ⊔ B, D = {D(a)}: A(a) ∨ B(a) is certain, neither disjunct is. *)
  let d = inst [ ("D", [ "a" ]) ] in
  let qa = cq ~answer:[ "x" ] [ ("A", [ v "x" ]) ] in
  let qb = cq ~answer:[ "x" ] [ ("B", [ v "x" ]) ] in
  check "A or B certain" true
    (Deepen.certain_disjunction o_disj d [ (qa, [ e "a" ]); (qb, [ e "a" ]) ]);
  check "A not certain" false (Deepen.certain_cq o_disj d qa [ e "a" ]);
  check "B not certain" false (Deepen.certain_cq o_disj d qb [ e "a" ]);
  check "UCQ A|B certain" true
    (Deepen.certain_ucq o_disj d (ucq [ qa; qb ]) [ e "a" ])

let test_certain_horn () =
  (* o_horn: A(a) entails ∃y R(a,y) ∧ B(y), hence C(a). *)
  let d = inst [ ("A", [ "a" ]) ] in
  let qc = cq ~answer:[ "x" ] [ ("C", [ v "x" ]) ] in
  let qrb = cq ~answer:[ "x" ] [ ("R", [ v "x"; v "y" ]); ("B", [ v "y" ]) ] in
  check "R.B certain" true (Deepen.certain_cq ~max_extra:2 o_horn d qrb [ e "a" ]);
  check "C certain" true (Deepen.certain_cq ~max_extra:2 o_horn d qc [ e "a" ]);
  let qb = cq ~answer:[ "x" ] [ ("B", [ v "x" ]) ] in
  check "B(a) not certain" false (Deepen.certain_cq o_horn d qb [ e "a" ])

let test_hand_finger () =
  (* Section 1's example: O1 ∪ O2 over a hand with five fingers forces a
     thumb among them, but no particular finger is a thumb. *)
  let fingers = [ "f1"; "f2"; "f3"; "f4"; "f5" ] in
  let d =
    inst (("Hand", [ "h" ]) :: List.map (fun f -> ("hasFinger", [ "h"; f ])) fingers)
  in
  let qt = cq ~answer:[ "x" ] [ ("Thumb", [ v "x" ]) ] in
  (* with O2 alone: thumb is certain only as an existential *)
  let q_has_thumb =
    cq ~answer:[ "x" ] [ ("hasFinger", [ v "x"; v "y" ]); ("Thumb", [ v "y" ]) ]
  in
  check "O2: hand has a thumb finger" true
    (Deepen.certain_cq ~max_extra:1 o_hand_thumb d q_has_thumb [ e "h" ]);
  check "O2: f1 need not be a thumb" false
    (Deepen.certain_cq o_hand_thumb d qt [ e "f1" ]);
  (* with the union: the five named fingers are all the fingers, so one
     of them must be the thumb — a certain disjunction with no certain
     disjunct (non-materializability). *)
  let pointed = List.map (fun f -> (qt, [ e f ])) fingers in
  check "union: disjunction certain" true
    (Deepen.certain_disjunction ~max_extra:1 o_hand_union d pointed);
  check "union: f1 thumb not certain" false
    (Deepen.certain_cq ~max_extra:1 o_hand_union d qt [ e "f1" ]);
  (* with O1 ∪ O2 but only 4 named fingers, the thumb may be the fifth *)
  let d4 =
    inst
      (("Hand", [ "h" ])
      :: List.map (fun f -> ("hasFinger", [ "h"; f ])) [ "f1"; "f2"; "f3"; "f4" ])
  in
  check "4 fingers: disjunction not certain" false
    (Deepen.certain_disjunction ~max_extra:1 o_hand_union d4
       (List.map (fun f -> (qt, [ e f ])) [ "f1"; "f2"; "f3"; "f4" ]))

let test_countermodel_is_model () =
  let d = inst [ ("D", [ "a" ]) ] in
  let qa = cq ~answer:[ "x" ] [ ("A", [ v "x" ]) ] in
  match
    Reasoner.Engine.countermodel (Deepen.at o_disj d 0) (ucq [ qa ]) [ e "a" ]
  with
  | None -> Alcotest.fail "expected a countermodel"
  | Some m ->
      check "contains D" true (Structure.Instance.subset d m);
      check "is model of O" true
        (Structure.Modelcheck.is_model m (Logic.Ontology.all_sentences o_disj));
      check "refutes query" false (Query.Cq.holds m qa [ e "a" ])

(* ---------------------------------------------------------------- *)
(* Chase                                                             *)
(* ---------------------------------------------------------------- *)

let horn_rules =
  [
    Reasoner.Chase.rule ~name:"exists"
      ~body:[ ("A", [ v "x" ]) ]
      ~head:[ ("R", [ v "x"; v "y" ]); ("B", [ v "y" ]) ]
      ();
    Reasoner.Chase.rule ~name:"propagate"
      ~body:[ ("R", [ v "x"; v "y" ]); ("B", [ v "y" ]) ]
      ~head:[ ("C", [ v "x" ]) ]
      ();
  ]

let test_chase_horn () =
  let d = inst [ ("A", [ "a" ]) ] in
  let r = Reasoner.Chase.run horn_rules d in
  check "saturated" true r.saturated;
  let qc = cq ~answer:[ "x" ] [ ("C", [ v "x" ]) ] in
  check "C derived" true (Query.Cq.holds r.instance qc [ e "a" ]);
  (* chase result is a model of the rules: the bounded engine agrees *)
  check "agrees with bounded engine" true
    (Deepen.certain_cq ~max_extra:2 o_horn d qc [ e "a" ])

let test_chase_restricted () =
  (* If the head is already satisfied, the chase adds nothing. *)
  let d = inst [ ("A", [ "a" ]); ("R", [ "a"; "b" ]); ("B", [ "b" ]) ] in
  let r = Reasoner.Chase.run horn_rules d in
  check "no fresh nulls" true
    (Structure.Element.Set.for_all Structure.Element.is_const
       (Structure.Instance.domain r.instance))

let test_chase_egd () =
  let rules = [] in
  let func_egd =
    Reasoner.Chase.egd ~name:"func_R"
      ~body:[ ("R", [ v "x"; v "y" ]); ("R", [ v "x"; v "z" ]) ]
      ~left:"y" ~right:"z" ()
  in
  (* merging a null into a constant *)
  let d =
    Structure.Instance.of_facts
      [
        Structure.Instance.fact "R" [ e "a"; e "b" ];
        Structure.Instance.fact "R" [ e "a"; Structure.Element.Null 0 ];
      ]
  in
  let r = Reasoner.Chase.run ~egds:[ func_egd ] rules d in
  Alcotest.(check int) "one fact left" 1 (Structure.Instance.cardinal r.instance);
  (* two distinct constants: failure *)
  let d2 = inst [ ("R", [ "a"; "b" ]); ("R", [ "a"; "c" ]) ] in
  check "egd failure" true
    (try
       ignore (Reasoner.Chase.run ~egds:[ func_egd ] rules d2);
       false
     with Reasoner.Chase.Egd_failure _ -> true)

let suite =
  [
    Alcotest.test_case "dpll_basic" `Quick test_dpll_basic;
    Alcotest.test_case "dpll_enumerate" `Quick test_dpll_enumerate;
    QCheck_alcotest.to_alcotest test_dpll_vs_brute;
    Alcotest.test_case "dpll persistent base" `Quick test_dpll_base;
    Alcotest.test_case "dpll kept-model repair" `Quick test_dpll_repair;
    Alcotest.test_case "dpll model bits" `Quick test_dpll_model_bits;
    Alcotest.test_case "consistency" `Quick test_consistency;
    Alcotest.test_case "certain_disjunctive" `Quick test_certain_disjunctive;
    Alcotest.test_case "certain_horn" `Quick test_certain_horn;
    Alcotest.test_case "hand_finger" `Quick test_hand_finger;
    Alcotest.test_case "countermodel_is_model" `Quick test_countermodel_is_model;
    Alcotest.test_case "chase_horn" `Quick test_chase_horn;
    Alcotest.test_case "chase_restricted" `Quick test_chase_restricted;
    Alcotest.test_case "chase_egd" `Quick test_chase_egd;
  ]
