open Helpers
module F = Logic.Formula

let check = Alcotest.(check bool)

(* Example 2: ∀xy (R(x,y) → (A(x) ∨ ∃z S(y,z))) is in uGF(1). *)
let example2 =
  F.Forall
    ( [ "x"; "y" ],
      F.Implies
        ( atom "R" [ v "x"; v "y" ],
          F.Or (atom "A" [ v "x" ], F.Exists ([ "z" ], atom "S" [ v "y"; v "z" ]))
        ) )

let test_example2 () =
  check "is uGF" true (Gf.Syntax.is_ugf_sentence example2);
  Alcotest.(check int) "depth 1" 1 (Gf.Syntax.sentence_depth example2);
  let a = Gf.Syntax.analyze_sentence example2 in
  check "outer guard not equality" false a.outer_eq

(* The equivalent uGF− sentence of depth 1 from Section 2.1:
   ∀x (x=x → (∃y (R(y,x) ∧ ¬A(y)) → ∃z S(x,z))). *)
let example2_minus =
  forall_eq "x"
    (F.Implies
       ( F.Exists ([ "y" ], F.And (atom "R" [ v "y"; v "x" ], F.Not (atom "A" [ v "y" ]))),
         F.Exists ([ "z" ], atom "S" [ v "x"; v "z" ]) ))

let test_example2_minus () =
  let a = Gf.Syntax.analyze_sentence example2_minus in
  check "outer guard equality" true a.outer_eq;
  Alcotest.(check int) "depth 1" 1 a.body.depth

let test_not_guarded () =
  (* ∀xy (A(x) → B(y)) is not guarded. *)
  let f = F.Forall ([ "x"; "y" ], F.Implies (atom "A" [ v "x" ], atom "B" [ v "y" ])) in
  check "not uGF" false (Gf.Syntax.is_ugf_sentence f);
  check "not GF" false (Gf.Syntax.is_gf f)

let test_fragment_names () =
  let d = Gf.Fragment.make ~two_var:true ~outer_eq:true ~functions:true 2 in
  Alcotest.(check string) "name" "uGF-2(2,f)" (Gf.Fragment.name d);
  let c = Gf.Fragment.make ~counting:true ~two_var:true ~outer_eq:true ~equality:true 1 in
  Alcotest.(check string) "name uGC" "uGC-2(1,=)" (Gf.Fragment.name c)

let test_fragment_of_ontology () =
  match Gf.Fragment.of_ontology o_hand_five with
  | None -> Alcotest.fail "O1 should be in uGC2"
  | Some d ->
      check "counting" true d.counting;
      check "two var" true d.two_var;
      check "outer eq" true d.outer_eq;
      Alcotest.(check int) "depth 1" 1 d.depth

let test_fragment_rejects_non_ugf () =
  check "OMat/PTime outside uGF" true
    (Gf.Fragment.of_ontology o_mat_ptime = None)

let test_subsumes () =
  let small = Gf.Fragment.make ~two_var:true ~outer_eq:true 1 in
  let big = Gf.Fragment.make ~two_var:false ~outer_eq:false 2 in
  check "subsumes" true (Gf.Fragment.subsumes big small);
  check "not conversely" false (Gf.Fragment.subsumes small big)

(* ---------------------------------------------------------------- *)
(* Invariance under disjoint unions (Theorem 1 / Example 1)          *)
(* ---------------------------------------------------------------- *)

let test_invariance_ugf () =
  (* uGF sentences are invariant; random search finds no counterexample *)
  check "example2 invariant" true (Gf.Invariance.appears_invariant example2);
  check "o_disj invariant" true
    (List.for_all Gf.Invariance.appears_invariant
       (Logic.Ontology.sentences o_disj))

let test_invariance_mat_ptime () =
  (* OMat/PTime = ∀x A(x) ∨ ∀x B(x): D1 = {A(a)}, D2 = {B(b)} are models
     but their disjoint union is not (Example 1). *)
  let s = List.hd (Logic.Ontology.sentences o_mat_ptime) in
  let d1 = inst [ ("A", [ "a" ]) ] and d2 = inst [ ("B", [ "b" ]) ] in
  (match Gf.Invariance.check_pair s d1 d2 with
  | Some cex ->
      check "left model" true cex.holds_left;
      check "right model" true cex.holds_right;
      check "union refutes" false cex.holds_union
  | None -> Alcotest.fail "expected a violation");
  check "random search finds it too" false (Gf.Invariance.appears_invariant s)

let test_invariance_ucq_cq () =
  (* OUCQ/CQ does not reflect disjoint unions: {E(a)} ∪ {F(b)} is a model
     but {F(b)} is not. *)
  let s = List.hd (Logic.Ontology.sentences o_ucq_cq) in
  let d1 = inst [ ("E", [ "a" ]) ] and d2 = inst [ ("F", [ "b" ]) ] in
  match Gf.Invariance.check_pair s d1 d2 with
  | Some cex ->
      check "left holds" true cex.holds_left;
      check "right fails" false cex.holds_right;
      check "union holds" true cex.holds_union
  | None -> Alcotest.fail "expected a reflection failure"

(* ---------------------------------------------------------------- *)
(* Scott-style depth reduction                                       *)
(* ---------------------------------------------------------------- *)

(* A depth-3 uGF2 sentence. *)
let deep_sentence =
  forall_eq "x"
    (F.Implies
       ( atom "A" [ v "x" ],
         F.Exists
           ( [ "y" ],
             F.And
               ( atom "R" [ v "x"; v "y" ],
                 F.Exists
                   ( [ "x" ],
                     F.And
                       ( atom "R" [ v "y"; v "x" ],
                         F.Exists ([ "y" ], F.And (atom "R" [ v "x"; v "y" ], atom "B" [ v "y" ]))
                       ) ) ) ) ))

let test_scott_reduces_depth () =
  let o = Logic.Ontology.make [ deep_sentence ] in
  Alcotest.(check int) "original depth 3" 3
    (Gf.Syntax.sentence_depth deep_sentence);
  let o' = Gf.Scott.reduce_ontology o in
  List.iter
    (fun s ->
      check "reduced sentence is uGF" true (Gf.Syntax.is_ugf_sentence s);
      check "depth <= 1" true (Gf.Syntax.sentence_depth s <= 1))
    (Logic.Ontology.sentences o');
  check "more sentences" true
    (List.length (Logic.Ontology.sentences o') > 1)

let test_scott_conservative () =
  (* Consistency of instances is preserved by the reduction (conservative
     extension ⇒ equisatisfiable with data). *)
  let o = Logic.Ontology.make [ deep_sentence ] in
  let o' = Gf.Scott.reduce_ontology o in
  let instances =
    [
      inst [ ("A", [ "a" ]) ];
      inst [ ("A", [ "a" ]); ("R", [ "a"; "b" ]) ];
      inst [ ("B", [ "b" ]) ];
    ]
  in
  List.iter
    (fun d ->
      let c = Deepen.is_consistent ~max_extra:3 o d in
      let c' = Deepen.is_consistent ~max_extra:3 o' d in
      check "consistency agrees" c c')
    instances

let suite =
  [
    Alcotest.test_case "example2" `Quick test_example2;
    Alcotest.test_case "example2_minus" `Quick test_example2_minus;
    Alcotest.test_case "not_guarded" `Quick test_not_guarded;
    Alcotest.test_case "fragment_names" `Quick test_fragment_names;
    Alcotest.test_case "fragment_of_ontology" `Quick test_fragment_of_ontology;
    Alcotest.test_case "fragment_rejects_non_ugf" `Quick test_fragment_rejects_non_ugf;
    Alcotest.test_case "subsumes" `Quick test_subsumes;
    Alcotest.test_case "invariance_ugf" `Quick test_invariance_ugf;
    Alcotest.test_case "invariance_mat_ptime" `Quick test_invariance_mat_ptime;
    Alcotest.test_case "invariance_ucq_cq" `Quick test_invariance_ucq_cq;
    Alcotest.test_case "scott_reduces_depth" `Quick test_scott_reduces_depth;
    Alcotest.test_case "scott_conservative" `Quick test_scott_conservative;
  ]
