open Helpers
module C = Dl.Concept

let check = Alcotest.(check bool)

let test_depth () =
  (* Example 3: ∃S.A ⊑ ∀R.∃S.B has depth 2. *)
  let lhs = C.Exists (C.Name "S", C.Atomic "A") in
  let rhs = C.Forall (C.Name "R", C.Exists (C.Name "S", C.Atomic "B")) in
  Alcotest.(check int) "depth 2" 2 (Dl.Tbox.depth [ Dl.Tbox.Sub (lhs, rhs) ])

let test_name () =
  let t =
    [
      Dl.Tbox.Sub (C.Atomic "A", C.AtLeast (2, C.Name "R", C.Atomic "B"));
      Dl.Tbox.RoleSub (C.Name "R", C.Name "S");
      Dl.Tbox.Sub (C.Atomic "A", C.Exists (C.Inv "R", C.Top));
    ]
  in
  Alcotest.(check string) "ALCHIQ" "ALCHIQ" (Dl.Tbox.name t);
  check "within ALCHIQ" true (Dl.Tbox.within_alchiq t);
  check "not within ALCHIF" false (Dl.Tbox.within_alchif t)

let test_parser_roundtrip () =
  let text =
    {|# the hand ontology
Hand << == 5 hasFinger
Hand << exists hasFinger . Thumb
role hasFinger << hasPart
func hasFinger-
|}
  in
  let t = Dl.Parser.parse_tbox text in
  Alcotest.(check int) "four axioms" 4 (List.length t);
  check "has func inverse" true
    (List.exists (function Dl.Tbox.Func (C.Inv "hasFinger") -> true | _ -> false) t)

let test_parser_concepts () =
  let c = Dl.Parser.parse_concept "not A and (B or exists r . Top)" in
  (* 'not' binds tightest: (not A) and (B or exists r.Top) *)
  match c with
  | C.And (C.Not (C.Atomic "A"), C.Or (C.Atomic "B", C.Exists (C.Name "r", C.Top))) -> ()
  | _ -> Alcotest.failf "unexpected parse: %s" (C.to_string c)

let test_parser_errors () =
  check "lex error" true
    (try
       ignore (Dl.Parser.parse_tbox "A << %");
       false
     with Dl.Lexer.Lex_error _ -> true);
  check "parse error" true
    (try
       ignore (Dl.Parser.parse_tbox "A <<");
       false
     with Dl.Parser.Parse_error _ -> true)

(* Translation agrees with direct DL semantics on random interpretations. *)
let test_translation_semantics =
  QCheck.Test.make ~name:"translation matches DL semantics" ~count:40
    QCheck.(int_bound 1000)
    (fun seed ->
      let signature =
        Logic.Signature.of_list [ ("A", 1); ("B", 1); ("R", 2) ]
      in
      let rng = Random.State.make [| seed |] in
      let i = Structure.Randgen.instance ~rng ~signature ~size:3 ~p:0.4 in
      let concepts =
        [
          C.Exists (C.Name "R", C.Atomic "A");
          C.Forall (C.Name "R", C.Or (C.Atomic "A", C.Atomic "B"));
          C.AtLeast (2, C.Name "R", C.Top);
          C.AtMost (1, C.Name "R", C.Atomic "A");
          C.Exists (C.Inv "R", C.Atomic "B");
          C.Not (C.Exists (C.Name "R", C.Not (C.Atomic "A")));
        ]
      in
      List.for_all
        (fun cpt ->
          let f = Dl.Translate.concept_formula cpt "x" in
          let ext = Dl.Semantics.extension i cpt in
          Structure.Element.Set.for_all
            (fun el ->
              let env = Structure.Modelcheck.env_of_list [ ("x", el) ] in
              Bool.equal
                (Structure.Element.Set.mem el ext)
                (Structure.Modelcheck.eval i env f))
            (Structure.Instance.domain i))
        concepts)

let test_axiom_translation =
  QCheck.Test.make ~name:"axiom translation matches DL model relation"
    ~count:40
    QCheck.(int_bound 1000)
    (fun seed ->
      let signature = Logic.Signature.of_list [ ("A", 1); ("B", 1); ("R", 2); ("S", 2) ] in
      let rng = Random.State.make [| seed |] in
      let i = Structure.Randgen.instance ~rng ~signature ~size:3 ~p:0.4 in
      let tboxes =
        [
          [ Dl.Tbox.Sub (C.Atomic "A", C.Exists (C.Name "R", C.Atomic "B")) ];
          [ Dl.Tbox.RoleSub (C.Name "R", C.Name "S") ];
          [ Dl.Tbox.Sub (C.AtLeast (2, C.Name "R", C.Top), C.Atomic "B") ];
        ]
      in
      List.for_all
        (fun t ->
          Bool.equal
            (Dl.Semantics.is_model i t)
            (Structure.Modelcheck.is_model i
               (Logic.Ontology.all_sentences (Dl.Translate.tbox t))))
        tboxes)

let test_translation_fragment () =
  (* Lemma 7: ALCHIQ depth 1 ontologies translate into uGC−2(1). *)
  let t =
    Dl.Parser.parse_tbox
      {|A << >= 2 R . B
role R << S
A << forall R- . B|}
  in
  Alcotest.(check int) "depth 1" 1 (Dl.Tbox.depth t);
  match Gf.Fragment.of_ontology (Dl.Translate.tbox t) with
  | None -> Alcotest.fail "expected a uGC2 ontology"
  | Some d ->
      check "outer eq" true d.outer_eq;
      check "two var" true d.two_var;
      check "depth <= 1" true (d.depth <= 1)

let test_normalize () =
  let t =
    Dl.Parser.parse_tbox
      "A << exists R . (exists S . (exists R . B))"
  in
  Alcotest.(check int) "depth 3" 3 (Dl.Tbox.depth t);
  let t' = Dl.Normalize.to_depth_one t in
  Alcotest.(check int) "normalised depth 1" 1 (Dl.Tbox.depth t');
  check "more axioms" true (List.length t' > List.length t);
  (* conservative: consistency of instances is preserved *)
  let d = inst [ ("A", [ "a" ]) ] in
  let c = Deepen.is_consistent ~max_extra:3 (Dl.Translate.tbox t) d in
  let c' = Deepen.is_consistent ~max_extra:3 (Dl.Translate.tbox t') d in
  check "consistency agrees" c c'

let test_nnf_concept =
  QCheck.Test.make ~name:"concept NNF preserves extension" ~count:30
    QCheck.(int_bound 1000)
    (fun seed ->
      let signature = Logic.Signature.of_list [ ("A", 1); ("R", 2) ] in
      let rng = Random.State.make [| seed |] in
      let i = Structure.Randgen.instance ~rng ~signature ~size:3 ~p:0.4 in
      let cs =
        [
          C.Not (C.Exists (C.Name "R", C.Atomic "A"));
          C.Not (C.AtLeast (2, C.Name "R", C.Atomic "A"));
          C.Not (C.And (C.Atomic "A", C.Not (C.Atomic "A")));
          C.Not (C.Forall (C.Name "R", C.Not (C.Atomic "A")));
        ]
      in
      List.for_all
        (fun cpt ->
          Structure.Element.Set.equal
            (Dl.Semantics.extension i cpt)
            (Dl.Semantics.extension i (C.nnf cpt)))
        cs)

let suite =
  [
    Alcotest.test_case "depth" `Quick test_depth;
    Alcotest.test_case "name" `Quick test_name;
    Alcotest.test_case "parser_roundtrip" `Quick test_parser_roundtrip;
    Alcotest.test_case "parser_concepts" `Quick test_parser_concepts;
    Alcotest.test_case "parser_errors" `Quick test_parser_errors;
    QCheck_alcotest.to_alcotest test_translation_semantics;
    QCheck_alcotest.to_alcotest test_axiom_translation;
    Alcotest.test_case "translation_fragment" `Quick test_translation_fragment;
    Alcotest.test_case "normalize" `Quick test_normalize;
    QCheck_alcotest.to_alcotest test_nnf_concept;
  ]
