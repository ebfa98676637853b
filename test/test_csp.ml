open Helpers

let check = Alcotest.(check bool)

let graph edges = inst (List.map (fun (a, b) -> ("E", [ a; b ])) edges)

(* Undirected graph: symmetric closure. *)
let ugraph edges =
  graph (List.concat_map (fun (a, b) -> [ (a, b); (b, a) ]) edges)

let square = ugraph [ ("a", "b"); ("b", "c"); ("c", "d"); ("d", "a") ]
let triangle = ugraph [ ("a", "b"); ("b", "c"); ("c", "a") ]

let test_coloring () =
  let k2 = Csp.Template.k_colouring 2 and k3 = Csp.Template.k_colouring 3 in
  check "square 2-colorable" true (Csp.Solve.solvable k2 square);
  check "triangle not 2-colorable" false (Csp.Solve.solvable k2 triangle);
  check "triangle 3-colorable" true (Csp.Solve.solvable k3 triangle);
  (* odd cycle of length 5 *)
  let c5 =
    ugraph [ ("1", "2"); ("2", "3"); ("3", "4"); ("4", "5"); ("5", "1") ]
  in
  check "C5 not 2-colorable" false (Csp.Solve.solvable k2 c5);
  check "C5 3-colorable" true (Csp.Solve.solvable k3 c5)

let test_solver_vs_hom =
  QCheck.Test.make ~name:"AC3 solver agrees with hom search" ~count:40
    QCheck.(int_bound 100000)
    (fun seed ->
      let signature = Logic.Signature.of_list [ ("E", 2) ] in
      let rng = Random.State.make [| seed |] in
      let d = Structure.Randgen.instance ~rng ~signature ~size:4 ~p:0.3 in
      let k = 2 + Random.State.int rng 2 in
      let t = Csp.Template.k_colouring k in
      Bool.equal (Csp.Solve.solvable t d) (Oracle.csp_solvable t d))

let test_solution_is_hom () =
  let k3 = Csp.Template.k_colouring 3 in
  match Csp.Solve.solve k3 triangle with
  | None -> Alcotest.fail "triangle is 3-colorable"
  | Some m ->
      check "solution is a homomorphism" true
        (Structure.Homomorphism.is_homomorphism m ~source:triangle
           ~target:k3.Csp.Template.instance)

let test_precoloring () =
  let k2 = Csp.Precolor.closure (Csp.Template.k_colouring 2) in
  (* pin both endpoints of an edge to the same color: unsolvable *)
  let d = graph [ ("a", "b") ] in
  let col0 = e "col0" in
  let pinned = Csp.Precolor.pin (e "a") col0 (Csp.Precolor.pin (e "b") col0 d) in
  check "conflicting pins unsolvable" false (Csp.Solve.solvable k2 pinned);
  let col1 = e "col1" in
  let ok = Csp.Precolor.pin (e "a") col0 (Csp.Precolor.pin (e "b") col1 d) in
  check "distinct pins fine" true (Csp.Solve.solvable k2 ok)

(* ---------------------------------------------------------------- *)
(* Theorem 8 encodings                                               *)
(* ---------------------------------------------------------------- *)

let test_encoding_fragment () =
  let t = Csp.Precolor.closure (Csp.Template.k_colouring 2) in
  let o_eq = Csp.Encode.ontology ~variant:Csp.Encode.Eq t in
  (match Gf.Fragment.of_ontology o_eq with
  | None -> Alcotest.fail "Eq encoding should be uGF2(1,=)"
  | Some d ->
      check "two var" true d.two_var;
      check "equality" true d.equality;
      Alcotest.(check int) "depth 1" 1 d.depth;
      check "no counting" false d.counting);
  let o_fl = Csp.Encode.ontology ~variant:Csp.Encode.Alcfl t in
  match Gf.Fragment.of_ontology o_fl with
  | None -> Alcotest.fail "Alcfl encoding should be uGC2"
  | Some d -> check "counting" true d.counting

(* The correctness of the encoding: D → A iff O,D′ is consistent. We
   test on K2 with small graphs for all three variants. *)
let encoding_agrees variant d =
  let t = Csp.Precolor.closure (Csp.Template.k_colouring 2) in
  let o = Csp.Encode.ontology ~variant t in
  let d' = Csp.Encode.lift_instance t d in
  let csp_yes = Csp.Solve.solvable t d in
  let consistent = Deepen.is_consistent ~max_extra:3 o d' in
  Bool.equal csp_yes consistent

let test_encoding_correct_eq () =
  check "square maps" true (encoding_agrees Csp.Encode.Eq square);
  check "triangle does not" true (encoding_agrees Csp.Encode.Eq triangle)

let test_encoding_correct_alcfl () =
  check "square maps" true (encoding_agrees Csp.Encode.Alcfl square);
  check "triangle does not" true (encoding_agrees Csp.Encode.Alcfl triangle)

let test_encoding_correct_func () =
  check "edge maps" true (encoding_agrees Csp.Encode.Func (ugraph [ ("a", "b") ]));
  check "triangle does not" true (encoding_agrees Csp.Encode.Func triangle)

let test_encoding_with_pins () =
  let t = Csp.Precolor.closure (Csp.Template.k_colouring 2) in
  let d = graph [ ("a", "b") ] in
  let bad = Csp.Precolor.pin (e "a") (e "col0") (Csp.Precolor.pin (e "b") (e "col0") d) in
  check "pinned conflict propagates" true
    (Bool.equal (Csp.Solve.solvable t bad)
       (Deepen.is_consistent ~max_extra:3
          (Csp.Encode.ontology t)
          (Csp.Encode.lift_instance t bad)))

let test_consistency_reduct_roundtrip () =
  (* D• recovers the pins from the marker edges. *)
  let t = Csp.Precolor.closure (Csp.Template.k_colouring 2) in
  let d = Csp.Precolor.pin (e "a") (e "col0") (graph [ ("a", "b") ]) in
  let d' = Csp.Encode.lift_instance t d in
  let reduct = Csp.Encode.consistency_reduct t d' in
  check "pin recovered" true
    (Structure.Instance.mem
       (Structure.Instance.fact (Csp.Precolor.predicate (e "col0")) [ e "a" ])
       reduct);
  check "solvable" true (Csp.Solve.solvable t reduct)

let suite =
  [
    Alcotest.test_case "coloring" `Quick test_coloring;
    QCheck_alcotest.to_alcotest test_solver_vs_hom;
    Alcotest.test_case "solution_is_hom" `Quick test_solution_is_hom;
    Alcotest.test_case "precoloring" `Quick test_precoloring;
    Alcotest.test_case "encoding_fragment" `Quick test_encoding_fragment;
    Alcotest.test_case "encoding_correct_eq" `Quick test_encoding_correct_eq;
    Alcotest.test_case "encoding_correct_alcfl" `Quick test_encoding_correct_alcfl;
    Alcotest.test_case "encoding_correct_func" `Quick test_encoding_correct_func;
    Alcotest.test_case "encoding_with_pins" `Quick test_encoding_with_pins;
    Alcotest.test_case "consistency_reduct" `Quick test_consistency_reduct_roundtrip;
  ]
