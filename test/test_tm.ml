let check = Alcotest.(check bool)

(* ---------------------------------------------------------------- *)
(* Machines and run fitting                                          *)
(* ---------------------------------------------------------------- *)

let test_machine_step () =
  let m = Tm.Machine.find_a in
  let c0 = Tm.Machine.initial m [ "b"; "a" ] ~length:4 in
  let succs = Tm.Machine.successors m c0 in
  Alcotest.(check int) "one successor" 1 (List.length succs);
  let c1 = List.hd succs in
  check "moved right" true (c1.Tm.Machine.head = 1);
  let c2 = List.hd (Tm.Machine.successors m c1) in
  check "accepting" true (Tm.Machine.is_accepting m c2)

let test_fitting_basic () =
  let m = Tm.Machine.find_a in
  (* q0 b a -> b q0 a -> b a qa : three configurations of length 3 *)
  let pr = Tm.Fitting.parse m [ "q0 b a"; "? ? ?"; "? ? ?" ] in
  check "fits" true (Tm.Fitting.fits m pr);
  (* no accepting 2-step run on pure 'b' input *)
  let pr2 = Tm.Fitting.parse m [ "q0 b b"; "? ? ?"; "? ? ?" ] in
  check "no fit on b's" false (Tm.Fitting.fits m pr2);
  (* wildcards in the start row: an accepting run exists for some input *)
  let pr3 = Tm.Fitting.parse m [ "q0 ? ?"; "? ? ?"; "? ? ?" ] in
  check "wildcard start fits" true (Tm.Fitting.fits m pr3)

let test_fitting_constrains_middle () =
  let m = Tm.Machine.find_a in
  (* force the middle configuration to still be in q0 at position 1 *)
  let pr = Tm.Fitting.parse m [ "q0 ? ?"; "? q0 ?"; "? ? ?" ] in
  check "fits through constrained middle" true (Tm.Fitting.fits m pr);
  (* an accepting state in the middle is impossible (no successors) *)
  let pr2 = Tm.Fitting.parse m [ "q0 ? ?"; "? qa ?"; "? ? ?" ] in
  check "accepting middle cannot continue" false (Tm.Fitting.fits m pr2)

let test_fitting_nondeterministic () =
  let m = Tm.Machine.guess_parity in
  (* 1 1 _ : two ones, even, acceptable in 3 steps *)
  let pr = Tm.Fitting.parse m [ "q0 1 1 _"; "? ? ? ?"; "? ? ? ?"; "? ? ? ?" ] in
  check "even parity accepted" true (Tm.Fitting.fits m pr)

let test_fitting_solution_is_run () =
  let m = Tm.Machine.find_a in
  let pr = Tm.Fitting.parse m [ "q0 b a"; "? ? ?"; "? ? ?" ] in
  match Tm.Fitting.solve m pr with
  | None -> Alcotest.fail "expected a run"
  | Some run ->
      Alcotest.(check int) "run length" 3 (List.length run);
      (* consecutive configurations are in the step relation *)
      let rec steps_ok = function
        | a :: (b :: _ as rest) ->
            List.exists
              (fun c -> c = b)
              (Tm.Machine.successors m a)
            && steps_ok rest
        | _ -> true
      in
      check "successor steps" true (steps_ok run);
      check "matches rows" true
        (List.for_all2 (fun c pc -> Tm.Fitting.matches c pc) run pr)

(* ---------------------------------------------------------------- *)
(* Ladner scaffolding                                                *)
(* ---------------------------------------------------------------- *)

let test_h_function () =
  (* if machine 0 decides the oracle exactly, H is constantly 0 *)
  let oracle s = String.length s mod 2 = 0 in
  let enumeration i s = if i = 0 then oracle s else false in
  List.iter
    (fun n -> Alcotest.(check int) "H = 0" 0 (Tm.Ladner.h_function ~enumeration ~oracle n))
    [ 4; 16; 64; 256 ];
  check "eventually constant" true
    (Tm.Ladner.eventually_constant ~enumeration ~oracle ~up_to:40 ());
  (* if no machine agrees, H grows with the bound log log n *)
  let bad_enumeration _ _ = false in
  let h1 = Tm.Ladner.h_function ~enumeration:bad_enumeration ~oracle 16 in
  let h2 = Tm.Ladner.h_function ~enumeration:bad_enumeration ~oracle 65536 in
  check "H grows" true (h2 > h1)

let test_padding () =
  Alcotest.(check int) "n^1" 5 (Tm.Ladner.padded_input_length ~h:1 5);
  Alcotest.(check int) "n^2" 25 (Tm.Ladner.padded_input_length ~h:2 5)

(* ---------------------------------------------------------------- *)
(* Tiling                                                            *)
(* ---------------------------------------------------------------- *)

let test_tiling_solver () =
  check "trivial solvable" true (Tm.Tiling.admits_tiling Tm.Tiling.trivial);
  check "unsolvable" false (Tm.Tiling.admits_tiling Tm.Tiling.unsolvable);
  match Tm.Tiling.solve Tm.Tiling.trivial with
  | None -> Alcotest.fail "expected a tiling"
  | Some f -> check "valid" true (Tm.Tiling.valid Tm.Tiling.trivial f)

let test_grid_instance () =
  let f = Option.get (Tm.Tiling.solve_fixed Tm.Tiling.trivial 2 2) in
  let d = Tm.Tiling.grid_instance f in
  (* 3x3 nodes, 2*3 X edges + 3*2 Y edges + 9 labels *)
  Alcotest.(check int) "fact count" 21 (Structure.Instance.cardinal d);
  let corner = Structure.Element.Const "g_0_0" in
  check "grid holds at corner" true (Tm.Gridenc.grid_holds Tm.Tiling.trivial d corner);
  check "grid fails elsewhere" false
    (Tm.Gridenc.grid_holds Tm.Tiling.trivial d (Structure.Element.Const "g_1_1"));
  check "cell holds at corner" true (Tm.Gridenc.cell_holds d corner);
  check "cell holds at interior" true
    (Tm.Gridenc.cell_holds d (Structure.Element.Const "g_1_1"));
  check "cell fails at top" false
    (Tm.Gridenc.cell_holds d (Structure.Element.Const "g_0_2"))

let test_grid_closure () =
  (* a stray X edge out of the grid breaks grid(d) *)
  let f = Option.get (Tm.Tiling.solve_fixed Tm.Tiling.trivial 1 1) in
  let d = Tm.Tiling.grid_instance f in
  let corner = Structure.Element.Const "g_0_0" in
  check "clean grid holds" true (Tm.Gridenc.grid_holds Tm.Tiling.trivial d corner);
  let broken =
    Structure.Instance.add_fact
      (Structure.Instance.fact "X"
         [ Structure.Element.Const "g_1_1"; Structure.Element.Const "stray" ])
      d
  in
  check "stray edge breaks closure" false
    (Tm.Gridenc.grid_holds Tm.Tiling.trivial broken corner)

(* ---------------------------------------------------------------- *)
(* The grid ontologies                                               *)
(* ---------------------------------------------------------------- *)

let test_ontology_shape () =
  let oc = Tm.Gridenc.ontology_cell in
  Alcotest.(check int) "Ocell depth 2" 2 (Dl.Tbox.depth oc);
  check "inside ALCHIF family (no Q)" true (Dl.Tbox.within_alchif oc);
  let features = Dl.Tbox.features oc in
  check "uses inverses" true features.Dl.Tbox.i;
  check "uses local functionality" true features.Dl.Tbox.f_local;
  let op = Tm.Gridenc.ontology_p Tm.Tiling.trivial in
  Alcotest.(check int) "OP depth 2" 2 (Dl.Tbox.depth op);
  (* translation lands in uGC2 *)
  match Gf.Fragment.of_ontology (Dl.Translate.tbox op) with
  | None -> Alcotest.fail "OP should translate into uGC2"
  | Some d -> check "two-variable with counting" true (d.two_var && d.counting)

let suite =
  [
    Alcotest.test_case "machine_step" `Quick test_machine_step;
    Alcotest.test_case "fitting_basic" `Quick test_fitting_basic;
    Alcotest.test_case "fitting_constrains_middle" `Quick test_fitting_constrains_middle;
    Alcotest.test_case "fitting_nondeterministic" `Quick test_fitting_nondeterministic;
    Alcotest.test_case "fitting_solution_is_run" `Quick test_fitting_solution_is_run;
    Alcotest.test_case "h_function" `Quick test_h_function;
    Alcotest.test_case "padding" `Quick test_padding;
    Alcotest.test_case "tiling_solver" `Quick test_tiling_solver;
    Alcotest.test_case "grid_instance" `Quick test_grid_instance;
    Alcotest.test_case "grid_closure" `Quick test_grid_closure;
    Alcotest.test_case "ontology_shape" `Quick test_ontology_shape;
  ]

(* ---------------------------------------------------------------- *)
(* Semantics of the grid ontologies (Theorem 10), bounded engine     *)
(* ---------------------------------------------------------------- *)

let corner = Structure.Element.Const "g_0_0"

let test_ocell_marks_cells () =
  (* On a 2x2 grid, (=1P) is certain exactly at lower-left corners of
     closed cells. *)
  let f = Option.get (Tm.Tiling.solve_fixed Tm.Tiling.trivial 1 1) in
  let d = Tm.Tiling.grid_instance f in
  let o = Dl.Translate.tbox Tm.Gridenc.ontology_cell in
  let pform = Dl.Translate.concept_formula (Tm.Gridenc.eq_one "P") "x" in
  let certain_at el =
    Helpers.Deepen.certain_formula ~max_extra:0
      ~env:(Logic.Names.SMap.singleton "x" el)
      o d pform
  in
  check "certain at the cell corner" true (certain_at corner);
  check "matches cell(d)" true (Tm.Gridenc.cell_holds d corner);
  check "not certain at the top-left" false
    (certain_at (Structure.Element.Const "g_0_1"));
  check "matches cell(d) there too" false
    (Tm.Gridenc.cell_holds d (Structure.Element.Const "g_0_1"))

let test_op_triggers_disjunction () =
  (* Theorem 10: on a properly tiled grid, OP ∪ {acc ⊑ B1 ⊔ B2} entails
     B1 ∨ B2 at the corner with neither disjunct certain — the
     non-materializability trigger. *)
  let p = Tm.Tiling.trivial in
  let f = Option.get (Tm.Tiling.solve_fixed p 1 0) in
  let d = Tm.Tiling.grid_instance f in
  let o = Dl.Translate.tbox (Tm.Gridenc.ontology_undecidability p) in
  let qb1 = Helpers.cq ~name:"qb1" ~answer:[ "x" ] [ ("B1", [ Logic.Term.Var "x" ]) ] in
  let qb2 = Helpers.cq ~name:"qb2" ~answer:[ "x" ] [ ("B2", [ Logic.Term.Var "x" ]) ] in
  check "consistent" true (Helpers.Deepen.is_consistent ~max_extra:0 o d);
  check "grid(d) holds" true (Tm.Gridenc.grid_holds p d corner);
  check "B1 or B2 certain" true
    (Helpers.Deepen.certain_disjunction ~max_extra:0 o d
       [ (qb1, [ corner ]); (qb2, [ corner ]) ]);
  check "B1 alone not certain" false
    (Helpers.Deepen.certain_cq ~max_extra:0 o d qb1 [ corner ]);
  check "B2 alone not certain" false
    (Helpers.Deepen.certain_cq ~max_extra:0 o d qb2 [ corner ])

let test_op_ignores_broken_grids () =
  (* Mislabel the grid (no initial tile): the verification never
     completes, so no disjunction is triggered. *)
  let p = Tm.Tiling.trivial in
  let d =
    Helpers.inst
      [ ("B", [ "g_0_0" ]); ("F", [ "g_1_0" ]); ("X", [ "g_0_0"; "g_1_0" ]) ]
  in
  let o = Dl.Translate.tbox (Tm.Gridenc.ontology_undecidability p) in
  let qb1 = Helpers.cq ~name:"qb1" ~answer:[ "x" ] [ ("B1", [ Logic.Term.Var "x" ]) ] in
  let qb2 = Helpers.cq ~name:"qb2" ~answer:[ "x" ] [ ("B2", [ Logic.Term.Var "x" ]) ] in
  check "grid(d) fails" false (Tm.Gridenc.grid_holds p d corner);
  check "no disjunction certain" false
    (Helpers.Deepen.certain_disjunction ~max_extra:0 o d
       [ (qb1, [ corner ]); (qb2, [ corner ]) ])

let suite =
  suite
  @ [
      Alcotest.test_case "ocell_marks_cells" `Quick test_ocell_marks_cells;
      Alcotest.test_case "op_triggers_disjunction" `Quick test_op_triggers_disjunction;
      Alcotest.test_case "op_ignores_broken_grids" `Quick test_op_ignores_broken_grids;
    ]

let test_lemma4_ontology () =
  (* The Lemma 4 ontology O_M: ALCIFl-shaped, depth 2, with the
     (≥2 ·) run-cell markers for every state and symbol. *)
  let m = Tm.Machine.find_a in
  let om = Tm.Gridenc.ontology_m m in
  Alcotest.(check int) "depth 2" 2 (Dl.Tbox.depth om);
  let f = Dl.Tbox.features om in
  check "inverse roles" true f.Dl.Tbox.i;
  check "local functionality" true f.Dl.Tbox.f_local;
  check "counting markers" true f.Dl.Tbox.q;
  (* a transition axiom exists for every (state, read) pair of delta *)
  List.iter
    (fun (tr : Tm.Machine.transition) ->
      let marker = "St_" ^ tr.Tm.Machine.from_state in
      check
        (Printf.sprintf "axiom mentions %s" marker)
        true
        (List.exists
           (fun ax ->
             match ax with
             | Dl.Tbox.Sub (c, _) ->
                 List.exists
                   (fun r -> Dl.Concept.role_name r = marker ^ "_X1")
                   (Dl.Concept.roles c)
             | _ -> false)
           om))
    m.Tm.Machine.delta;
  (* and the accepting state triggers the disjunction *)
  check "accepting trigger" true
    (List.exists
       (function
         | Dl.Tbox.Sub (_, Dl.Concept.Or (Dl.Concept.Atomic "B1", Dl.Concept.Atomic "B2")) -> true
         | _ -> false)
       om)

let suite =
  suite @ [ Alcotest.test_case "lemma4_ontology" `Quick test_lemma4_ontology ]
