(* Equivalence suite for the cost-based evaluation engine: on random
   instances the library's one join path (Relindex + Eval) must return
   exactly the answers of the naive reference matchers in [Oracle], at
   every layer that matches bodies through it — CQ evaluation,
   homomorphism enumeration, the chase, and semi-naive Datalog.
   Byte-identity matters: downstream consumers compare answer lists
   structurally. *)

open Helpers
module EMap = Structure.Element.Map
module SSet = Logic.Names.SSet

let signature =
  Logic.Signature.of_list [ ("R", 2); ("S", 2); ("A", 1); ("B", 1) ]

let rand_instance ?(size = 4) ?(p = 0.3) seed =
  let rng = Random.State.make [| seed |] in
  Structure.Randgen.nonempty_instance ~rng ~signature ~size ~p

(* A mix of shapes: joins, repeated variables, constants, boolean,
   full-arity answers, cartesian-ish bodies. *)
let cqs =
  [
    cq ~name:"q_join" ~answer:[ "x" ] [ ("R", [ v "x"; v "y" ]); ("A", [ v "y" ]) ];
    cq ~name:"q_path" ~answer:[ "x"; "y" ]
      [ ("R", [ v "x"; v "z" ]); ("S", [ v "z"; v "y" ]) ];
    cq ~name:"q_loop" ~answer:[] [ ("R", [ v "x"; v "x" ]) ];
    cq ~name:"q_cycle" ~answer:[ "x" ]
      [ ("R", [ v "x"; v "y" ]); ("R", [ v "y"; v "x" ]); ("B", [ v "x" ]) ];
    cq ~name:"q_const" ~answer:[ "x" ]
      [ ("A", [ v "x" ]); ("R", [ c "c0"; v "x" ]) ];
    cq ~name:"q_prod" ~answer:[ "x"; "y" ]
      [ ("A", [ v "x" ]); ("B", [ v "y" ]) ];
  ]

let test_cq_equiv =
  QCheck.Test.make ~name:"Cq.holds/answers: planner = naive" ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      let d = rand_instance seed in
      let dom = Structure.Instance.domain_list d in
      List.for_all
        (fun q ->
          let arity = List.length q.Query.Cq.answer in
          Query.Cq.answers d q = Oracle.cq_answers d q
          && List.for_all
               (fun t ->
                 Bool.equal (Query.Cq.holds d q t) (Oracle.cq_holds d q t))
               (Structure.Randgen.tuples dom arity))
        cqs)

let test_hom_equiv =
  QCheck.Test.make ~name:"Homomorphism.fold: planner = fold_naive oracle"
    ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let source =
        Structure.Randgen.nonempty_instance ~rng ~signature ~size:3 ~p:0.35
      in
      let target =
        Structure.Randgen.nonempty_instance ~rng ~signature ~size:4 ~p:0.35
      in
      let planner ?fixed () =
        Structure.Homomorphism.fold ?fixed ~source ~target
          (fun m acc -> (false, EMap.bindings m :: acc))
          []
        |> List.sort compare
      in
      let naive ?fixed () =
        Oracle.fold ?fixed ~source ~target
          (fun m acc -> (false, EMap.bindings m :: acc))
          []
        |> List.sort compare
      in
      let free_ok = planner () = naive () in
      (* Pin one source element to itself (it is also a target constant). *)
      let fixed_ok =
        match Structure.Instance.domain_list source with
        | e :: _ when Structure.Element.Set.mem e (Structure.Instance.domain target)
          ->
            let fixed = EMap.singleton e e in
            planner ~fixed () = naive ~fixed ()
        | _ -> true
      in
      free_ok && fixed_ok)

let chase_rules =
  [
    Reasoner.Chase.rule ~name:"exists"
      ~body:[ ("A", [ v "x" ]) ]
      ~head:[ ("R", [ v "x"; v "y" ]); ("B", [ v "y" ]) ]
      ();
    Reasoner.Chase.rule ~name:"compose"
      ~body:[ ("R", [ v "x"; v "y" ]); ("S", [ v "y"; v "z" ]) ]
      ~head:[ ("R", [ v "x"; v "z" ]) ]
      ();
    Reasoner.Chase.rule ~name:"mark"
      ~body:[ ("R", [ v "x"; v "y" ]); ("B", [ v "y" ]) ]
      ~head:[ ("A", [ v "x" ]) ]
      ();
  ]

(* [r] holds in [inst]: every oracle match of the body, projected onto
   the frontier (body variables that reach the head), extends to the
   head. *)
let satisfies inst (r : Reasoner.Chase.rule) =
  let head_vars = Query.Cq.variables (cq ~answer:[] r.head) in
  let frontier =
    SSet.elements
      (SSet.inter head_vars (Query.Cq.variables (cq ~answer:[] r.body)))
  in
  let head = cq ~answer:frontier r.head in
  List.for_all (Oracle.cq_holds inst head)
    (Oracle.cq_answers inst (cq ~answer:frontier r.body))

let test_chase_equiv =
  QCheck.Test.make ~name:"Chase.run: oracle-checked model" ~count:25
    QCheck.(int_bound 100_000)
    (fun seed ->
      let d = rand_instance ~size:3 ~p:0.35 seed in
      let r = Reasoner.Chase.run chase_rules d in
      let chased = r.Reasoner.Chase.instance in
      r.Reasoner.Chase.saturated
      && List.for_all
           (fun f -> Structure.Instance.mem f chased)
           (Structure.Instance.facts d)
      && List.for_all (satisfies chased) chase_rules)

let tc_program =
  Datalog.Program.make ~goal:"T"
    [
      Datalog.Program.rule
        ~head:("T", [ v "x"; v "y" ])
        ~body:[ Datalog.Program.Pos ("R", [ v "x"; v "y" ]) ];
      Datalog.Program.rule
        ~head:("T", [ v "x"; v "z" ])
        ~body:
          [
            Datalog.Program.Pos ("T", [ v "x"; v "y" ]);
            Datalog.Program.Pos ("R", [ v "y"; v "z" ]);
          ];
      (* inequality + constant exercise the non-join literal paths *)
      Datalog.Program.rule
        ~head:("T", [ v "x"; c "c0" ])
        ~body:
          [
            Datalog.Program.Pos ("A", [ v "x" ]);
            Datalog.Program.Neq (v "x", c "c0");
          ];
    ]

let test_seminaive_equiv =
  QCheck.Test.make ~name:"Seminaive.answers: planner = naive" ~count:25
    QCheck.(int_bound 100_000)
    (fun seed ->
      let d = rand_instance seed in
      let fixpoint = Oracle.datalog_fixpoint tc_program d in
      Datalog.Seminaive.answers tc_program d
      = List.sort_uniq
          (List.compare Structure.Element.compare)
          (Structure.Instance.tuples "T" fixpoint)
      && Structure.Instance.equal
           (Datalog.Seminaive.evaluate tc_program d)
           fixpoint)

(* Adaptive switchover: a small relation is always scanned; a larger one
   acquires a pattern hash table only after repeated probes. *)
let test_adaptive_switchover () =
  let big =
    List.init 40 (fun i -> ("R", [ "a" ^ string_of_int i; "b" ^ string_of_int (i mod 7) ]))
  in
  let small = List.init 5 (fun i -> ("S", [ "a0"; "b" ^ string_of_int i ])) in
  let d = inst (big @ small) in
  let idx = Structure.Relindex.build d in
  Alcotest.(check int) "fresh index has no tables" 0
    (Structure.Relindex.tables_built idx);
  let probe rel elem =
    let pat = [| Structure.Relindex.id_of idx elem; -1 |] in
    let n = ref 0 in
    Structure.Relindex.iter_matches idx rel ~pat (fun _ _ -> incr n);
    !n
  in
  (* Small relation: probe as often as we like, never pays for a table. *)
  for _ = 1 to 10 do
    ignore (probe "S" (e "a0"))
  done;
  Alcotest.(check int) "small relation stays scan-only" 0
    (Structure.Relindex.tables_built idx);
  (* Large relation: the first two probes scan, the third builds. *)
  ignore (probe "R" (e "a1"));
  ignore (probe "R" (e "a2"));
  Alcotest.(check int) "probes under cutoff still scan" 0
    (Structure.Relindex.tables_built idx);
  Alcotest.(check int) "lookup result" 1 (probe "R" (e "a3"));
  Alcotest.(check int) "third probe builds the hash table" 1
    (Structure.Relindex.tables_built idx);
  (* Answers must be identical either side of the switchover. *)
  Alcotest.(check int) "hash lookup result" 1 (probe "R" (e "a4"))

(* Plans are a pure function of atoms + statistics: planning twice gives
   the same JSON; the cached index is reused for the same instance. *)
let test_plan_deterministic () =
  let d = rand_instance 42 in
  let idx = Structure.Relindex.of_instance d in
  Alcotest.(check bool) "index cache hit" true
    (idx == Structure.Relindex.of_instance d);
  let atoms =
    [
      Structure.Eval.atom "R" [ Structure.Eval.Var 0; Structure.Eval.Var 1 ];
      Structure.Eval.atom "A" [ Structure.Eval.Var 1 ];
    ]
  in
  let explain plan = Obs.Json.render (Structure.Eval.explain_json plan) in
  let j1 = explain (Structure.Eval.make_plan idx atoms) in
  let j2 = explain (Structure.Eval.make_plan idx atoms) in
  Alcotest.(check string) "same plan twice" j1 j2;
  let j3 =
    explain (Structure.Eval.make_plan (Structure.Relindex.build d) atoms)
  in
  Alcotest.(check string) "fresh index, same plan" j1 j3

(* Incremental index refresh: an index obtained through a chain of
   [Relindex.update]s must answer every query exactly like a fresh
   build of the final instance (row order may differ — answers are
   compared as sets via the sorted [Cq.answers]). *)
let test_relindex_update_equiv =
  QCheck.Test.make ~name:"Relindex.update = fresh build" ~count:60
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let d0 = rand_instance seed in
      let idx = ref (Structure.Relindex.build d0) in
      let d = ref d0 in
      let ok = ref true in
      for _ = 1 to 5 do
        (* random small change over the already-interned domain *)
        let dom = Array.of_list (Structure.Instance.domain_list !d) in
        if Array.length dom > 0 then begin
          let el () = dom.(Random.State.int rng (Array.length dom)) in
          let cand =
            if Random.State.bool rng then
              Structure.Instance.fact "R" [ el (); el () ]
            else Structure.Instance.fact "A" [ el () ]
          in
          let added, removed, d' =
            if Structure.Instance.mem cand !d then
              ([], [ cand ], Structure.Instance.remove_fact cand !d)
            else ([ cand ], [], Structure.Instance.add_fact cand !d)
          in
          (* removal may vacate an element the update keeps interned —
             that is the documented behaviour, answers must not care *)
          match Structure.Relindex.update !idx ~added ~removed d' with
          | None -> ok := false
          | Some idx' ->
              idx := idx';
              d := d';
              let fresh = Structure.Relindex.build d' in
              ok :=
                !ok
                && Structure.Relindex.for_uid idx' = Structure.Instance.uid d'
                && List.for_all
                     (fun r ->
                       Structure.Relindex.cardinality idx' r
                       = Structure.Relindex.cardinality fresh r)
                     [ "R"; "S"; "A"; "B" ]
                && List.for_all
                     (fun q ->
                       Query.Cq.answers d' q = Oracle.cq_answers d' q)
                     cqs
        end
      done;
      !ok)

let test_randgen_large_deterministic () =
  let gen () =
    Structure.Randgen.large
      ~rng:(Random.State.make [| 7 |])
      ~nconst:50 ~nfacts:500 ()
  in
  let a = gen () and b = gen () in
  Alcotest.(check bool) "same seed, same instance" true
    (Structure.Instance.equal a b);
  let n = Structure.Instance.cardinal a in
  Alcotest.(check bool) "fact count in expected band" true
    (n > 400 && n < 600)

let suite =
  [
    QCheck_alcotest.to_alcotest test_cq_equiv;
    QCheck_alcotest.to_alcotest test_hom_equiv;
    QCheck_alcotest.to_alcotest test_chase_equiv;
    QCheck_alcotest.to_alcotest test_seminaive_equiv;
    Alcotest.test_case "adaptive_switchover" `Quick test_adaptive_switchover;
    Alcotest.test_case "plan_deterministic" `Quick test_plan_deterministic;
    QCheck_alcotest.to_alcotest test_relindex_update_equiv;
    Alcotest.test_case "randgen_large_deterministic" `Quick
      test_randgen_large_deterministic;
  ]
