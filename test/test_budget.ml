(* The resource governor: typed degradation and deterministic fault
   injection. The central property: tripping a budget at ANY
   cancellation point (a) surfaces as a typed outcome, never an escaped
   exception, and (b) never corrupts shared state — re-solving with the
   same (possibly cached, possibly mid-trip interrupted) sessions and no
   budget gives exactly the unbudgeted verdict. *)

open Helpers
module Budget = Reasoner.Budget

let check = Alcotest.check
let element = Alcotest.testable Structure.Element.pp Structure.Element.equal
let answers = Alcotest.(list (list element))

(* A disjunctive workload: every D-element is certainly A-or-B, so the
   UCQ has three answers and the SAT core does real case splitting. *)
let omq_disj =
  Omq.make o_disj (Query.Parse.ucq_of_string "q(x) <- A(x) | q(x) <- B(x)")

let d_disj = inst [ ("D", [ "a" ]); ("D", [ "b" ]); ("A", [ "c" ]) ]

let eval budget =
  Omq.certain_answers_within budget ~max_extra:1 omq_disj d_disj

let fresh_expected () =
  Reasoner.Engine.clear_cache ();
  Omq.certain_answers ~max_extra:1 omq_disj d_disj

let subset_of ~expected certified =
  List.for_all (fun t -> List.mem t expected) certified

(* --------------------------------------------------------------- *)

let test_unbudgeted_unchanged () =
  let expected = fresh_expected () in
  check Alcotest.bool "has answers" true (expected <> []);
  Reasoner.Engine.clear_cache ();
  match eval Budget.unlimited with
  | `Ok a -> check answers "unlimited budget = plain run" expected a
  | `Timeout _ | `Out_of_fuel _ -> Alcotest.fail "unlimited budget tripped"

let test_observer_counts () =
  Reasoner.Engine.clear_cache ();
  let obs = Budget.observer () in
  (match eval obs with
  | `Ok _ -> ()
  | _ -> Alcotest.fail "observer must never trip");
  check Alcotest.bool "workload passes checkpoints" true
    (Budget.checkpoints obs > 0);
  check Alcotest.int "unlimited never counts" 0
    (Budget.checkpoints Budget.unlimited)

(* THE sweep: inject exhaustion at every cancellation point the
   workload passes. Each injection must (a) produce a typed outcome
   whose certified tuples are sound, and (b) leave every shared
   structure (engine LRU cache, solver state, grounder tables) able to
   answer the unbudgeted query exactly. *)
let test_inject_everywhere () =
  let expected = fresh_expected () in
  Reasoner.Engine.clear_cache ();
  let obs = Budget.observer () in
  ignore (eval obs);
  let n = Budget.checkpoints obs in
  check Alcotest.bool "enough checkpoints to sweep" true (n > 10);
  for i = 0 to n - 1 do
    Reasoner.Engine.clear_cache ();
    let b = Budget.inject_after i in
    (match eval b with
    | `Ok a ->
        (* the trip can only be missed if caching shifted the path;
           the answer must still be exact *)
        check answers (Printf.sprintf "inject %d completed" i) expected a
    | `Timeout _ -> Alcotest.failf "inject %d tripped with Timeout" i
    | `Out_of_fuel p ->
        check Alcotest.bool
          (Printf.sprintf "inject %d: certified sound" i)
          true
          (subset_of ~expected p.Omq.Session.certified));
    (* session reuse AFTER the trip, without clearing the cache: the
       interrupted engines must answer like fresh ones *)
    let after = Omq.certain_answers ~max_extra:1 omq_disj d_disj in
    check answers
      (Printf.sprintf "inject %d: post-trip resolve exact" i)
      expected after
  done

(* Budget trips that landed inside a repair of the kept model: a
   [dpll.solve] span closed by the trip that carries the repair's
   [flips] attribute (a completed solve adds it on the normal path, a
   trip only from inside the repair). *)
let trips_in_repair = ref 0

let count_trips_in_repair trace =
  List.iter
    (fun (sp : Obs.Trace.span) ->
      if
        sp.name = "dpll.solve" && sp.status <> None
        && List.mem_assoc "flips" sp.attrs
      then incr trips_in_repair)
    (Obs.Trace.spans trace)

(* The same sweep on an updatable session after an insert: the insert
   replaces the solver's base, so trips land inside the base replant,
   inside solves running over the planted base and inside the repair
   of the kept model that answers the post-update eval. After every
   trip the same session, unbudgeted, must answer like the oracle. *)
let sweep_updatable omq d inserted =
  let d1 = Structure.Instance.add_fact inserted d in
  let expected =
    List.filter
      (fun t -> Bounded.certain_ucq ~max_extra:1 omq.Omq.ontology d1 omq.Omq.query t)
      (List.map (fun x -> [ x ]) (Structure.Instance.domain_list d1))
  in
  let updated () =
    let s = Omq.open_session ~max_extra:1 ~updatable:true omq d in
    ignore (Omq.Session.certain_answers s);
    match Omq.Session.insert_facts s [ inserted ] with
    | s, `Delta -> s
    | _, `Reopen -> Alcotest.fail "in-domain insert reopened"
  in
  let obs = Budget.observer () in
  ignore (Omq.Session.certain_answers_within obs (updated ()));
  let n = Budget.checkpoints obs in
  check Alcotest.bool "updated session passes checkpoints" true (n > 0);
  for i = 0 to n - 1 do
    let s = updated () in
    let outcome, trace =
      Obs.Trace.collect (fun () ->
          Omq.Session.certain_answers_within (Budget.inject_after i) s)
    in
    count_trips_in_repair trace;
    (match outcome with
    | `Ok a -> check answers (Printf.sprintf "inject %d completed" i) expected a
    | `Timeout _ -> Alcotest.failf "inject %d tripped with Timeout" i
    | `Out_of_fuel p ->
        check Alcotest.bool
          (Printf.sprintf "inject %d: certified sound" i)
          true
          (subset_of ~expected p.Omq.Session.certified));
    check answers
      (Printf.sprintf "inject %d: unbudgeted rerun matches the oracle" i)
      expected
      (Omq.Session.certain_answers s)
  done

(* The sweep seen from the solver: a dynamic engine answers every
   tuple, takes the insert (or the retraction), then answers again
   under the injected budget. After each trip the kept model must still
   satisfy every clause it is recorded to satisfy — a repair cut short
   undoes its flips — and the same engine, unbudgeted, must give a
   fresh engine's verdicts on the updated instance. *)
let sweep_engine omq d update =
  let o = omq.Omq.ontology and q = omq.Omq.query in
  let d1 =
    match update with
    | `Insert f -> Structure.Instance.add_fact f d
    | `Retract f -> Structure.Instance.remove_fact f d
  in
  let tuples = List.map (fun x -> [ x ]) (Structure.Instance.domain_list d) in
  let verdicts ?budget eng =
    List.map (fun t -> Reasoner.Engine.certain ?budget eng q t) tuples
  in
  let expected = verdicts (Reasoner.Engine.create ~extra:1 o d1) in
  let updated () =
    let eng = Reasoner.Engine.create ~dynamic:true ~extra:1 o d in
    ignore (verdicts eng);
    let delta =
      match update with
      | `Insert f -> Reasoner.Engine.insert_facts eng [ f ]
      | `Retract f -> Reasoner.Engine.retract_facts eng [ f ]
    in
    if delta <> `Delta then Alcotest.fail "in-domain update rebuilt";
    eng
  in
  let obs = Budget.observer () in
  ignore (verdicts ~budget:obs (updated ()));
  let n = Budget.checkpoints obs in
  check Alcotest.bool "updated engine passes checkpoints" true (n > 0);
  for i = 0 to n - 1 do
    let eng = updated () in
    let outcome, trace =
      Obs.Trace.collect (fun () ->
          match verdicts ~budget:(Budget.inject_after i) eng with
          | v -> Some v
          | exception Budget.Exhausted _ -> None)
    in
    count_trips_in_repair trace;
    Option.iter
      (check Alcotest.(list bool) (Printf.sprintf "inject %d completed" i) expected)
      outcome;
    check Alcotest.bool
      (Printf.sprintf "inject %d: kept model holds" i)
      true
      (Reasoner.Engine.kept_model_holds eng);
    check
      Alcotest.(list bool)
      (Printf.sprintf "inject %d: unbudgeted rerun matches a fresh engine" i)
      expected (verdicts eng);
    check Alcotest.bool
      (Printf.sprintf "inject %d: kept model holds after the rerun" i)
      true
      (Reasoner.Engine.kept_model_holds eng)
  done

let test_inject_everywhere_updatable () =
  trips_in_repair := 0;
  let dc = Structure.Instance.fact "D" [ e "c" ] in
  sweep_updatable omq_disj d_disj dc;
  (* R(x,y) ∧ B(y) → C(x) watches two base literals at once: C(a) is
     certain only if a replant interrupted by a trip is propagated on *)
  let omq_horn = Omq.make o_horn (Query.Parse.ucq_of_string "q(x) <- C(x)") in
  let d_horn = inst [ ("A", [ "a" ]); ("R", [ "a"; "b" ]) ] in
  sweep_updatable omq_horn d_horn (Structure.Instance.fact "B" [ e "b" ]);
  sweep_engine omq_disj d_disj (`Insert dc);
  sweep_engine omq_disj (Structure.Instance.add_fact dc d_disj) (`Retract dc);
  sweep_engine omq_horn d_horn (`Insert (Structure.Instance.fact "B" [ e "b" ]));
  check Alcotest.bool "trips landed inside a repair" true (!trips_in_repair > 0)

let test_inject_timeout_reason () =
  Reasoner.Engine.clear_cache ();
  match eval (Budget.inject_after ~reason:Budget.Timeout 5) with
  | `Timeout _ -> ()
  | `Ok _ -> Alcotest.fail "expected a trip"
  | `Out_of_fuel _ -> Alcotest.fail "expected a Timeout trip"

let test_expired_deadline () =
  Reasoner.Engine.clear_cache ();
  let trips0 = (Reasoner.Stats.global ()).Reasoner.Stats.budget_timeouts in
  (match eval (Budget.create ~timeout:0.0 ()) with
  | `Timeout p ->
      check Alcotest.bool "nothing certified under a dead deadline" true
        (p.Omq.Session.certified = [])
  | `Ok _ -> Alcotest.fail "a 0-second deadline must trip"
  | `Out_of_fuel _ -> Alcotest.fail "deadline trips are Timeout");
  check Alcotest.bool "timeout trip counted in stats" true
    ((Reasoner.Stats.global ()).Reasoner.Stats.budget_timeouts > trips0)

let test_fuel_exhaustion () =
  Reasoner.Engine.clear_cache ();
  let trips0 = (Reasoner.Stats.global ()).Reasoner.Stats.budget_fuel_trips in
  (match eval (Budget.create ~fuel:1 ()) with
  | `Out_of_fuel _ -> ()
  | `Ok _ -> Alcotest.fail "1 unit of fuel must not complete the eval"
  | `Timeout _ -> Alcotest.fail "fuel trips are Out_of_fuel");
  check Alcotest.bool "fuel trip counted in stats" true
    ((Reasoner.Stats.global ()).Reasoner.Stats.budget_fuel_trips > trips0)

let test_clause_cap () =
  Reasoner.Engine.clear_cache ();
  match eval (Budget.create ~max_clauses:5 ()) with
  | `Out_of_fuel _ -> ()
  | `Ok _ -> Alcotest.fail "a 5-clause cap must not fit the grounding"
  | `Timeout _ -> Alcotest.fail "clause-cap trips are Out_of_fuel"

(* --------------------------------------------------------------- *)
(* Engine.try_deepen: the typed deepening front reports completed
   bounds, and a trip leaves the cached sessions answering like the
   oracle. *)

let qa = cq ~answer:[ "x" ] [ ("A", [ v "x" ]) ]

let test_bounded_try () =
  let d = inst [ ("A", [ "a" ]) ] in
  let max_extra = 2 in
  let certain budget =
    Reasoner.Engine.try_deepen budget ~max_extra (fun k ->
        Reasoner.Engine.countermodel ~budget (Deepen.at ~budget o_disj d k)
          (Query.Ucq.of_cq qa) [ e "a" ])
  in
  let expected = Bounded.certain_cq ~max_extra o_disj d qa [ e "a" ] in
  Reasoner.Engine.clear_cache ();
  (match certain Budget.unlimited with
  | `Ok None -> ()
  | _ -> Alcotest.fail "A(a) is certain");
  (* sweep the deepening front from cold sessions: partial payloads
     are completed bounds, hence between 0 and max_extra+1 *)
  Reasoner.Engine.clear_cache ();
  let obs = Budget.observer () in
  ignore (certain obs);
  let n = Budget.checkpoints obs in
  check Alcotest.bool "deepening workload passes checkpoints" true (n > 0);
  for i = 0 to n - 1 do
    Reasoner.Engine.clear_cache ();
    (match certain (Budget.inject_after i) with
    | `Ok None -> ()
    | `Ok (Some _) -> Alcotest.failf "inject %d flipped the verdict" i
    | `Out_of_fuel k | `Timeout k ->
        check Alcotest.bool
          (Printf.sprintf "inject %d: completed bounds in range" i)
          true
          (k >= 0 && k <= max_extra + 1));
    match certain Budget.unlimited with
    | `Ok r ->
        check Alcotest.bool
          (Printf.sprintf "inject %d: unbudgeted rerun matches the oracle" i)
          expected (Option.is_none r)
    | `Out_of_fuel _ | `Timeout _ -> Alcotest.fail "unlimited budget tripped"
  done;
  Reasoner.Engine.clear_cache ()

(* --------------------------------------------------------------- *)
(* Chase: partial results are sound under-approximations. *)

let test_chase_try () =
  let rules =
    [
      Reasoner.Chase.rule ~name:"ab"
        ~body:[ ("A", [ v "x" ]) ]
        ~head:[ ("R", [ v "x"; v "y" ]); ("B", [ v "y" ]) ]
        ();
      Reasoner.Chase.rule ~name:"rc"
        ~body:[ ("R", [ v "x"; v "y" ]); ("B", [ v "y" ]) ]
        ~head:[ ("C", [ v "x" ]) ]
        ();
    ]
  in
  let d = inst [ ("A", [ "a" ]); ("A", [ "b" ]) ] in
  let full = Reasoner.Chase.run rules d in
  check Alcotest.bool "chase saturates" true full.Reasoner.Chase.saturated;
  let obs = Budget.observer () in
  ignore (Reasoner.Chase.try_run obs rules d);
  let n = Budget.checkpoints obs in
  check Alcotest.bool "chase passes checkpoints" true (n > 0);
  for i = 0 to n - 1 do
    match Reasoner.Chase.try_run (Budget.inject_after i) rules d with
    | `Ok r ->
        check Alcotest.bool
          (Printf.sprintf "inject %d: completed chase agrees" i)
          true
          (Structure.Instance.subset r.Reasoner.Chase.instance
             full.Reasoner.Chase.instance
          && Structure.Instance.subset full.Reasoner.Chase.instance
               r.Reasoner.Chase.instance)
    | `Out_of_fuel r | `Timeout r ->
        check Alcotest.bool
          (Printf.sprintf "inject %d: partial chase is a sound prefix" i)
          true
          (Structure.Instance.subset d r.Reasoner.Chase.instance
          && Structure.Instance.subset r.Reasoner.Chase.instance
               full.Reasoner.Chase.instance)
  done

(* --------------------------------------------------------------- *)
(* Decide: the bouquet loop degrades to a checked-count. *)

let test_decide_try () =
  match
    Classify.Decide.try_decide (Budget.inject_after 2) ~samples:2
      ~max_outdegree:1 o_disj
  with
  | `Out_of_fuel checked ->
      check Alcotest.bool "some bouquets may have completed" true (checked >= 0)
  | `Timeout _ -> Alcotest.fail "fuel injection reports Out_of_fuel"
  | `Ok _ -> Alcotest.fail "injection at checkpoint 2 must trip decide"

let suite =
  [
    Alcotest.test_case "unbudgeted_unchanged" `Quick test_unbudgeted_unchanged;
    Alcotest.test_case "observer_counts" `Quick test_observer_counts;
    Alcotest.test_case "inject_everywhere" `Slow test_inject_everywhere;
    Alcotest.test_case "inject_everywhere_updatable" `Slow
      test_inject_everywhere_updatable;
    Alcotest.test_case "inject_timeout_reason" `Quick test_inject_timeout_reason;
    Alcotest.test_case "expired_deadline" `Quick test_expired_deadline;
    Alcotest.test_case "fuel_exhaustion" `Quick test_fuel_exhaustion;
    Alcotest.test_case "clause_cap" `Quick test_clause_cap;
    Alcotest.test_case "bounded_inject_sweep" `Slow test_bounded_try;
    Alcotest.test_case "chase_inject_sweep" `Quick test_chase_try;
    Alcotest.test_case "decide_inject" `Quick test_decide_try;
  ]
