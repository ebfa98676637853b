(* The reference oracle for Reasoner.Engine's deepening front: bounded
   countermodel search with a fresh grounding per bound (Problem.build +
   Ground.solve) — no sessions, no cache, no assumption literals, no
   witness shortcut. Slow and plainly correct; test_engine.ml checks the
   engine against it. *)

module SMap = Logic.Names.SMap
module Ground = Reasoner.Ground

let answer_env (q : Query.Cq.t) tuple =
  List.fold_left2
    (fun env v e -> SMap.add v e env)
    SMap.empty q.Query.Cq.answer tuple

(* A model of O and D over dom(D) + [extra] nulls in which every
   [asserted] (env, formula) holds and every [negated] one fails. *)
let solve ?(asserted = []) ?(negated = []) ~extra o d =
  let extra_signature =
    List.fold_left
      (fun s (_, f) -> Logic.Signature.union s (Logic.Signature.of_formula f))
      Logic.Signature.empty (asserted @ negated)
  in
  let g = Reasoner.Problem.build ~extra_signature ~extra o d in
  List.iter (fun (env, f) -> Ground.assert_formula ~env g f) asserted;
  List.iter (fun (env, f) -> Ground.assert_negation ~env g f) negated;
  Ground.solve g

(* [p k] at every bound k = 0..max_extra. *)
let every_bound max_extra p =
  let rec go k = k > max_extra || (p k && go (k + 1)) in
  go 0

let pointed_formula (q, tuple) = (answer_env q tuple, Query.Cq.to_formula q)

let is_consistent ?(max_extra = 2) o d =
  not (every_bound max_extra (fun k -> Option.is_none (solve ~extra:k o d)))

let certain_disjunction ?(max_extra = 2) o d pointed =
  let negated = List.map pointed_formula pointed in
  every_bound max_extra (fun k -> Option.is_none (solve ~negated ~extra:k o d))

let certain_ucq ?max_extra o d q tuple =
  certain_disjunction ?max_extra o d
    (List.map (fun cq -> (cq, tuple)) (Query.Ucq.disjuncts q))

let certain_cq ?max_extra o d q tuple =
  certain_ucq ?max_extra o d (Query.Ucq.of_cq q) tuple

let certain_formula ?(max_extra = 2) ?(env = SMap.empty) o d f =
  every_bound max_extra (fun k ->
      Option.is_none (solve ~negated:[ (env, f) ] ~extra:k o d))

let pool_exact_model ~extra o d flagged =
  let pick wanted =
    List.filter_map
      (fun (q, tuple, w) ->
        if Bool.equal w wanted then Some (pointed_formula (q, tuple)) else None)
      flagged
  in
  solve ~asserted:(pick true) ~negated:(pick false) ~extra o d
