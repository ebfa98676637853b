(* The shared grounding-problem builder: the incremental engine (Engine),
   the model enumeration behind Material.Universal and the test suite's
   reference oracle all search models of (O, D) over dom(D) plus [extra]
   fresh labelled nulls. This module is the single place that sets up
   that domain, the joint signature and the base assertions. *)

let domain ~extra d =
  let nulls = Structure.Instance.fresh_nulls extra d in
  let dom = Structure.Instance.domain_list d @ nulls in
  (* Interpretations are non-empty. *)
  if dom = [] then [ Structure.Element.Const "e0" ] else dom

let signature ?(extra_signature = Logic.Signature.empty) o d =
  Logic.Signature.union
    (Logic.Ontology.signature o)
    (Logic.Signature.union (Structure.Instance.signature d) extra_signature)

let build ?budget ?extra_signature ?(assert_facts = true) ~extra o d =
  Obs.Trace.with_span ~attrs:[ ("extra", Obs.Trace.Int extra) ] "ground.build"
  @@ fun () ->
  let dom = domain ~extra d in
  let g =
    Ground.create ?budget ~domain:dom
      ~signature:(signature ?extra_signature o d)
      ()
  in
  (* Dynamic engines assert D's facts as solver assumptions instead of
     unit clauses, so retraction is a dropped assumption, not a rebuild. *)
  if assert_facts then Ground.assert_instance g d;
  List.iter (Ground.assert_formula g) (Logic.Ontology.all_sentences o);
  if Obs.Trace.enabled () then begin
    Obs.Trace.add_attr "domain" (Obs.Trace.Int (List.length dom));
    Obs.Trace.add_attr "vars" (Obs.Trace.Int (Ground.nvars g))
  end;
  g
