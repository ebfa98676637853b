(* The Section 1 example in full: O1 = "a hand has exactly five
   fingers", O2 = "a hand has a thumb finger". Each ontology alone has
   PTIME query evaluation; their union is coNP-hard, because on a hand
   with five named fingers one of them must be the thumb — a certain
   disjunction with no certain disjunct (non-materializability).

     dune exec examples/hand_fingers.exe
*)

let fingers = [ "f1"; "f2"; "f3"; "f4"; "f5" ]

let hand =
  Structure.Parse.instance_of_string
    (String.concat "\n"
       ("Hand(h)" :: List.map (fun f -> Printf.sprintf "hasFinger(h, %s)" f) fingers))

let () =
  let o1 = Dl.Parser.parse_tbox "Hand << == 5 hasFinger" in
  let o2 = Dl.Parser.parse_tbox "Hand << exists hasFinger . Thumb" in
  let union = Logic.Ontology.union (Dl.Translate.tbox o1) (Dl.Translate.tbox o2) in
  let thumb = Query.Parse.cq_of_string "q(x) <- Thumb(x)" in

  Fmt.pr "=== the hand/finger example (Section 1) ===@.";

  (* 1. each ontology alone admits PTIME query evaluation (Theorem 13) *)
  List.iter
    (fun (name, tbox) ->
      match Classify.Decide.decide ~samples:5 (Dl.Translate.tbox tbox) with
      | Classify.Decide.Ptime_evidence n ->
          Fmt.pr "%s: PTIME query evaluation (%d bouquets checked)@." name n
      | Classify.Decide.Conp_hard _ -> Fmt.pr "%s: unexpectedly hard!@." name)
    [ ("O1", o1); ("O2", o2) ];

  (* 2. the union is non-materializable: the thumb disjunction is
     certain, no disjunct is *)
  let pointed = List.map (fun f -> (thumb, [ Structure.Element.Const f ])) fingers in
  Fmt.pr "@.union O1 + O2 on a five-fingered hand:@.";
  Fmt.pr "  'some named finger is the thumb' certain: %b@."
    (Reasoner.Engine.deepen ~max_extra:1 (fun k ->
         Reasoner.Engine.countermodel_disjunction
           (Reasoner.Engine.session ~extra:k union hand)
           pointed)
    |> Option.is_none);
  List.iter
    (fun f ->
      Fmt.pr "  'finger %s is the thumb' certain: %b@." f
        (Omq.certain ~max_extra:1 (Omq.of_cq union thumb) hand
           [ Structure.Element.Const f ]))
    fingers;

  (* 3. hence no materialization exists *)
  Fmt.pr "  materializable on this instance: %b@."
    (Material.Materializability.materializable_on ~max_model_extra:1 ~max_extra:1 union hand);

  (* 4. and the Theorem 13 decision finds the witness *)
  Fmt.pr "@.Theorem 13 decision for the union:@.";
  match Classify.Decide.decide ~samples:0 union with
  | Classify.Decide.Conp_hard w ->
      Fmt.pr "  coNP-hard; minimal witness bouquet:@.  %a@." Structure.Instance.pp w
  | Classify.Decide.Ptime_evidence _ -> Fmt.pr "  (no witness found)@."
