(* The incremental update engine, at every layer:

   - Datalog≠: random insert/retract interleavings on random instances,
     the delta-maintained state must answer identically to [evaluate]
     from scratch, and to the oracle's naive fixpoint, after every step —
     for counting (nonrecursive) and DRed (recursive) deletion strategies
     alike.
   - Reasoner.Engine: dynamic (assumption-backed) engines answer like a
     fresh engine after each delta, and refuse ([`Needs_rebuild]) the
     cases the grounding cannot absorb.
   - Omq.Session: updatable sessions delta-maintain or reopen, and
     either way answer like a session opened cold on the net instance. *)

open Helpers

module S = Datalog.Seminaive

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------------------------------------------------------------- *)
(* Programs spanning both deletion strategies *)

let nonrec_join =
  (* goal(x) <- E(x,y), A(y), x != y : two-stage, nonrecursive *)
  Datalog.Program.make ~goal:"goal"
    [
      Datalog.Program.rule
        ~head:("S", [ v "x"; v "y" ])
        ~body:
          [
            Datalog.Program.Pos ("E", [ v "x"; v "y" ]);
            Datalog.Program.Pos ("A", [ v "y" ]);
          ];
      Datalog.Program.rule
        ~head:("goal", [ v "x" ])
        ~body:
          [
            Datalog.Program.Pos ("S", [ v "x"; v "y" ]);
            Datalog.Program.Neq (v "x", v "y");
          ];
    ]

let tc =
  (* transitive closure: linear recursion *)
  Datalog.Program.make ~goal:"goal"
    [
      Datalog.Program.rule
        ~head:("T", [ v "x"; v "y" ])
        ~body:[ Datalog.Program.Pos ("E", [ v "x"; v "y" ]) ];
      Datalog.Program.rule
        ~head:("T", [ v "x"; v "z" ])
        ~body:
          [
            Datalog.Program.Pos ("T", [ v "x"; v "y" ]);
            Datalog.Program.Pos ("E", [ v "y"; v "z" ]);
          ];
      Datalog.Program.rule
        ~head:("goal", [ v "x"; v "y" ])
        ~body:[ Datalog.Program.Pos ("T", [ v "x"; v "y" ]) ];
    ]

let sg =
  (* same-generation: nonlinear recursion *)
  Datalog.Program.make ~goal:"goal"
    [
      Datalog.Program.rule
        ~head:("SG", [ v "x"; v "x" ])
        ~body:[ Datalog.Program.Pos ("A", [ v "x" ]) ];
      Datalog.Program.rule
        ~head:("SG", [ v "x"; v "y" ])
        ~body:
          [
            Datalog.Program.Pos ("E", [ v "x"; v "u" ]);
            Datalog.Program.Pos ("SG", [ v "u"; v "w" ]);
            Datalog.Program.Pos ("E", [ v "y"; v "w" ]);
          ];
      Datalog.Program.rule
        ~head:("goal", [ v "x"; v "y" ])
        ~body:[ Datalog.Program.Pos ("SG", [ v "x"; v "y" ]) ];
    ]

let test_strategy_dispatch () =
  check "join is nonrecursive" false (S.recursive nonrec_join);
  check "tc is recursive" true (S.recursive tc);
  check "sg is recursive" true (S.recursive sg);
  let d = inst [ ("E", [ "a"; "b" ]); ("A", [ "b" ]) ] in
  check "join counts" true (S.state_strategy (S.prepare nonrec_join d) = S.Counting);
  check "tc dreds" true (S.state_strategy (S.prepare tc d) = S.Dred)

(* ---------------------------------------------------------------- *)
(* Equivalence property: incremental == from-scratch after every step *)

let universe = Array.init 5 (fun i -> Printf.sprintf "n%d" i)

let gen_fact rng : Structure.Instance.fact =
  let el () = e universe.(Random.State.int rng (Array.length universe)) in
  if Random.State.bool rng then { rel = "E"; args = [ el (); el () ] }
  else { rel = "A"; args = [ el () ] }

(* One step: insert or retract a small batch of random facts (retracts
   are drawn half from the current EDB so they actually hit). *)
let step rng st edb =
  let batch = List.init (1 + Random.State.int rng 3) (fun _ -> gen_fact rng) in
  if Random.State.bool rng then
    let st, _ = S.insert st batch in
    (st, List.fold_left (fun d f -> Structure.Instance.add_fact f d) edb batch)
  else
    let present = Structure.Instance.facts edb in
    let batch =
      if present = [] || Random.State.bool rng then batch
      else List.nth present (Random.State.int rng (List.length present)) :: batch
    in
    let st, _ = S.retract st batch in
    (st, List.fold_left (fun d f -> Structure.Instance.remove_fact f d) edb batch)

(* [fixpoint] is the reference the maintained state is checked against:
   [S.evaluate] from scratch, or the oracle's naive fixpoint. *)
let interleaving_agrees program (reference, fixpoint) =
  QCheck.Test.make ~count:60
    ~name:
      (Printf.sprintf "insert/retract interleaving (%s, %s)"
         (if S.recursive program then "recursive" else "nonrecursive")
         reference)
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let edb0 =
        Structure.Instance.of_facts
          (List.init (Random.State.int rng 8) (fun _ -> gen_fact rng))
      in
      let st = ref (S.prepare program edb0) in
      let edb = ref edb0 in
      let ok = ref true in
      for _ = 1 to 6 do
        let st', edb' = step rng !st !edb in
        st := st';
        edb := edb';
        ok :=
          !ok
          && Structure.Instance.equal (S.state_edb st') edb'
          &&
          let derived = fixpoint program edb' in
          Structure.Instance.equal (S.state_derived st') derived
          && S.state_answers st'
             = List.sort_uniq
                 (List.compare Structure.Element.compare)
                 (Structure.Instance.tuples program.Datalog.Program.goal
                    derived)
      done;
      !ok)

let scratch = ("from scratch", S.evaluate)
let oracle = ("naive oracle", Oracle.datalog_fixpoint)

(* The changed flag must be exact: it is what tells a caller whether
   cached answers can be kept. *)
let test_changed_flag () =
  let d = inst [ ("E", [ "a"; "b" ]); ("A", [ "b" ]) ] in
  let st = S.prepare nonrec_join d in
  let st, changed = S.insert st [ { rel = "E"; args = [ e "b"; e "a" ] } ] in
  check "E(b,a) alone adds no answer (A(a) missing)" false changed;
  let st, changed = S.insert st [ { rel = "A"; args = [ e "a" ] } ] in
  check "A(a) completes goal(b)" true changed;
  let st, changed = S.retract st [ { rel = "A"; args = [ e "a" ] } ] in
  check "retracting A(a) loses goal(b)" true changed;
  let _, changed = S.retract st [ { rel = "A"; args = [ e "zzz" ] } ] in
  check "absent fact is a no-op" false changed

(* ---------------------------------------------------------------- *)
(* Reasoner.Engine: dynamic sessions *)

let fact rel args : Structure.Instance.fact = { rel; args = List.map e args }
let qc = ucq [ cq ~name:"qc" ~answer:[ "x" ] [ ("C", [ v "x" ]) ] ]

let horn_data = inst [ ("A", [ "a" ]); ("R", [ "a"; "b" ]) ]

let engine_answers eng =
  List.filter
    (fun x -> Option.is_none (Reasoner.Engine.countermodel eng qc [ x ]))
    (List.map e [ "a"; "b" ])

let fresh_answers d =
  engine_answers (Reasoner.Engine.create ~extra:2 o_horn d)

let test_engine_delta () =
  let eng = Reasoner.Engine.create ~dynamic:true ~extra:2 o_horn horn_data in
  check "dynamic" true (Reasoner.Engine.is_dynamic eng);
  check "static by default" false
    (Reasoner.Engine.is_dynamic (Reasoner.Engine.create ~extra:2 o_horn horn_data));
  check "base answers agree" true
    (engine_answers eng = fresh_answers horn_data);
  (* insert over the existing domain: delta *)
  let b_fact = fact "B" [ "b" ] in
  check "insert B(b) is a delta" true
    (Reasoner.Engine.insert_facts eng [ b_fact ] = `Delta);
  let d1 = Structure.Instance.add_fact b_fact horn_data in
  check "instance tracked" true
    (Structure.Instance.equal (Reasoner.Engine.instance eng) d1);
  check "post-insert answers agree" true (engine_answers eng = fresh_answers d1);
  (* retract it again: b keeps R(a,b), so no element vacates *)
  check "retract B(b) is a delta" true
    (Reasoner.Engine.retract_facts eng [ b_fact ] = `Delta);
  check "post-retract answers agree" true
    (engine_answers eng = fresh_answers horn_data);
  check "consistent throughout" true (Reasoner.Engine.is_consistent eng)

let test_engine_needs_rebuild () =
  let eng = Reasoner.Engine.create ~dynamic:true ~extra:2 o_horn horn_data in
  check "new element forces rebuild" true
    (Reasoner.Engine.insert_facts eng [ fact "A" [ "fresh" ] ] = `Needs_rebuild);
  check "vacating retraction forces rebuild" true
    (Reasoner.Engine.retract_facts eng [ fact "R" [ "a"; "b" ] ]
    = `Needs_rebuild);
  check "rebuild refusals leave the engine intact" true
    (Structure.Instance.equal (Reasoner.Engine.instance eng) horn_data);
  let static = Reasoner.Engine.create ~extra:2 o_horn horn_data in
  check "static engines never delta" true
    (Reasoner.Engine.insert_facts static [ fact "B" [ "b" ] ] = `Needs_rebuild)

(* ---------------------------------------------------------------- *)
(* Omq.Session: updatable sessions *)

let omq_c = Omq.make o_horn qc

let session_agrees s d =
  Omq.Session.certain_answers s = Omq.certain_answers ~max_extra:2 omq_c d
  && Structure.Instance.equal (Omq.Session.instance s) d

let test_session_updates () =
  let s = Omq.open_session ~max_extra:2 ~updatable:true omq_c horn_data in
  check "updatable" true (Omq.Session.updatable s);
  check "base" true (session_agrees s horn_data);
  (* force the engines first so the delta path actually maintains them *)
  ignore (Omq.Session.certain_answers s);
  let b_fact = fact "B" [ "b" ] in
  let s1, how1 = Omq.Session.insert_facts s [ b_fact ] in
  check "in-domain insert is a delta" true (how1 = `Delta);
  check "insert agrees with cold session" true
    (session_agrees s1 (Structure.Instance.add_fact b_fact horn_data));
  let s2, how2 = Omq.Session.retract_facts s1 [ b_fact ] in
  check "non-vacating retract is a delta" true (how2 = `Delta);
  check "retract agrees with cold session" true (session_agrees s2 horn_data);
  (* new element: reopened, but still correct *)
  let c_fact = fact "A" [ "c" ] in
  let s3, how3 = Omq.Session.insert_facts s2 [ c_fact ] in
  check "new-element insert reopens" true (how3 = `Reopen);
  check "reopen agrees" true
    (session_agrees s3 (Structure.Instance.add_fact c_fact horn_data));
  check "reopened session stays updatable" true (Omq.Session.updatable s3);
  (* vacating retraction: reopened *)
  let s4, how4 = Omq.Session.retract_facts s3 [ c_fact ] in
  check "vacating retract reopens" true (how4 = `Reopen);
  check "vacating retract agrees" true (session_agrees s4 horn_data);
  (* non-updatable sessions always reopen *)
  let s' = Omq.open_session ~max_extra:2 omq_c horn_data in
  let _, how' = Omq.Session.insert_facts s' [ b_fact ] in
  check "non-updatable insert reopens" true (how' = `Reopen)

let test_session_retract_to_empty () =
  let s = Omq.open_session ~max_extra:2 ~updatable:true omq_c horn_data in
  let s, _ =
    Omq.Session.retract_facts s
      [ fact "A" [ "a" ]; fact "R" [ "a"; "b" ] ]
  in
  check_int "all facts gone" 0
    (Structure.Instance.cardinal (Omq.Session.instance s));
  check "empty instance answers" true
    (Omq.Session.certain_answers s = [])

(* ---------------------------------------------------------------- *)
(* Delta sessions on a non-Horn ontology, against cold sessions and the
   bounded oracle *)

(* one query matched on the witness bits, one with an existential *)
let q_free = Query.Parse.ucq_of_string "q(x) <- C2(x)"
let q_exists = Query.Parse.ucq_of_string "q(x) <- r0(x,y), C3(y)"
let mixed_universe = [ "a"; "b"; "c"; "d" ]

(* [Dom] facts keep every constant in the domain, so no retraction
   vacates one and every update stays on the delta path *)
let mixed_anchor = List.map (fun x -> fact "Dom" [ x ]) mixed_universe

let gen_mixed_fact rng =
  let el () = List.nth mixed_universe (Random.State.int rng 4) in
  match Random.State.int rng 5 with
  | 4 -> fact "r0" [ el (); el () ]
  | i -> fact (Printf.sprintf "C%d" i) [ el () ]

let render_answers answers =
  String.concat ";"
    (List.map
       (fun t -> String.concat "," (List.map Structure.Element.to_string t))
       answers)

let oracle_answers q d =
  List.filter
    (fun t -> Bounded.certain_ucq ~max_extra:2 o_mixed d q t)
    (List.map (fun x -> [ e x ]) mixed_universe)

let mixed_sessions_agree =
  QCheck.Test.make ~count:12
    ~name:"delta sessions on a non-Horn ontology agree with cold sessions"
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let d0 =
        Structure.Instance.of_facts
          (mixed_anchor @ List.init 4 (fun _ -> gen_mixed_fact rng))
      in
      let open_ q =
        Omq.open_session ~max_extra:2 ~updatable:true (Omq.make o_mixed q) d0
      in
      let sessions = ref [ (q_free, open_ q_free); (q_exists, open_ q_exists) ] in
      let d = ref d0 in
      let agree () =
        List.for_all
          (fun (q, s) ->
            let got = render_answers (Omq.Session.certain_answers s) in
            got
            = render_answers
                (Omq.certain_answers ~max_extra:2 (Omq.make o_mixed q) !d)
            && got = render_answers (oracle_answers q !d))
          !sessions
      in
      let update ~insert facts =
        let f =
          if insert then Omq.Session.insert_facts else Omq.Session.retract_facts
        in
        let deltas = ref true in
        sessions :=
          List.map
            (fun (q, s) ->
              let s, how = f s facts in
              deltas := !deltas && how = `Delta;
              (q, s))
            !sessions;
        d :=
          List.fold_left
            (fun d x ->
              if insert then Structure.Instance.add_fact x d
              else Structure.Instance.remove_fact x d)
            !d facts;
        !deltas
      in
      let ok = ref (agree ()) in
      for i = 1 to 8 do
        let deltas =
          if i = 4 then
            (* a relation unknown to the grounding, registered after the
               witnesses were taken: its variables lie past their bits *)
            update ~insert:true [ fact "Fresh" [ "a"; "b" ] ]
          else if Random.State.bool rng then
            update ~insert:true [ gen_mixed_fact rng ]
          else
            let removable =
              List.filter
                (fun f -> not (List.mem f mixed_anchor))
                (Structure.Instance.facts !d)
            in
            match removable with
            | [] -> update ~insert:true [ gen_mixed_fact rng ]
            | fs ->
                update ~insert:false
                  [ List.nth fs (Random.State.int rng (List.length fs)) ]
        in
        ok := !ok && deltas && agree ()
      done;
      !ok)

(* A witness taken before a relation is registered is read off its bits
   afterwards: the new relation's variables lie past them and read
   false. *)
let test_witness_after_new_relation () =
  let d = Structure.Instance.of_facts (mixed_anchor @ [ fact "C0" [ "a" ] ]) in
  let eng = Reasoner.Engine.create ~dynamic:true ~extra:1 o_mixed d in
  check "a is not certainly C2" true
    (not (Reasoner.Engine.certain eng q_free [ e "a" ]));
  (* certain, so no new witness; registers Fresh, whose |dom|² block
     overruns the witness bitmap *)
  let fresh = atom "Fresh" [ c "a"; c "a" ] in
  check "tautology over a new relation" true
    (Reasoner.Engine.certain_formula eng (F.Or (fresh, F.Not fresh)));
  match Reasoner.Engine.find_model eng with
  | None -> Alcotest.fail "consistent session without a model"
  | Some m ->
      check "the old witness has no Fresh facts" false
        (Structure.Instance.mem (fact "Fresh" [ "a"; "a" ]) m);
      check "and keeps D" true
        (List.for_all (fun f -> Structure.Instance.mem f m) (Structure.Instance.facts d))

let suite =
  [
    Alcotest.test_case "strategy dispatch" `Quick test_strategy_dispatch;
    QCheck_alcotest.to_alcotest (interleaving_agrees nonrec_join scratch);
    QCheck_alcotest.to_alcotest (interleaving_agrees nonrec_join oracle);
    QCheck_alcotest.to_alcotest (interleaving_agrees tc scratch);
    QCheck_alcotest.to_alcotest (interleaving_agrees tc oracle);
    QCheck_alcotest.to_alcotest (interleaving_agrees sg scratch);
    Alcotest.test_case "changed flag" `Quick test_changed_flag;
    Alcotest.test_case "engine delta" `Quick test_engine_delta;
    Alcotest.test_case "engine needs_rebuild" `Quick test_engine_needs_rebuild;
    Alcotest.test_case "session updates" `Quick test_session_updates;
    Alcotest.test_case "session retract to empty" `Quick
      test_session_retract_to_empty;
    QCheck_alcotest.to_alcotest mixed_sessions_agree;
    Alcotest.test_case "witness read after a new relation" `Quick
      test_witness_after_new_relation;
  ]
