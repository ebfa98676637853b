open Helpers

let check = Alcotest.(check bool)

(* Transitive closure program. *)
let tc =
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

let chain n =
  inst
    (List.init n (fun i ->
         ("E", [ Printf.sprintf "n%d" i; Printf.sprintf "n%d" (i + 1) ])))

let test_transitive_closure () =
  let d = chain 4 in
  let ans = Datalog.Seminaive.answers tc d in
  (* 5 nodes, all ordered pairs i<j: 10 *)
  Alcotest.(check int) "closure size" 10 (List.length ans);
  check "n0 to n4" true (Datalog.Seminaive.holds tc d [ e "n0"; e "n4" ]);
  check "no backwards" false (Datalog.Seminaive.holds tc d [ e "n4"; e "n0" ])

let test_seminaive_vs_naive =
  QCheck.Test.make ~name:"semi-naive agrees with naive" ~count:30
    QCheck.(int_bound 10000)
    (fun seed ->
      let signature = Logic.Signature.of_list [ ("E", 2); ("A", 1) ] in
      let rng = Random.State.make [| seed |] in
      let d = Structure.Randgen.instance ~rng ~signature ~size:4 ~p:0.3 in
      let p =
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
                  Datalog.Program.Pos ("T", [ v "y"; v "z" ]);
                ];
            Datalog.Program.rule
              ~head:("goal", [ v "x" ])
              ~body:
                [
                  Datalog.Program.Pos ("T", [ v "x"; v "x" ]);
                  Datalog.Program.Pos ("A", [ v "x" ]);
                ];
          ]
      in
      Structure.Instance.equal
        (Datalog.Seminaive.evaluate p d)
        (Oracle.datalog_fixpoint p d))

let test_inequality () =
  (* goal(x) <- E(x,y), x != y. *)
  let p =
    Datalog.Program.make ~goal:"goal"
      [
        Datalog.Program.rule
          ~head:("goal", [ v "x" ])
          ~body:
            [
              Datalog.Program.Pos ("E", [ v "x"; v "y" ]);
              Datalog.Program.Neq (v "x", v "y");
            ];
      ]
  in
  let d = inst [ ("E", [ "a"; "a" ]); ("E", [ "b"; "c" ]) ] in
  let ans = Datalog.Seminaive.answers p d in
  Alcotest.(check int) "only b" 1 (List.length ans);
  check "b answers" true (Datalog.Seminaive.holds p d [ e "b" ])

let test_unsafe_rejected () =
  check "unsafe head var" true
    (try
       ignore
         (Datalog.Program.rule ~head:("goal", [ v "x" ]) ~body:[]);
       false
     with Datalog.Program.Unsafe_rule _ -> true);
  check "unsafe neq var" true
    (try
       ignore
         (Datalog.Program.rule
            ~head:("goal", [ v "x" ])
            ~body:
              [
                Datalog.Program.Pos ("A", [ v "x" ]);
                Datalog.Program.Neq (v "x", v "z");
              ]);
       false
     with Datalog.Program.Unsafe_rule _ -> true)

let test_constants_in_rules () =
  let p =
    Datalog.Program.make ~goal:"goal"
      [
        Datalog.Program.rule
          ~head:("goal", [ v "x" ])
          ~body:[ Datalog.Program.Pos ("E", [ v "x"; c "b" ]) ];
      ]
  in
  let d = inst [ ("E", [ "a"; "b" ]); ("E", [ "c"; "d" ]) ] in
  Alcotest.(check int) "one answer" 1 (List.length (Datalog.Seminaive.answers p d))

let suite =
  [
    Alcotest.test_case "transitive_closure" `Quick test_transitive_closure;
    QCheck_alcotest.to_alcotest test_seminaive_vs_naive;
    Alcotest.test_case "inequality" `Quick test_inequality;
    Alcotest.test_case "unsafe_rejected" `Quick test_unsafe_rejected;
    Alcotest.test_case "constants_in_rules" `Quick test_constants_in_rules;
  ]

let test_same_generation () =
  (* same-generation: a classic nonlinear program *)
  let sg =
    Datalog.Program.make ~goal:"goal"
      [
        Datalog.Program.rule
          ~head:("SG", [ v "x"; v "x" ])
          ~body:[ Datalog.Program.Pos ("Node", [ v "x" ]) ];
        Datalog.Program.rule
          ~head:("SG", [ v "x"; v "y" ])
          ~body:
            [
              Datalog.Program.Pos ("Par", [ v "x"; v "u" ]);
              Datalog.Program.Pos ("SG", [ v "u"; v "w" ]);
              Datalog.Program.Pos ("Par", [ v "y"; v "w" ]);
            ];
        Datalog.Program.rule
          ~head:("goal", [ v "x"; v "y" ])
          ~body:
            [ Datalog.Program.Pos ("SG", [ v "x"; v "y" ]); Datalog.Program.Neq (v "x", v "y") ];
      ]
  in
  (* a tree: r with children c1 c2; c1 with child g1; c2 with child g2 *)
  let d =
    inst
      [
        ("Node", [ "r" ]); ("Node", [ "c1" ]); ("Node", [ "c2" ]);
        ("Node", [ "g1" ]); ("Node", [ "g2" ]);
        ("Par", [ "c1"; "r" ]); ("Par", [ "c2"; "r" ]);
        ("Par", [ "g1"; "c1" ]); ("Par", [ "g2"; "c2" ]);
      ]
  in
  check "cousins same generation" true
    (Datalog.Seminaive.holds sg d [ e "g1"; e "g2" ]);
  check "different generations" false
    (Datalog.Seminaive.holds sg d [ e "g1"; e "c2" ]);
  (* agrees with the naive oracle *)
  check "naive agrees" true
    (Structure.Instance.equal
       (Datalog.Seminaive.evaluate sg d)
       (Oracle.datalog_fixpoint sg d))

let suite =
  suite @ [ Alcotest.test_case "same_generation" `Quick test_same_generation ]
