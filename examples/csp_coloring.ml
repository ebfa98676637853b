(* Theorem 8: every CSP embeds into ontology-mediated querying with
   uGF2(1,=) ontologies. We encode graph 2-coloring and 3-coloring
   templates and check, on concrete graphs, that CSP solvability
   coincides with consistency of the lifted instance w.r.t. the
   encoding ontology.

     dune exec examples/csp_coloring.exe
*)

let e s = Structure.Element.Const s

let ugraph edges =
  Structure.Instance.of_list
    (List.concat_map
       (fun (a, b) -> [ ("E", [ e a; e b ]); ("E", [ e b; e a ]) ])
       edges)

let square = ugraph [ ("a", "b"); ("b", "c"); ("c", "d"); ("d", "a") ]
let pentagon = ugraph [ ("1", "2"); ("2", "3"); ("3", "4"); ("4", "5"); ("5", "1") ]

let () =
  Fmt.pr "=== Theorem 8: CSPs as ontology-mediated queries ===@.";
  List.iter
    (fun k ->
      let template = Csp.Precolor.closure (Csp.Template.k_colouring k) in
      let ontology = Csp.Encode.ontology ~variant:Csp.Encode.Eq template in
      (match Gf.Fragment.of_ontology ontology with
      | Some d -> Fmt.pr "@.%d-coloring encoded in %s@." k (Gf.Fragment.name d)
      | None -> assert false);
      List.iter
        (fun (name, graph) ->
          let direct = Csp.Solve.solvable template graph in
          let lifted = Csp.Encode.lift_instance template graph in
          let consistent =
            Reasoner.Engine.deepen ~max_extra:3 (fun k ->
                Reasoner.Engine.find_model
                  (Reasoner.Engine.session ~extra:k ontology lifted))
            |> Option.is_some
          in
          Fmt.pr "  %-8s  %d-colorable: %b   encoding consistent: %b   %s@."
            name k direct consistent
            (if Bool.equal direct consistent then "(agrees)" else "(MISMATCH)"))
        [ ("square", square); ("pentagon", pentagon) ])
    [ 2; 3 ];

  (* precoloring pins survive the round trip *)
  Fmt.pr "@.precoloring: pinning adjacent vertices to the same color@.";
  let template = Csp.Precolor.closure (Csp.Template.k_colouring 2) in
  let pinned =
    Csp.Precolor.pin (e "a") (e "col0")
      (Csp.Precolor.pin (e "b") (e "col0") square)
  in
  Fmt.pr "  2-colorable with both pins on col0: %b@."
    (Csp.Solve.solvable template pinned)
