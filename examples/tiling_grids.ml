(* Theorem 10: the ALCIF`-depth-2 grid ontologies. OP verifies properly
   tiled grids by propagating (= 1 R) markers that input instances
   cannot preset, and triggers a disjunction at the lower-left corner —
   the non-materializability behind the undecidability proof.

     dune exec examples/tiling_grids.exe
*)

let corner = Structure.Element.Const "g_0_0"

let () =
  Fmt.pr "=== Theorem 10: tiling ontologies ===@.";
  let p = Tm.Tiling.trivial in
  Fmt.pr "tiling problem: tiles %s, init %s, final %s@."
    (String.concat "," p.Tm.Tiling.tiles) p.Tm.Tiling.init p.Tm.Tiling.final;
  (match Tm.Tiling.solve p with
  | None -> Fmt.pr "no tiling (unexpected)@."
  | Some f ->
      Fmt.pr "a tiling of %dx%d exists@." (Array.length f) (Array.length f.(0)));

  let op = Tm.Gridenc.ontology_undecidability p in
  Fmt.pr "@.OP: %d axioms, DL name %s, depth %d@." (List.length op)
    (Dl.Tbox.name op) (Dl.Tbox.depth op);

  (* on a properly tiled grid instance the disjunction fires *)
  let f = Option.get (Tm.Tiling.solve_fixed p 1 0) in
  let d = Tm.Tiling.grid_instance f in
  let o = Dl.Translate.tbox op in
  let qb1 = Query.Parse.cq_of_string "q(x) <- B1(x)" in
  let qb2 = Query.Parse.cq_of_string "q(x) <- B2(x)" in
  let disjunction_certain d =
    Reasoner.Engine.deepen ~max_extra:0 (fun k ->
        Reasoner.Engine.countermodel_disjunction
          (Reasoner.Engine.session ~extra:k o d)
          [ (qb1, [ corner ]); (qb2, [ corner ]) ])
    |> Option.is_none
  in
  Fmt.pr "@.grid(d) holds at the corner: %b@." (Tm.Gridenc.grid_holds p d corner);
  Fmt.pr "B1 or B2 certain at the corner: %b@."
    (disjunction_certain d);
  Fmt.pr "B1 alone certain: %b@."
    (Omq.certain ~max_extra:0 (Omq.of_cq o qb1) d [ corner ]);

  (* on a broken grid nothing fires *)
  let broken =
    Structure.Parse.instance_of_string
      "B(g_0_0)\nF(g_1_0)\nX(g_0_0, g_1_0)"
  in
  Fmt.pr "@.broken grid (no initial tile): grid(d) %b, disjunction certain %b@."
    (Tm.Gridenc.grid_holds p broken corner)
    (disjunction_certain broken);

  (* the run fitting problem (Theorem 12's base) *)
  Fmt.pr "@.run fitting (Definition 8) with the 'find an a' machine:@.";
  let m = Tm.Machine.find_a in
  let pr = Tm.Fitting.parse m [ "q0 ? ?"; "? ? ?"; "? ? ?" ] in
  (match Tm.Fitting.solve m pr with
  | Some run ->
      List.iter (fun c -> Fmt.pr "  %a@." Tm.Machine.pp_config c) run
  | None -> Fmt.pr "  no accepting run@.")
