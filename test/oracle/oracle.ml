(* Reference matchers for the equivalence suites and the bench's naive
   column: plain backtracking homomorphism search over the canonical
   database, with no join planner and no index. The library's single
   join path ([Structure.Eval], reached through [Homomorphism.fold] and
   [Query.Cq]) is checked against these on random instances. *)

module ESet = Structure.Element.Set
module EMap = Structure.Element.Map
module Instance = Structure.Instance

(* Order the unassigned source elements so that each element is, as far as
   possible, connected to the previously chosen ones: this makes candidate
   filtering through incident facts effective. *)
let search_order source fixed =
  let g = Structure.Gaifman.of_instance source in
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  let push e =
    if not (Hashtbl.mem seen e) then begin
      Hashtbl.replace seen e ();
      if not (EMap.mem e fixed) then order := e :: !order
    end
  in
  let rec bfs frontier =
    match frontier with
    | [] -> ()
    | e :: rest ->
        let nbrs =
          ESet.elements
            (ESet.filter
               (fun v -> not (Hashtbl.mem seen v))
               (Structure.Gaifman.neighbours g e))
        in
        List.iter push nbrs;
        bfs (rest @ nbrs)
  in
  EMap.iter (fun e _ -> Hashtbl.replace seen e ()) fixed;
  bfs (List.map fst (EMap.bindings fixed));
  ESet.iter
    (fun e ->
      if not (Hashtbl.mem seen e) then begin
        push e;
        bfs [ e ]
      end)
    (Instance.domain source);
  List.rev !order

(* Candidate images for [e] given partial map [m]: pick the incident fact
   with the fewest unassigned argument positions and collect the values
   of matching target tuples at [e]'s positions. *)
let candidates source target m e =
  let restrict_by (f : Instance.fact) =
    let tuples = Instance.tuples f.rel target in
    List.fold_left
      (fun acc tuple ->
        let ok = ref true in
        let img_of_e = ref None in
        List.iteri
          (fun i a ->
            let tv = List.nth tuple i in
            match EMap.find_opt a m with
            | Some v -> if not (Structure.Element.equal v tv) then ok := false
            | None ->
                if Structure.Element.equal a e then
                  match !img_of_e with
                  | None -> img_of_e := Some tv
                  | Some v ->
                      if not (Structure.Element.equal v tv) then ok := false)
          f.args;
        match (!ok, !img_of_e) with
        | true, Some v -> ESet.add v acc
        | _ -> acc)
      ESet.empty tuples
  in
  let best =
    List.fold_left
      (fun best (f : Instance.fact) ->
        let unassigned =
          List.length
            (List.filter
               (fun a ->
                 (not (EMap.mem a m)) && not (Structure.Element.equal a e))
               f.args)
        in
        match best with
        | Some (u, _) when u <= unassigned -> best
        | _ -> Some (unassigned, f))
      None
      (Instance.incident e source)
  in
  match best with
  | Some (_, f) -> restrict_by f
  | None -> Instance.domain target

(* Check all source facts mentioning [e] whose arguments are now fully
   assigned. *)
let consistent source target m e =
  List.for_all
    (fun (f : Instance.fact) ->
      match
        List.fold_left
          (fun acc a ->
            match acc with
            | None -> None
            | Some imgs -> (
                match EMap.find_opt a m with
                | Some v -> Some (v :: imgs)
                | None -> None))
          (Some []) f.args
      with
      | None -> true
      | Some rev_imgs -> Instance.mem { f with args = List.rev rev_imgs } target)
    (Instance.incident e source)

(* Every homomorphism source -> target extending [fixed], by
   backtracking over [search_order]; same contract as
   [Structure.Homomorphism.fold]. *)
let fold ?(fixed = EMap.empty) ~source ~target f init =
  let order = search_order source fixed in
  let acc = ref init in
  let continue = ref true in
  let rec go m = function
    | [] ->
        let stop, acc' = f m !acc in
        acc := acc';
        if stop then continue := false
    | e :: rest ->
        ESet.iter
          (fun v ->
            if !continue then begin
              let m' = EMap.add e v m in
              if consistent source target m' e then go m' rest
            end)
          (candidates source target m e)
  in
  let fixed_ok =
    EMap.for_all
      (fun e v ->
        ESet.mem v (Instance.domain target)
        && ESet.mem e (Instance.domain source)
        && consistent source target fixed e)
      fixed
  in
  if fixed_ok then go fixed order;
  !acc

(* Homomorphisms from D_q into [inst] fixing q's constants and [pins]
   (variable, element), each passed to [f] as a term valuation. *)
let matches ?(pins = []) inst (q : Query.Cq.t) f init =
  let fixed =
    List.fold_left
      (fun m (x, e) -> EMap.add (Query.Cq.var_element x) e m)
      (Query.Cq.constant_fixing q) pins
  in
  fold ~fixed ~source:(Query.Cq.canonical_db q) ~target:inst
    (fun m acc ->
      f
        (function
          | Logic.Term.Var x -> EMap.find (Query.Cq.var_element x) m
          | Logic.Term.Const c -> Structure.Element.Const c)
        acc)
    init

(* [Query.Cq.holds]: ā is an answer iff some homomorphism from D_q maps
   the answer variables to ā. *)
let cq_holds inst (q : Query.Cq.t) tuple =
  matches ~pins:(List.combine q.answer tuple) inst q
    (fun _ _ -> (true, true))
    false

(* [Query.Cq.answers]: duplicate-free and sorted. *)
let cq_answers inst (q : Query.Cq.t) =
  matches inst q
    (fun value acc ->
      (false, List.map (fun x -> value (Logic.Term.Var x)) q.answer :: acc))
    []
  |> List.sort_uniq (List.compare Structure.Element.compare)

(* Naive Datalog≠ fixpoint: fire every rule over the whole instance until
   nothing changes. *)
let datalog_fixpoint (p : Datalog.Program.t) edb =
  let fire inst (r : Datalog.Program.rule) =
    let body =
      Query.Cq.make ~answer:[] (Datalog.Program.positive_atoms r.body)
    in
    matches inst body
      (fun value inst' ->
        let neqs_ok =
          List.for_all
            (function
              | Datalog.Program.Neq (s, t) ->
                  not (Structure.Element.equal (value s) (value t))
              | Datalog.Program.Pos _ -> true)
            r.body
        in
        ( false,
          if neqs_ok then
            Instance.add_fact
              (Instance.fact (fst r.head) (List.map value (snd r.head)))
              inst'
          else inst' ))
      inst
  in
  let rec loop inst =
    let inst' = List.fold_left fire inst p.rules in
    if Instance.equal inst' inst then inst else loop inst'
  in
  loop edb

(* CSP(A) membership as a plain homomorphism search D -> A. *)
let csp_solvable (t : Csp.Template.t) d =
  fold ~source:d ~target:t.instance (fun _ _ -> (true, true)) false
