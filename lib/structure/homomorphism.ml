module ESet = Element.Set
module EMap = Element.Map

type map = Element.t EMap.t

let apply m e = Option.value (EMap.find_opt e m) ~default:e

let is_homomorphism m ~source ~target =
  List.for_all
    (fun (f : Instance.fact) ->
      Instance.mem { f with args = List.map (apply m) f.args } target)
    (Instance.facts source)
  && EMap.for_all (fun _ v -> ESet.mem v (Instance.domain target)) m

(* Source elements that occur in facts become join variables over the
   target's [Relindex]; source elements with no incident fact
   ("isolated") are unconstrained and range over the whole target
   domain. Solutions come in plan order, deterministically. *)
let fold ?(fixed = EMap.empty) ~source ~target f init =
  let fixed_ok =
    EMap.for_all
      (fun e v ->
        ESet.mem v (Instance.domain target)
        && ESet.mem e (Instance.domain source))
      fixed
  in
  if not fixed_ok then init
  else begin
    let idx = Relindex.of_instance target in
    let var_of = Element.Tbl.create 16 in
    let nvars = ref 0 in
    let atoms =
      List.map
        (fun (fct : Instance.fact) ->
          Eval.atom fct.rel
            (List.map
               (fun e ->
                 match Element.Tbl.find_opt var_of e with
                 | Some v -> Eval.Var v
                 | None ->
                     let v = !nvars in
                     incr nvars;
                     Element.Tbl.add var_of e v;
                     Eval.Var v)
               fct.args))
        (Instance.facts source)
    in
    let isolated =
      List.filter
        (fun e -> not (Element.Tbl.mem var_of e))
        (Instance.domain_list source)
    in
    let bindings =
      EMap.fold
        (fun e v acc ->
          match Element.Tbl.find_opt var_of e with
          | Some var -> (var, v) :: acc
          | None -> acc)
        fixed []
    in
    let plan = Eval.make_plan idx ~bound:(List.map fst bindings) atoms in
    let inv = Array.make (max 1 !nvars) (Element.Null min_int) in
    Element.Tbl.iter (fun e v -> inv.(v) <- e) var_of;
    let target_dom = Instance.domain_list target in
    let continue = ref true in
    let acc = ref init in
    let emit m =
      let stop, acc' = f m !acc in
      acc := acc';
      if stop then continue := false
    in
    let rec extend m = function
      | [] -> emit m
      | e :: rest -> (
          match EMap.find_opt e fixed with
          | Some v -> extend (EMap.add e v m) rest
          | None ->
              List.iter
                (fun v -> if !continue then extend (EMap.add e v m) rest)
                target_dom)
    in
    Eval.fold idx plan ~bindings
      (fun sol () ->
        let m = ref EMap.empty in
        for v = 0 to !nvars - 1 do
          m := EMap.add inv.(v) sol.(v) !m
        done;
        extend !m isolated;
        ((not !continue), ()))
      ();
    !acc
  end

let find ?(fixed = EMap.empty) ~source ~target () =
  fold ~fixed ~source ~target (fun m _ -> (true, Some m)) None

let exists ?(fixed = EMap.empty) ~source ~target () =
  Option.is_some (find ~fixed ~source ~target ())

let all ?(fixed = EMap.empty) ~source ~target () =
  List.rev (fold ~fixed ~source ~target (fun m acc -> (false, m :: acc)) [])

let fixed_identity elems =
  ESet.fold (fun e m -> EMap.add e e m) elems EMap.empty
