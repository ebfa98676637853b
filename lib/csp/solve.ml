module ESet = Structure.Element.Set
module EMap = Structure.Element.Map

(* A CSP solver for binary templates: unary-constraint seeding, AC-3
   propagation, then backtracking with minimum-remaining-values. *)

type domains = ESet.t EMap.t

(* Initial candidate sets: restrict by unary facts. *)
let seed_domains (t : Template.t) d =
  let tdom = ESet.of_list (Template.domain t) in
  Structure.Instance.domain d
  |> ESet.elements
  |> List.map (fun x ->
         let allowed =
           List.fold_left
             (fun acc (f : Structure.Instance.fact) ->
               match f.args with
               | [ _ ] ->
                   ESet.filter
                     (fun v ->
                       Structure.Instance.mem
                         (Structure.Instance.fact f.rel [ v ])
                         t.instance)
                     acc
               | _ -> acc)
             tdom
             (Structure.Instance.incident x d)
         in
         (x, allowed))
  |> List.to_seq |> EMap.of_seq

(* Binary constraints of the input instance: (x, y, R) for R(x,y) ∈ D
   with x ≠ y or x = y (loops give unary-like constraints). *)
let binary_constraints d =
  List.filter_map
    (fun (f : Structure.Instance.fact) ->
      match f.args with [ x; y ] -> Some (x, y, f.rel) | _ -> None)
    (Structure.Instance.facts d)

let supported (t : Template.t) rel u v =
  Structure.Instance.mem (Structure.Instance.fact rel [ u; v ]) t.instance

(* Revise dom(x) against constraint R(x,y): keep u iff some v in dom(y)
   with R(u,v) in the template. *)
let revise t doms x y rel ~forward =
  let dx = EMap.find x doms and dy = EMap.find y doms in
  let keep u =
    ESet.exists
      (fun v -> if forward then supported t rel u v else supported t rel v u)
      dy
  in
  let dx' = ESet.filter keep dx in
  if ESet.cardinal dx' = ESet.cardinal dx then None
  else Some (EMap.add x dx' doms)

let ac3 (t : Template.t) d doms =
  let constraints = binary_constraints d in
  (* worklist of (x, y, rel, forward) arcs *)
  let arcs =
    List.concat_map
      (fun (x, y, rel) -> [ (x, y, rel, true); (y, x, rel, false) ])
      constraints
  in
  let q = Queue.create () in
  List.iter (fun a -> Queue.add a q) arcs;
  let doms = ref doms in
  let ok = ref true in
  while !ok && not (Queue.is_empty q) do
    let x, y, rel, forward = Queue.pop q in
    match revise t !doms x y rel ~forward with
    | None -> ()
    | Some doms' ->
        doms := doms';
        if ESet.is_empty (EMap.find x doms') then ok := false
        else
          List.iter
            (fun (a, b, rel', fwd) ->
              if Structure.Element.equal b x then Queue.add (a, b, rel', fwd) q)
            arcs
  done;
  if !ok then Some !doms else None

(* Handle loops R(x,x): value of x must have a template loop. *)
let prune_loops (t : Template.t) d doms =
  List.fold_left
    (fun doms (x, y, rel) ->
      match doms with
      | None -> None
      | Some doms ->
          if Structure.Element.equal x y then begin
            let dx = ESet.filter (fun u -> supported t rel u u) (EMap.find x doms) in
            if ESet.is_empty dx then None else Some (EMap.add x dx doms)
          end
          else Some doms)
    (Some doms) (binary_constraints d)

let rec backtrack t d doms =
  (* choose unassigned variable (domain size > 1) with fewest values *)
  let pick =
    EMap.fold
      (fun x dx best ->
        let n = ESet.cardinal dx in
        if n <= 1 then best
        else
          match best with
          | Some (_, m) when m <= n -> best
          | _ -> Some (x, n))
      doms None
  in
  match pick with
  | None ->
      (* all singletons: verify all constraints *)
      let assignment = EMap.map ESet.choose doms in
      if
        List.for_all
          (fun (x, y, rel) ->
            supported t rel (EMap.find x assignment) (EMap.find y assignment))
          (binary_constraints d)
      then Some assignment
      else None
  | Some (x, _) ->
      ESet.fold
        (fun v acc ->
          match acc with
          | Some _ -> acc
          | None -> (
              let doms' = EMap.add x (ESet.singleton v) doms in
              match ac3 t d doms' with
              | None -> None
              | Some doms'' -> backtrack t d doms''))
        (EMap.find x doms) None

(* [solve t d]: a homomorphism D → A, or None. *)
let solve (t : Template.t) d =
  if ESet.is_empty (Structure.Instance.domain d) then Some EMap.empty
  else
    let doms = seed_domains t d in
    if EMap.exists (fun _ dx -> ESet.is_empty dx) doms then None
    else
      match prune_loops t d doms with
      | None -> None
      | Some doms -> (
          match ac3 t d doms with
          | None -> None
          | Some doms -> backtrack t d doms)

let solvable t d = Option.is_some (solve t d)
