module SSet = Logic.Names.SSet
module SMap = Logic.Names.SMap

(* Semi-naive bottom-up evaluation: in every round after the first, a
   rule only fires through matches that use at least one fact derived in
   the previous round (the delta), found by pinning one positive body
   atom to each delta fact in turn. *)

(* All bindings of [body]'s variables (maps var -> element) matching
   its positive atoms in [inst]. When [pin = Some (atom, fact)] the
   given atom is matched against exactly that fact: its variables are
   fixed and its constants checked up front. *)
let body_bindings inst body ~pin =
  let fixed =
    match pin with
    | None -> Some []
    | Some ((_, ts), (fact : Structure.Instance.fact)) ->
        if List.length ts <> List.length fact.args then None
        else
          List.fold_left2
            (fun acc t target ->
              match (acc, t) with
              | None, _ -> None
              | Some _, Logic.Term.Const c ->
                  if Structure.Element.equal (Structure.Element.Const c) target
                  then acc
                  else None
              | Some fx, Logic.Term.Var v -> (
                  match List.assoc_opt v fx with
                  | Some e when not (Structure.Element.equal e target) -> None
                  | Some _ -> acc
                  | None -> Some ((v, target) :: fx)))
            (Some []) ts fact.args
  in
  match fixed with
  | None -> []
  | Some fixed ->
      Query.Cq.matches ~fixed inst (Program.positive_atoms body)

let neq_holds bind (s, t) =
  let value = function
    | Logic.Term.Const c -> Structure.Element.Const c
    | Logic.Term.Var v -> SMap.find v bind
  in
  not (Structure.Element.equal (value s) (value t))

let instantiate_head bind (r, ts) =
  Structure.Instance.fact r
    (List.map
       (function
         | Logic.Term.Const c -> Structure.Element.Const c
         | Logic.Term.Var v -> SMap.find v bind)
       ts)

let fire_rule inst (rule : Program.rule) ~pin =
  List.filter_map
    (fun bind ->
      let neqs_ok =
        List.for_all
          (function
            | Program.Neq (s, t) -> neq_holds bind (s, t)
            | Program.Pos _ -> true)
          rule.body
      in
      if neqs_ok then Some (instantiate_head bind rule.head) else None)
    (body_bindings inst rule.body ~pin)

(* Full fixpoint. *)
let evaluate (p : Program.t) edb =
  (* Round 0: naive evaluation of every rule. *)
  let new_facts inst facts =
    List.filter (fun f -> not (Structure.Instance.mem f inst)) facts
  in
  let initial =
    List.concat_map (fun r -> fire_rule edb r ~pin:None) p.rules
  in
  let rec loop inst delta =
    if delta = [] then inst
    else begin
      let inst' =
        List.fold_left (fun i f -> Structure.Instance.add_fact f i) inst delta
      in
      let derived =
        List.concat_map
          (fun (r : Program.rule) ->
            List.concat_map
              (fun atom ->
                List.concat_map
                  (fun (d : Structure.Instance.fact) ->
                    if d.rel = fst atom then
                      fire_rule inst' r ~pin:(Some (atom, d))
                    else [])
                  delta)
              (Program.positive_atoms r.body))
          p.rules
      in
      let fresh =
        List.sort_uniq Structure.Instance.compare_fact (new_facts inst' derived)
      in
      loop inst' fresh
    end
  in
  loop edb (List.sort_uniq Structure.Instance.compare_fact (new_facts edb initial))

(* Goal answers D |= Π(ā). *)
let answers p edb =
  let result = evaluate p edb in
  Structure.Instance.tuples p.Program.goal result
  |> List.sort_uniq (List.compare Structure.Element.compare)

let holds p edb tuple =
  let result = evaluate p edb in
  Structure.Instance.mem (Structure.Instance.fact p.Program.goal tuple) result

(* ------------------------------------------------------------------ *)
(* Incremental maintenance: keep the fixpoint alive across insertions
   and retractions instead of recomputing it.

   A "derivation" is a pair (rule, binding) whose instantiated body holds
   in the fixpoint; a fact's support is its number of derivations plus
   one if it is an EDB fact. For nonrecursive programs we maintain exact
   derivation counts (counting algorithm): deletion walks support down
   and removes facts whose count reaches zero. Counting is unsound under
   recursion (cyclic derivations keep each other's counts positive), so
   recursive programs fall back to DRed: overdelete everything reachable
   from the deleted facts, then rederive what the surviving facts still
   support. Insertion needs no counts beyond the bookkeeping: delta
   rounds reuse [fire_rule ~pin], so the planner serves delta-rule
   bodies exactly as it serves [evaluate]. *)

module FMap = Map.Make (struct
  type t = Structure.Instance.fact

  let compare = Structure.Instance.compare_fact
end)

type strategy = Counting | Dred

(* [rule_deps p] is the positive dependency graph head-rel -> body IDB
   rels; the program is recursive iff some IDB relation can reach
   itself. *)
let recursive (p : Program.t) =
  let idb = Program.intensional p in
  let deps =
    List.fold_left
      (fun m (r : Program.rule) ->
        let body_idb =
          List.filter_map
            (fun (b, _) -> if SSet.mem b idb then Some b else None)
            (Program.positive_atoms r.body)
        in
        SMap.update (fst r.head)
          (function None -> Some body_idb | Some old -> Some (body_idb @ old))
          m)
      SMap.empty p.rules
  in
  let succs r = Option.value (SMap.find_opt r deps) ~default:[] in
  let rec reach seen r =
    if SSet.mem r seen then seen
    else List.fold_left reach (SSet.add r seen) (succs r)
  in
  SSet.exists
    (fun r -> List.exists (fun s -> SSet.mem r (reach SSet.empty s)) (succs r))
    idb

type state = {
  program : Program.t;
  edb : Structure.Instance.t;
  derived : Structure.Instance.t;
  counts : int FMap.t; (* derivation counts; empty under Dred *)
  strategy : strategy;
}

let state_edb st = st.edb
let state_derived st = st.derived
let state_strategy st = st.strategy

let state_answers st =
  Structure.Instance.tuples st.program.Program.goal st.derived
  |> List.sort_uniq (List.compare Structure.Element.compare)

(* Distinct (rule, binding) pairs: the body facts a binding uses are a
   function of the binding, so each derivation is keyed by the rule's
   index plus the sorted variable assignment. *)
module DSet = Set.Make (struct
  type t = int * (string * Structure.Element.t) list

  let compare (i, a) (j, b) =
    let c = Int.compare i j in
    if c <> 0 then c
    else
      List.compare
        (fun (v, e) (w, f) ->
          let c = String.compare v w in
          if c <> 0 then c else Structure.Element.compare e f)
        a b
end)

let derivation_key rule_ix bind = (rule_ix, SMap.bindings bind)

(* Bindings of [rule] whose inequalities hold, with instantiated head. *)
let fire_bindings inst (rule : Program.rule) ~pin =
  List.filter_map
    (fun bind ->
      let neqs_ok =
        List.for_all
          (function
            | Program.Neq (s, t) -> neq_holds bind (s, t)
            | Program.Pos _ -> true)
          rule.body
      in
      if neqs_ok then Some (bind, instantiate_head bind rule.head) else None)
    (body_bindings inst rule.body ~pin)

(* All derivations of one round that use at least one [delta] fact,
   deduplicated: a binding matching several pins is one derivation.
   Bodies are evaluated against [inst], which must contain the delta. *)
let delta_derivations (p : Program.t) inst delta =
  let _, derivs =
    List.fold_left
      (fun (rule_ix, acc) (r : Program.rule) ->
        let acc =
          List.fold_left
            (fun acc atom ->
              List.fold_left
                (fun acc (d : Structure.Instance.fact) ->
                  if d.rel = fst atom then
                    List.fold_left
                      (fun (seen, heads) (bind, head) ->
                        let key = derivation_key rule_ix bind in
                        if DSet.mem key seen then (seen, heads)
                        else (DSet.add key seen, head :: heads))
                      acc
                      (fire_bindings inst r ~pin:(Some (atom, d)))
                  else acc)
                acc delta)
            acc
            (Program.positive_atoms r.body)
        in
        (rule_ix + 1, acc))
      (0, (DSet.empty, []))
      p.rules
  in
  snd derivs

let bump n f counts =
  FMap.update f
    (function
      | None -> if n > 0 then Some n else None
      | Some c -> if c + n <= 0 then None else Some (c + n))
    counts

let count_of f counts = Option.value (FMap.find_opt f counts) ~default:0

(* Seed the planner's per-domain index cache for an instance obtained
   from [from] by a small change, so the next round's joins share the
   interned tables instead of rebuilding O(|instance|) state — without
   this, every maintenance round would pay a full index build and the
   delta path would not beat re-evaluation. Purely an optimisation: on
   any miss ([from] not cached, or an added fact over a new element) the
   next [of_instance] just builds from scratch. *)
let reindex ~from ~added ~removed inst =
  if not (inst == from) then
    match Structure.Relindex.cached from with
    | Some idx -> ignore (Structure.Relindex.update idx ~added ~removed inst)
    | None -> ()

(* Insertion rounds shared by [prepare] (seeded with the whole EDB) and
   [insert]: fire delta rules, record each new derivation (bumping
   counts under Counting), and iterate on the genuinely new facts. *)
let insert_rounds ~count st derived counts delta =
  let goal = st.program.Program.goal in
  let rec loop derived counts delta changed =
    match delta with
    | [] -> (derived, counts, changed)
    | _ ->
        let heads = delta_derivations st.program derived delta in
        let counts =
          if count then List.fold_left (fun c h -> bump 1 h c) counts heads
          else counts
        in
        let fresh =
          List.sort_uniq Structure.Instance.compare_fact
            (List.filter
               (fun f -> not (Structure.Instance.mem f derived))
               heads)
        in
        let derived' =
          List.fold_left (fun i f -> Structure.Instance.add_fact f i) derived
            fresh
        in
        reindex ~from:derived ~added:fresh ~removed:[] derived';
        let changed =
          changed || List.exists (fun (f : Structure.Instance.fact) -> f.rel = goal) fresh
        in
        loop derived' counts fresh changed
  in
  loop derived counts delta false

let prepare (p : Program.t) edb =
  let strategy = if recursive p then Dred else Counting in
  let count = strategy = Counting in
  let st = { program = p; edb; derived = edb; counts = FMap.empty; strategy } in
  (* EDB support. *)
  let counts =
    if count then
      Structure.Instance.FactSet.fold (fun f c -> bump 1 f c)
        (Structure.Instance.fact_set edb)
        FMap.empty
    else FMap.empty
  in
  (* Round 0: every derivation over the EDB, one per (rule, binding) —
     deduplicated with the same key the delta rounds use, so insert-side
     and delete-side multiplicities agree. *)
  let _, _, counts, heads =
    List.fold_left
      (fun (rule_ix, seen, counts, heads) (r : Program.rule) ->
        let seen, counts, heads =
          List.fold_left
            (fun (seen, counts, heads) (bind, h) ->
              let key = derivation_key rule_ix bind in
              if DSet.mem key seen then (seen, counts, heads)
              else
                ( DSet.add key seen,
                  (if count then bump 1 h counts else counts),
                  h :: heads ))
            (seen, counts, heads)
            (fire_bindings edb r ~pin:None)
        in
        (rule_ix + 1, seen, counts, heads))
      (0, DSet.empty, counts, []) p.rules
  in
  let fresh =
    List.sort_uniq Structure.Instance.compare_fact
      (List.filter (fun f -> not (Structure.Instance.mem f edb)) heads)
  in
  let derived =
    List.fold_left (fun i f -> Structure.Instance.add_fact f i) edb fresh
  in
  reindex ~from:edb ~added:fresh ~removed:[] derived;
  let derived, counts, _ =
    insert_rounds ~count st derived counts fresh
  in
  { st with derived; counts }

let insert st facts =
  let facts = List.sort_uniq Structure.Instance.compare_fact facts in
  let fresh_edb =
    List.filter (fun f -> not (Structure.Instance.mem f st.edb)) facts
  in
  if fresh_edb = [] then (st, false)
  else
    let count = st.strategy = Counting in
    let goal = st.program.Program.goal in
    let edb =
      List.fold_left (fun i f -> Structure.Instance.add_fact f i) st.edb
        fresh_edb
    in
    let counts =
      if count then List.fold_left (fun c f -> bump 1 f c) st.counts fresh_edb
      else st.counts
    in
    (* Facts genuinely new to the fixpoint seed the delta rounds; facts
       that were already derived only gained EDB support. *)
    let delta =
      List.filter (fun f -> not (Structure.Instance.mem f st.derived)) fresh_edb
    in
    let derived =
      List.fold_left (fun i f -> Structure.Instance.add_fact f i) st.derived
        delta
    in
    reindex ~from:st.derived ~added:delta ~removed:[] derived;
    let changed0 =
      List.exists (fun (f : Structure.Instance.fact) -> f.rel = goal) delta
    in
    let derived, counts, changed =
      insert_rounds ~count { st with edb } derived counts delta
    in
    ({ st with edb; derived; counts }, changed0 || changed)

(* Counting deletion (exact for nonrecursive programs): walk derivation
   support downwards round by round. Each round's pins are evaluated
   against the instance *before* that round's facts are removed, so a
   derivation destroyed by facts from several rounds is decremented
   exactly once — in the earliest round, after which one of its body
   facts is already gone. *)
let retract_counting st present =
  let goal = st.program.Program.goal in
  let counts =
    List.fold_left (fun c f -> bump (-1) f c) st.counts present
  in
  let dead0 = List.filter (fun f -> count_of f counts = 0) present in
  let rec loop pre counts dead removed =
    match dead with
    | [] -> (pre, counts, removed)
    | _ ->
        let heads = delta_derivations st.program pre dead in
        let counts = List.fold_left (fun c h -> bump (-1) h c) counts heads in
        let next = List.fold_left (fun i f -> Structure.Instance.remove_fact f i) pre dead in
        reindex ~from:pre ~added:[] ~removed:dead next;
        let dead' =
          List.sort_uniq Structure.Instance.compare_fact
            (List.filter
               (fun f ->
                 count_of f counts = 0 && Structure.Instance.mem f next)
               heads)
        in
        loop next counts dead' (List.rev_append dead removed)
  in
  let derived, counts, removed = loop st.derived counts dead0 [] in
  let edb = List.fold_left (fun i f -> Structure.Instance.remove_fact f i) st.edb present in
  let changed =
    List.exists (fun (f : Structure.Instance.fact) -> f.rel = goal) removed
  in
  ({ st with edb; derived; counts }, changed)

(* DRed: overdelete everything whose support touches a deleted fact
   (EDB facts keep base support and are never overdeleted), then
   rederive from what survives. *)
let retract_dred st present =
  let goal = st.program.Program.goal in
  let edb =
    List.fold_left (fun i f -> Structure.Instance.remove_fact f i) st.edb
      present
  in
  let rec overdelete pre dead removed =
    match dead with
    | [] -> (pre, removed)
    | _ ->
        let heads = delta_derivations st.program pre dead in
        let next =
          List.fold_left (fun i f -> Structure.Instance.remove_fact f i) pre
            dead
        in
        reindex ~from:pre ~added:[] ~removed:dead next;
        let removed =
          List.fold_left (fun s f -> Structure.Instance.FactSet.add f s)
            removed dead
        in
        let dead' =
          List.sort_uniq Structure.Instance.compare_fact
            (List.filter
               (fun f ->
                 Structure.Instance.mem f next
                 && (not (Structure.Instance.mem f edb))
                 && not (Structure.Instance.FactSet.mem f removed))
               heads)
        in
        overdelete next dead' removed
  in
  let reduced, removed =
    overdelete st.derived present Structure.Instance.FactSet.empty
  in
  (* Rederive: one naive round over the survivors restores overdeleted
     facts that still have a derivation; the usual delta rounds finish
     the fixpoint. *)
  let seeds =
    List.concat_map
      (fun (r : Program.rule) ->
        List.filter
          (fun f ->
            Structure.Instance.FactSet.mem f removed
            && not (Structure.Instance.mem f reduced))
          (fire_rule reduced r ~pin:None))
      st.program.rules
    |> List.sort_uniq Structure.Instance.compare_fact
  in
  let rederived =
    List.fold_left (fun i f -> Structure.Instance.add_fact f i) reduced seeds
  in
  reindex ~from:reduced ~added:seeds ~removed:[] rederived;
  let derived, _, _ =
    insert_rounds ~count:false { st with edb } rederived st.counts seeds
  in
  let changed =
    Structure.Instance.FactSet.exists
      (fun f -> f.rel = goal && not (Structure.Instance.mem f derived))
      removed
  in
  ({ st with edb; derived }, changed)

let retract st facts =
  let facts = List.sort_uniq Structure.Instance.compare_fact facts in
  let present = List.filter (fun f -> Structure.Instance.mem f st.edb) facts in
  if present = [] then (st, false)
  else
    match st.strategy with
    | Counting -> retract_counting st present
    | Dred -> retract_dred st present
