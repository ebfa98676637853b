(** Bottom-up Datalog≠ evaluation. [evaluate] is semi-naive: after the
    first round, rules only fire through matches touching the previous
    round's delta. Rule bodies are matched as [Structure.Eval] joins
    compiled by [Query.Cq.matches]; the naive fixpoint the tests compare
    against lives in the test suite's oracle. *)

(** All derivable facts (EDB ∪ IDB fixpoint). *)
val evaluate : Program.t -> Structure.Instance.t -> Structure.Instance.t

(** Tuples of the goal relation, sorted. *)
val answers :
  Program.t -> Structure.Instance.t -> Structure.Element.t list list

(** D ⊨ Π(ā). *)
val holds :
  Program.t -> Structure.Instance.t -> Structure.Element.t list -> bool

(** {1 Incremental maintenance}

    [prepare] materialises the fixpoint once; [insert]/[retract] keep it
    consistent under EDB updates without re-evaluating from scratch.
    Nonrecursive programs use exact derivation counting for deletion;
    recursive programs fall back to DRed (overdelete, then rederive).
    Delta-rule bodies go through the same planner-backed
    [fire_rule ~pin] machinery as [evaluate]. *)

(** Deletion strategy in force for a state. *)
type strategy = Counting | Dred

(** [recursive p] holds iff some intensional relation of [p] depends on
    itself through positive body atoms. *)
val recursive : Program.t -> bool

type state

(** Materialise the fixpoint of [p] over an EDB. *)
val prepare : Program.t -> Structure.Instance.t -> state

(** [insert st facts] adds EDB facts and extends the fixpoint with their
    consequences. The flag is true iff the goal answers changed. *)
val insert : state -> Structure.Instance.fact list -> state * bool

(** [retract st facts] removes EDB facts and every derived fact that
    loses all support. Facts not in the EDB are ignored. The flag is
    true iff the goal answers changed. *)
val retract : state -> Structure.Instance.fact list -> state * bool

(** Current extensional facts. *)
val state_edb : state -> Structure.Instance.t

(** Current fixpoint (must equal [evaluate p (state_edb st)]). *)
val state_derived : state -> Structure.Instance.t

(** Sorted goal tuples of the current fixpoint. *)
val state_answers : state -> Structure.Element.t list list

val state_strategy : state -> strategy
