(** The Theorem 5 type-based procedure for binary signatures: compute
    the realizable types over cl(O, q), assign candidate sets to the
    maximally guarded tuples of the instance, prune to neighbour
    compatibility, and answer from the surviving sets.

    This is the semantics of the paper's Datalog≠ rewriting Π (whose
    predicates P{_Θ} range over sets of types): the pruning fixpoint
    here is exactly the set of facts Π derives. It characterises
    certain answers for unravelling-tolerant ontologies; on others it
    computes the unravelling side of Definition 3. *)

exception Not_two_variable of string

type closure

(** cl(O, q): subformulas of O, atomic formulas over the joint
    signature, equality, and the query, closed under x↔y swap.
    @raise Not_two_variable outside the binary/two-variable setting. *)
val closure : Logic.Ontology.t -> Query.Cq.t -> closure

(** Number of closure entries. *)
val size : closure -> int

type types

(** Realizable types, enumerated as projections of bounded models of O
    onto the reified closure ([extra] fresh witness elements). May raise
    {!Reasoner.Budget.Exhausted} when budgeted. *)
val enumerate_types :
  ?budget:Reasoner.Budget.t -> ?extra:int -> ?limit:int -> closure -> types

type state

(** Assign initial type sets to the instance's guarded tuples and prune
    to the fixpoint. Budget checkpoints sit between pruning passes,
    where the surviving sets are a sound over-approximation. *)
val run :
  ?budget:Reasoner.Budget.t ->
  ?extra:int ->
  ?limit:int ->
  Logic.Ontology.t ->
  Query.Cq.t ->
  Structure.Instance.t ->
  state

(** The rewritten evaluation of q(ā) on D. *)
val entails :
  ?budget:Reasoner.Budget.t ->
  ?extra:int ->
  ?limit:int ->
  Logic.Ontology.t ->
  Query.Cq.t ->
  Structure.Instance.t ->
  Structure.Element.t list ->
  bool

(** (number of guarded tuples, total surviving types). *)
val statistics : state -> int * int
