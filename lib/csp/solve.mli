(** CSP solving for binary templates: unary seeding, AC-3 propagation,
    backtracking with minimum remaining values. *)

type domains = Structure.Element.Set.t Structure.Element.Map.t

(** A homomorphism D → A as an assignment, or [None]. *)
val solve :
  Template.t ->
  Structure.Instance.t ->
  Structure.Element.t Structure.Element.Map.t option

val solvable : Template.t -> Structure.Instance.t -> bool
