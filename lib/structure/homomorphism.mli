(** Homomorphisms between instances/interpretations (Section 2),
    enumerated as joins by the {!Eval} planner over the target's
    {!Relindex}. *)

type map = Element.t Element.Map.t

(** [apply m e] looks up [e], defaulting to [e] itself. *)
val apply : map -> Element.t -> Element.t

(** [is_homomorphism m ~source ~target] checks that [m] maps every fact of
    [source] to a fact of [target]. *)
val is_homomorphism : map -> source:Instance.t -> target:Instance.t -> bool

(** [fold ~source ~target f init] enumerates homomorphisms extending
    [fixed], in the deterministic order of the join plan over [source]'s
    facts; source elements in no fact range over the whole target
    domain. [f] returns [(stop, acc)]. *)
val fold :
  ?fixed:map ->
  source:Instance.t ->
  target:Instance.t ->
  (map -> 'a -> bool * 'a) ->
  'a ->
  'a

(** First homomorphism extending [fixed], if any. *)
val find :
  ?fixed:map -> source:Instance.t -> target:Instance.t -> unit -> map option

val exists :
  ?fixed:map -> source:Instance.t -> target:Instance.t -> unit -> bool

(** All homomorphisms extending [fixed]. *)
val all :
  ?fixed:map -> source:Instance.t -> target:Instance.t -> unit -> map list

(** Identity map on a set of elements, for use as [fixed] (homomorphisms
    preserving a set of constants). *)
val fixed_identity : Element.Set.t -> map
