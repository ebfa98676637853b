(** The shared grounding-problem builder behind {!Engine} and one-shot
    model enumeration: models of (O, D) are sought over dom(D) plus [extra]
    fresh labelled nulls, with the ontology's, the instance's and any
    extra signature's relations registered. *)

(** dom(D) plus [extra] fresh nulls (never empty). *)
val domain : extra:int -> Structure.Instance.t -> Structure.Element.t list

(** The joint signature of the ontology, the instance and
    [extra_signature]. *)
val signature :
  ?extra_signature:Logic.Signature.t ->
  Logic.Ontology.t ->
  Structure.Instance.t ->
  Logic.Signature.t

(** [build ?budget ?extra_signature ~extra o d] grounds O and D over the
    bounded domain: instance facts asserted, all ontology sentences
    asserted. With [~assert_facts:false] the instance contributes only
    its domain and signature — the caller assumes its facts as solver
    literals instead (dynamic engines). May raise {!Budget.Exhausted}
    when budgeted. *)
val build :
  ?budget:Budget.t ->
  ?extra_signature:Logic.Signature.t ->
  ?assert_facts:bool ->
  extra:int ->
  Logic.Ontology.t ->
  Structure.Instance.t ->
  Ground.t
