(** The incremental certain-answer engine: ground (O, D, extra fresh
    nulls) once into a persistent CDCL solver, then answer per-tuple
    certainty queries by solving under assumption literals (the negated
    reified query instantiation). Learned clauses and query reifications
    are kept for the session's lifetime, so batches of tuple checks over
    the same (O, D) pay for one grounding.

    A session at bound [extra] searches countermodels over dom(D) plus
    [extra] labelled nulls. Refutations are exact; a confirmation holds
    "up to the bound". {!deepen} is the one iterative-deepening front
    over bounds 0..[max_extra]: GF and GC2 have the finite model
    property, so deepening converges in the limit.

    A session keeps the last model any solve found as its {e witness}:
    a model of O and D refutes every query that fails in it, so most
    non-answers are settled without the solver. The witness is held as
    the solver's model bitmap; existential-free CQs are evaluated on its
    fact variables, and an instance is built from it only for CQs with
    existential variables and for the operations returning models.

    Every operation accepts a [?budget] (default {!Budget.unlimited}).
    The plain forms raise {!Budget.Exhausted} on a trip; {!try_deepen}
    returns a typed {!Budget.outcome} instead. A trip never corrupts a
    session: cancellation points sit where the solver's invariants hold
    and partially-emitted reifications are unreferenced definitional
    fragments, so the session keeps answering later queries exactly like
    a fresh engine. *)

type t

(** Ground (O, D) with exactly [extra] fresh nulls. [extra_signature]
    pre-registers further relations (query relations are also admitted
    on demand later). [stats] defaults to a fresh per-session record;
    every update is mirrored into {!Stats.global}. May raise
    {!Budget.Exhausted} while grounding when budgeted.

    With [~dynamic:true] the instance's facts are carried as the
    solver's persistent base assumptions ({!Dpll.set_base}: their
    dense-rank fact variables, planted once and kept propagated across
    solves) instead of unit clauses, enabling {!insert_facts} /
    {!retract_facts} without a solver rebuild. Dynamic engines mutate
    their instance in place and must not enter the keyed {!session}
    cache. *)
val create :
  ?stats:Stats.t ->
  ?extra_signature:Logic.Signature.t ->
  ?budget:Budget.t ->
  ?dynamic:bool ->
  extra:int ->
  Logic.Ontology.t ->
  Structure.Instance.t ->
  t

val ontology : t -> Logic.Ontology.t
val instance : t -> Structure.Instance.t
val extra : t -> int
val stats : t -> Stats.t

(** A model of O and D over the session domain, if any (the session's
    most recent model when it has one). *)
val find_model : ?budget:Budget.t -> t -> Structure.Instance.t option

(** Memoized: solved once per session (only a completed verdict is
    memoized), sound because query reifications are definitional
    extensions. [true] without a solve when the session holds a witness;
    a satisfying solve keeps its model as the witness. *)
val is_consistent : ?budget:Budget.t -> t -> bool

(** A countermodel to O,D ⊨ q(ā) over the session domain, if any. The
    session's most recent model is returned without a solver call when
    it already refutes q(ā). *)
val countermodel :
  ?budget:Budget.t ->
  t ->
  Query.Ucq.t ->
  Structure.Element.t list ->
  Structure.Instance.t option

(** A countermodel to O,D ⊨ q₁(ā₁) ∨ … ∨ qₙ(āₙ) at this session's
    bound, if any. *)
val countermodel_disjunction :
  ?budget:Budget.t ->
  t ->
  (Query.Cq.t * Structure.Element.t list) list ->
  Structure.Instance.t option

(** O,D ⊨ q(ā) at this session's bound: {!countermodel} finds none. The
    verdict alone — no countermodel instance is built. *)
val certain :
  ?budget:Budget.t -> t -> Query.Ucq.t -> Structure.Element.t list -> bool

(** The verdict of {!countermodel_disjunction}, likewise. *)
val certain_disjunction :
  ?budget:Budget.t -> t -> (Query.Cq.t * Structure.Element.t list) list -> bool

(** Certain truth of an FO(=, counting) formula under an assignment. *)
val certain_formula :
  ?budget:Budget.t ->
  ?env:Structure.Element.t Logic.Names.SMap.t ->
  t ->
  Logic.Formula.t ->
  bool

(** A model of O and D over the session domain satisfying exactly the
    flagged pointed queries: [(q, ā, true)] entries hold in it,
    [(q, ā, false)] entries fail. Backs the materializability search. *)
val pool_exact_model :
  ?budget:Budget.t ->
  t ->
  (Query.Cq.t * Structure.Element.t list * bool) list ->
  Structure.Instance.t option

(** {2 Delta maintenance}

    Only engines created with [~dynamic:true] maintain deltas; both
    operations answer [`Needs_rebuild] on static engines, on facts over
    elements outside the grounded domain, and on retractions that would
    vacate a domain element (the grounding quantifies over the original
    domain, so shrinking it requires a reopen to keep verdicts identical
    to a fresh session). On [`Delta] the engine's instance, memoized
    consistency verdict and cached witness are all kept consistent, and
    [engine.delta.*] spans and metrics are emitted. *)

val is_dynamic : t -> bool

(** Add facts as new assumptions. New relations are admitted on demand;
    already-present facts are ignored. *)
val insert_facts :
  ?budget:Budget.t ->
  t ->
  Structure.Instance.fact list ->
  [ `Delta | `Needs_rebuild ]

(** Drop facts by forgetting their assumptions. Absent facts are
    ignored. *)
val retract_facts :
  ?budget:Budget.t ->
  t ->
  Structure.Instance.fact list ->
  [ `Delta | `Needs_rebuild ]

(** The solver's kept model satisfies every clause it is recorded to
    satisfy ({!Dpll.kept_model_holds}). For tests. *)
val kept_model_holds : t -> bool

(** {2 The session cache}

    The registry is domain-local: an engine holds single-writer solver
    and grounder state, so engines are never shared across domains —
    each worker domain keeps its own LRU, and {!set_cache_capacity} /
    {!clear_cache} act on the calling domain only.

    Sessions are cached LRU, keyed by (ontology digest, instance digest,
    extra bound); hits and misses are recorded in the stats records. A
    session enters the cache only after its grounding completed, so a
    budget trip during construction never caches a half-built engine. *)

(** Fetch or build the session for (O, D, extra). *)
val session :
  ?stats:Stats.t ->
  ?extra_signature:Logic.Signature.t ->
  ?budget:Budget.t ->
  extra:int ->
  Logic.Ontology.t ->
  Structure.Instance.t ->
  t

val set_cache_capacity : int -> unit
val clear_cache : unit -> unit

(** Number of currently cached sessions. *)
val cached_sessions : unit -> int

(** {2 Iterative deepening} *)

(** [deepen ~max_extra step] runs [step k] for the bounds
    k = 0, 1, …, [max_extra] (default 2) in order and returns the first
    decisive ([Some]) result, or [None] when no bound decides. A step
    usually asks a per-bound engine — a {!session}, or one the caller
    holds — e.g. for a countermodel (certainty is [None]) or a model
    (consistency is [Some]). *)
val deepen : ?max_extra:int -> (int -> 'a option) -> 'a option

(** Typed-budget form of {!deepen}. On a trip, [`Timeout k] /
    [`Out_of_fuel k] reports that bounds 0..k-1 completed without a
    decision. The budget governs only what the step threads it into. *)
val try_deepen :
  Budget.t ->
  ?max_extra:int ->
  (int -> 'a option) ->
  ('a option, int) Budget.outcome
