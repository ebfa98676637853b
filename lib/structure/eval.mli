(** Selectivity-ordered join evaluation over {!Relindex}.

    Conjunctive bodies are atom lists over integer variables and
    constant elements. {!make_plan} orders atoms greedily — smallest
    estimated row count (cardinality over bound-position distinct
    counts) first, ties broken by fewest unbound variables, smallest
    relation, then original index — a pure function of the atoms and
    index statistics, so plans and enumeration orders are
    deterministic. {!fold} executes the plan depth-first, serving each
    atom's bound positions through the index's adaptive scan→hash
    access paths. *)

type term = Const of Element.t | Var of int
type atom = { rel : string; args : term array }

val atom : string -> term list -> atom

(** {2 Per-domain switch}

    When off, callers ({!Homomorphism}, [Query.Cq], the chase, semi-
    naive Datalog) fall back to their pre-planner naive paths. Exists so
    the equivalence suite and the bench can run both pipelines. *)

val planner_enabled : unit -> bool
val set_planner_enabled : bool -> unit

(** Run [f] with the switch set, restoring the previous value. *)
val with_planner : bool -> (unit -> 'a) -> 'a

type access = Membership | Lookup | Scan

type step = {
  atom_ix : int;  (** index into the original atom list *)
  mask : int;  (** argument positions bound when this atom runs *)
  est : float;  (** estimated matching rows *)
  access : access;
  rel_size : int;
}

type plan = { atoms : atom array; order : step list; nvars : int }

(** [make_plan idx ?bound atoms] plans the join with the variables in
    [bound] treated as already bound (they will be pre-bound at
    execution). Emits an [eval.plan] span when tracing is enabled, at
    most once per distinct body shape per domain. *)
val make_plan : Relindex.t -> ?bound:int list -> atom list -> plan

(** The chosen order, access paths and estimates as a JSON object. *)
val explain_json : plan -> Obs.Json.t

(** [fold idx plan ~bindings f init] enumerates every assignment of the
    plan's variables satisfying all atoms, depth-first in plan order.
    [bindings] pre-binds variables; every variable below [plan.nvars]
    must occur in an atom or in [bindings]. [f] gets the assignment
    (array indexed by variable — valid only during the call) and the
    accumulator, returning [(stop, acc)]. *)
val fold :
  Relindex.t ->
  plan ->
  bindings:(int * Element.t) list ->
  (Element.t array -> 'a -> bool * 'a) ->
  'a ->
  'a

val exists : Relindex.t -> plan -> bindings:(int * Element.t) list -> bool

val pp_atom : atom Fmt.t
