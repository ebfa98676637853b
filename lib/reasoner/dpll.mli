(** A CDCL SAT solver (two-watched literals, 1-UIP learning, VSIDS,
    restarts) used by the bounded model finder and the incremental
    engine. Literals are non-zero integers ±v for 1-based variables.

    The solver is persistent: {!make} creates one that accepts new
    variables and clauses between calls via {!ensure_nvars} and
    {!assert_clause}, keeps its learned clauses, and solves under
    assumption literals with {!solve_assuming}.

    Assumptions come in two tiers. The {e base} ({!set_base}) is planted
    as one decision level, level 1, and stays propagated across solves;
    per-call assumptions are planted above it, one level each. Level 1
    is replanted only after {!set_base}, a clause addition, a learned
    clause that backjumps to level 0 or a conflict at level 1.

    The solver keeps the model of its last satisfying verdict, with the
    number of clauses that model is known to satisfy: it satisfies every
    clause below that count. A later search propagates its base and
    assumptions as usual, and where it would take its first decision it
    first tries to {e repair} the kept model: every literal on the trail
    is fixed, the model is flipped to agree with them, and each clause
    that may have become false (it holds a flipped variable, or was added
    after the model) flips one unfixed variable, each at most once. A
    repair that succeeds answers satisfiable without a decision; one that
    meets a false clause with every variable fixed, or a constant work
    bound, is undone and CDCL runs as before. Every satisfying answer is
    thus a checked model, and unsatisfiable is only ever answered by
    CDCL. *)

type result =
  | Sat of bool array  (** index v-1 holds the value of variable v *)
  | Unsat

(** A persistent incremental solver. *)
type t

val make : nvars:int -> t

(** Admit variables 1..n (idempotent, may only grow). *)
val ensure_nvars : t -> int -> unit

(** Add a clause at level 0 (cancelling any open decision levels).
    Duplicate literals are removed and tautologies dropped by one
    sort-and-scan pass. Registers unseen variables automatically. *)
val assert_clause : t -> int list -> unit

(** [assert_clause_slice s buf off len] asserts the clause stored as the
    literal slice [buf.[off..off+len)] — the grounder's flat clause
    arena feeds this directly, with no per-clause list. [buf] is not
    modified. *)
val assert_clause_slice : t -> int array -> int -> int -> unit

(** Seed branching activity from the clause stored as the arena slice
    [buf.[off..off+len)] (Jeroslow-Wang-ish weights); call before
    {!assert_clause_slice} when building a solver incrementally. *)
val seed_clause_slice : t -> int array -> int -> int -> unit

(** [set_base s lits] makes [lits] the persistent assumptions every
    later solve runs under, replacing the previous base. O(1): the old
    level 1 is cancelled by the next solve, which plants the new one.
    Also, a conflict at level 1 drops it. A base contradicting the clauses makes every solve answer
    unsatisfiable without {!is_broken} becoming true. *)
val set_base : t -> int list -> unit

(** Solve the accumulated clauses under the base and temporary
    assumption literals. Learned clauses persist; assumptions do not.
    With a [budget], the CDCL loop checkpoints between
    propagation/decision rounds (debiting fuel by propagations +
    conflicts), a repair checkpoints once per flip (debiting the
    literals it visited), and either may raise {!Budget.Exhausted}; the
    solver and its kept model remain consistent and reusable after such
    a trip. *)
val solve_assuming : ?budget:Budget.t -> t -> int list -> result

(** {!solve_assuming} without materializing the model — for callers
    that only need the verdict, or read the model with {!model_bits}. *)
val sat_assuming : ?budget:Budget.t -> t -> int list -> bool

(** A copy of the kept model as a bitmap (bit [v-1] holds variable
    [v]): the model of the last satisfying verdict. Only meaningful
    directly after {!sat_assuming} returned [true], before any other
    call on the solver. *)
val model_bits : t -> Bytes.t

(** The kept model satisfies every clause it is recorded to satisfy
    (vacuously, before any satisfying verdict): the invariant a repair
    starts from, checked in full. For tests. *)
val kept_model_holds : t -> bool

(** [bit m v]: variable [v] in a {!model_bits} bitmap. Variables past
    the bitmap's end — admitted after the solve — read [false]. *)
val bit : Bytes.t -> int -> bool

(** The solver derived a contradiction at level 0: unsatisfiable no
    matter the assumptions, permanently. *)
val is_broken : t -> bool

(** Cumulative (decisions, propagations, conflicts). *)
val counters : t -> int * int * int

(** One-shot solve. May raise {!Budget.Exhausted} when budgeted. *)
val solve : ?budget:Budget.t -> nvars:int -> int list list -> result

(** One-shot solve over a clause iterator: [iter f] must call
    [f buf off len] once per clause slice and be re-runnable (it is
    iterated twice: once to seed activities/phases, once to assert). *)
val solve_iter :
  ?budget:Budget.t -> nvars:int -> ((int array -> int -> int -> unit) -> unit) -> result

(** Truth of a literal in a model array. *)
val lit_true : bool array -> int -> bool

(** Enumerate models projected onto the [project]ed literals, blocking
    each projection; stops at [limit]. Incremental underneath: one
    persistent solver, learned clauses kept across models. *)
val enumerate :
  ?budget:Budget.t ->
  nvars:int ->
  project:int list ->
  ?limit:int ->
  int list list ->
  bool array list

(** {!enumerate} over a clause iterator (see {!solve_iter}; here the
    iterator runs once). *)
val enumerate_iter :
  ?budget:Budget.t ->
  nvars:int ->
  project:int list ->
  ?limit:int ->
  ((int array -> int -> int -> unit) -> unit) ->
  bool array list
