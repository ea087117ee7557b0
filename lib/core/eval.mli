(** Operational semantics of KOLA — Tables 1 and 2, executable.

    The evaluator is parameterised by a database environment (resolving
    {!Value.Named} extents), an execution backend, a duplicate-elimination
    discipline, work counters used by the benchmarks as an
    implementation-independent cost measure, an optional budget on
    those counters' weighted blend, and an optional sub-plan memo.

    The recursion runs on interned terms ({!Term.Hc}); the plain entry
    points ({!func}, {!pred}, {!run}, [eval_*]) intern the plan and
    delegate to it.  Interning is modulo {!Value.equal}, so a plan
    constant holding an object is evaluated through the first interned
    object with its class and oid. *)

exception Error of string

(** [Naive] executes join/nest by the literal semantics equations (nested
    loops).  [Hashed] recognises join predicates of the form
    [q ⊕ (g1 × g2)] with [q ∈ {eq, in}] (possibly under [&] with a residual
    conjunct) and executes them with hash indexes, and groups nest by
    hashing.  Untangling hidden joins (Section 4) exists precisely to
    expose such structure. *)
type backend = Naive | Hashed

(** [Eager] canonicalises every intermediate collection as a set.
    [Deferred] keeps intermediates as bags and deduplicates once at the end
    — the paper's "defer duplicate elimination" extension; sound only for
    duplicate-insensitive pipelines (see test_bags.ml). *)
type dedup = Eager | Deferred

type counters = {
  mutable func_calls : int;
  mutable pred_calls : int;
  mutable tuples : int;  (** collection elements touched *)
}

val fresh_counters : unit -> counters

val weighted : tuples:int -> func_calls:int -> pred_calls:int -> float
(** [tuples + 0.1 * func_calls + 0.1 * pred_calls]: the blend plans are
    ranked by.  It is monotone in each counter, bit for bit, so the blend
    of a run's counters part way through never exceeds the final one. *)

val weighted_of : counters -> float

exception Over_budget
(** Raised by a budgeted evaluation once the weighted blend of its
    counters exceeds the budget.  The counters then hold the partial
    work, whose blend is a lower bound on the plan's cost that is above
    the budget. *)

(** {1 Sub-plan memo}

    KOLA has no variables, so [f ! v] has the same result and charges the
    same work in every plan that contains [f].  A {!session} remembers
    both for composite nodes whose subtree charges tuples, keyed by the
    interned node's id and the input (objects compared by physical
    identity), and is shared by every evaluation whose context names it.
    A remembered evaluation is only replayed while its work keeps the
    weighted blend within the context's budget, so costs, cut points and
    partial counters are those of evaluating without a session, bit for
    bit.  An entry is stored from a node's second evaluation in the
    session on; each domain fills its own bounded table, valid for one
    database.  Failed and cut evaluations are never stored. *)

type session

val session : unit -> session

type memo

type ctx = {
  db : (string * Value.t) list;
  backend : backend;
  dedup : dedup;
  counters : counters;
  budget : float;
      (** checked after every tuple charge and when {!run} finishes;
          [infinity] (the default) never cuts *)
  memo : memo option;  (** the calling domain's table of a session *)
}

val ctx :
  ?db:(string * Value.t) list ->
  ?backend:backend ->
  ?dedup:dedup ->
  ?budget:float ->
  ?session:session ->
  unit ->
  ctx

val memo_hits : ctx -> int
(** Evaluations this context answered from its session. *)

val memo_stored : ctx -> int
(** Entries this context's evaluations added to its session. *)

(** {1 Evaluation} *)

val hfunc : ctx -> Term.Hc.fnode -> Value.t -> Value.t
(** [hfunc ctx f v] is [f ! v].
    @raise Error on type-improper application or unbound extents. *)

val hpred : ctx -> Term.Hc.pnode -> Value.t -> bool
(** [hpred ctx p v] is [p ? v]. *)

val hrun : ctx -> Term.Hc.hquery -> Value.t
(** Evaluate an interned query; under [Deferred] dedup, finalizes the
    result.
    @raise Over_budget exactly when the query's weighted cost exceeds
    the context's budget. *)

val func : ctx -> Term.func -> Value.t -> Value.t
(** {!hfunc} on the interned term. *)

val pred : ctx -> Term.pred -> Value.t -> bool
(** {!hpred} on the interned term. *)

val run : ctx -> Term.query -> Value.t
(** {!hrun} with the body interned; the argument is used as given. *)

val hash_joinable :
  Term.pred ->
  ([ `Eq | `In ] * Term.func * Term.func * Term.pred option) option
(** Decompose a join predicate into an indexable part and a residual
    conjunct, if possible.  The hashed backend uses the same
    decomposition, remembered per interned predicate. *)

val finalize : Value.t -> Value.t
(** Canonicalise every bag in a value into a set. *)

val deep_resolve : ctx -> Value.t -> Value.t
(** Replace every {!Value.Named} extent by its database contents, so results
    can be compared structurally. *)

(** {1 One-shot entry points} *)

val eval_func :
  ?db:(string * Value.t) list -> ?backend:backend -> ?dedup:dedup ->
  Term.func -> Value.t -> Value.t

val eval_pred :
  ?db:(string * Value.t) list -> ?backend:backend -> ?dedup:dedup ->
  Term.pred -> Value.t -> bool

val eval_query :
  ?db:(string * Value.t) list -> ?backend:backend -> ?dedup:dedup ->
  Term.query -> Value.t
