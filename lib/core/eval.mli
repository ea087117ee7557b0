(** Operational semantics of KOLA — Tables 1 and 2, executable.

    The evaluator is parameterised by a database environment (resolving
    {!Value.Named} extents), an execution backend, a duplicate-elimination
    discipline, work counters used by the benchmarks as an
    implementation-independent cost measure, and an optional budget on
    those counters' weighted blend. *)

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

type ctx = {
  db : (string * Value.t) list;
  backend : backend;
  dedup : dedup;
  counters : counters;
  budget : float;
      (** checked after every tuple charge and when {!run} finishes;
          [infinity] (the default) never cuts *)
}

val ctx :
  ?db:(string * Value.t) list ->
  ?backend:backend ->
  ?dedup:dedup ->
  ?budget:float ->
  unit ->
  ctx

val func : ctx -> Term.func -> Value.t -> Value.t
(** [func ctx f v] is [f ! v].
    @raise Error on type-improper application or unbound extents. *)

val pred : ctx -> Term.pred -> Value.t -> bool
(** [pred ctx p v] is [p ? v]. *)

val run : ctx -> Term.query -> Value.t
(** Evaluate a query; under [Deferred] dedup, finalizes the result.
    @raise Over_budget exactly when the query's weighted cost exceeds
    the context's budget. *)

val hash_joinable :
  Term.pred ->
  ([ `Eq | `In ] * Term.func * Term.func * Term.pred option) option
(** Decompose a join predicate into an indexable part and a residual
    conjunct, if possible. *)

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
