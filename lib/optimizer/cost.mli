(** A calibration-based cost model: run the candidate plan on a sample
    database and charge it for the evaluator's work counters.  Tuples
    touched dominate; combinator dispatch is cheap.

    {1 Branch and bound}

    Only the cheapest of several candidates is kept, so a candidate need
    only be run until it costs more than the best one known.
    {!measure_within} and the memoized entry points take a [budget] (the
    memoized ones default it to [infinity]): evaluation stops once its
    weighted cost exceeds the budget ({!Kola.Eval.Over_budget}).  The
    weighted cost only grows while a plan runs, so a plan cut at budget
    [b] costs more than [b] and can never become the best of candidates
    that cost [<= b].  Choices made under budgets are therefore the
    choices unbudgeted costing makes, bit for bit. *)

type t = {
  tuples : int;
  func_calls : int;
  pred_calls : int;
  weighted : float;
  cut : bool;
      (** evaluation stopped at a budget: the counters are the partial
          work, and [weighted] is a lower bound above that budget *)
}

val weighted : tuples:int -> func_calls:int -> pred_calls:int -> float
(** {!Kola.Eval.weighted}, the one definition of the blend. *)

val of_counters : Kola.Eval.counters -> t

val measure :
  ?backend:Kola.Eval.backend ->
  ?dedup:Kola.Eval.dedup ->
  db:(string * Kola.Value.t) list ->
  Kola.Term.query ->
  Kola.Value.t * t
(** Run the plan to the end and return its result and exact cost. *)

val measure_within :
  ?backend:Kola.Eval.backend ->
  ?dedup:Kola.Eval.dedup ->
  budget:float ->
  db:(string * Kola.Value.t) list ->
  Kola.Term.query ->
  t
(** The plan's exact cost when it is [<= budget]; otherwise a [cut]
    cost whose [weighted] lies in (budget, exact cost].
    @raise Kola.Eval.Error when the plan fails to evaluate within the
    budget. *)

val pp : t Fmt.t
(** A cut cost prints its counters as lower bounds and its weighted cost
    as [> b]. *)

val of_exec_stats : Kola_exec.Exec.stats -> t
(** Compiled-loop counters on the interpreter's cost scale: tuples map to
    tuples; hash builds and probes stand in for func/pred dispatch. *)

val measure_exec :
  ?backend:Kola_exec.Exec.backend ->
  ?dedup:Kola.Eval.dedup ->
  db:(string * Kola.Value.t) list ->
  Kola.Term.query ->
  Kola.Value.t * t * Kola_exec.Exec.stats
(** Like {!measure} through the execution backends of {!Kola_exec.Exec}:
    [~backend:Compiled] (the default) runs the fused-loop closures,
    falling back to the interpreter on unsupported plans (recorded in the
    returned stats); [~backend:(Interp b)] is the interpreter itself. *)

(** {1 Memoized costing}

    Executed costing dominates rewrite-space exploration, and the same
    subplans are re-encountered constantly.  The cache is keyed by
    {!Kola.Term.Hc.query_key} — the id of an interned query's memoized
    canonical body paired with its argument's id — so associativity
    variants of one plan share an entry and a probe is O(1).  Entries are valid for a single database: costing
    against a different database (by physical identity) flushes the
    cache.

    {2 Exact costs and lower bounds}

    An entry holds either an exact cost or, when its evaluation was cut
    at a budget, a lower bound P: the plan costs at least P.  A lookup
    under budget B is answered by an exact entry, or by a bound with
    P > B; otherwise the plan is evaluated again, which counts as one
    miss.  An insert never replaces an exact entry with a bound, nor a
    bound with a lower bound, so entries only get more precise.

    {2 Capacity and eviction}

    [size] is a hard bound on resident entries, enforced by
    {e second-chance} eviction: every entry carries a reference bit that
    a hit sets; when an insert finds the cache full, a single sweep
    evicts every entry whose bit is clear and clears the bit of the
    rest — so an entry survives a sweep iff it was hit since the
    previous one.  If every entry was hit (the working set exceeds the
    capacity), the whole cache is dropped rather than swept on every
    insert.  Evicted entries are counted in {!stats.evictions}; the
    sweep is O(capacity) but amortized O(1) per insert while a constant
    fraction of entries stays cold between sweeps.

    {2 Concurrency}

    Caches may be shared across domains (the serving daemon shares one
    cost cache and one plan cache across its workers): every table
    operation runs under the cache's mutex and the cache-wide counters
    are atomic, so {!cache_stats} never observes a torn count.  Plan
    evaluation on a miss happens outside the lock; two domains racing on
    one missing key may evaluate it twice, which is harmless — the
    evaluations are deterministic and the more precise insert wins.
    What one caller did to a shared cache is counted in its own
    {!tally}, never as a difference of the cache-wide counters, which
    other callers move. *)

type cache

type tally = {
  mutable hits : int;
  mutable misses : int;  (** evaluations run *)
  mutable evictions : int;  (** entries this caller's inserts evicted *)
  mutable cuts : int;  (** evaluations stopped at their budget *)
  mutable memo_hits : int;
      (** sub-evaluations the caller's evaluations answered from a
          {!Kola.Eval.session} *)
  mutable memo_stored : int;
      (** entries the caller's evaluations added to a session *)
}
(** One caller's lookups on a possibly shared cache. *)

val tally : unit -> tally

type stats = {
  hits : int;
  misses : int;
  evictions : int;  (** entries removed by capacity sweeps and clears *)
  cuts : int;  (** evaluations stopped at their budget *)
  entries : int;    (** resident entries; always [<= capacity] *)
  capacity : int;
}
(** Cache-wide counters, across every caller. *)

val cache : ?size:int -> unit -> cache
(** A fresh cache holding at most [size] entries (default 65536,
    minimum 1). *)

val cache_stats : cache -> stats

val cache_clear : cache -> unit

val weighted_memo :
  cache ->
  ?budget:float ->
  ?tally:tally ->
  ?session:Kola.Eval.session ->
  db:(string * Kola.Value.t) list ->
  Kola.Term.Hc.hquery ->
  float
(** Weighted cost under the default backend, exact when it is
    [<= budget] (default [infinity]) and otherwise a lower bound above
    [budget]; plans that fail to evaluate cost [infinity].  Never
    re-evaluates a resident query with the same
    {!Kola.Term.Hc.query_key} unless its entry is a bound [<= budget].
    An evaluation shares sub-plan results through [session]; the cost
    is the same bits with or without one.  The lookup is counted in
    [tally]. *)

val weighted_memo_batch :
  cache ->
  db:(string * Kola.Value.t) list ->
  ?budget:float ->
  ?tally:tally ->
  ?session:Kola.Eval.session ->
  ((int * int) * Kola.Term.Hc.hquery) array ->
  float array
(** [weighted_memo_batch c ~db ~budget items] costs a batch of interned
    queries under one budget, each paired with its precomputed
    {!Kola.Term.Hc.query_key}: keys the cache can answer are served from
    it, the misses are evaluated, and the results are inserted in item
    order.  When the item keys are distinct the accounting is identical
    to calling {!weighted_memo} on each item in order under that budget.
    Duplicate keys in one batch are evaluated once per occurrence
    instead of hitting. *)

(** {2 Plan cache}

    Full cost records memoized per evaluation setting.  The same query
    costed under naive vs hashed backends and eager vs deferred dedup has
    genuinely different counters, so entries are keyed by (interned
    query, backend, dedup) and store the whole {!t}.  Capacity,
    second-chance eviction, and per-database validity are identical to
    the search cache. *)

type plan_cache

val plan_cache : ?size:int -> unit -> plan_cache
val plan_cache_stats : plan_cache -> stats
val plan_cache_clear : plan_cache -> unit

val measure_memo :
  plan_cache ->
  ?backend:Kola.Eval.backend ->
  ?dedup:Kola.Eval.dedup ->
  ?budget:float ->
  ?tally:tally ->
  db:(string * Kola.Value.t) list ->
  Kola.Term.query ->
  t
(** Like {!measure_within} (under [budget], default [infinity]), serving
    repeats from the cache: the result is [cut] only when it is a bound
    above [budget].  Evaluation failures propagate and are never
    cached. *)
