(** A calibration-based cost model: run the candidate plan on a sample
    database and charge it for the evaluator's work counters.  Tuples
    touched dominate; combinator dispatch is cheap. *)

type t = {
  tuples : int;
  func_calls : int;
  pred_calls : int;
  weighted : float;
}

val weighted : tuples:int -> func_calls:int -> pred_calls:int -> float
val of_counters : Kola.Eval.counters -> t

val measure :
  ?backend:Kola.Eval.backend ->
  ?dedup:Kola.Eval.dedup ->
  db:(string * Kola.Value.t) list ->
  Kola.Term.query ->
  Kola.Value.t * t

val pp : t Fmt.t

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
    cost cache and one plan cache across its workers): every table operation runs under the
    cache's mutex and the hit/miss/eviction counters are atomic, so
    {!cache_stats} never observes a torn count.  Plan evaluation on a
    miss happens outside the lock; two domains racing on one missing key
    may evaluate it twice, which is harmless — the evaluations are
    deterministic and the second insert idempotent. *)

type cache

type stats = {
  hits : int;
  misses : int;
  evictions : int;  (** entries removed by capacity sweeps and clears *)
  entries : int;    (** resident entries; always [<= capacity] *)
  capacity : int;
}

val cache : ?size:int -> unit -> cache
(** A fresh cache holding at most [size] entries (default 65536,
    minimum 1). *)

val cache_stats : cache -> stats

val cache_clear : cache -> unit

val weighted_memo :
  cache -> db:(string * Kola.Value.t) list -> Kola.Term.Hc.hquery -> float
(** Weighted cost under the default backend; plans that fail to evaluate
    cost [infinity].  Never re-evaluates a resident query with the same
    {!Kola.Term.Hc.query_key}. *)

val weighted_memo_batch :
  cache ->
  db:(string * Kola.Value.t) list ->
  ?map:((Kola.Term.query -> float) -> Kola.Term.query array -> float array) ->
  ((int * int) * Kola.Term.Hc.hquery) array ->
  float array
(** [weighted_memo_batch c ~db ~map items] costs a batch of interned
    queries, each paired with its precomputed {!Kola.Term.Hc.query_key}:
    resident keys are served from the cache, the misses are evaluated
    through [map] (default [Array.map] — pass a parallel map to evaluate
    them across domains; the evaluations are pure), and the results are
    inserted sequentially in item order.  The evaluations never touch the
    cache, and when the item keys are distinct the hit/miss/eviction
    accounting is identical to calling {!weighted_memo} on each item in
    order.  Duplicate keys in one batch are evaluated once per occurrence
    instead of hitting. *)

(** {2 Plan cache}

    Full cost records memoized per evaluation setting.  The pipeline
    compares candidate plans across execution dimensions — the same query
    costed under naive vs hashed backends and eager vs deferred dedup has
    genuinely different counters — so entries are keyed by (interned
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
  db:(string * Kola.Value.t) list ->
  Kola.Term.query ->
  t
(** Like {!measure} without the result value, serving repeats from the
    cache.  Evaluation failures propagate and are never cached. *)
