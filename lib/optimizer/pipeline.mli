(** The end-to-end optimizer: OQL → AQUA → KOLA → COKO normalization and
    hidden-join untangling → cost-based choice between the original and
    the untangled plan.

    Each logical plan is costed once, on the hashed interpreter with
    eager dedup ({!Cost.measure_memo}), by branch and bound: the
    untangled plan is run to the end first, then the original only until
    it costs more than the untangled plan.  The cut is strict, so an
    original that ties is still chosen, and the chosen plan's cost is
    always exact.  Under the counter cost model the other physical
    variants cannot win:
    - the naive backend differs from the hashed one only on joins and
      nests it can index.  There it charges |xs|·(1+|ys|) tuples and a
      predicate call per pair, where the hashed index charges |xs|+|ys|
      tuples and one key evaluation per element, so it never costs less
      when both inputs are non-empty;
    - deferred dedup keeps bags where eager keeps sets, so every eager
      intermediate is a subset of the deferred one, and dedup itself is
      not charged: deferred never costs less.
    On the ledger's eleven queries at 20 to 1 000 rows, no naive or
    deferred variant ever cost less than hashed/eager; naive was chosen
    before only because it was listed first and won ties.

    The {!report} is an explanation artifact: each phase records its
    output, and the trace names every rule fired. *)

type plan = {
  label : string;  (** "original" or "untangled" *)
  query : Kola.Term.query;
  backend : Kola.Eval.backend;  (** the backend the cost was measured on *)
  dedup : Kola.Eval.dedup;
  cost : Cost.t;
      (** exact, or [cut] for an original plan that lost to the untangled
          one: then its counters are the work done before the cut *)
}

type report = {
  source : string option;
  aqua : Aqua.Ast.expr;
  translated : Kola.Term.query;
  normalized : Kola.Term.query;
  untangled : Kola.Term.query option;
  trace : Rewrite.Engine.trace;
  blocks : (string * bool) list;
  candidates : plan list;
  chosen : plan;
  cost_cache_hits : int;
      (** plan-cache hits while costing this report's candidates *)
  cost_cache_misses : int;  (** candidate evaluations actually run *)
}

val backend_name : Kola.Eval.backend -> string
val dedup_name : Kola.Eval.dedup -> string

val optimize :
  ?source:string ->
  ?plan_cache:Cost.plan_cache ->
  db:(string * Kola.Value.t) list ->
  Aqua.Ast.expr ->
  report
(** [plan_cache] defaults to one cache shared across calls, so repeated
    measurements of canonically-equal plans hit the memo; the report
    carries this call's own hit and miss counts, which concurrent
    callers sharing the cache do not move.  [candidates] holds at most
    two plans: the original, then the untangled one when untangling
    applied. *)

val optimize_oql :
  ?extents:string list ->
  ?plan_cache:Cost.plan_cache ->
  db:(string * Kola.Value.t) list ->
  string ->
  report
(** @raise Oql.Parser.Error on bad input. *)

val run : db:(string * Kola.Value.t) list -> report -> Kola.Value.t
(** Execute the chosen plan. *)

val execute :
  ?backend:Kola_exec.Exec.backend ->
  ?layout:Kola_exec.Exec.layout ->
  ?jobs:int ->
  ?pool:Kola_parallel.Pool.t ->
  ?coldb:Kola.Colstore.db ->
  db:(string * Kola.Value.t) list ->
  report ->
  Kola.Value.t * Kola_exec.Exec.stats
(** Execute the chosen plan through a {!Kola_exec.Exec} backend.  The
    default is the hashed interpreter the plan was costed on;
    [~backend:Compiled] runs the fused-loop closures instead, falling
    back to the interpreter on unsupported plans (recorded in the
    stats).  Dedup always follows the chosen plan.  [layout], [jobs],
    [pool] and [coldb] are forwarded to {!Kola_exec.Exec.run}: under
    [Columnar] the compiled backend binds extent scans to the columnar
    store and fans pure kernels out over morsels. *)

val pp_report : report Fmt.t
(** A cut candidate's cost prints as [> b], [b] its lower bound. *)
