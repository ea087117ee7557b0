(** The saturation loop: grow the e-graph under the catalog until
    nothing new appears or a budget trips, then answer optimization
    questions by extraction and equivalence questions by same-class
    checks.

    Four throughput levers, all outcome-preserving: parallel e-matching
    (per-class queries fan out over an optional domain pool and merge
    back in class order, so every stat is bit-identical at any jobs
    count), incremental matching (freshness stamps skip (rule, class)
    pairs unchanged since the rule's last run), deterministic rule
    scheduling (rules that fired before but now run fruitlessly back off
    exponentially, capped and never excluded), and matching each
    canonical e-node once ({!Graph.match_view} drops congruent copies,
    which only repeat their first twin's matches). *)

open Kola
open Lang

type budgets = { max_enodes : int; max_iterations : int; max_millis : float }

val default_budgets : budgets

type stop_reason =
  | Saturated  (** a full iteration added no e-node and united no classes *)
  | Node_budget
  | Iter_budget
  | Time_budget
  | Target_found  (** equivalence query answered early *)

val stop_reason_label : stop_reason -> string

type stats = {
  iterations : int;
  e_nodes : int;
  e_classes : int;
  unions : int;
  instances : int;
      (** match instances produced, before dropping those fired in
          earlier iterations *)
  matches_skipped : int;
      (** (rule, class) pairs skipped because the class was unchanged
          since the rule's last run *)
  rules_deferred : int;
      (** rule-iterations skipped by scheduler backoff, summed *)
  rebuild_ms : float;
  total_ms : float;
  stop : stop_reason;
}

val pp_stats : Format.formatter -> stats -> unit

type space = {
  graph : Graph.t;
  src : wterm;  (** the source query, verbatim *)
  root : int;  (** its class *)
  tgt : wterm option;  (** the target query, when posed *)
  target : int option;  (** its class *)
  schema : Schema.t;
  stats : stats;
}

val wterm_of_query : Term.Hc.hquery -> wterm
val hquery_of_wterm : wterm -> Term.Hc.hquery option
val query_of_wterm : wterm -> Term.query option

val saturate :
  ?schema:Schema.t ->
  ?budgets:budgets ->
  ?pool:Kola_parallel.Pool.t ->
  ?target:Term.Hc.hquery ->
  rules:Rewrite.Rule.t list ->
  Term.Hc.hquery ->
  space
(** Saturate from the source query (and target, when posed).  With
    [?pool] the match phase fans out across its domains; outcomes —
    unions, stats, extraction — are bit-identical with or without a
    pool, at any pool size.  Budgets bound e-nodes, iterations and
    wall-clock on the monotonic clock; the stop reason is always
    reported, never silent. *)

val best_terms : ?k:int -> space -> wterm list
(** The [k] cheapest distinct spellings of the source's class under
    {!Lang.op_weight}, cheapest first — candidates for re-measurement by
    the executed cost model. *)

val anchor_deviations : ?cap:int -> space -> wterm -> wterm list
(** One-point deviations of a concrete anchor spelling: at every subterm
    position, each member e-node's witness substituted in place of that
    subterm.  Witness-based, so no weight model is involved; at most
    [cap] (default 512) results.  Around the source this surfaces every
    single-site rewrite saturation discovered as a full, provably
    equivalent query spelling. *)

val extraction_front : ?k:int -> space -> wterm list
(** {!best_terms}, the one-point deviations of the weight-cheapest
    spelling ({!Extract.deviations}), and the witness deviations around
    the source ({!anchor_deviations}), distinct.  The deviation
    neighborhoods keep spellings whose measured-cost win the weights
    cannot see (e.g. a hoisted loop invariant) in the re-measured front.
    [k] defaults to 2. *)

val equiv : space -> bool
(** Did source and target end up in the same class? *)

val path_to : space -> wterm -> (string * Term.query) list option
(** Derivation from the source to any term of its class, as (rule name,
    resulting query) steps replayable against the BFS engine; [None] if
    the term is not in the source's class. *)

val path : space -> (string * Term.query) list option
(** {!path_to} the posed target, when {!equiv}. *)
