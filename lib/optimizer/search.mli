(** Exploration-based optimization: bounded breadth-first search of the
    rewrite space under the declarative catalog, deduplicating states
    modulo associativity.

    This is the "strategies for their use" dimension the paper leaves open
    (Section 1.1): uninformed search discovers the short derivations of
    Figures 4 and 6 from the rules alone, but the ≈25-firing hidden-join
    derivation is beyond any practical frontier — the paper's motivation
    for COKO rule blocks, quantified.

    One BFS engine runs underneath (DESIGN.md, "Engine internals &
    performance" and "Parallel exploration").  States are hash-consed
    queries ({!Kola.Term.Hc}) deduplicated by {!Kola.Term.Hc.query_key};
    successor enumeration prunes rules and subtrees through per-node head
    bitmasks; costing is memoized across explorations ({!Cost.cache}).
    Each level fans out successor enumeration, merges the results in
    stable item order, then costs the fresh states in one batch — inline
    at [jobs = 1], across a fixed pool of OCaml 5 domains
    ({!Kola_parallel.Pool}) at [jobs > 1].  [explore] and [reaches] return
    bit-identical outcomes whatever the domain count; only cost-cache
    hit/miss accounting may shift when a capacity sweep lands
    mid-level. *)

(** Which engine answers [explore]/[reaches]: bounded breadth-first
    search over single firings, or equality saturation on the e-graph
    backend ({!Kola_egraph}) — the whole rewrite space compressed into
    e-classes, best terms recovered by cost extraction, equivalence by a
    same-class check with proof replay. *)
type engine = Bfs | Egraph

(** Why a search returned: the whole space within depth was covered
    ([Exhausted]), a state/position/e-node/iteration budget tripped
    ([Budget]), or the configured wall-clock deadline expired
    ([Deadline]).  Both engines report through this one type, mirroring
    {!Kola_egraph.Saturate.stop_reason}. *)
type stop_reason = Exhausted | Budget | Deadline

val stop_reason_label : stop_reason -> string
(** ["exhausted"] / ["budget"] / ["deadline"] — for CLI and trace
    output. *)

type config = {
  engine : engine;  (** default [Bfs] *)
  egraph_budgets : Kola_egraph.Saturate.budgets;
      (** saturation budgets (e-nodes, iterations, wall-clock) used when
          [engine = Egraph] *)
  rules : Rewrite.Rule.t list;
  max_depth : int;   (** maximum derivation length *)
  max_states : int;  (** states expanded before giving up *)
  max_positions : int;
      (** positions per rule enumerated by {!successors} (default 64);
          truncation clears [frontier_exhausted], it is never silent *)
  cost_cache : Cost.cache option;
      (** [None] (the default) shares one cache across explorations *)
  sample_db : (string * Kola.Value.t) list;  (** database used for costing *)
  jobs : int;
      (** domains exploring each BFS level (default 1 = inline, no pool;
          0 = [Domain.recommended_domain_count ()]) *)
  deadline : float option;
      (** wall-clock budget in seconds on the monotonic clock (default
          [None]).  When it expires, [explore] degrades gracefully: the
          best state found so far is returned with [stop = Deadline] and
          a path {!validate_path} accepts.  BFS polls it before each
          state expansion at [jobs = 1] and between levels at [jobs > 1]
          (so outcomes stay deterministic up to the interrupted level);
          under [Egraph] the deadline tightens the saturation time
          budget. *)
}

val default_config : config

val resolved_jobs : config -> int
(** The domain count [explore]/[reaches] will actually use: [config.jobs],
    with [0] (or negative) resolved to
    [Domain.recommended_domain_count ()]. *)

val successors :
  ?schema:Kola.Schema.t ->
  ?max_positions:int ->
  Rewrite.Rule.t list -> Kola.Term.query -> (string * Kola.Term.query) list
(** Every single-firing successor: each rule at each matching position, up
    to [max_positions] positions per rule (default 64).  Enumerated on the
    interned form, exactly as the search expands a state. *)

type state = {
  query : Kola.Term.query;
  path : string list;  (** rules fired, in order *)
  cost : float;
}

type outcome = {
  best : state;
  explored : int;
  stop : stop_reason;
      (** why the search returned; [Deadline] outcomes still carry the
          best state found before the clock expired *)
  frontier_exhausted : bool;
      (** [stop = Exhausted], kept for existing callers: neither the
          state budget, the position cap, nor a deadline truncated
          anything *)
  cache_hits : int;   (** cost-cache hits during this call *)
  cache_misses : int;
  cache_evictions : int;
      (** cost-cache entries evicted by capacity sweeps during this call *)
  seen_states : int;
      (** distinct states (dedup equivalence classes) recorded, including
          the start state *)
  intern_hits : int;   (** intern-table hits during this call *)
  intern_misses : int; (** nodes freshly interned during this call *)
  sharing_ratio : float;
      (** [intern_hits / (intern_hits + intern_misses)] *)
  saturation : Kola_egraph.Saturate.stats option;
      (** e-graph statistics (e-classes, e-nodes, iterations, rebuild
          time, stop reason) when [engine = Egraph]; [None] under BFS *)
}

val canonical : Kola.Term.query -> string
(** Pretty-printed canonical form, kept for diagnostics and the
    equivalence tests against {!Kola.Term.Canonical}. *)

val explore : ?config:config -> Kola.Term.query -> outcome
(** Cheapest equivalent query found within the budget. *)

val reaches :
  ?config:config -> Kola.Term.query -> Kola.Term.query -> string list option
(** A derivation from the first query to the second (modulo associativity),
    if one exists within the budget.  Under [engine = Egraph] the answer
    comes from a same-e-class check after saturation, and the derivation is
    replayed out of the proof forest — same format, validated by
    {!validate_path}. *)

val reaches_steps :
  ?config:config ->
  Kola.Term.query ->
  Kola.Term.query ->
  (string * Kola.Term.query) list option
(** Like {!reaches}, with the intermediate query after every firing —
    the input {!validate_path} checks.  Under BFS the intermediates are
    recomputed by replaying the found path. *)

val validate_path :
  ?schema:Kola.Schema.t ->
  ?rules:Rewrite.Rule.t list ->
  Kola.Term.query ->
  (string * Kola.Term.query) list ->
  bool
(** Step-by-step check of a derivation against the BFS successor
    machinery: every step's named rule (["r"]/["r-1"] resolved through
    {!Rewrite.Rule.flip}) must fire at some position of the previous
    query and produce the step's query modulo associativity.  [rules]
    defaults to the full catalog. *)
