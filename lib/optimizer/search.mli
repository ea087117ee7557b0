(** Exploration-based optimization: bounded breadth-first search of the
    rewrite space under the declarative catalog, deduplicating states
    modulo associativity.

    This is the "strategies for their use" dimension the paper leaves open
    (Section 1.1): uninformed search discovers the short derivations of
    Figures 4 and 6 from the rules alone, but the ≈25-firing hidden-join
    derivation is beyond any practical frontier — the paper's motivation
    for COKO rule blocks, quantified.

    One BFS engine runs underneath (DESIGN.md, "Engine internals &
    performance" and "Concurrency").  States are hash-consed queries
    ({!Kola.Term.Hc}) deduplicated by {!Kola.Term.Hc.query_key};
    successor enumeration walks each state once, trying at each node only
    the rules its head dispatches to and remembering their results per
    interned node ({!enumerator}); costing is memoized across
    explorations ({!Cost.cache}),
    and every candidate one exploration costs shares a sub-plan memo
    ({!Kola.Eval.session}), so a successor re-runs only what its rewrite
    changed.  States are expanded in the order they were enqueued, and
    each state's fresh successors are costed as one batch.  Costing is
    branch and bound: each batch, and each candidate of the e-graph's
    re-measured front, is costed under the best cost known when it
    starts, and a state that costs more is cut short
    ({!Cost.measure_within}).  A search runs on the domain that calls it.
    Searches on different domains may run at once: they share the intern
    tables and, when they name one, a cost cache, both safe under
    concurrency; each builds its own enumerator and session. *)

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
          truncation makes [stop = Budget], it is never silent *)
  cost_cache : Cost.cache option;
      (** [None] (the default) shares one cache across explorations *)
  sample_db : (string * Kola.Value.t) list;  (** database used for costing *)
  deadline : float option;
      (** wall-clock budget in seconds on the monotonic clock (default
          [None]).  When it expires, [explore] degrades gracefully: the
          best state found so far is returned with [stop = Deadline] and
          a path {!validate_path} accepts.  BFS polls it before each
          state expansion; under [Egraph] the deadline tightens the
          saturation time budget. *)
}

val default_config : config

type enumerator
(** One search's successor enumerator for a rule list and schema: the
    rules' head-dispatch table ({!Rewrite.Engine.dispatch}) and a memo of
    each offered rule's result at the root of each interned node.  KOLA
    terms have no variables, and a match reads only the node's own
    structure (the matcher is head-strict and binds holes to the node's
    subterms), so that result depends on the node alone; the schema is
    fixed with the enumerator.  The memo is bounded (emptied when full)
    and dropped with the enumerator: every search builds its own, so
    concurrent searches share none. *)

val enumerator : ?schema:Kola.Schema.t -> Rewrite.Rule.t list -> enumerator

val successors :
  ?schema:Kola.Schema.t ->
  ?max_positions:int ->
  Rewrite.Rule.t list -> Kola.Term.query -> (string * Kola.Term.query) list
(** Every single-firing successor: each rule at each matching position, up
    to [max_positions] positions per rule (default 64).  Query rules come
    first, then function and predicate rules, each in list order; one
    rule's successors follow its positions in preorder.  Enumerated on the
    interned form by one walk of the body, exactly as the search expands
    a state, on a fresh {!enumerator}. *)

val successors_with :
  ?max_positions:int ->
  enumerator -> Kola.Term.query -> (string * Kola.Term.query) list
(** {!successors} through the given enumerator, whose memo earlier calls
    may have filled: the list is the same either way. *)

type state = {
  query : Kola.Term.query;
  path : string list;  (** rules fired, in order *)
  cost : float;
}

type outcome = {
  best : state;
  explored : int;
  stop : stop_reason;
      (** why the search returned; [Exhausted] means neither the state
          budget, the position cap, nor a deadline truncated anything.
          [Deadline] outcomes still carry the best state found before the
          clock expired *)
  cache_hits : int;
      (** cost-cache hits during this call, counted by the call itself:
          searches sharing the cache do not move each other's counts *)
  cache_misses : int;  (** evaluations run during this call *)
  cache_evictions : int;
      (** cost-cache entries evicted by this call's inserts *)
  cache_cuts : int;
      (** evaluations during this call stopped at their budget: each
          such state costs more than the best known at the time *)
  memo_hits : int;
      (** sub-evaluations answered from the call's sub-plan memo
          ({!Kola.Eval.session}, shared by every candidate the call
          costs) *)
  memo_stored : int;  (** entries stored in that memo *)
  rule_tries : int;
      (** rules tried at the root of a node while enumerating successors
          (query rules once per state); [0] under [Egraph] *)
  rule_memo_hits : int;
      (** nodes whose rule results the enumeration memo answered
          instead *)
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
