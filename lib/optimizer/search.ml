(* Exploration-based optimization over the declarative rule catalog:
   bounded breadth-first search of the rewrite space, deduplicating states
   modulo associativity, returning the cheapest plan found.

   This is the "strategies for their use" dimension the paper explicitly
   leaves open (Section 1.1) and later addresses with COKO: uninformed
   search discovers short derivations (Figure 4's T1K/T2K, Figure 6's code
   motion) from the catalog alone, but the 25-firing hidden-join derivation
   is far beyond any practical frontier — which is precisely the paper's
   motivation for rule blocks.  The ablation bench quantifies this.

   One BFS engine (see DESIGN.md, "Engine internals & performance" and
   "Parallel exploration"): states are hash-consed queries, deduplicated
   by [Term.Hc.query_key]; successors are enumerated by one walk of each
   state, which tries only the rules a node's head dispatches to and
   remembers their results per interned node for the whole search, so a
   successor pays for rule tries only where its rewrite made new nodes;
   costing is memoized across
   explorations by the id-keyed {!Cost.cache}, and within one exploration
   every candidate is costed through one {!Eval.session}, so a successor
   re-runs only the sub-plans its rewrite changed.  Each level runs in three
   phases — fan-out, stable-order merge, batch costing — inline at
   [jobs = 1] and across a Kola_parallel.Pool at [jobs > 1], so [best],
   [path], [explored] and [stop] are bit-identical whatever the domain
   count.

   Costing is branch and bound (DESIGN.md, "Branch-and-bound costing"):
   a state's cost is only ever compared with the best so far, so each
   batch is costed under the best cost at the batch's start, and a state
   that runs past it is cut.  Its cost would exceed that best, so it
   could never have been chosen: outcomes are those of costing every
   state to the end. *)

open Kola
module Pool = Kola_parallel.Pool
module Saturate = Kola_egraph.Saturate
module Telemetry = Kola_telemetry.Telemetry

type engine = Bfs | Egraph

type stop_reason = Exhausted | Budget | Deadline

let stop_reason_label = function
  | Exhausted -> "exhausted"
  | Budget -> "budget"
  | Deadline -> "deadline"

type config = {
  engine : engine;
      (** [Bfs] (default) explores single firings breadth-first; [Egraph]
          saturates an e-graph ({!Kola_egraph}) and answers by extraction
          (explore) or same-class check with proof replay (reaches) *)
  egraph_budgets : Saturate.budgets;
      (** e-node / iteration / wall-clock budgets for [Egraph] *)
  rules : Rewrite.Rule.t list;
  max_depth : int;     (** maximum derivation length *)
  max_states : int;    (** exploration budget (states expanded) *)
  max_positions : int;
      (** positions per rule enumerated by {!successors}; truncation is
          reported through [stop = Budget], never silent *)
  cost_cache : Cost.cache option;
      (** [None] uses a cache shared by every exploration *)
  sample_db : (string * Value.t) list;  (** database used for costing *)
  jobs : int;
      (** domains exploring each BFS level; 1 = inline, no pool,
          0 = [Domain.recommended_domain_count ()] *)
  deadline : float option;
      (** wall-clock budget in seconds on the monotonic clock; when it
          expires the search stops gracefully and reports the best state
          found so far with [stop = Deadline].  Under [Egraph] the
          deadline tightens the saturation time budget. *)
}

let default_config =
  {
    engine = Bfs;
    egraph_budgets = Saturate.default_budgets;
    rules = Rules.Catalog.all;
    max_depth = 6;
    max_states = 400;
    max_positions = 64;
    cost_cache = None;
    sample_db = Datagen.Store.db (Datagen.Store.tiny ());
    jobs = 1;
    deadline = None;
  }

let resolved_jobs config =
  if config.jobs <= 0 then Domain.recommended_domain_count ()
  else config.jobs

(* Per-rule attribution for successor enumeration: how many successors
   each catalog rule contributed ([rule.fire.*]) or failed to ([rule.miss.*]),
   under the counter names the rule was made with. *)
let note_rule_successors (r : Rewrite.Rule.t) n =
  if n = 0 then Telemetry.count r.Rewrite.Rule.miss_counter
  else Telemetry.count ~n r.Rewrite.Rule.fire_counter

(* Domain spawn costs milliseconds on some hosts while many explorations
   finish in microseconds, so pools are created once per jobs count and
   kept parked between calls (helpers block on a condition variable; an
   idle pool burns no CPU).  Like the shared cost cache, this makes the
   Search API single-submitter: concurrent [explore]/[reaches] calls from
   different domains are not supported. *)
let pools : (int, Pool.t) Hashtbl.t = Hashtbl.create 4

let pool_for jobs =
  match Hashtbl.find_opt pools jobs with
  | Some pool -> pool
  | None ->
    let pool = Pool.create ~jobs () in
    Hashtbl.add pools jobs pool;
    pool

(* [jobs = 1] stays pool-free: the fan-outs are plain inline maps. *)
let pool_of config =
  match resolved_jobs config with 1 -> None | jobs -> Some (pool_for jobs)

(* The shared cost cache behind [cost_cache = None]: explorations of the
   same plans (re-runs, pipeline stages, reaches-then-explore) reuse each
   other's measurements.  It flushes itself when the database changes. *)
let shared_cache = Cost.cache ()

let cache_of config =
  match config.cost_cache with Some c -> c | None -> shared_cache

(* ------------------------------------------------------------------ *)
(* Successor enumeration: one preorder walk per state.

   KOLA terms have no variables, so whether a rule fires at an interned
   node, and what it yields there, depends on that node alone (and on the
   schema, for preconditions, which is fixed for one search): the matcher
   is head-strict and binds holes to subterms of the node itself.  An
   enumerator therefore remembers, per node id, the root results of the
   rules offered at that node, and a successor pays for rule tries only at
   the nodes its rewrite created.

   The walk visits nodes in preorder, children in [Strategy.one_child]'s
   order, skipping every subtree whose head bitmask shares no bit with the
   rule list.  At each node it tries only the rules the head-dispatch
   table ({!Rewrite.Engine.dispatch}) lists for the node's shape, and
   records each firing with the context that rebuilds the body around it
   through the same smart constructors [one_child] uses.  Successors are
   emitted per rule (query rules first, then function and predicate
   rules, each in catalog order), then per position in preorder; at most
   [max_positions] per rule are rebuilt, and a rule with more sets
   [truncated] so callers never mistake a cap for exhaustion. *)

module Hc = Term.Hc

module IH = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash id = id
end)

(* One domain's memo: by node id, function and predicate nodes apart,
   the (rule index, root result) pair of each offered rule that fires
   there.  Counts are this domain's rule tries and memo answers. *)
type memo = {
  funcs : (int * Hc.fnode) list IH.t;
  preds : (int * Hc.pnode) list IH.t;
  mutable tries : int;
  mutable hits : int;
}

let memo_capacity = 1 lsl 16

type enumerator = {
  schema : Schema.t option;
  query_rules : Rewrite.Rule.t list;
  dispatch : Rewrite.Engine.dispatch;  (** the function and predicate rules *)
  lock : Mutex.t;
  mutable memos : (int * memo) list;  (** by domain *)
}

let enumerator ?schema rules =
  let query_rules, node_rules =
    List.partition
      (fun r ->
        match Rewrite.Rule.patterns r with
        | Rewrite.Rule.Query_pats _ -> true
        | Rewrite.Rule.Fun_pats _ | Rewrite.Rule.Pred_pats _ -> false)
      rules
  in
  {
    schema;
    query_rules;
    dispatch = Rewrite.Engine.dispatch node_rules;
    lock = Mutex.create ();
    memos = [];
  }

(* The calling domain's memo, fetched once per state: the walk itself
   takes no lock.  Tables start small, so a search that enumerates a few
   states allocates little. *)
let memo_of en =
  let d = (Domain.self () :> int) in
  Mutex.protect en.lock @@ fun () ->
  match List.assoc_opt d en.memos with
  | Some m -> m
  | None ->
    let m =
      { funcs = IH.create 16; preds = IH.create 16; tries = 0; hits = 0 }
    in
    en.memos <- (d, m) :: en.memos;
    m

(* Rule tries run and memo answers, summed over the domains. *)
let enumeration_counts en =
  Mutex.protect en.lock @@ fun () ->
  List.fold_left
    (fun (tries, hits) (_, m) -> (tries + m.tries, hits + m.hits))
    (0, 0) en.memos

(* The firings at a node: remembered, or found by trying each offered
   rule at its root.  A full table is emptied before it grows further. *)
let firings m table id offered apply =
  if Array.length offered = 0 then []
  else
    match IH.find_opt table id with
    | Some fs ->
      m.hits <- m.hits + 1;
      fs
    | None ->
      let fs =
        Array.fold_right
          (fun i acc ->
            match apply i with Some x -> (i, x) :: acc | None -> acc)
          offered []
      in
      m.tries <- m.tries + Array.length offered;
      if IH.length table >= memo_capacity then IH.reset table;
      IH.add table id fs;
      fs

let enumerate en ~max_positions ~truncated (hq : Hc.hquery) :
    (string * Hc.hquery) list =
  let m = memo_of en in
  let schema = en.schema in
  let from_query_rules =
    List.filter_map
      (fun r ->
        m.tries <- m.tries + 1;
        let res =
          Option.map
            (fun hq' -> (r.Rewrite.Rule.name, hq'))
            (Rewrite.Rule.apply_query ?schema r hq)
        in
        note_rule_successors r (if res = None then 0 else 1);
        res)
      en.query_rules
  in
  let d = en.dispatch in
  let rules = d.Rewrite.Engine.rules in
  let cap = max max_positions 0 in
  (* per rule: firings seen, and the rebuilds of the first [cap] of them,
     latest first *)
  let counts = Array.make (Array.length rules) 0 in
  let found = Array.make (Array.length rules) [] in
  let record i rebuild =
    let c = counts.(i) in
    counts.(i) <- c + 1;
    if c < cap then found.(i) <- rebuild :: found.(i)
  in
  let visited = ref 0 in
  let mask = d.Rewrite.Engine.mask in
  let visible heads = mask = 0 || heads land mask <> 0 in
  (* [k] rebuilds the body around a replacement for the node *)
  let rec walk_f (f : Hc.fnode) k =
    if visible f.Hc.fheads then begin
      incr visited;
      List.iter
        (fun (i, f') -> record i (fun () -> k f'))
        (firings m m.funcs f.Hc.fid (Rewrite.Engine.offered_func d f) (fun i ->
             Rewrite.Rule.apply_func ?schema rules.(i) f));
      match f.Hc.fshape with
      | Hc.HId | Hc.HPi1 | Hc.HPi2 | Hc.HPrim _ | Hc.HFlat | Hc.HSng
      | Hc.HArith _ | Hc.HAgg _ | Hc.HSetop _ | Hc.HKf _ | Hc.HFhole _ ->
        ()
      | Hc.HCompose (a, b) ->
        walk_f a (fun a' -> k (Hc.compose a' b));
        walk_f b (fun b' -> k (Hc.compose a b'))
      | Hc.HPairf (a, b) ->
        walk_f a (fun a' -> k (Hc.pairf a' b));
        walk_f b (fun b' -> k (Hc.pairf a b'))
      | Hc.HTimes (a, b) ->
        walk_f a (fun a' -> k (Hc.times a' b));
        walk_f b (fun b' -> k (Hc.times a b'))
      | Hc.HNest (a, b) ->
        walk_f a (fun a' -> k (Hc.nest a' b));
        walk_f b (fun b' -> k (Hc.nest a b'))
      | Hc.HUnnest (a, b) ->
        walk_f a (fun a' -> k (Hc.unnest a' b));
        walk_f b (fun b' -> k (Hc.unnest a b'))
      | Hc.HCf (a, v) -> walk_f a (fun a' -> k (Hc.cf a' v))
      | Hc.HCon (p, a, b) ->
        walk_p p (fun p' -> k (Hc.con p' a b));
        walk_f a (fun a' -> k (Hc.con p a' b));
        walk_f b (fun b' -> k (Hc.con p a b'))
      | Hc.HIterate (p, a) ->
        walk_p p (fun p' -> k (Hc.iterate p' a));
        walk_f a (fun a' -> k (Hc.iterate p a'))
      | Hc.HIter (p, a) ->
        walk_p p (fun p' -> k (Hc.iter p' a));
        walk_f a (fun a' -> k (Hc.iter p a'))
      | Hc.HJoin (p, a) ->
        walk_p p (fun p' -> k (Hc.join p' a));
        walk_f a (fun a' -> k (Hc.join p a'))
    end
  and walk_p (p : Hc.pnode) k =
    if visible p.Hc.pheads then begin
      incr visited;
      List.iter
        (fun (i, p') -> record i (fun () -> k p'))
        (firings m m.preds p.Hc.pid (Rewrite.Engine.offered_pred d p) (fun i ->
             Rewrite.Rule.apply_pred ?schema rules.(i) p));
      match p.Hc.pshape with
      | Hc.HEq | Hc.HLeq | Hc.HGt | Hc.HIn | Hc.HPrimp _ | Hc.HKp _
      | Hc.HPhole _ -> ()
      | Hc.HOplus (q, f) ->
        walk_p q (fun q' -> k (Hc.oplus q' f));
        walk_f f (fun f' -> k (Hc.oplus q f'))
      | Hc.HAndp (q, r) ->
        walk_p q (fun q' -> k (Hc.andp q' r));
        walk_p r (fun r' -> k (Hc.andp q r'))
      | Hc.HOrp (q, r) ->
        walk_p q (fun q' -> k (Hc.orp q' r));
        walk_p r (fun r' -> k (Hc.orp q r'))
      | Hc.HInv q -> walk_p q (fun q' -> k (Hc.inv q'))
      | Hc.HConv q -> walk_p q (fun q' -> k (Hc.conv q'))
      | Hc.HCp (q, v) -> walk_p q (fun q' -> k (Hc.cp q' v))
    end
  in
  if Array.length rules > 0 then walk_f hq.Hc.hbody Fun.id;
  Telemetry.count ~n:!visited "search.positions";
  let heads = hq.Hc.hbody.Hc.fheads in
  let from_node_rules =
    List.concat
      (List.mapi
         (fun i r ->
           if not (Rewrite.Rule.mask_may_fire heads r) then []
           else begin
             if counts.(i) > cap then begin
               truncated := true;
               if Telemetry.enabled () then
                 Telemetry.instant
                   ~args:[ ("rule", r.Rewrite.Rule.name) ]
                   "search.truncated"
             end;
             note_rule_successors r (min counts.(i) cap);
             List.rev_map
               (fun rebuild ->
                 (r.Rewrite.Rule.name, { hq with Hc.hbody = rebuild () }))
               found.(i)
           end)
         (Array.to_list rules))
  in
  from_query_rules @ from_node_rules

let successors_with ?(max_positions = 64) en (q : Term.query) :
    (string * Term.query) list =
  List.map
    (fun (name, hq) -> (name, Hc.to_query hq))
    (enumerate en ~max_positions ~truncated:(ref false) (Hc.of_query q))

let successors ?schema ?max_positions rules q =
  successors_with ?max_positions (enumerator ?schema rules) q

type state = {
  query : Term.query;
  path : string list;  (** rules fired, outermost-first *)
  cost : float;
}

type outcome = {
  best : state;
  explored : int;       (** states expanded *)
  stop : stop_reason;
      (** why the search returned: [Exhausted] (whole space within depth
          covered), [Budget] (state budget or position cap), or
          [Deadline] (wall-clock deadline expired) *)
  cache_hits : int;     (** this exploration's cost-cache hits *)
  cache_misses : int;
  cache_evictions : int;
      (** cost-cache entries evicted by this exploration's inserts *)
  cache_cuts : int;     (** evaluations stopped at their budget *)
  memo_hits : int;
      (** sub-evaluations answered from this exploration's sub-plan memo *)
  memo_stored : int;    (** entries stored in that memo *)
  rule_tries : int;
      (** rules tried at a node root while enumerating successors *)
  rule_memo_hits : int;
      (** nodes whose rule results the enumeration memo answered *)
  seen_states : int;    (** distinct states (dedup classes) recorded *)
  intern_hits : int;    (** intern-table hits during this exploration *)
  intern_misses : int;  (** nodes freshly interned during this exploration *)
  sharing_ratio : float;
      (** [intern_hits / (intern_hits + intern_misses)] — the fraction of
          node constructions answered by an existing node *)
  saturation : Saturate.stats option;
      (** e-graph statistics when [engine = Egraph]; [None] under BFS *)
}

(* [deadline_check config] returns a zero-argument predicate that turns
   true once the configured deadline has expired.  With no deadline the
   predicate is a constant — the hot loops pay nothing. *)
let deadline_check config =
  match config.deadline with
  | None -> fun () -> false
  | Some d ->
    let t1 = Telemetry.now () +. d in
    fun () -> Telemetry.now () >= t1

(* Fold the three exhaustion signals into the reported stop reason.
   Deadline wins: a search cut short by the clock may also look
   budget-truncated, but the actionable cause is the deadline. *)
let stop_of ~hit_deadline ~exhausted =
  if hit_deadline then Deadline else if exhausted then Exhausted else Budget

(* Internal search states carry their path cons-reversed (innermost rule
   first); reversing once at the end avoids the quadratic [path @ [name]]
   accumulation in the BFS loop. *)
type istate = { ihq : Term.Hc.hquery; rev_path : string list; icost : float }

(* Turn the winner into an outcome.  Cost-cache counts are this call's
   own [tally] (the cache may be shared with concurrent searches); intern
   counters are deltas against the snapshot taken when the search
   began. *)
let outcome_of ?saturation ?(enumeration = (0, 0)) ~(tally : Cost.tally)
    ~(istats0 : Hashcons.stats) ~seen_states ~best ~expanded ~stop () =
  let istats1 = Term.Hc.intern_counters () in
  let intern_hits = istats1.Hashcons.hits - istats0.Hashcons.hits
  and intern_misses = istats1.Hashcons.misses - istats0.Hashcons.misses in
  let total = intern_hits + intern_misses in
  {
    best =
      {
        query = Term.Hc.to_query best.ihq;
        path = List.rev best.rev_path;
        cost = best.icost;
      };
    explored = expanded;
    stop;
    cache_hits = tally.Cost.hits;
    cache_misses = tally.Cost.misses;
    cache_evictions = tally.Cost.evictions;
    cache_cuts = tally.Cost.cuts;
    memo_hits = tally.Cost.memo_hits;
    memo_stored = tally.Cost.memo_stored;
    rule_tries = fst enumeration;
    rule_memo_hits = snd enumeration;
    seen_states;
    intern_hits;
    intern_misses;
    sharing_ratio =
      (if total = 0 then 0.
       else float_of_int intern_hits /. float_of_int total);
    saturation;
  }

(* ------------------------------------------------------------------ *)
(* Level-synchronous BFS.

   Each level runs in three phases:

   1. fan-out — successor enumeration plus query-key computation for
      every state of the level.  The [seen] table is read-only during this
      phase (concurrent [mem] probes of an unmutated Hashtbl are safe), so
      successors already reached at an earlier depth are filtered out in
      place; the intern tables are striped, so workers may intern
      concurrently (ids may differ run to run but are only ever opaque
      identity keys);
   2. merge — a sequential walk over the results in stable item order,
      deduplicating intra-level collisions: the first occurrence in item
      order wins and records its path.  This is the only place [seen] is
      mutated;
   3. costing — [Cost.weighted_memo_batch] probes the cache sequentially,
      evaluates the misses through the same map, and inserts the results
      in item order, so the cache is never mutated concurrently either.
      The batch is costed under the best cost at its start: a state cut
      there costs more than that best and is never chosen.

   At [jobs = 1] there is no pool and the phases run per state rather
   than per level, in the same item order.  Because every merge walks
   results in the order their states were enqueued, [best] (ties broken
   by first discovery), [path], [explored], and [stop] are
   independent of the domain count and of scheduling.  A batch is one
   parent's successors at [jobs = 1] and a whole level at [jobs > 1], so
   which states are cut (and the bound a cut state reports) depends on
   the domain count; the best state does not.  Cost-cache hit/miss
   totals can also shift when a capacity sweep lands mid-level; that
   changes accounting, never costs or outcomes. *)

(* Take the first [n] elements (the level's budget slice). *)
let rec take_n n = function
  | x :: rest when n > 0 -> x :: take_n (n - 1) rest
  | _ -> []

(* Fan a map out across the pool, unless the batch is too small for the
   wake-up latency to pay for itself.  Purely a scheduling choice: the
   result is [Array.map f arr] either way. *)
let pool_map pool f arr =
  match pool with
  | Some pool when Array.length arr >= 2 * Pool.size pool -> Pool.map pool f arr
  | _ -> Array.map f arr

(* Phases 1 and 2 with the deadline contract: expand every state of
   [batch] and hand each result to [merge] in item order; [merge] returns
   [false] to end the level early.  Without a pool each state is expanded
   and merged in turn, so a level is never held in memory whole, and the
   deadline is polled before each expansion; with a pool it is polled
   once per level — mid-level interruption would make the merged frontier
   depend on timing — and the whole level is expanded before the merge.
   Returns the number of states expanded. *)
let expand_level ~pool ~over ~hit_deadline ~expand ~merge batch =
  let n = Array.length batch in
  match pool with
  | None ->
    let rec go i =
      if i = n then n
      else if over () then begin
        hit_deadline := true;
        i
      end
      else if merge batch.(i) (expand batch.(i)) then go (i + 1)
      else i + 1
    in
    go 0
  | Some _ when over () ->
    hit_deadline := true;
    0
  | Some _ ->
    let results = pool_map pool expand batch in
    let rec go i = if i < n && merge batch.(i) results.(i) then go (i + 1) in
    go 0;
    n

(* Enumerate the successors of [hq] not yet recorded in [seen], each with
   its query key; the flag reports position-cap truncation. *)
let fresh_successors ~en ~config ~seen hq =
  let truncated = ref false in
  let fresh =
    List.filter_map
      (fun (rule_name, hq') ->
        let key = Term.Hc.query_key hq' in
        if Term.Hc.Qtable.mem seen key then begin
          Telemetry.count "search.dedup_hit";
          None
        end
        else Some (rule_name, hq', key))
      (enumerate en ~max_positions:config.max_positions ~truncated hq)
  in
  (fresh, !truncated)

let explore_bfs ~config (q : Term.query) : outcome =
  let db = config.sample_db in
  let cache = cache_of config in
  let pool = pool_of config in
  let tally = Cost.tally () in
  let session = Eval.session () in
  let istats0 = Term.Hc.intern_counters () in
  let en = enumerator config.rules in
  let seen = Term.Hc.Qtable.create 256 in
  let truncated = ref false in
  let over = deadline_check config in
  let hit_deadline = ref false in
  let hq0 = Term.Hc.of_query q in
  Term.Hc.Qtable.replace seen (Term.Hc.query_key hq0) ();
  let best =
    ref
      {
        ihq = hq0;
        rev_path = [];
        icost = Cost.weighted_memo cache ~tally ~session ~db hq0;
      }
  in
  let expanded = ref 0 in
  let exhausted = ref true in
  let expand st = fresh_successors ~en ~config ~seen st.ihq in
  let rec level states depth =
    if depth < config.max_depth && states <> [] && not !hit_deadline then begin
      let n = List.length states in
      if Telemetry.enabled () then
        Telemetry.instant
          ~args:
            [
              ("depth", string_of_int depth); ("frontier", string_of_int n);
            ]
          "search.level";
      let take = min (config.max_states - !expanded) n in
      if take < n then exhausted := false;
      if take > 0 then begin
        (* phase 3: batch costing of the states merged since the last
           call, under the best cost so far; misses evaluate through the
           same map *)
        let pending = ref [] and next = ref [] in
        let cost_pending () =
          let fresh = Array.of_list (List.rev !pending) in
          pending := [];
          let costs =
            Cost.weighted_memo_batch cache ~db ~map:(pool_map pool)
              ~budget:!best.icost ~tally ~session
              (Array.map (fun (_, _, hq', key) -> (key, hq')) fresh)
          in
          Array.iteri
            (fun i (parent, rule_name, hq', _) ->
              let st =
                {
                  ihq = hq';
                  rev_path = rule_name :: parent.rev_path;
                  icost = costs.(i);
                }
              in
              if st.icost < !best.icost then best := st;
              next := st :: !next)
            fresh
        in
        (* phases 1 and 2: enumeration and key computation, then the
           stable-order merge — the only writer of [seen].  Inline, each
           state's successors are costed as soon as they are merged:
           interleaving evaluation with enumeration keeps the peak heap
           at that of a one-state-at-a-time loop. *)
        let merge parent (succs, tr) =
          if tr then truncated := true;
          List.iter
            (fun (rule_name, hq', key) ->
              if Term.Hc.Qtable.mem seen key then
                Telemetry.count "search.dedup_hit"
              else begin
                Term.Hc.Qtable.replace seen key ();
                pending := (parent, rule_name, hq', key) :: !pending
              end)
            succs;
          if Option.is_none pool then cost_pending ();
          true
        in
        expanded :=
          !expanded
          + expand_level ~pool ~over ~hit_deadline ~expand ~merge
              (Array.of_list (take_n take states));
        cost_pending ();
        level (List.rev !next) (depth + 1)
      end
    end
  in
  level [ !best ] 0;
  if !truncated then exhausted := false;
  outcome_of ~tally ~istats0 ~enumeration:(enumeration_counts en)
    ~seen_states:(Term.Hc.Qtable.length seen)
    ~best:!best ~expanded:!expanded
    ~stop:(stop_of ~hit_deadline:!hit_deadline ~exhausted:!exhausted) ()

(* Equality-saturation engine: saturate the e-graph under the catalog
   within the configured budgets, then extract the cheapest spellings of
   the source's class (per-node weights) and re-measure that small front
   with the executed cost model — exploration collapses into one
   saturation plus a handful of evaluations.  The source is always a
   candidate, so the result is never worse than the input; the reported
   path is replayed out of the proof forest. *)
(* A search deadline tightens the saturation wall-clock budget, so both
   engines honour [config.deadline] through one knob. *)
let egraph_budgets_of config =
  match config.deadline with
  | None -> config.egraph_budgets
  | Some d ->
    {
      config.egraph_budgets with
      Saturate.max_millis =
        Float.min config.egraph_budgets.Saturate.max_millis (d *. 1000.);
    }

(* Report budget exhaustion uniformly across engines: a time-budget stop
   is the deadline when one was configured, a plain budget otherwise. *)
let stop_of_saturation config = function
  | Saturate.Saturated | Saturate.Target_found -> Exhausted
  | Saturate.Node_budget | Saturate.Iter_budget -> Budget
  | Saturate.Time_budget -> if config.deadline <> None then Deadline else Budget

(* [jobs] threads into saturation as the e-matching pool.  Saturation
   outcomes are bit-identical at any jobs count — see the merge
   discipline in {!Kola_egraph.Saturate}. *)
let explore_egraph ~config (q : Term.query) : outcome =
  let db = config.sample_db in
  let cache = cache_of config in
  let tally = Cost.tally () in
  let session = Eval.session () in
  let istats0 = Term.Hc.intern_counters () in
  let hq0 = Term.Hc.of_query q in
  let sp =
    Saturate.saturate ~rules:config.rules ~budgets:(egraph_budgets_of config)
      ?pool:(pool_of config) hq0
  in
  (* The extraction weights are a heuristic, so re-measure a front with
     the real cost model rather than trusting the single winner: the 2
     cheapest spellings overall (k-best DP cost grows as k² per node)
     plus both deviation neighborhoods (around the weight optimum and
     around the source).  The source itself always stays a candidate —
     extraction can therefore never be worse than doing nothing.  Each
     candidate is costed under the best cost so far: one cut there could
     not have won. *)
  let measure_front best cands =
    List.fold_left
      (fun (bq, bc) hq ->
        let c = Cost.weighted_memo cache ~budget:bc ~tally ~session ~db hq in
        if c < bc then (hq, c) else (bq, bc))
      best cands
  in
  let front = Saturate.extraction_front ~k:2 sp in
  let best0 =
    measure_front
      (hq0, Cost.weighted_memo cache ~tally ~session ~db hq0)
      (List.filter_map Saturate.hquery_of_wterm front)
  in
  (* Measured-cost descent inside the e-graph: re-anchor the witness
     deviations on each measured winner and keep going while the
     measured cost improves.  Each round is a new one-substitution
     neighborhood of a spelling the weights never ranked, so chains of
     individually-unremarkable rewrites (hoist, then simplify the
     hoisted residue) become reachable. *)
  let rec descend (best_hq, best_cost) rounds =
    if rounds = 0 then (best_hq, best_cost)
    else
      let devs =
        Saturate.anchor_deviations sp (Saturate.wterm_of_query best_hq)
      in
      let (hq', c') =
        measure_front (best_hq, best_cost)
          (List.filter_map Saturate.hquery_of_wterm devs)
      in
      if c' < best_cost then descend (hq', c') (rounds - 1)
      else (best_hq, best_cost)
  in
  (* When the source itself won the first round its neighborhood was
     already in the front — re-anchoring there would measure the same
     candidates again, pure overhead on the small saturated queries. *)
  let best_hq, best_cost =
    let wk = Kola_egraph.Lang.wkey (Saturate.wterm_of_query (fst best0)) in
    if wk = Kola_egraph.Lang.wkey (Saturate.wterm_of_query hq0) then best0
    else descend best0 3
  in
  let rev_path =
    match Saturate.path_to sp (Saturate.wterm_of_query best_hq) with
    | Some steps -> List.rev_map fst steps
    | None -> []
  in
  let stats = sp.Saturate.stats in
  outcome_of ~saturation:stats ~tally ~istats0
    ~seen_states:stats.Saturate.e_classes
    ~best:{ ihq = best_hq; rev_path; icost = best_cost }
    ~expanded:stats.Saturate.e_nodes
    ~stop:(stop_of_saturation config stats.Saturate.stop)
    ()

let explore ?(config = default_config) (q : Term.query) : outcome =
  Telemetry.span "search.explore" @@ fun () ->
  let outcome =
    match config.engine with
    | Egraph -> explore_egraph ~config q
    | Bfs -> explore_bfs ~config q
  in
  if Telemetry.enabled () then
    Telemetry.instant
      ~args:
        [
          ("reason", stop_reason_label outcome.stop);
          ("explored", string_of_int outcome.explored);
          ("cost", Printf.sprintf "%.3f" outcome.best.cost);
        ]
      "search.stop";
  outcome

(* Was [target] reached (modulo associativity) within the budget?  The
   same level phasing as [explore_bfs], without costing.  The merge stops
   at the first successor (in stable item order) whose key is the
   target's — the same state and firing at every jobs count. *)
let reaches_bfs ~config (q : Term.query) (target : Term.query) :
    string list option =
  let pool = pool_of config in
  let en = enumerator config.rules in
  let seen = Term.Hc.Qtable.create 256 in
  let over = deadline_check config in
  let hit_deadline = ref false in
  let target_key = Term.Hc.query_key (Term.Hc.of_query target) in
  let hq0 = Term.Hc.of_query q in
  let start_key = Term.Hc.query_key hq0 in
  Term.Hc.Qtable.replace seen start_key ();
  if start_key = target_key then Some []
  else begin
    let found = ref None in
    let expanded = ref 0 in
    let expand (hq, _rev_path) = fst (fresh_successors ~en ~config ~seen hq) in
    let rec level states depth =
      if
        depth < config.max_depth && states <> [] && !found = None
        && not !hit_deadline
      then begin
        let take = min (config.max_states - !expanded) (List.length states) in
        if take > 0 then begin
          let next = ref [] in
          let rec merge_succs rev_path = function
            | [] -> true
            | (rule_name, hq', key) :: rest ->
              if Term.Hc.Qtable.mem seen key then merge_succs rev_path rest
              else begin
                Term.Hc.Qtable.replace seen key ();
                let rev_path' = rule_name :: rev_path in
                if key = target_key then begin
                  found := Some (List.rev rev_path');
                  false
                end
                else begin
                  next := (hq', rev_path') :: !next;
                  merge_succs rev_path rest
                end
              end
          in
          let merge (_, rev_path) succs = merge_succs rev_path succs in
          expanded :=
            !expanded
            + expand_level ~pool ~over ~hit_deadline ~expand ~merge
                (Array.of_list (take_n take states));
          level (List.rev !next) (depth + 1)
        end
      end
    in
    level [ (hq0, []) ] 0;
    !found
  end

(* Saturation-based reachability: equivalence is a same-e-class check
   after saturating with the target as an early-exit probe, and the
   derivation is replayed out of the proof forest (assoc scaffolding
   dropped, reversed steps renamed "r" ↔ "r-1"). *)
let reaches_egraph ~config (q : Term.query) (target : Term.query) :
    (string * Term.query) list option =
  let hq0 = Term.Hc.of_query q and ht = Term.Hc.of_query target in
  let sp =
    Saturate.saturate ~rules:config.rules ~budgets:(egraph_budgets_of config)
      ?pool:(pool_of config) ~target:ht hq0
  in
  Saturate.path sp

let reaches ?(config = default_config) (q : Term.query)
    (target : Term.query) : string list option =
  Telemetry.span "search.reaches" @@ fun () ->
  match config.engine with
  | Egraph -> Option.map (List.map fst) (reaches_egraph ~config q target)
  | Bfs -> reaches_bfs ~config q target

(* Recover the intermediate queries of a named derivation: follow the
   names through [successors], branching over the positions each rule
   fired at, until the list is exhausted at the target. *)
let replay_names ~config q (target : Term.query) (names : string list) :
    (string * Term.query) list option =
  let en = enumerator config.rules in
  let target_key = Term.Hc.query_key (Term.Hc.of_query target) in
  let rec go hq = function
    | [] -> if Term.Hc.query_key hq = target_key then Some [] else None
    | name :: rest ->
      List.fold_left
        (fun acc (n, hq') ->
          match acc with
          | Some _ -> acc
          | None ->
            if String.equal n name then
              Option.map
                (fun tl -> (name, Term.Hc.to_query hq') :: tl)
                (go hq' rest)
            else None)
        None
        (enumerate en ~max_positions:config.max_positions ~truncated:(ref false)
           hq)
  in
  go (Term.Hc.of_query q) names

let reaches_steps ?(config = default_config) (q : Term.query)
    (target : Term.query) : (string * Term.query) list option =
  match config.engine with
  | Egraph -> reaches_egraph ~config q target
  | Bfs -> (
    match reaches ~config q target with
    | None -> None
    | Some names -> replay_names ~config q target names)

(* A derivation step named "r" replays rule r as listed; "r-1" replays
   its {!Rewrite.Rule.flip}.  Exact names win: a catalog that already
   lists "r12-1" resolves to it before any flipping. *)
let resolve_rule rules name =
  let find n =
    List.find_opt (fun r -> String.equal r.Rewrite.Rule.name n) rules
  in
  match find name with
  | Some r -> Some r
  | None ->
    if Filename.check_suffix name "-1" then
      Option.map Rewrite.Rule.flip
        (find (String.sub name 0 (String.length name - 2)))
    else Option.map Rewrite.Rule.flip (find (name ^ "-1"))

let validate_path ?schema ?(rules = default_config.rules) (q : Term.query)
    (steps : (string * Term.query) list) : bool =
  let fires src r dst =
    let key = Term.Hc.query_key (Term.Hc.of_query dst) in
    List.exists
      (fun (_, hq2) -> Term.Hc.query_key hq2 = key)
      (enumerate (enumerator ?schema [ r ]) ~max_positions:max_int
         ~truncated:(ref false) (Term.Hc.of_query src))
  in
  let ok_step q (name, q') =
    match resolve_rule rules name with
    | None -> false
    | Some r ->
      (* A rule that erases a hole ("Kp(T) ⊕ f ≡ Kp(T)") leaves that hole
         unbound when fired right-to-left, so its successors carry a
         literal hole no concrete query equals.  The same instance is
         witnessed by firing the flip the other way — which re-binds the
         hole and is always ground — so a step passes in either
         orientation. *)
      fires q r q' || fires q' (Rewrite.Rule.flip r) q
  in
  let rec go q = function
    | [] -> true
    | (name, q') :: rest -> ok_step q (name, q') && go q' rest
  in
  go q steps
