(* The rewrite-space workload: [Search.explore] on the paper's KOLA terms
   T1K, T2K, K4 and KG1 under both engines, at the CLI's default depth,
   state budget and sample store.  Rewriting, search, saturation and
   hash-consing do the work; nothing executes a chosen plan.

   The e-graph node budget is 2 000 instead of the default 20 000: K4
   and KG1 extract the same best plans (80.1 and 3040.1) in about a
   twentieth of the time, which lets one run hold a dozen passes.  Every search gets a freshly generated sample store,
   which flushes the cost caches by database identity without touching
   any cache option.  The run seed orders the cells of each measured
   pass. *)

open Kola
module Search = Optimizer.Search
module Saturate = Kola_egraph.Saturate
module Exec = Kola_exec.Exec

let terms =
  [
    ("t1k", Paper.t1k_source);
    ("t2k", Paper.t2k_source);
    ("k4", Paper.k4);
    ("kg1", Paper.kg1);
  ]

let engines = [ ("bfs", Search.Bfs); ("egraph", Search.Egraph) ]

type cell = { name : string; query : Term.query; engine : Search.engine }

let cells =
  List.concat_map
    (fun (en, engine) ->
      List.map
        (fun (qn, query) -> { name = Printf.sprintf "%s.%s" qn en; query; engine })
        terms)
    engines

(* kolaopt's default sample store. *)
let sample_db () =
  Datagen.Store.db
    (Datagen.Store.generate
       { Datagen.Store.default_params with people = 40; vehicles = 30; seed = 42 })

let config db engine =
  let b = Search.default_config.Search.egraph_budgets in
  {
    Search.default_config with
    Search.engine;
    sample_db = db;
    egraph_budgets = { b with Saturate.max_enodes = 2_000 };
  }

type result = { cell : cell; db : (string * Value.t) list; outcome : Search.outcome }

let run_cell ~req c =
  let search_span = ref (-1) in
  let db, outcome =
    Span.timed ~req "cell" @@ fun _ ->
    let db = Span.timed ~req "datagen.store" (fun _ -> sample_db ()) in
    let span = match c.engine with Search.Bfs -> "search.bfs" | Search.Egraph -> "search.egraph" in
    ( db,
      Span.timed ~req span (fun sid ->
          search_span := sid;
          Search.explore ~config:(config db c.engine) c.query) )
  in
  if c.engine = Search.Egraph then
    Span.attribute ~parent:!search_span ~req "egraph.saturate" (fun () ->
        let cfg = config db c.engine in
        Saturate.saturate ~rules:cfg.Search.rules ~budgets:cfg.Search.egraph_budgets
          (Term.Hc.of_query c.query));
  { cell = c; db; outcome }

let pass () samples order =
  List.mapi
    (fun i c ->
      let t0 = Common.now () in
      let r = run_cell ~req:i c in
      Option.iter
        (fun s -> Common.Samples.add s c.name ((Common.now () -. t0) *. 1e3))
        samples;
      r)
    order

(* Correctness gate: the best plan evaluates equal to its source on the
   cell's sample store, and the cell's engine derives it from the source
   by a path [Search.validate_path] accepts step by step. *)
let gate r =
  let best = r.outcome.Search.best in
  let eval q = fst (Exec.run ~backend:(Exec.Interp Eval.Hashed) ~dedup:Eval.Eager ~db:r.db q) in
  let fail what = Some (Printf.sprintf "%s: %s" r.cell.name what) in
  if not (Exec.agree ~db:r.db (eval best.Search.query) (eval r.cell.query)) then
    fail "best plan evaluates differently from its source"
  else
    match
      Search.reaches_steps ~config:(config r.db r.cell.engine) r.cell.query
        best.Search.query
    with
    | None -> fail "no derivation reaches the best plan"
    | Some steps ->
      if Search.validate_path r.cell.query steps then None
      else fail "Search.validate_path rejects the derivation"

let counts results =
  let sum f = List.fold_left (fun acc r -> acc + f r.outcome) 0 results in
  let sat f =
    sum (fun o -> match o.Search.saturation with Some s -> f s | None -> 0)
  in
  let hits = sum (fun o -> o.Search.cache_hits)
  and misses = sum (fun o -> o.Search.cache_misses)
  and ihits = sum (fun o -> o.Search.intern_hits)
  and imisses = sum (fun o -> o.Search.intern_misses) in
  let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b) in
  [
    ("search.explored", float_of_int (sum (fun o -> o.Search.explored)));
    ("search.seen_states", float_of_int (sum (fun o -> o.Search.seen_states)));
    ("search.cost_evals", float_of_int misses);
    ("search.cost_hit_ratio", ratio hits misses);
    ("core.intern_sharing_ratio", ratio ihits imisses);
    ("egraph.e_nodes", float_of_int (sat (fun s -> s.Saturate.e_nodes)));
    ("egraph.iterations", float_of_int (sat (fun s -> s.Saturate.iterations)));
    ("egraph.matches_skipped", float_of_int (sat (fun s -> s.Saturate.matches_skipped)));
    ("egraph.rules_deferred", float_of_int (sat (fun s -> s.Saturate.rules_deferred)));
  ]

let run ~seed ~seconds ~reps ~traced =
  Common.closed_loop ~rng:(Datagen.Store.rng seed) ~seconds ~reps ~traced
    ~row:(Printf.sprintf "cell.%s.ms") ~items:cells ~prepare:ignore
    ~pass
    ~gate:(fun () -> gate) ~counts
    ~cost:(fun r -> r.outcome.Search.best.Search.cost)
