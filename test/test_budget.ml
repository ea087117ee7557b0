(* Branch-and-bound costing: the evaluator's work budget, the caches that
   hold exact costs or lower bounds, and the per-call accounting searches
   sharing a cache report.  The outcomes a budget must not change are
   pinned by the golden suites (test_golden_search.ml); this suite pins
   the budget's own semantics. *)

open Kola
open Util
module Cost = Optimizer.Cost
module Search = Optimizer.Search

let db = seed_db

let random_query i depth =
  Translate.Compile.query (Datagen.Queries.query ~seed:i ~depth)

(* [Ok value] or [Error ()] when cut, with the counters either way. *)
let run_within ?budget backend q =
  let ctx = Eval.ctx ~db ~backend ?budget () in
  let result =
    match Eval.run ctx q with
    | v -> Ok v
    | exception Eval.Over_budget -> Error ()
  in
  (result, ctx.Eval.counters)

(* Budgets 0, exact/2, exact, exact + 1 and infinity: a run is cut exactly
   when the exact cost exceeds the budget; an uncut run matches the
   unbudgeted one in value and counters; a cut run's bound lies in
   (budget, exact]. *)
let budget_semantics backend q =
  match run_within backend q with
  | exception Eval.Error _ -> true (* nothing to cut in a failing plan *)
  | Error (), _ -> false
  | Ok v, c ->
    let exact = Eval.weighted_of c in
    List.for_all
      (fun b ->
        match run_within ~budget:b backend q with
        | Ok v', c' -> exact <= b && Value.equal v v' && c' = c
        | Error (), c' ->
          let bound = Eval.weighted_of c' in
          exact > b && bound > b && bound <= exact)
      [ 0.; exact /. 2.; exact; exact +. 1.; infinity ]

let props =
  let arb =
    QCheck.make
      ~print:(fun i -> Pretty.query_to_string (random_query i 3))
      QCheck.Gen.(int_bound 1_000_000)
  in
  List.map
    (fun (name, backend) ->
      QCheck.Test.make ~count:60
        ~name:
          (Fmt.str
             "%s evaluation is cut exactly when it costs more than the budget"
             name)
        arb
        (fun i -> budget_semantics backend (random_query i 3)))
    [ ("naive", Eval.Naive); ("hashed", Eval.Hashed) ]

let kg1 = Term.Hc.of_query Paper.kg1

(* KG1 on the default (naive) backend, run to the end. *)
let kg1_exact = (snd (Cost.measure ~db Paper.kg1)).Cost.weighted

let counts (t : Cost.tally) = (t.Cost.hits, t.Cost.misses, t.Cost.cuts)
let counts_t = Alcotest.(triple int int int)

(* One search-cache lookup of KG1 under [budget], with its own tally. *)
let lookup c budget =
  let tally = Cost.tally () in
  let w = Cost.weighted_memo c ~budget ~tally ~db kg1 in
  (w, counts tally)

let cache_tests =
  [
    case "a budget equal to the exact cost never cuts" (fun () ->
        let w, n = lookup (Cost.cache ()) kg1_exact in
        Alcotest.(check (float 0.)) "exact" kg1_exact w;
        Alcotest.check counts_t "one miss, no cut" (0, 1, 0) n;
        let p =
          Cost.measure_memo (Cost.plan_cache ()) ~budget:kg1_exact ~db
            Paper.kg1
        in
        Alcotest.(check bool) "plan cache: not cut" false p.Cost.cut;
        Alcotest.(check (float 0.)) "plan cache: exact" kg1_exact
          p.Cost.weighted);
    case "a stored bound answers a lower budget without evaluating"
      (fun () ->
        let c = Cost.cache () in
        let half = kg1_exact /. 2. in
        let bound, n = lookup c half in
        Alcotest.check counts_t "cut once" (0, 1, 1) n;
        Alcotest.(check bool) "bound in (budget, exact]" true
          (bound > half && bound <= kg1_exact);
        let again, n = lookup c (half /. 2.) in
        Alcotest.check counts_t "served from the bound" (1, 0, 0) n;
        Alcotest.(check (float 0.)) "the stored bound" bound again;
        let again, n = lookup c half in
        Alcotest.check counts_t "the same budget is served too" (1, 0, 0) n;
        Alcotest.(check (float 0.)) "the stored bound again" bound again);
    case "a higher budget evaluates again and counts exactly one miss"
      (fun () ->
        let c = Cost.cache () in
        let bound, _ = lookup c (kg1_exact /. 4.) in
        let higher, n = lookup c bound in
        Alcotest.check counts_t "re-evaluated, cut again" (0, 1, 1) n;
        Alcotest.(check bool) "the bound rises" true (higher > bound);
        let exact, n = lookup c infinity in
        Alcotest.check counts_t "re-evaluated to the end" (0, 1, 0) n;
        Alcotest.(check (float 0.)) "exact" kg1_exact exact;
        let s = Cost.cache_stats c in
        Alcotest.(check (pair int int)) "cache-wide misses and cuts" (3, 2)
          (s.Cost.misses, s.Cost.cuts);
        Alcotest.(check int) "one entry" 1 s.Cost.entries);
    case "an exact entry is never downgraded" (fun () ->
        let c = Cost.cache () in
        ignore (lookup c infinity);
        let w, n = lookup c 0. in
        Alcotest.check counts_t "exact answers any budget" (1, 0, 0) n;
        Alcotest.(check (float 0.)) "exact value" kg1_exact w;
        (* a racing worker: the exact cost lands between this batch's
           lookup and its insert of a bound *)
        let c = Cost.cache () in
        let racing_map f qs =
          ignore (lookup c infinity);
          Array.map f qs
        in
        let bound =
          (Cost.weighted_memo_batch c ~db ~map:racing_map ~budget:0.
             [| (Term.Hc.query_key kg1, kg1) |]).(0)
        in
        Alcotest.(check bool) "the batch itself was cut" true
          (bound < kg1_exact);
        let w, n = lookup c 0. in
        Alcotest.check counts_t "still exact" (1, 0, 0) n;
        Alcotest.(check (float 0.)) "exact value kept" kg1_exact w;
        (* nor is a bound replaced by a lower one *)
        let c = Cost.cache () in
        let high = ref 0. in
        let racing_map f qs =
          high := fst (lookup c (kg1_exact *. 0.75));
          Array.map f qs
        in
        ignore
          (Cost.weighted_memo_batch c ~db ~map:racing_map ~budget:0.
             [| (Term.Hc.query_key kg1, kg1) |]);
        let w, n = lookup c (Float.pred !high) in
        Alcotest.check counts_t "the higher bound answers" (1, 0, 0) n;
        Alcotest.(check (float 0.)) "the higher bound" !high w);
    case "the plan cache keeps bounds and marks cut costs" (fun () ->
        let pc = Cost.plan_cache () in
        let measure budget =
          let tally = Cost.tally () in
          let t = Cost.measure_memo pc ~budget ~tally ~db Paper.kg1 in
          (t, counts tally)
        in
        let half = kg1_exact /. 2. in
        let cut, n = measure half in
        Alcotest.check counts_t "cut once" (0, 1, 1) n;
        Alcotest.(check bool) "marked cut" true cut.Cost.cut;
        Alcotest.(check bool) "bound in (budget, exact]" true
          (cut.Cost.weighted > half && cut.Cost.weighted <= kg1_exact);
        let served, n = measure (half /. 2.) in
        Alcotest.check counts_t "served from the bound" (1, 0, 0) n;
        Alcotest.(check bool) "still cut" true served.Cost.cut;
        let exact, n = measure infinity in
        Alcotest.check counts_t "re-evaluated to the end" (0, 1, 0) n;
        Alcotest.(check bool) "exact" false exact.Cost.cut;
        Alcotest.(check (float 0.)) "exact cost" kg1_exact exact.Cost.weighted;
        let served, n = measure 0. in
        Alcotest.check counts_t "exact answers any budget" (1, 0, 0) n;
        Alcotest.(check bool) "not downgraded" false served.Cost.cut);
  ]

(* hits and misses, evictions and cuts *)
let search_counts (o : Search.outcome) =
  ( (o.Search.cache_hits, o.Search.cache_misses),
    (o.Search.cache_evictions, o.Search.cache_cuts) )

let search_counts_t = Alcotest.(pair (pair int int) (pair int int))

let search_tests =
  [
    case "searches sharing a cache each count their own lookups" (fun () ->
        let config cache =
          { Search.default_config with sample_db = cli_db; cost_cache = Some cache }
        in
        let alone q = Search.explore ~config:(config (Cost.cache ())) q in
        let kg1 = alone Paper.kg1 and k4 = alone Paper.k4 in
        let shared = Cost.cache () in
        let other =
          Domain.spawn (fun () ->
              Search.explore ~config:(config shared) Paper.kg1)
        in
        let k4' = Search.explore ~config:(config shared) Paper.k4 in
        let kg1' = Domain.join other in
        Alcotest.check search_counts_t "KG1 counts as if alone"
          (search_counts kg1) (search_counts kg1');
        Alcotest.check search_counts_t "K4 counts as if alone"
          (search_counts k4) (search_counts k4');
        Alcotest.(check (float 0.)) "same KG1 best" kg1.Search.best.Search.cost
          kg1'.Search.best.Search.cost;
        let s = Cost.cache_stats shared in
        Alcotest.(check int) "the cache-wide count holds both"
          (kg1.Search.cache_misses + k4.Search.cache_misses)
          s.Cost.misses);
  ]

let tests =
  cache_tests @ search_tests
  @ List.map
      (QCheck_alcotest.to_alcotest ~long:false
         ~rand:(Random.State.make [| 16 |]))
      props
