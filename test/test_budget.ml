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

(* --- the sub-plan memo: the same bits with and without a session --- *)

type run = Done of Value.t * Cost.t | Cut of Cost.t | Failed

(* One budgeted run, through [session] when given. *)
let run_on ?session ~backend ~dedup ~budget db q =
  let ctx = Eval.ctx ~db ~backend ~dedup ~budget ?session () in
  match Eval.run ctx q with
  | v -> Done (v, Cost.of_counters ctx.Eval.counters)
  | exception Eval.Over_budget ->
    Cut { (Cost.of_counters ctx.Eval.counters) with Cost.cut = true }
  | exception Eval.Error _ -> Failed

let same_cost (a : Cost.t) (b : Cost.t) =
  a.Cost.tuples = b.Cost.tuples
  && a.Cost.func_calls = b.Cost.func_calls
  && a.Cost.pred_calls = b.Cost.pred_calls
  && Int64.equal
       (Int64.bits_of_float a.Cost.weighted)
       (Int64.bits_of_float b.Cost.weighted)
  && Bool.equal a.Cost.cut b.Cost.cut

let same_run a b =
  match (a, b) with
  | Done (v, c), Done (v', c') -> Value.deep_equal v v' && same_cost c c'
  | Cut c, Cut c' -> same_cost c c'
  | Failed, Failed -> true
  | (Done _ | Cut _ | Failed), _ -> false

let settings =
  [
    (Eval.Naive, Eval.Eager);
    (Eval.Naive, Eval.Deferred);
    (Eval.Hashed, Eval.Eager);
    (Eval.Hashed, Eval.Deferred);
  ]

(* A plan and every single-firing successor of it, in order. *)
let candidates q = q :: List.map snd (Search.successors Search.default_config.Search.rules q)

(* Cost every candidate under budgets 0, exact/2, exact, exact + 1 and
   infinity, in order, through one session per setting: every run must
   match the run without a session in value and in every cost bit.
   Returns the hits the sessions took, or [None] on a mismatch. *)
let memo_agrees db qs =
  let hits = ref 0 in
  let ok =
    List.for_all
      (fun (backend, dedup) ->
        let session = Eval.session () in
        List.for_all
          (fun q ->
            let budgets =
              match run_on ~backend ~dedup ~budget:infinity db q with
              | Done (_, c) ->
                let w = c.Cost.weighted in
                [ 0.; w /. 2.; w; w +. 1.; infinity ]
              | Cut _ | Failed -> [ 0.; infinity ]
            in
            List.for_all
              (fun budget ->
                let ctx = Eval.ctx ~db ~backend ~dedup ~budget ~session () in
                let with_memo =
                  match Eval.run ctx q with
                  | v -> Done (v, Cost.of_counters ctx.Eval.counters)
                  | exception Eval.Over_budget ->
                    Cut { (Cost.of_counters ctx.Eval.counters) with Cost.cut = true }
                  | exception Eval.Error _ -> Failed
                in
                hits := !hits + Eval.memo_hits ctx;
                same_run with_memo (run_on ~backend ~dedup ~budget db q))
              budgets)
          qs)
      settings
  in
  if ok then Some !hits else None

let stale_db = stale_paper_db ()

let memo_props =
  let arb =
    QCheck.make
      ~print:(fun i -> Pretty.query_to_string (random_query i 3))
      QCheck.Gen.(int_bound 1_000_000)
  in
  List.map
    (fun (name, db) ->
      QCheck.Test.make ~count:25
        ~name:
          (Fmt.str
             "sub-plan memo: a plan and its successors cost the same bits \
              with and without a session (%s)"
             name)
        arb
        (fun i -> Option.is_some (memo_agrees db (candidates (random_query i 3)))))
    [ ("generated store", db); ("stale embedded copies", stale_db) ]

let memo_tests =
  [
    case "sub-plan memo: seeded plans hit, and hit the same bits" (fun () ->
        let qs = List.concat_map (fun i -> candidates (random_query i 3)) [ 1; 2; 3 ] in
        match memo_agrees db qs with
        | None -> Alcotest.fail "a run through the session differs"
        | Some hits ->
          Alcotest.(check bool) "the sessions answered lookups" true (hits > 0));
    case "sub-plan memo: a stale copy never answers for its extent row"
      (fun () ->
        (* person 2's extent row and the stale copy embedded as person 0's
           child: same class and oid, other fields *)
        let row, stale =
          match List.assoc "P" stale_db with
          | Value.Set ps ->
            let p2 = List.nth ps 2 and p0 = List.nth ps 0 in
            (p2, List.hd (Option.get (Value.set_elements (Option.get (Value.field "child" p0)))))
          | _ -> assert false
        in
        Alcotest.(check bool) "one identity" true (Value.equal row stale);
        let names = Term.Hc.of_func (Term.Iterate (Term.Kp true, Term.Prim "name")) in
        let session = Eval.session () in
        let run v =
          let ctx = Eval.ctx ~db:stale_db ~session () in
          let r = Eval.hfunc ctx names (Value.set [ v ]) in
          (r, Eval.memo_hits ctx, Eval.memo_stored ctx)
        in
        ignore (run row);
        let r, hits, stored = run row in
        Alcotest.(check (triple value int int)) "second touch stores"
          (Value.set [ Value.str "p2" ], 0, 1) (r, hits, stored);
        let r, hits, _ = run row in
        Alcotest.(check (pair value int)) "the row hits"
          (Value.set [ Value.str "p2" ], 1) (r, hits);
        let r, hits, _ = run stale in
        Alcotest.(check (pair value int)) "the stale copy misses"
          (Value.set [ Value.str "stale-kid" ], 0) (r, hits);
        (* one plan reading each person's name and child count on the
           rows, then on the copies embedded as children *)
        let per_person =
          Term.Iterate
            ( Term.Kp true,
              Term.Pairf (Term.Prim "name", Term.Compose (Term.Agg Term.Count, Term.Prim "child")) )
        in
        let q =
          Term.query
            (Term.Pairf
               ( per_person,
                 Term.Compose
                   (per_person, Term.Compose (Term.Flat, Term.Iterate (Term.Kp true, Term.Prim "child"))) ))
            (Value.Named "P")
        in
        Alcotest.(check bool) "rows, then copies, through every successor" true
          (Option.is_some (memo_agrees stale_db (candidates q))));
    case "sub-plan memo: KG1's BFS session counts at jobs 1" (fun () ->
        (* the enumeration memo's counts sit beside the sub-plan memo's:
           rule tries run, and nodes whose rule results were remembered *)
        let config =
          {
            Search.default_config with
            sample_db = cli_db;
            cost_cache = Some (Cost.cache ());
          }
        in
        let o = Search.explore ~config Paper.kg1 in
        Alcotest.(check (float 0.)) "best cost" 3040.1 (Float.round (o.Search.best.Search.cost *. 10.) /. 10.);
        Alcotest.(check (pair int int)) "memo hits and stored entries"
          (61_767, 7_567) (o.Search.memo_hits, o.Search.memo_stored);
        Alcotest.(check (pair int int)) "rule tries and enumeration memo hits"
          (26_825, 9_677) (o.Search.rule_tries, o.Search.rule_memo_hits));
  ]

let tests =
  cache_tests @ search_tests @ memo_tests
  @ List.map
      (QCheck_alcotest.to_alcotest ~long:false
         ~rand:(Random.State.make [| 16 |]))
      (props @ memo_props)
