(* The parallel exploration layer: a fixed-size domain pool
   (Kola_parallel.Pool), level-synchronous explore/reaches, and the
   capacity-bounded cost cache.  Correctness is equivalence again: at any
   domain count the engine must return the *identical* outcome — best
   query, derivation, explored count, frontier flag — as the sequential
   baseline, run after run. *)

open Kola
open Util
module Search = Optimizer.Search
module Cost = Optimizer.Cost
module Pool = Kola_parallel.Pool

let with_flips =
  Rules.Catalog.all
  @ List.map Rewrite.Rule.flip (Rules.Catalog.rules [ "r14"; "r12" ])

(* Fresh cost cache per run: equivalence must not depend on what an
   earlier exploration happened to leave in the shared cache. *)
let explore_at ?(rules = Rules.Catalog.all) ~max_depth ~max_states jobs q =
  Search.explore
    ~config:
      {
        Search.default_config with
        rules;
        max_depth;
        max_states;
        jobs;
        cost_cache = Some (Cost.cache ());
      }
    q

let reaches_at ?(rules = with_flips) ~max_depth ~max_states jobs q target =
  Search.reaches
    ~config:
      { Search.default_config with rules; max_depth; max_states; jobs }
    q target

(* The determinism contract: best query, derivation, cost, explored
   count, frontier flag and distinct-state count all agree.  (Cost-cache
   accounting is deliberately excluded: hit/miss totals may legally shift
   when a capacity sweep lands mid-level.) *)
let check_same_outcome name (a : Search.outcome) (b : Search.outcome) =
  Alcotest.check query (name ^ ": best query") a.Search.best.Search.query
    b.Search.best.Search.query;
  Alcotest.(check (list string))
    (name ^ ": derivation") a.Search.best.Search.path b.Search.best.Search.path;
  Alcotest.(check (float 0.))
    (name ^ ": cost") a.Search.best.Search.cost b.Search.best.Search.cost;
  Alcotest.(check int) (name ^ ": explored") a.Search.explored b.Search.explored;
  Alcotest.(check bool)
    (name ^ ": frontier") a.Search.frontier_exhausted b.Search.frontier_exhausted;
  Alcotest.(check int)
    (name ^ ": distinct states") a.Search.seen_states b.Search.seen_states

let fig_workloads =
  (* Figure 4 sources, the Figure 6 code-motion source, and the Garage
     Query — budgets sized so each explores a few hundred states *)
  [
    ("T1K", Paper.t1k_source, 4, 200);
    ("T2K", Paper.t2k_source, 4, 150);
    ("K4", Paper.k4, 3, 120);
    ("KG1", Paper.kg1, 2, 60);
  ]

let random_query i depth =
  Translate.Compile.query (Datagen.Queries.query ~seed:i ~depth)

let tests =
  [
    case "explore at jobs = 2 and 4 equals the sequential engine" (fun () ->
        List.iter
          (fun (name, q, max_depth, max_states) ->
            let seq = explore_at ~max_depth ~max_states 1 q in
            List.iter
              (fun jobs ->
                let par = explore_at ~max_depth ~max_states jobs q in
                check_same_outcome (Fmt.str "%s @ jobs=%d" name jobs) seq par)
              [ 2; 4 ])
          fig_workloads);
    case "reaches at jobs = 2 and 4 finds the identical derivation" (fun () ->
        let attempts =
          [
            ("T1K", Paper.t1k_source, Paper.t1k_target, 6, 2_000);
            ("T2K", Paper.t2k_source, Paper.t2k_target, 8, 4_000);
          ]
        in
        List.iter
          (fun (name, src, tgt, max_depth, max_states) ->
            let seq = reaches_at ~max_depth ~max_states 1 src tgt in
            Alcotest.(check bool) (name ^ " discovered") true (seq <> None);
            List.iter
              (fun jobs ->
                let par = reaches_at ~max_depth ~max_states jobs src tgt in
                Alcotest.(check (option (list string)))
                  (Fmt.str "%s @ jobs=%d" name jobs)
                  seq par)
              [ 2; 4 ])
          attempts);
    case "reaches misses identically when the target is out of reach"
      (fun () ->
        List.iter
          (fun jobs ->
            Alcotest.(check (option (list string)))
              (Fmt.str "KG1->KG2 @ jobs=%d" jobs)
              None
              (reaches_at ~max_depth:4 ~max_states:300 jobs Paper.kg1
                 Paper.kg2))
          [ 1; 2; 4 ]);
    case "repeated parallel runs are deterministic" (fun () ->
        let run () = explore_at ~max_depth:4 ~max_states:150 4 Paper.t2k_source in
        let first = run () in
        for i = 2 to 3 do
          check_same_outcome (Fmt.str "run %d" i) first (run ())
        done;
        let reach () =
          reaches_at ~max_depth:6 ~max_states:2_000 4 Paper.t1k_source
            Paper.t1k_target
        in
        Alcotest.(check (option (list string))) "reaches rerun" (reach ())
          (reach ()));
    case "jobs = 0 resolves to the recommended domain count" (fun () ->
        let config = { Search.default_config with jobs = 0 } in
        Alcotest.(check bool) "at least one domain" true
          (Search.resolved_jobs config >= 1);
        Alcotest.(check int) "explicit jobs pass through" 3
          (Search.resolved_jobs { Search.default_config with jobs = 3 });
        let seq = explore_at ~max_depth:3 ~max_states:80 1 Paper.t1k_source in
        let auto = explore_at ~max_depth:3 ~max_states:80 0 Paper.t1k_source in
        check_same_outcome "auto jobs" seq auto);
    (* ---------------- pool unit tests ---------------- *)
    case "pool map preserves order at every size" (fun () ->
        let xs = Array.init 100 (fun i -> i) in
        let expect = Array.map (fun i -> (i * i) + 1) xs in
        List.iter
          (fun jobs ->
            Pool.with_pool ~jobs (fun pool ->
                Alcotest.(check (array int))
                  (Fmt.str "jobs=%d" jobs) expect
                  (Pool.map pool (fun i -> (i * i) + 1) xs)))
          [ 1; 2; 4 ]);
    case "pool is reusable across jobs and sizes it reports" (fun () ->
        Pool.with_pool ~jobs:3 (fun pool ->
            Alcotest.(check int) "size" 3 (Pool.size pool);
            Alcotest.(check (list int)) "first job" [ 2; 4; 6 ]
              (Pool.map_list pool (fun x -> 2 * x) [ 1; 2; 3 ]);
            Alcotest.(check (list int)) "second job" [ 1; 8; 27 ]
              (Pool.map_list pool (fun x -> x * x * x) [ 1; 2; 3 ]);
            Alcotest.(check (array int)) "empty input" [||]
              (Pool.map pool (fun x -> x) [||])));
    case "pool run covers every chunk exactly once" (fun () ->
        Pool.with_pool ~jobs:4 (fun pool ->
            let chunks = 23 in
            let hits = Array.make chunks 0 in
            (* distinct slots: no two tasks share an index *)
            Pool.run pool ~chunks (fun i -> hits.(i) <- hits.(i) + 1);
            Alcotest.(check (array int)) "each chunk once"
              (Array.make chunks 1) hits));
    case "pool map re-raises a task exception in the submitter" (fun () ->
        List.iter
          (fun jobs ->
            Pool.with_pool ~jobs (fun pool ->
                match
                  Pool.map pool
                    (fun i -> if i = 13 then failwith "boom" else i)
                    (Array.init 20 (fun i -> i))
                with
                | _ -> Alcotest.fail "expected Failure"
                | exception Failure msg ->
                  Alcotest.(check string) "message" "boom" msg))
          [ 1; 2 ]);
    case "shutdown is idempotent and later use is refused" (fun () ->
        let pool = Pool.create ~jobs:2 () in
        Alcotest.(check (list int)) "works" [ 2 ]
          (Pool.map_list pool (fun x -> x + 1) [ 1 ]);
        Pool.shutdown pool;
        Pool.shutdown pool;
        Alcotest.check_raises "refused"
          (Invalid_argument "Pool.run: pool is shut down") (fun () ->
            ignore (Pool.map_list pool (fun x -> x) [ 1 ])));
    (* ---------------- cost-cache capacity ---------------- *)
    case "cost cache capacity is a hard bound with counted evictions"
      (fun () ->
        let cache = Cost.cache ~size:4 () in
        (* ten canonically distinct plans *)
        let qs =
          let seen = Term.Canonical.Table.create 16 in
          List.filter
            (fun q ->
              let k = Term.Canonical.of_query q in
              if Term.Canonical.Table.mem seen k then false
              else begin
                Term.Canonical.Table.replace seen k ();
                true
              end)
            (List.init 40 (fun i -> random_query i 2))
        in
        let qs = List.filteri (fun i _ -> i < 10) qs in
        Alcotest.(check int) "ten distinct plans" 10 (List.length qs);
        List.iter
          (fun q ->
            ignore (Cost.weighted_memo cache ~db:tiny_db (Term.Hc.of_query q)))
          qs;
        let s = Cost.cache_stats cache in
        Alcotest.(check int) "all misses" 10 s.Cost.misses;
        Alcotest.(check bool) "bounded" true (s.Cost.entries <= 4);
        Alcotest.(check int) "evictions balance" (10 - s.Cost.entries)
          s.Cost.evictions);
    case "second chance: a hit entry survives the sweep" (fun () ->
        let cache = Cost.cache ~size:2 () in
        let a = Paper.t1k_source and b = Paper.t2k_source and c = Paper.k4 in
        let cost q = Cost.weighted_memo cache ~db:tiny_db (Term.Hc.of_query q) in
        ignore (cost a);
        ignore (cost a);  (* hit: a earns its second chance *)
        ignore (cost b);
        ignore (cost c);  (* overflow sweep: b (never hit) is evicted *)
        let s0 = Cost.cache_stats cache in
        ignore (cost a);  (* must still be resident *)
        let s1 = Cost.cache_stats cache in
        Alcotest.(check int) "a survived the sweep" (s0.Cost.hits + 1)
          s1.Cost.hits;
        Alcotest.(check int) "one eviction so far" 1 s1.Cost.evictions);
    case "batch memo returns the same costs and accounting as one-by-one"
      (fun () ->
        let qs =
          List.init 8 (fun i -> Term.Hc.of_query (random_query (100 + i) 2))
        in
        let items =
          Array.of_list (List.map (fun hq -> (Term.Hc.query_key hq, hq)) qs)
        in
        let seq_cache = Cost.cache () in
        let expected =
          List.map (fun hq -> Cost.weighted_memo seq_cache ~db:tiny_db hq) qs
        in
        let batch_cache = Cost.cache () in
        (* cold batch = all sequential misses *)
        let cold = Cost.weighted_memo_batch batch_cache ~db:tiny_db items in
        Alcotest.(check (list (float 0.))) "cold costs" expected
          (Array.to_list cold);
        (* warm batch through a parallel map = all hits, same costs *)
        let warm =
          Pool.with_pool ~jobs:2 (fun pool ->
              Cost.weighted_memo_batch batch_cache ~db:tiny_db
                ~map:(fun f arr -> Pool.map pool f arr)
                items)
        in
        Alcotest.(check (list (float 0.))) "warm costs" expected
          (Array.to_list warm);
        let sb = Cost.cache_stats batch_cache in
        let ss = Cost.cache_stats seq_cache in
        Alcotest.(check int) "same misses" ss.Cost.misses sb.Cost.misses;
        Alcotest.(check int) "warm hits" (Array.length items) sb.Cost.hits);
    case "a raising map aborts promptly and re-raises" (fun () ->
        (* one poisoned item early in the array: the exception must come
           back out of [map], and domains must stop starting new items
           once it is raised instead of grinding through the whole input *)
        let n = 64 in
        let ran = Atomic.make 0 in
        let xs = Array.init n Fun.id in
        let f i =
          if i = 3 then failwith "poisoned item"
          else begin
            ignore (Atomic.fetch_and_add ran 1);
            Unix.sleepf 0.002;
            i
          end
        in
        Pool.with_pool ~jobs:2 (fun pool ->
            (match Pool.map pool f xs with
            | _ -> Alcotest.fail "expected the map to re-raise"
            | exception Failure msg ->
              Alcotest.(check string) "the item's exception" "poisoned item"
                msg);
            (* with 2 domains and 2ms per good item, finishing all 63
               good items would take ~60ms; aborting after the poison
               leaves most of them unstarted *)
            Alcotest.(check bool) "most items never ran" true
              (Atomic.get ran < n - 8);
            (* the pool survives an aborted map *)
            let ok = Pool.map pool (fun i -> i * 2) (Array.init 8 Fun.id) in
            Alcotest.(check (array int)) "pool still works"
              (Array.init 8 (fun i -> i * 2))
              ok));
  ]

let props =
  let open QCheck in
  let arb depth =
    QCheck.make
      ~print:(fun i -> Kola.Pretty.query_to_string (random_query i depth))
      QCheck.Gen.(int_bound 1_000_000)
  in
  [
    Test.make ~count:25
      ~name:"parallel explore equals sequential explore on random queries"
      (arb 2)
      (fun i ->
        let q = random_query i 2 in
        let seq = explore_at ~max_depth:2 ~max_states:40 1 q in
        let par = explore_at ~max_depth:2 ~max_states:40 3 q in
        Term.equal_query seq.Search.best.Search.query
          par.Search.best.Search.query
        && seq.Search.best.Search.path = par.Search.best.Search.path
        && seq.Search.best.Search.cost = par.Search.best.Search.cost
        && seq.Search.explored = par.Search.explored
        && seq.Search.frontier_exhausted = par.Search.frontier_exhausted);
  ]

let tests = tests @ List.map (QCheck_alcotest.to_alcotest ~long:false) props
