(* The domain pool (Kola_parallel.Pool), the capacity-bounded cost
   cache, and searches running on several domains at once, as the
   daemon's workers run them: each must return the *identical* outcome —
   best query, derivation, cost, explored count, stop reason — as the
   same search run alone. *)

open Kola
open Util
module Search = Optimizer.Search
module Cost = Optimizer.Cost
module Pool = Kola_parallel.Pool
module Saturate = Kola_egraph.Saturate

(* The determinism contract: best query, derivation, cost, explored
   count, stop reason and distinct-state count all agree.  (Cost-cache
   accounting is deliberately excluded: hit/miss totals may legally shift
   when a capacity sweep lands mid-search.) *)
let check_same_outcome name (a : Search.outcome) (b : Search.outcome) =
  Alcotest.check query (name ^ ": best query") a.Search.best.Search.query
    b.Search.best.Search.query;
  Alcotest.(check (list string))
    (name ^ ": derivation") a.Search.best.Search.path b.Search.best.Search.path;
  Alcotest.(check (float 0.))
    (name ^ ": cost") a.Search.best.Search.cost b.Search.best.Search.cost;
  Alcotest.(check int) (name ^ ": explored") a.Search.explored b.Search.explored;
  Alcotest.(check string)
    (name ^ ": stop")
    (Search.stop_reason_label a.Search.stop)
    (Search.stop_reason_label b.Search.stop);
  Alcotest.(check int)
    (name ^ ": distinct states") a.Search.seen_states b.Search.seen_states

let random_query i depth =
  Translate.Compile.query (Datagen.Queries.query ~seed:i ~depth)

let tests =
  [
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
            Alcotest.(check (array int)) "first job" [| 2; 4; 6 |]
              (Pool.map pool (fun x -> 2 * x) [| 1; 2; 3 |]);
            Alcotest.(check (array int)) "second job" [| 1; 8; 27 |]
              (Pool.map pool (fun x -> x * x * x) [| 1; 2; 3 |]);
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
        Alcotest.(check (array int)) "works" [| 2 |]
          (Pool.map pool (fun x -> x + 1) [| 1 |]);
        Pool.shutdown pool;
        Pool.shutdown pool;
        Alcotest.check_raises "refused"
          (Invalid_argument "Pool.run: pool is shut down") (fun () ->
            ignore (Pool.map pool (fun x -> x) [| 1 |])));
    (* ---------------- cost-cache capacity ---------------- *)
    case "cost cache capacity is a hard bound with counted evictions"
      (fun () ->
        let cache = Cost.cache ~size:4 () in
        (* ten canonically distinct plans *)
        let qs =
          let seen = Term.Hc.Qtable.create 16 in
          List.filter
            (fun q ->
              let k = Term.Hc.query_key (Term.Hc.of_query q) in
              if Term.Hc.Qtable.mem seen k then false
              else begin
                Term.Hc.Qtable.replace seen k ();
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
        (* warm batch = all hits, same costs *)
        let warm = Cost.weighted_memo_batch batch_cache ~db:tiny_db items in
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
  let explore q =
    Search.explore
      ~config:
        {
          Search.default_config with
          max_depth = 2;
          max_states = 40;
          cost_cache = Some (Cost.cache ());
        }
      q
  in
  [
    Test.make ~count:25
      ~name:"parallel explore equals sequential explore on random queries"
      (arb 2)
      (fun i ->
        (* one query searched on two domains at once, as two daemon
           workers answer it *)
        let q = random_query i 2 in
        let seq = explore q in
        List.init 2 (fun _ -> Domain.spawn (fun () -> explore q))
        |> List.map Domain.join
        |> List.for_all (fun par ->
               Term.equal_query seq.Search.best.Search.query
                 par.Search.best.Search.query
               && seq.Search.best.Search.path = par.Search.best.Search.path
               && seq.Search.best.Search.cost = par.Search.best.Search.cost
               && seq.Search.explored = par.Search.explored
               && seq.Search.stop = par.Search.stop));
  ]

(* The daemon's workers run whole searches on their own domains at
   once. *)
let concurrency_tests =
  [
    case "searches on two domains at once keep their outcomes"
      (fun () ->
        (* as the daemon's two workers run them: each search owns its
           successor enumerator, sub-plan memo and e-graph, and here its
           cost cache, so none moves another.  The e-graph runs at the
           ledger's 2 000 e-nodes. *)
        let run (engine, q) =
          let b = Search.default_config.Search.egraph_budgets in
          Search.explore
            ~config:
              {
                Search.default_config with
                engine;
                sample_db = cli_db;
                cost_cache = Some (Cost.cache ());
                egraph_budgets = { b with Saturate.max_enodes = 2_000 };
              }
            q
        in
        let workloads =
          [
            ("KG1", (Search.Bfs, Paper.kg1));
            ("K4", (Search.Bfs, Paper.k4));
            ("K4 e-graph", (Search.Egraph, Paper.k4));
          ]
        in
        let sequential = List.map (fun (name, w) -> (name, run w)) workloads in
        (* each domain runs every workload three times, the two in
           opposite orders, so BFS and saturation overlap each other *)
        let rounds ws = List.concat (List.init 3 (fun _ -> ws)) in
        let concurrent =
          List.map
            (fun ws ->
              Domain.spawn (fun () ->
                  List.map (fun (name, w) -> (name, run w)) (rounds ws)))
            [ workloads; List.rev workloads ]
          |> List.concat_map Domain.join
        in
        let saturation (o : Search.outcome) =
          Option.map
            (fun (s : Saturate.stats) ->
              Saturate.
                ( [
                    s.e_nodes; s.e_classes; s.unions; s.iterations;
                    s.instances; s.matches_skipped; s.rules_deferred;
                  ],
                  stop_reason_label s.stop ))
            o.Search.saturation
        in
        List.iteri
          (fun i (name, o) ->
            let seq = List.assoc name sequential in
            let name = Fmt.str "%s, concurrent run %d" name i in
            check_same_outcome name seq o;
            Alcotest.(check int) (name ^ ": cost evaluations")
              seq.Search.cache_misses o.Search.cache_misses;
            Alcotest.(check (option (pair (list int) string)))
              (name ^ ": saturation counts") (saturation seq) (saturation o))
          concurrent)
  ]

let tests =
  tests
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) props
  @ concurrency_tests
