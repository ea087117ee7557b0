(* The engine's performance layer: head-symbol rule dispatch, hashed
   canonical dedup, memoized costing.  Correctness is equivalence: the
   indexed [Engine.run] must produce the *identical* derivation to
   iterating the unindexed [Engine.step_once], and hashed canonical keys
   must classify query pairs exactly as pretty-printed canonical strings
   do. *)

open Kola
open Util
module Engine = Rewrite.Engine
module Index = Rewrite.Index
module Search = Optimizer.Search

let paper_queries =
  [ Paper.t1k_source; Paper.t2k_source; Paper.k3; Paper.k4; Paper.kg1;
    Paper.kg2 ]

let trace_names (o : Engine.outcome) =
  List.map (fun s -> s.Engine.rule_name) o.Engine.trace

(* The unindexed oracle: iterate [Engine.step_once], which attempts every
   rule of the right sort at every node, counting attempts the way
   [Engine.run] does. *)
type naive = { nquery : Term.query; nnames : string list; nattempts : int }

let run_naive ~fuel rules q =
  let counter = ref 0 in
  let rec go n q names =
    if n = 0 then (q, names)
    else
      match Engine.step_once ~counter rules q with
      | Some (name, q') -> go (n - 1) q' (name :: names)
      | None -> (q, names)
  in
  let q', names = go fuel q [] in
  { nquery = q'; nnames = List.rev names; nattempts = !counter }

let run_both ?(fuel = 40) rules q =
  (run_naive ~fuel rules q, Engine.run ~fuel rules q)

let random_query i depth =
  Translate.Compile.query (Datagen.Queries.query ~seed:i ~depth)

(* Right-associate every composition chain: an associativity variant that
   canonical keys must identify with the original. *)
let rec right_assoc f =
  match f with
  | Term.Compose _ ->
    let rec build = function
      | [] -> Term.Id
      | [ g ] -> g
      | g :: gs -> Term.Compose (g, build gs)
    in
    build (List.map right_assoc (Term.unchain f))
  | f -> f

let tests =
  [
    case "indexed run equals iterated step_once on the paper queries"
      (fun () ->
        List.iter
          (fun q ->
            let naive, indexed = run_both Rules.Catalog.all q in
            Alcotest.(check (list string))
              "same trace" naive.nnames (trace_names indexed);
            Alcotest.check query "same normal form" naive.nquery
              indexed.Engine.query;
            Alcotest.(check int)
              "same firings" (List.length naive.nnames)
              indexed.Engine.stats.Engine.firings)
          paper_queries);
    case "index dispatch cuts attempts >= 3x on the Fig 4/6 derivations"
      (fun () ->
        List.iter
          (fun (name, q) ->
            let naive, indexed = run_both Rules.Catalog.all q in
            let r =
              float_of_int naive.nattempts
              /. float_of_int (max 1 indexed.Engine.stats.Engine.attempts)
            in
            Alcotest.check Alcotest.bool
              (Fmt.str "%s: %d naive vs %d indexed attempts (%.1fx)" name
                 naive.nattempts indexed.Engine.stats.Engine.attempts r)
              true (r >= 3.))
          [ ("T1K", Paper.t1k_source); ("T2K", Paper.t2k_source);
            ("K4", Paper.k4) ]);
    case "candidate buckets preserve catalog order" (fun () ->
        let idx = Index.build Rules.Catalog.all in
        let cands =
          Index.candidates_func idx
            (Term.Compose (Term.Id, Term.Id))
        in
        let names = List.map (fun r -> r.Rewrite.Rule.name) cands in
        let catalog_names =
          List.filter_map
            (fun r ->
              if List.mem r.Rewrite.Rule.name names then
                Some r.Rewrite.Rule.name
              else None)
            Rules.Catalog.all
        in
        Alcotest.(check (list string)) "subsequence of the catalog"
          catalog_names names;
        (* compose-headed rules exist and leaf buckets are smaller *)
        Alcotest.check Alcotest.bool "compose bucket nonempty" true
          (names <> []);
        let leaf = Index.candidates_func idx Term.Pi1 in
        Alcotest.check Alcotest.bool "leaf bucket smaller" true
          (List.length leaf < List.length cands));
    case "canonical keys identify associativity variants" (fun () ->
        List.iter
          (fun q ->
            let v = { q with Term.body = right_assoc q.Term.body } in
            let k1 = Term.Canonical.of_query q in
            let k2 = Term.Canonical.of_query v in
            Alcotest.check Alcotest.bool "equal keys" true
              (Term.Canonical.equal k1 k2);
            Alcotest.(check int) "equal hashes" (Term.Canonical.hash k1)
              (Term.Canonical.hash k2))
          paper_queries);
    case "canonical keys separate distinct paper queries" (fun () ->
        let keys = List.map Term.Canonical.of_query paper_queries in
        List.iteri
          (fun i ki ->
            List.iteri
              (fun j kj ->
                if i <> j then
                  Alcotest.check Alcotest.bool "distinct" false
                    (Term.Canonical.equal ki kj))
              keys)
          keys);
    case "position cap truncation clears frontier_exhausted" (fun () ->
        (* three iterate-fusion windows; with max_positions = 1 the
           successor enumeration provably truncates *)
        let q =
          Term.query
            (Term.chain
               [
                 Term.Iterate (Term.Kp true, Term.Prim "city");
                 Term.Iterate (Term.Kp true, Term.Prim "addr");
                 Term.Iterate (Term.Kp true, Term.Id);
                 Term.Iterate (Term.Kp true, Term.Id);
               ])
            (Value.Named "P")
        in
        let base =
          { Search.default_config with
            rules = Rules.Catalog.rules [ "r11" ];
            max_depth = 1;
            max_states = 1_000 }
        in
        let capped = Search.explore ~config:{ base with max_positions = 1 } q in
        Alcotest.check Alcotest.bool "truncation reported" false
          capped.Search.frontier_exhausted;
        let full = Search.explore ~config:base q in
        Alcotest.check Alcotest.bool "no truncation at the default cap" true
          full.Search.frontier_exhausted);
    case "successors honours max_positions" (fun () ->
        let q =
          Term.query
            (Term.chain
               [
                 Term.Iterate (Term.Kp true, Term.Prim "city");
                 Term.Iterate (Term.Kp true, Term.Prim "addr");
                 Term.Iterate (Term.Kp true, Term.Id);
               ])
            (Value.Named "P")
        in
        let rules = Rules.Catalog.rules [ "r11" ] in
        let all = Search.successors rules q in
        let capped = Search.successors ~max_positions:1 rules q in
        Alcotest.check Alcotest.bool "more than one position" true
          (List.length all > 1);
        Alcotest.(check int) "capped to one" 1 (List.length capped));
    case "cost cache eliminates re-evaluation on a warm exploration"
      (fun () ->
        let config =
          { Search.default_config with cost_cache = Some (Optimizer.Cost.cache ()) }
        in
        let cold = Search.explore ~config Paper.t1k_source in
        Alcotest.check Alcotest.bool "cold run evaluates" true
          (cold.Search.cache_misses > 0);
        let warm = Search.explore ~config Paper.t1k_source in
        Alcotest.(check int) "warm run never evaluates" 0
          warm.Search.cache_misses;
        Alcotest.check Alcotest.bool "warm run hits" true
          (warm.Search.cache_hits > 0);
        Alcotest.check query "same best plan" cold.Search.best.Search.query
          warm.Search.best.Search.query);
  ]

let props =
  let open QCheck in
  let arb depth =
    QCheck.make
      ~print:(fun i ->
        Kola.Pretty.query_to_string (random_query i depth))
      QCheck.Gen.(int_bound 1_000_000)
  in
  [
    Test.make ~count:50
      ~name:"indexed engine derives the identical trace on random queries"
      (arb 3)
      (fun i ->
        let q = random_query i 3 in
        let naive, indexed = run_both ~fuel:25 Rules.Catalog.all q in
        naive.nnames = trace_names indexed
        && Term.equal_query naive.nquery indexed.Engine.query
        && naive.nattempts >= indexed.Engine.stats.Engine.attempts);
    Test.make ~count:120
      ~name:"hashed canonical dedup classifies pairs like string canonical"
      (pair (arb 3) (pair (arb 3) bool))
      (fun (i, (j, use_variant)) ->
        let q1 = random_query i 3 in
        let q2 =
          if use_variant then
            { q1 with Term.body = right_assoc q1.Term.body }
          else random_query j 3
        in
        let strings_equal = Search.canonical q1 = Search.canonical q2 in
        let keys_equal =
          Term.Canonical.equal
            (Term.Canonical.of_query q1)
            (Term.Canonical.of_query q2)
        in
        strings_equal = keys_equal);
  ]

let tests = tests @ List.map (QCheck_alcotest.to_alcotest ~long:false) props
