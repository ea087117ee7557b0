(* The engine's performance layer: head-symbol rule dispatch, the
   successor position cap and memoized costing.  Correctness is
   equivalence: the head-dispatched [Engine.run] must produce the
   *identical* derivation to the naive semantics, written out below as an
   oracle.  test_golden_rewrite pins the same runs against frozen traces
   and attempt counts. *)

open Kola
open Util
module Engine = Rewrite.Engine
module Rule = Rewrite.Rule
module Strategy = Rewrite.Strategy
module Hc = Term.Hc
module Search = Optimizer.Search

let paper_queries =
  [ Paper.t1k_source; Paper.t2k_source; Paper.k3; Paper.k4; Paper.kg1;
    Paper.kg2 ]

let trace_names (o : Engine.outcome) =
  List.map (fun s -> s.Engine.rule_name) o.Engine.trace

(* The naive semantics: query rules at the query level first, then every
   node outermost-leftmost first, trying at each node every rule of the
   node's sort in list order — no head dispatch and no subtree pruning.
   Attempts are counted per rule tried, as [Engine.run] counts them. *)
type naive = { nquery : Term.query; nnames : string list; nattempts : int }

let naive_step ~counter rules (hq : Hc.hquery) =
  let of_sort pick = List.filter (fun r -> pick (Rule.patterns r)) rules in
  let query_rules = of_sort (function Rule.Query_pats _ -> true | _ -> false)
  and fun_rules = of_sort (function Rule.Fun_pats _ -> true | _ -> false)
  and pred_rules = of_sort (function Rule.Pred_pats _ -> true | _ -> false) in
  let first apply =
    List.find_map (fun (r : Rule.t) ->
        incr counter;
        Option.map (fun x -> (r.Rule.name, x)) (apply r))
  in
  match first (fun r -> Rule.apply_query r hq) query_rules with
  | Some _ as res -> res
  | None ->
    let named = ref "" in
    let at_node tgt =
      let rules =
        match tgt with Strategy.F _ -> fun_rules | Strategy.P _ -> pred_rules
      in
      match first (fun r -> Strategy.of_rule r tgt) rules with
      | Some (name, t) ->
        named := name;
        Some t
      | None -> None
    in
    Option.map
      (fun hbody -> (!named, { hq with Hc.hbody }))
      (Strategy.apply_func (Strategy.once_topdown at_node) hq.Hc.hbody)

let run_naive ~fuel rules q =
  let counter = ref 0 in
  let rec go n hq names =
    if n = 0 then (hq, names)
    else
      match naive_step ~counter rules hq with
      | Some (name, hq') -> go (n - 1) hq' (name :: names)
      | None -> (hq, names)
  in
  let hq, names = go fuel (Hc.of_query q) [] in
  { nquery = Hc.to_query hq; nnames = List.rev names; nattempts = !counter }

let run_both ?(fuel = 40) rules q =
  (run_naive ~fuel rules q, Engine.run ~fuel rules q)

let random_query i depth =
  Translate.Compile.query (Datagen.Queries.query ~seed:i ~depth)

let tests =
  [
    case "indexed run equals the naive all-rules walk on the paper queries"
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
    case "head dispatch offers fewer rules at a leaf than at a composition"
      (fun () ->
        let offered f =
          List.filter
            (fun r -> Engine.offered r (Strategy.F (Hc.of_func f)))
            Rules.Catalog.all
        in
        let compose = offered (Term.Compose (Term.Id, Term.Id)) in
        (* compose-headed rules exist and leaf nodes are offered fewer *)
        Alcotest.check Alcotest.bool "compose offers some rule" true
          (compose <> []);
        Alcotest.check Alcotest.bool "a leaf is offered fewer" true
          (List.length (offered Term.Pi1) < List.length compose));
    case "position cap truncation reports stop = Budget" (fun () ->
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
          (capped.Search.stop = Search.Exhausted);
        let full = Search.explore ~config:base q in
        Alcotest.check Alcotest.bool "no truncation at the default cap" true
          (full.Search.stop = Search.Exhausted));
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
  ]

let tests = tests @ List.map (QCheck_alcotest.to_alcotest ~long:false) props
