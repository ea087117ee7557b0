(* The equality-saturation backend: union-find and congruence-rebuild
   invariants, budgeted saturation with reported stop reasons, cost
   extraction measured against BFS exploration, and saturation-based
   reaches whose replayed derivations the BFS checker validates step by
   step.  Also pins the masked-truncation frontier contract: only the
   truncation of *viable* positions clears [frontier_exhausted]; subtrees
   the head-symbol mask already pruned never do. *)

open Kola
open Util
module Search = Optimizer.Search
module Uf = Kola_egraph.Uf
module Lang = Kola_egraph.Lang
module Graph = Kola_egraph.Graph
module Saturate = Kola_egraph.Saturate

let ecfg ?(rules = Rules.Catalog.all) ?budgets () =
  {
    Search.default_config with
    engine = Search.Egraph;
    rules;
    egraph_budgets = Option.value budgets ~default:Saturate.default_budgets;
  }

let stop_label (sp : Saturate.space) =
  Saturate.stop_reason_label sp.Saturate.stats.Saturate.stop

let saturate ?budgets ?target ~rules q =
  Saturate.saturate ?budgets
    ?target:(Option.map Term.Hc.of_query target)
    ~rules (Term.Hc.of_query q)

(* Chain of three fusable iterates with a mask-dead subtree glued on:
   r11 (iterate∘iterate fusion) has three viable positions, and the
   ⟨Kf 1, Kf 2⟩ leg has no Iterate head, so the index mask prunes it. *)
let masked_chain =
  Term.query
    (Term.chain
       [
         Term.Iterate (Term.Kp true, Term.Prim "city");
         Term.Iterate (Term.Kp true, Term.Prim "addr");
         Term.Iterate (Term.Kp true, Term.Id);
         Term.Pairf (Term.Kf (Value.Int 1), Term.Kf (Value.Int 2));
       ])
    (Value.Named "P")

(* The unpruned oracle for [Search.successors]: query rules first, then
   every function and predicate rule at each of its first [max_positions]
   positions, found by a plain [once_topdown] with a skip counter — no
   head index, no masks, no interning. *)
let plain_successors ~max_positions rules q =
  let at_kth r k =
    let remaining = ref k in
    let s tgt =
      match Rewrite.Strategy.of_rule r tgt with
      | Some t when !remaining = 0 -> Some t
      | Some _ ->
        decr remaining;
        None
      | None -> None
    in
    Option.map
      (fun body -> { q with Term.body })
      (Rewrite.Strategy.apply_func (Rewrite.Strategy.once_topdown s)
         q.Term.body)
  in
  let query_rules, other_rules =
    List.partition
      (fun r ->
        match r.Rewrite.Rule.body with
        | Rewrite.Rule.Query_rule _ -> true
        | _ -> false)
      rules
  in
  List.filter_map
    (fun r ->
      Option.map
        (fun q' -> (r.Rewrite.Rule.name, q'))
        (Rewrite.Rule.apply_query r q))
    query_rules
  @ List.concat_map
      (fun r ->
        let rec collect k =
          if k >= max_positions then []
          else
            match at_kth r k with
            | Some q' -> (r.Rewrite.Rule.name, q') :: collect (k + 1)
            | None -> []
        in
        collect 0)
      other_rules

let tests =
  [
    (* ---------------- union-find ---------------- *)
    case "union-find: fresh singletons, union, transitivity" (fun () ->
        let u = Uf.create () in
        let a = Uf.make u and b = Uf.make u in
        let c = Uf.make u and d = Uf.make u in
        Alcotest.(check int) "allocated" 4 (Uf.length u);
        List.iter
          (fun x -> Alcotest.(check int) "fresh element is its own root" x (Uf.find u x))
          [ a; b; c; d ];
        Alcotest.(check bool) "fresh classes distinct" false (Uf.same u a b);
        let r1 = Uf.union u a b in
        Alcotest.(check bool) "united" true (Uf.same u a b);
        Alcotest.(check int) "find a = surviving root" r1 (Uf.find u a);
        Alcotest.(check int) "find b = surviving root" r1 (Uf.find u b);
        ignore (Uf.union u c d);
        let r3 = Uf.union u a d in
        Alcotest.(check bool) "transitive" true (Uf.same u b c);
        Alcotest.(check int) "one root for all four" r3 (Uf.find u b);
        Alcotest.(check int) "re-union of same class is the identity" r3
          (Uf.union u b d);
        Alcotest.(check int) "length unchanged by unions" 4 (Uf.length u));
    case "union-find: growth across many elements stays consistent" (fun () ->
        let u = Uf.create ~capacity:2 () in
        let xs = List.init 200 (fun _ -> Uf.make u) in
        (* chain-union everything pairwise *)
        List.iteri
          (fun i x -> if i > 0 then ignore (Uf.union u (List.hd xs) x))
          xs;
        let root = Uf.find u (List.hd xs) in
        Alcotest.(check bool) "all in one class" true
          (List.for_all (fun x -> Uf.find u x = root) xs));
    (* ---------------- congruence rebuild ---------------- *)
    case "rebuild restores congruence one level up" (fun () ->
        let g = Graph.create () in
        let f x = Lang.Wf (Term.Hc.compose Term.Hc.id x) in
        let city = Term.Hc.prim "city" and addr = Term.Hc.prim "addr" in
        let ca = Graph.add_term g (Lang.Wf city) in
        let cb = Graph.add_term g (Lang.Wf addr) in
        let fa = Graph.add_term g (f city) in
        let fb = Graph.add_term g (f addr) in
        Graph.rebuild g;
        Alcotest.(check bool) "parents distinct before the union" false
          (Graph.find g fa = Graph.find g fb);
        ignore
          (Graph.union g ~ja:(Lang.Wf city) ~jb:(Lang.Wf addr)
             ~just:(Graph.Jrule "axiom") ca cb);
        Graph.rebuild g;
        Alcotest.(check bool) "children united" true
          (Graph.find g ca = Graph.find g cb);
        Alcotest.(check bool) "id∘city ≡ id∘addr by congruence" true
          (Graph.find g fa = Graph.find g fb));
    case "rebuild propagates congruence through nested parents" (fun () ->
        let g = Graph.create () in
        let f x = Term.Hc.compose Term.Hc.id x in
        let city = Term.Hc.prim "city" and addr = Term.Hc.prim "addr" in
        let ca = Graph.add_term g (Lang.Wf city) in
        let cb = Graph.add_term g (Lang.Wf addr) in
        let ffa = Graph.add_term g (Lang.Wf (f (f city))) in
        let ffb = Graph.add_term g (Lang.Wf (f (f addr))) in
        Graph.rebuild g;
        ignore
          (Graph.union g ~ja:(Lang.Wf city) ~jb:(Lang.Wf addr)
             ~just:(Graph.Jrule "axiom") ca cb);
        Graph.rebuild g;
        Alcotest.(check bool) "two congruence levels collapse in one rebuild"
          true
          (Graph.find g ffa = Graph.find g ffb);
        (* the explanation lifts the axiom through both operators and
           lands exactly on the target spelling *)
        let steps = Graph.explain g (Lang.Wf (f (f city))) (Lang.Wf (f (f addr))) in
        Alcotest.(check bool) "explanation is non-empty" true (steps <> []);
        let _, _, last = List.nth steps (List.length steps - 1) in
        Alcotest.(check bool) "explanation ends on the target term" true
          (Lang.wkey last = Lang.wkey (Lang.Wf (f (f addr)))));
    case "hash-consing: re-adding a term allocates nothing" (fun () ->
        let g = Graph.create () in
        let w = Lang.Wq (Term.Hc.of_func Paper.t1k_source.Term.body,
                         Term.Hc.of_value Paper.t1k_source.Term.arg) in
        let c1 = Graph.add_term g w in
        let n = Graph.n_nodes g in
        let c2 = Graph.add_term g w in
        Alcotest.(check int) "same class" (Graph.find g c1) (Graph.find g c2);
        Alcotest.(check int) "no new e-nodes" n (Graph.n_nodes g));
    (* ---------------- saturation budgets & stop reasons ---------------- *)
    case "saturation reports its stop reason, never silently" (fun () ->
        let trivial = Term.query Term.Id (Value.Named "P") in
        Alcotest.(check string) "no rule fires: saturated" "saturated"
          (stop_label (saturate ~rules:Rules.Catalog.all trivial));
        Alcotest.(check string) "zero iterations allowed" "iteration-budget"
          (stop_label
             (saturate
                ~budgets:
                  {
                    Saturate.max_enodes = 1_000_000;
                    max_iterations = 0;
                    max_millis = 1e9;
                  }
                ~rules:Rules.Catalog.all Paper.t1k_source));
        Alcotest.(check string) "tiny node budget" "node-budget"
          (stop_label
             (saturate
                ~budgets:
                  {
                    Saturate.max_enodes = 5;
                    max_iterations = 50;
                    max_millis = 1e9;
                  }
                ~rules:Rules.Catalog.all Paper.t1k_source));
        Alcotest.(check string) "equivalence query answered early"
          "target-found"
          (stop_label
             (saturate ~target:Paper.t1k_target ~rules:Rules.Catalog.all
                Paper.t1k_source)));
    (* ---------------- reaches: Figures 4 and 6 ---------------- *)
    case "egraph reaches T1K (Figure 4); replay validates step by step"
      (fun () ->
        match
          Search.reaches_steps ~config:(ecfg ()) Paper.t1k_source
            Paper.t1k_target
        with
        | None -> Alcotest.fail "T1K not reached by saturation"
        | Some steps ->
          Alcotest.(check bool) "derivation starts with rule 11" true
            (fst (List.hd steps) = "r11");
          Alcotest.check query "lands on the target"
            Paper.t1k_target
            (snd (List.nth steps (List.length steps - 1)));
          Alcotest.(check bool) "every step fires under the BFS checker" true
            (Search.validate_path Paper.t1k_source steps));
    case "egraph reaches T2K from the forward catalog alone" (fun () ->
        (* BFS needs rule 12 explicitly flipped; e-class equivalence is
           symmetric, so saturation finds the derivation from the
           forward-oriented catalog and replay emits the "-1" names. *)
        match
          Search.reaches_steps ~config:(ecfg ()) Paper.t2k_source
            Paper.t2k_target
        with
        | None -> Alcotest.fail "T2K not reached by saturation"
        | Some steps ->
          Alcotest.(check bool) "replay uses a flipped rule" true
            (List.exists
               (fun (r, _) -> Filename.check_suffix r "-1")
               steps);
          Alcotest.(check bool) "validated" true
            (Search.validate_path Paper.t2k_source steps));
    case "egraph reaches the K4 code motion (Figure 6), validated" (fun () ->
        match
          Search.reaches_steps ~config:(ecfg ()) Paper.k4 Paper.k4_optimized
        with
        | None -> Alcotest.fail "K4 not reached by saturation"
        | Some steps ->
          Alcotest.(check bool) "validated" true
            (Search.validate_path Paper.k4 steps));
    case "reaches (string form) agrees with reaches_steps" (fun () ->
        let config = ecfg () in
        match
          ( Search.reaches ~config Paper.t1k_source Paper.t1k_target,
            Search.reaches_steps ~config Paper.t1k_source Paper.t1k_target )
        with
        | Some names, Some steps ->
          Alcotest.(check (list string)) "same rule sequence" names
            (List.map fst steps)
        | _ -> Alcotest.fail "T1K not reached");
    (* ---------------- explore: extraction vs BFS ---------------- *)
    case "egraph extraction is never costlier than BFS at default depth"
      (fun () ->
        List.iter
          (fun (name, q) ->
            let bfs = Search.explore q in
            let eg = Search.explore ~config:(ecfg ()) q in
            Alcotest.(check bool)
              (Fmt.str "%s: egraph %.2f <= bfs %.2f" name
                 eg.Search.best.Search.cost bfs.Search.best.Search.cost)
              true
              (eg.Search.best.Search.cost
              <= bfs.Search.best.Search.cost +. 1e-9);
            Alcotest.(check bool) (name ^ ": BFS reports no saturation stats")
              true
              (bfs.Search.saturation = None);
            match eg.Search.saturation with
            | None -> Alcotest.fail (name ^ ": saturation stats missing")
            | Some s ->
              Alcotest.(check bool) (name ^ ": iterated") true
                (s.Saturate.iterations >= 1);
              Alcotest.(check bool) (name ^ ": e-classes <= e-nodes") true
                (s.Saturate.e_classes <= s.Saturate.e_nodes))
          [ ("T1K", Paper.t1k_source); ("K4", Paper.k4) ]);
    case "egraph explore recovers the fused T1K form with its derivation"
      (fun () ->
        let o = Search.explore ~config:(ecfg ()) Paper.t1k_source in
        Alcotest.check query "best is the fused form" Paper.t1k_target
          o.Search.best.Search.query;
        Alcotest.(check bool) "derivation replayed from the proof forest" true
          (o.Search.best.Search.path <> []));
    (* ---------------- parallel determinism & scheduling ---------------- *)
    case "saturation outcomes are bit-identical at jobs 1, 2 and 4" (fun () ->
        (* Time never stops these runs (max_millis = 1e9), so every stat,
           the stop reason and the extracted front must agree exactly
           with the sequential baseline at any pool size. *)
        let budgets =
          { Saturate.max_enodes = 60_000; max_iterations = 5; max_millis = 1e9 }
        in
        let fingerprint sp =
          let s = sp.Saturate.stats in
          Fmt.str "it=%d nodes=%d classes=%d unions=%d skipped=%d deferred=%d stop=%s front=%s"
            s.Saturate.iterations s.Saturate.e_nodes s.Saturate.e_classes
            s.Saturate.unions s.Saturate.matches_skipped
            s.Saturate.rules_deferred (stop_label sp)
            (String.concat " ; "
               (List.filter_map
                  (fun w ->
                    Option.map Kola.Pretty.query_to_string
                      (Saturate.query_of_wterm w))
                  (Saturate.best_terms ~k:3 sp)))
        in
        let run pool =
          Saturate.saturate ?pool ~budgets ~rules:Rules.Catalog.all
            (Term.Hc.of_query Paper.k4)
        in
        let base = run None in
        Alcotest.(check bool) "incremental matching skipped stale pairs" true
          (base.Saturate.stats.Saturate.matches_skipped > 0);
        let expected = fingerprint base in
        List.iter
          (fun jobs ->
            Kola_parallel.Pool.with_pool ~jobs (fun pool ->
                Alcotest.(check string)
                  (Fmt.str "jobs=%d matches the sequential run" jobs)
                  expected
                  (fingerprint (run (Some pool)))))
          [ 2; 4 ]);
    case "extraction regression pins: K4 and KG1 never lose to BFS" (fun () ->
        (* K4's hoisted join is strictly cheaper than anything BFS finds
           at default depth; KG1's best spelling is weight-blind (the
           hoist is heavier under op_weight) and only survives through
           the witness-deviation front, so this pins both. *)
        let eg q = (Search.explore ~config:(ecfg ()) q).Search.best.Search.cost in
        let bfs q = Search.(explore q).best.Search.cost in
        let k4 = eg Paper.k4 in
        Alcotest.(check bool)
          (Fmt.str "K4 egraph cost %.2f <= 8.1" k4)
          true
          (k4 <= 8.1 +. 1e-6);
        let kg1_bfs = bfs Paper.kg1 and kg1_eg = eg Paper.kg1 in
        Alcotest.(check bool)
          (Fmt.str "KG1 egraph %.2f <= bfs %.2f" kg1_eg kg1_bfs)
          true
          (kg1_eg <= kg1_bfs +. 1e-9));
    case "extraction front spellings all land in the source's class" (fun () ->
        (* Every candidate the optimizer re-measures — weight bests,
           weight-optimum deviations, witness deviations around the
           source — must be provably equivalent to the source: re-adding
           its spelling to the graph finds the source's e-class. *)
        let budgets =
          { Saturate.max_enodes = 20_000; max_iterations = 4; max_millis = 1e9 }
        in
        let sp = saturate ~budgets ~rules:Rules.Catalog.all Paper.kg1 in
        let g = sp.Saturate.graph in
        let front = Saturate.extraction_front ~k:2 sp in
        Alcotest.(check bool) "front holds more than the source" true
          (List.length front > 1);
        List.iter
          (fun w ->
            let c = Graph.add_term g w in
            Graph.rebuild g;
            Alcotest.(check int) "same class as the source"
              (Graph.find g sp.Saturate.root)
              (Graph.find g c))
          front);
    (* ---------------- masked truncation regression ---------------- *)
    case "masked truncation: only viable positions clear the frontier flag"
      (fun () ->
        let r11 = Rules.Catalog.rules [ "r11" ] in
        let viable = List.length (Search.successors r11 masked_chain) in
        Alcotest.(check int) "three viable r11 positions" 3 viable;
        let exhausted_at mp =
          (Search.explore
             ~config:
               {
                 Search.default_config with
                 rules = r11;
                 max_positions = mp;
                 max_depth = 1;
                 max_states = 1_000;
               }
             masked_chain)
            .Search.frontier_exhausted
        in
        (* the mask-pruned ⟨Kf 1, Kf 2⟩ subtree holds no position, so a cap
           at exactly the viable count truncates nothing *)
        Alcotest.(check bool) "cap = viable stays exhausted" true
          (exhausted_at viable);
        Alcotest.(check bool) "cap = viable - 1 truncates" false
          (exhausted_at (viable - 1)));
    case "mask-pruned successors match an unpruned plain walk" (fun () ->
        let check name mp q =
          let pruned = Search.successors ~max_positions:mp Rules.Catalog.all q in
          let plain = plain_successors ~max_positions:mp Rules.Catalog.all q in
          Alcotest.(check int)
            (Fmt.str "%s: same count at cap %d" name mp)
            (List.length plain) (List.length pruned);
          List.iter2
            (fun (r1, q1) (r2, q2) ->
              Alcotest.(check string) "same rule" r1 r2;
              Alcotest.check query "same successor" q1 q2)
            plain pruned
        in
        List.iter (fun mp -> check "masked chain" mp masked_chain)
          [ 0; 1; 2; 3; 4; 64 ];
        List.iter
          (fun (name, q) -> check name 64 q)
          [ ("T1K", Paper.t1k_source); ("K4", Paper.k4); ("KG1", Paper.kg1) ]);
  ]

let props =
  let open QCheck in
  let random_query i depth =
    Translate.Compile.query (Datagen.Queries.query ~seed:i ~depth)
  in
  let arb depth =
    QCheck.make
      ~print:(fun i -> Kola.Pretty.query_to_string (random_query i depth))
      QCheck.Gen.(int_bound 1_000_000)
  in
  let small_budgets =
    { Saturate.max_enodes = 4_000; max_iterations = 8; max_millis = 500. }
  in
  [
    Test.make ~count:20
      ~name:
        "saturated egraph extraction is never costlier than BFS exploration"
      (arb 2)
      (fun i ->
        let q = random_query i 2 in
        let bfs =
          Search.explore
            ~config:
              { Search.default_config with max_depth = 2; max_states = 60 }
            q
        in
        let eg =
          Search.explore ~config:(ecfg ~budgets:small_budgets ()) q
        in
        match eg.Search.saturation with
        | None -> false
        | Some s ->
          (* extraction always covers the source itself, budget or not;
             the <= BFS claim holds whenever the space fully saturated *)
          s.Saturate.stop <> Saturate.Saturated
          || eg.Search.best.Search.cost
             <= bfs.Search.best.Search.cost +. 1e-9);
    Test.make ~count:20
      ~name:"egraph reaches agrees with BFS on one-step rewrites" (arb 2)
      (fun i ->
        let q = random_query i 2 in
        match Search.successors Rules.Catalog.all q with
        | [] -> true
        | (_, q') :: _ -> (
          match
            Search.reaches_steps ~config:(ecfg ~budgets:small_budgets ()) q q'
          with
          | Some steps -> Search.validate_path q steps
          | None -> false));
  ]

let tests = tests @ List.map (QCheck_alcotest.to_alcotest ~long:false) props
