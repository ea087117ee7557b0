(* The end-to-end optimizer: plan enumeration, cost-based choice, and
   correctness of whatever plan is chosen. *)

open Kola
open Util

let garage_src =
  "select [v, flatten(select p.grgs from p in P where v in p.cars)] from v in V"

let tests =
  [
    case "the garage query untangles and the hashed plan wins" (fun () ->
        let db =
          Datagen.Store.db
            (Datagen.Store.generate
               { Datagen.Store.default_params with people = 80; vehicles = 50; seed = 3 })
        in
        let r = Optimizer.Pipeline.optimize_oql ~db garage_src in
        Alcotest.check Alcotest.bool "untangled" true (Option.is_some r.untangled);
        Alcotest.check Alcotest.string "untangled label" "untangled"
          r.chosen.Optimizer.Pipeline.label;
        (match r.chosen.Optimizer.Pipeline.backend with
        | Eval.Hashed -> ()
        | Eval.Naive -> Alcotest.fail "expected the hashed backend");
        Alcotest.check value "result correct"
          (resolved db (Aqua.Eval.eval_closed ~db r.aqua))
          (resolved db (Optimizer.Pipeline.run ~db r)));
    case "every candidate plan computes the same result" (fun () ->
        let r = Optimizer.Pipeline.optimize_oql ~db:tiny_db garage_src in
        let expected = resolved tiny_db (Aqua.Eval.eval_closed ~db:tiny_db r.aqua) in
        List.iter
          (fun (c : Optimizer.Pipeline.plan) ->
            Alcotest.check value
              (Fmt.str "plan %s/%s/%s" c.label
                 (Optimizer.Pipeline.backend_name c.backend)
                 (Optimizer.Pipeline.dedup_name c.dedup))
              expected
              (resolved tiny_db
                 (Eval.eval_query ~db:tiny_db ~backend:c.backend
                    ~dedup:c.dedup c.query)))
          r.candidates);
    case "non-hidden-join queries still optimize (no untangled plan)"
      (fun () ->
        let r =
          Optimizer.Pipeline.optimize_oql ~db:tiny_db
            "select p.age from p in P where p.age > 20"
        in
        Alcotest.check Alcotest.bool "no untangled plan" true
          (Option.is_none r.untangled);
        Alcotest.check value "still correct"
          (resolved tiny_db (Aqua.Eval.eval_closed ~db:tiny_db r.aqua))
          (resolved tiny_db (Optimizer.Pipeline.run ~db:tiny_db r)));
    case "the untangled chosen cost is far below the original naive cost"
      (fun () ->
        let db = store ~people:150 ~vehicles:90 ~seed:13 in
        let r = Optimizer.Pipeline.optimize_oql ~db garage_src in
        let plan label =
          List.find
            (fun (c : Optimizer.Pipeline.plan) ->
              c.label = label && c.backend = Eval.Hashed)
            r.candidates
        in
        let original = plan "original" and untangled = plan "untangled" in
        let exact (c : Optimizer.Pipeline.plan) =
          (snd (Optimizer.Cost.measure ~backend:Eval.Hashed ~db c.query))
            .Optimizer.Cost.weighted
        in
        (* the original lost, so the report only costed it as far as the
           untangled plan's cost; its exact cost comes from running it to
           the end.  It has no join or nest, so its hashed cost is its
           naive cost too.  The chosen plan's cost is always exact. *)
        Alcotest.(check (list string)) "candidate order"
          [ "original"; "untangled" ]
          (List.map (fun (c : Optimizer.Pipeline.plan) -> c.label)
             r.candidates);
        Alcotest.check Alcotest.bool "the report marks the original as cut"
          true original.cost.Optimizer.Cost.cut;
        Alcotest.check Alcotest.bool "the untangled plan is chosen, uncut"
          true
          (r.chosen == untangled && not untangled.cost.Optimizer.Cost.cut);
        let naive = exact original in
        let hashed = untangled.cost.Optimizer.Cost.weighted in
        Alcotest.(check (float 0.)) "the chosen cost is exact" (exact untangled)
          hashed;
        Alcotest.check Alcotest.bool
          (Fmt.str "the original's bound %.0f lies in (%.0f, %.0f]"
             original.cost.Optimizer.Cost.weighted hashed naive)
          true
          (original.cost.Optimizer.Cost.weighted > hashed
          && original.cost.Optimizer.Cost.weighted <= naive);
        Alcotest.check Alcotest.bool
          (Fmt.str "hashed %.0f at least 5x below naive %.0f" hashed naive)
          true
          (hashed *. 5. < naive));
    case "the report's rule trace is non-empty and names catalog rules"
      (fun () ->
        let r = Optimizer.Pipeline.optimize_oql ~db:tiny_db garage_src in
        Alcotest.check Alcotest.bool "trace" true (List.length r.trace > 5);
        List.iter
          (fun (s : Rewrite.Engine.step) ->
            let base =
              match Filename.chop_suffix_opt ~suffix:"-1" s.rule_name with
              | Some b -> b
              | None -> s.rule_name
            in
            Alcotest.check Alcotest.bool
              (Fmt.str "rule %s in catalog" s.rule_name)
              true
              (Option.is_some (Rules.Catalog.find base)))
          r.trace);
    case "cost measurement is deterministic" (fun () ->
        let _, c1 = Optimizer.Cost.measure ~db:tiny_db Paper.kg1 in
        let _, c2 = Optimizer.Cost.measure ~db:tiny_db Paper.kg1 in
        Alcotest.check Alcotest.int "tuples" c1.Optimizer.Cost.tuples
          c2.Optimizer.Cost.tuples);
    case "re-optimizing hits the shared plan cache, same costs" (fun () ->
        let plan_cache = Optimizer.Cost.plan_cache () in
        let r1 =
          Optimizer.Pipeline.optimize_oql ~plan_cache ~db:tiny_db garage_src
        in
        Alcotest.check Alcotest.int "cold run: every candidate evaluated"
          (List.length r1.candidates)
          r1.Optimizer.Pipeline.cost_cache_misses;
        Alcotest.check Alcotest.int "cold run: no hits" 0
          r1.Optimizer.Pipeline.cost_cache_hits;
        let r2 =
          Optimizer.Pipeline.optimize_oql ~plan_cache ~db:tiny_db garage_src
        in
        Alcotest.check Alcotest.int "warm run: every candidate served"
          (List.length r2.candidates)
          r2.Optimizer.Pipeline.cost_cache_hits;
        Alcotest.check Alcotest.int "warm run: nothing re-evaluated" 0
          r2.Optimizer.Pipeline.cost_cache_misses;
        List.iter2
          (fun (a : Optimizer.Pipeline.plan) (b : Optimizer.Pipeline.plan) ->
            Alcotest.(check (float 0.))
              (Fmt.str "%s %s cost unchanged" a.label
                 (Optimizer.Pipeline.backend_name a.backend))
              a.cost.Optimizer.Cost.weighted b.cost.Optimizer.Cost.weighted)
          r1.candidates r2.candidates;
        (* a different database invalidates the whole cache *)
        let r3 =
          Optimizer.Pipeline.optimize_oql ~plan_cache ~db:gen_db garage_src
        in
        Alcotest.check Alcotest.int "new db: cold again" 0
          r3.Optimizer.Pipeline.cost_cache_hits);
  ]
