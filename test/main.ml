(* Test runner: one suite per module, experiment ids in DESIGN.md. *)

let () =
  Alcotest.run "kola"
    [
      ("value", Test_value.tests);
      ("eval (Tables 1-2, E-T1/E-T2)", Test_eval.tests);
      ("typing", Test_typing.tests);
      ("term", Test_term.tests);
      ("match", Test_match.tests);
      ("strategy", Test_strategy.tests);
      ("props (Sec 4.2)", Test_props.tests);
      ("rules-cert (E-C2)", Test_rules_cert.tests);
      ("rules-lint", Test_lint.tests);
      ("rules-paper-instances (E-F5)", Test_rules_paper.tests);
      ("fig4 (E-F4)", Test_fig4.tests);
      ("fig6 (E-F6)", Test_fig6.tests);
      ("garage (E-F3)", Test_garage.tests);
      ("hidden-join (E-F7/E-F8)", Test_hidden_join.tests);
      ("translate (E-C1)", Test_translate.tests);
      ("aqua", Test_aqua.tests);
      ("baseline (E-F1/E-F2)", Test_baseline.tests);
      ("oql", Test_oql.tests);
      ("optimizer", Test_optimizer.tests);
      ("count-bug (E-C4)", Test_count_bug.tests);
      ("coko", Test_coko.tests);
      ("store", Test_store.tests);
      ("parse", Test_parse.tests);
      ("coko-syntax", Test_syntax.tests);
      ("rule-packs (runtime-loadable, certified)", Test_rule_packs.tests);
      ("bags (Sec 6 extension)", Test_bags.tests);
      ("rules-extra (E-C3)", Test_rules_extra.tests);
      ("monolithic-ablation", Test_monolithic.tests);
      ("engine-soundness", Test_engine_sound.tests);
      ("search (COKO motivation)", Test_search.tests);
      ("search-golden (CLI-default outcomes)", Test_golden_search.tests);
      ("budget (branch-and-bound costing)", Test_budget.tests);
      ("rewrite-golden (frozen derivations, head dispatch)",
       Test_golden_rewrite.tests);
      ("engine-index (perf layer)", Test_index.tests);
      ("engine-hashcons (interned core)", Test_hashcons.tests);
      ("engine-parallel (domain pool)", Test_parallel.tests);
      ("engine-egraph (equality saturation)", Test_egraph.tests);
      ("company (second schema)", Test_company.tests);
      ("telemetry (spans, counters, deadlines)", Test_telemetry.tests);
      ("server (kolaoptd serving layer)", Test_server.tests);
      ("exec (compiled backend)", Test_exec.tests);
      ("columnar (column store + morsel kernels)", Test_columnar.tests);
      ("exec-golden (ledger plans, frozen outcomes)", Test_golden_exec.tests);
    ]
