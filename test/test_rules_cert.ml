(* Experiment E-C2: the certification harness over the whole catalog — our
   analogue of the paper's 500 LP-verified rules — plus the refutation of
   the paper's printed rule 13. *)

open Util

let results = lazy (Rules.Cert.certify_all ~samples:30 ~inputs:8 Rules.Catalog.all)

(* New cases are appended, never inserted, so the index Alcotest prints for
   each existing case stays stable. *)
let tests =
  [
    case "every catalog rule is certified" (fun () ->
        let failures =
          List.filter (fun r -> not (Rules.Cert.certified r)) (Lazy.force results)
        in
        if failures <> [] then
          Alcotest.failf "uncertified rules: %a"
            Fmt.(list ~sep:comma string)
            (List.map (fun (r : Rules.Cert.result) -> r.rule.Rewrite.Rule.name) failures));
    case "certification exercises real instantiations" (fun () ->
        List.iter
          (fun (r : Rules.Cert.result) ->
            Alcotest.check Alcotest.bool
              (Fmt.str "%s has instances" r.rule.Rewrite.Rule.name)
              true (r.instances > 0))
          (Lazy.force results);
        (* the sampler is seeded: the E-C2 totals (EXPERIMENTS.md) *)
        let total f = List.fold_left (fun a r -> a + f r) 0 (Lazy.force results) in
        Alcotest.(check int) "rules" 90 (List.length (Lazy.force results));
        Alcotest.(check int) "instantiations" 2_527
          (total (fun r -> r.Rules.Cert.instances));
        Alcotest.(check int) "checks" 20_006 (total (fun r -> r.Rules.Cert.checks)));
    case "the catalog carries every Figure 5 and Figure 8 rule" (fun () ->
        List.iter
          (fun name ->
            Alcotest.check Alcotest.bool name true
              (Option.is_some (Rules.Catalog.find name)))
          [
            "r1"; "r2"; "r3"; "r4"; "r5"; "r6t"; "r6f"; "r7"; "r8"; "r9";
            "r10"; "r11"; "r12"; "r13"; "r14"; "r15"; "r16"; "r17"; "r18";
            "r19"; "r20"; "r21"; "r22"; "r23"; "r24";
          ]);
    case "the paper's printed rule 13 is refuted (boundary erratum)" (fun () ->
        let r = Rules.Cert.certify ~samples:80 ~inputs:20 Rules.Basic.r13_paper in
        Alcotest.check Alcotest.bool "counterexample found" true
          (Option.is_some r.Rules.Cert.counterexample));
    case "flipped rules are also certified (bidirectional use)" (fun () ->
        List.iter
          (fun name ->
            let r = Rules.Cert.certify ~samples:20 ~inputs:8
                (Rewrite.Rule.flip (Rules.Catalog.find_exn name))
            in
            Alcotest.check Alcotest.bool (name ^ "-1") true (Rules.Cert.certified r))
          [ "r2"; "r12"; "r14" ]);
    case "a deliberately wrong rule is refuted" (fun () ->
        (* claim: π1 ∘ ⟨f, g⟩ ≡ g — wrong *)
        let bogus =
          Rewrite.Rule.fun_rule ~name:"bogus" ~description:"wrong projection"
            (Kola.Term.Compose (Kola.Term.Pi1, Kola.Term.Pairf (Kola.Term.Fhole "f", Kola.Term.Fhole "g")))
            (Kola.Term.Fhole "g")
        in
        let r = Rules.Cert.certify ~samples:60 ~inputs:20 bogus in
        Alcotest.check Alcotest.bool "refuted" true
          (Option.is_some r.Rules.Cert.counterexample));
    case "catalog names are unique" (fun () ->
        let names = Rules.Catalog.names () in
        Alcotest.check Alcotest.int "no duplicates"
          (List.length names)
          (List.length (List.sort_uniq String.compare names)));
    case "Catalog.rules resolves -1 suffixes to flipped rules" (fun () ->
        match Rules.Catalog.rules [ "r12-1" ] with
        | [ r ] -> Alcotest.check Alcotest.string "name" "r12-1" r.Rewrite.Rule.name
        | _ -> Alcotest.fail "expected one rule");
    case "small-scope certification of the catalog: 78 exhaustive, 12 sampled"
      (fun () ->
        let results = Rules.Cert.certify_all ~strategy:`Auto Rules.Catalog.all in
        let modes = List.map (fun r -> Rules.Cert.mode_name r.Rules.Cert.mode) results in
        let count m = List.length (List.filter (String.equal m) modes) in
        Alcotest.(check int) "exhaustive at scope 2" 40 (count "exhaustive@2");
        Alcotest.(check int) "exhaustive at scope 1" 38 (count "exhaustive@1");
        Alcotest.(check int) "sampled" 12 (count "sampled");
        Alcotest.(check bool) "all certified" true
          (List.for_all Rules.Cert.certified results);
        let total f = List.fold_left (fun a r -> a + f r) 0 results in
        Alcotest.(check int) "instantiations" 8_301
          (total (fun r -> r.Rules.Cert.instances));
        Alcotest.(check int) "checks" 76_093 (total (fun r -> r.Rules.Cert.checks)));
  ]
