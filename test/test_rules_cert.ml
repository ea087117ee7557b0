(* Experiment E-C2: the certification harness over the whole catalog — our
   analogue of the paper's 500 LP-verified rules — plus the refutation of
   the paper's printed rule 13. *)

open Util

let results = lazy (Rules.Cert.certify_all ~samples:30 ~inputs:8 Rules.Catalog.all)

(* The catalog's (name, fingerprint) pairs, in order, recorded when the
   rules were OCaml values, before they moved to coko/catalog/*.coko.  A
   fingerprint digests the rule's patterns and preconditions, so an edit to
   the text that changes a rule, or a reordering, fails here (and would
   invalidate every persisted certificate). *)
let catalog_golden =
  [
    ("r1", "43f9ec99079f39ce640a5353e49f8c15");
    ("r2", "de88d1658500b041c25b28b0e32bfe31");
    ("r3", "c7786c5cce74bf4179459ac375c13f99");
    ("r4", "6cabf05bd65102290ce70dd12448e4a3");
    ("r5", "a20f1f094378497838259835f285cdda");
    ("r6t", "67f3d8f792cc2ca6ed2416b5e53308e9");
    ("r6f", "2c2aadd69f8baf3d1cf601d6ebc4d857");
    ("r7", "ebf6ab00670eebed269c66a27e83abf7");
    ("r8", "ca1aca287bf3ea18ec75904edd7b7a64");
    ("r9", "b31d9dabc8fe7c741fd5295b1d193ac7");
    ("r10", "1d762e649b716f0e405b2341944f11c9");
    ("r11", "6f14d9b626d59f4b88a395af7181fde8");
    ("r12", "dab2030127ac867f56f388cdca6f9921");
    ("r13", "0cab37a72587feaf3762a0186754e288");
    ("r14", "12c0051054d4ca17a6c6689fc4b8e05e");
    ("r15", "6eda1a65389743cd87168e3e1a956461");
    ("r16", "805e587c59df011e410652d3c71e84d0");
    ("r17", "b7348855f42e3ee823be133efff45aae");
    ("r17b", "50108aa93e3337a4f041336724204fb0");
    ("r18", "c92fc9575197b8a67dea8c01cc8f99f5");
    ("r19", "9f7f7b64ae1e7b480fc31fddc8b9bbd6");
    ("r19f", "ea0ac1132b6895e1ee6cedf6d51995fa");
    ("r20", "c33883aa56298e9ccd0632e1e01f4cf6");
    ("r21", "13a5788a1a2b78ef5cae6981ff32c0d5");
    ("r22", "dc299c6de8ce0959754b595a44465af1");
    ("r22b", "0015153fa251ea34d8e10367e69b0e8c");
    ("r23", "3fe63d9e11f533cc122c0296859ba9b2");
    ("r24", "4aa412e5df5c9bb8f87c8e8895211709");
    ("r5c", "6d869f290ff11b394266ff1e99a0b0bd");
    ("r7c", "a3460ea50f71afcfc60e95e2d2405969");
    ("hk-times", "f40ae91ae1e7baef3ddd6a6efb653f47");
    ("hk-times-l", "edfb5e97a0fb0855426ac987bb113b42");
    ("hk-times-r", "3fc9d23f6daf25a1e932c7898b3827ea");
    ("hk-times-id", "86233640f9471a4448e30f00fb3d14e5");
    ("hk-times-compose", "efb54cfc90eb99234171ff9e78df6bed");
    ("hk-times-pair", "8c6eef90d8303248ce671d97712546d8");
    ("hk-pair-compose", "6e67b22b091dc45d40baa546d9aa5e53");
    ("hk-pi1-times", "9be8f18f0431cba18703c9d8320e5ad6");
    ("hk-pi2-times", "17a3ce98b9b104de435fab44c0abee95");
    ("hk-and-idem", "0fb0df9afcac40a754caf427c15120d7");
    ("hk-or-idem", "b13b244e280f106e19067800dfc96156");
    ("hk-and-false", "8105132bcf4292acde503d14c46936aa");
    ("hk-or-true", "07442e4cfde42d0895d5f762446626ae");
    ("hk-or-false", "6fcfb3dae161e7b09278f95a612d1796");
    ("hk-inv-inv", "e3679d24260afeb7e91b9b1a876690bb");
    ("hk-conv-conv", "586badede710957c82406dcc200a0cf8");
    ("hk-conv-eq", "d586a85094e4420cfd2bafa2d616ef81");
    ("hk-demorgan-and", "3b8001c643b56b8e7049e70b2166ba85");
    ("hk-demorgan-or", "1031614124d71be8ecabb8ecad491a00");
    ("hk-oplus-and", "76843427198bd38e08bb74fb0370738f");
    ("hk-oplus-or", "2b631520e5f8826e9cc6ffa749ee42da");
    ("hk-oplus-inv", "05a3f52bb401decdfc96e46b09e13a14");
    ("hk-con-true", "a9d1bea8a864ca2c40ac1f37c08db398");
    ("hk-con-false", "a8c0abe3fcce325498f4d904bfdb93e1");
    ("hk-con-same", "4cca0a723b336fe8d77591ac548bfce1");
    ("hk-con-inv", "7935322311b8bca6609322838d0fe944");
    ("hk-compose-con", "51afc33c37954990e9148f51f0edce26");
    ("hk-iterate-empty", "a44cd1c3ff8190e1543efb2dc3cafcd2");
    ("hk-sel-cascade", "b09bbc3f4bf2c4c9017e03280f8998f4");
    ("hk-sel-flat", "e7531f31bcaded272e639f654f5b494b");
    ("hk-cf-def", "4cfb4a0beb4824e182fa3a7bd3f7f3df");
    ("hk-cp-def", "2252298ab40816c0fc1ed25b5413ff6d");
    ("inj-inter", "c0e52f012d11f65e792589353da9eab0");
    ("inj-diff", "35f72508a9a0642019a5721a587168aa");
    ("map-union", "493737e86160a443ec4aee5bd9eb0c67");
    ("inj-count", "a855ea3fc5b4e636f5dcc7917a30c73b");
    ("total-con-factor", "d932fb8f4280016bc130396dc86459e6");
    ("x-flat-flat", "92af7419581b82631ce5f2ee869b7c4b");
    ("x-flat-sng", "ae3193e356d50b2a81437efbca132fc7");
    ("x-flat-map-sng", "308d03deba941b8c042acad4e9c2ce3e");
    ("x-iterate-sng", "5ed173cf70b6f74dc5241a5f19f4b9b6");
    ("x-cnt-sng", "d128f55aaf8a4a4bd3143e850bb0775f");
    ("x-iterate-flat", "c216e4acafbea83ed61351e855f81c44");
    ("x-join-commute", "e1ee2701928a9567433e363a857edd67");
    ("x-join-push-left", "303a029734b31890d5d685b8d7071467");
    ("x-join-push-right", "5dc9194ae6a84e7190768287d7e3cbba");
    ("x-join-expand", "d95fc36fff44a94c77e11d9dc16edaa3");
    ("x-sel-join-absorb", "e0b878eebbbf5a7be1bb913b04db378d");
    ("x-nest-absorb-map", "abff700a9a23e9794bae5182ba5603a9");
    ("x-unnest-absorb-map", "6088dee86e78befd237585f673b2d16c");
    ("x-cf-push", "97749b732499047b7b6cf021f8ff05d1");
    ("x-cp-push", "95a445cd1dad68e657fd93f5c5c17486");
    ("x-con-pair", "6f8176ba9bbf93013ca6dd69f49eb904");
    ("x-iterate-con-split", "fa91d6adba04c52c2f0dcafe5ca25461");
    ("x-sel-union", "103c01a134263773d696d96ea9308cee");
    ("x-map-union", "b3c599d964c67f1bebe69a306d67393f");
    ("x-conv-and", "63daeb04c68ebc9aec6e4683888e59a1");
    ("x-conv-oplus-times", "20444f1ace91e13792fd1013875bccbb");
    ("x-conv-inv", "87c0f961e87151db269ec42969e03f91");
    ("x-and-assoc", "3b841f2b9f06fed35be1148693878d81");
  ]

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
        let r = Rules.Cert.certify ~samples:80 ~inputs:20 (r13_paper ()) in
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
          Rewrite.Rule.fun_rule ~name:"bogus"
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
    case "the catalog text parses to the recorded rules, in order" (fun () ->
        Alcotest.(check (list (pair string string)))
          "(name, fingerprint)" catalog_golden
          (List.map
             (fun r -> (r.Rewrite.Rule.name, Rules.Cert.fingerprint r))
             Rules.Catalog.all));
    case "ground instances that erase a failing max are refuted" (fun () ->
        (* coko/unsound/partial_holes.coko: max of {} fails, so each left
           side fails where its right side returns; a ground rule's
           counterexample names the input alone *)
        let rules =
          Coko.Pack.rules
            (Coko.Pack.load (coko_file "unsound/partial_holes.coko"))
        in
        Alcotest.(check (list (pair string (option string))))
          "rule, rendered counterexample"
          [
            ("partial-r8", Some "input {}");
            ("partial-r6t", Some "input {}");
            ("partial-r9", Some "input {}");
            ("partial-r10", Some "input {}");
            ("partial-hk-con-same", Some "input {}");
            ("partial-hk-pi1-times", Some "input [0, {}]");
          ]
          (List.map
             (fun (r : Rewrite.Rule.t) ->
               let v =
                 Rules.Cert.verdict_of_result
                   (Rules.Cert.certify ~strategy:`Auto r)
               in
               (r.Rewrite.Rule.name, v.Rules.Cert.reason))
             rules));
  ]
