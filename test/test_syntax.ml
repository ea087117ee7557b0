(* The COKO surface language: parsing rule definitions and transformations,
   and running them. *)

open Kola
open Util

let untangler_src = {|
-- comment lines are ignored
RULE unit-left: id o ?f --> ?f

GIVEN injective(?f)
RULE my-inter: inter o (iterate(Kp(T), ?f) x iterate(Kp(T), ?f)) --> iterate(Kp(T), ?f) o inter

TRANSFORMATION untangle
BEGIN
  REPEAT { r17 | r17b };
  TRY REPEAT { r18 | r1 | r2 | r3 };
  USE r19;
  REPEAT { r20 | r21 };
  TRY REPEAT { r3 | r1 | r2 };
  TRY REPEAT { r22 | r22b | r23 };
  REPEAT r24;
  TRY REPEAT { r5 | r5c | r4 | r6t | r1 | r2 };
  TRY REPEAT { hk-times-l | hk-times-r | hk-times }
END
|}

let tests =
  [
    case "a COKO program parses into rules and transformations" (fun () ->
        let p = Coko.Syntax.parse_program untangler_src in
        Alcotest.check Alcotest.int "rules" 2 (List.length p.Coko.Syntax.rules);
        Alcotest.check Alcotest.int "transformations" 1
          (List.length p.Coko.Syntax.transformations));
    case "the text-defined untangler reproduces KG2" (fun () ->
        let o = Coko.Syntax.run_source untangler_src ~transformation:"untangle" Paper.kg1 in
        Alcotest.check Alcotest.bool "applied" true o.Coko.Block.applied;
        Alcotest.check query "kg2" Paper.kg2 o.Coko.Block.query);
    case "text-defined rules carry GIVEN preconditions" (fun () ->
        let p = Coko.Syntax.parse_program untangler_src in
        let r = Coko.Syntax.lookup_of p "my-inter" in
        let lhs f =
          Term.Compose
            ( Term.Setop Term.Inter,
              Term.Times (Term.Iterate (Term.Kp true, f), Term.Iterate (Term.Kp true, f)) )
        in
        Alcotest.check Alcotest.bool "injective fires" true
          (Option.is_some (fire_func r (lhs (Term.Prim "name"))));
        Alcotest.check Alcotest.bool "non-injective blocked" true
          (Option.is_none (fire_func r (lhs (Term.Prim "age")))));
    case "rule kind inference: function, predicate, query" (fun () ->
        let p =
          Coko.Syntax.parse_program
            {|
RULE f-rule: ?f o id --> ?f
RULE p-rule: Kp(T) & ?p --> ?p
RULE q-rule: iterate(Kp(T), <id, Kf(?B)>) ! ?A --> nest(pi1, pi2) o <join(Kp(T), id), pi1> ! [?A, ?B]
|}
        in
        let kinds =
          List.map
            (fun r ->
              match r.Rewrite.Rule.body with
              | Rewrite.Rule.Fun_rule _ -> "fun"
              | Rewrite.Rule.Pred_rule _ -> "pred"
              | Rewrite.Rule.Query_rule _ -> "query")
            p.Coko.Syntax.rules
        in
        Alcotest.check (Alcotest.list Alcotest.string) "kinds"
          [ "fun"; "pred"; "query" ] kinds);
    case "text-defined rules are certified sound" (fun () ->
        let p = Coko.Syntax.parse_program untangler_src in
        List.iter
          (fun r ->
            let result = Rules.Cert.certify ~samples:20 ~inputs:8 r in
            Alcotest.check Alcotest.bool r.Rewrite.Rule.name true
              (Rules.Cert.certified result))
          p.Coko.Syntax.rules);
    case "the shipped coko/hidden_join.coko file works" (fun () ->
        let src =
          In_channel.with_open_bin (coko_file "hidden_join.coko")
            In_channel.input_all
        in
        let p = Coko.Syntax.parse_program src in
        let steps =
          List.map
            (fun name ->
              match Coko.Syntax.find_transformation p name with
              | Some b -> b
              | None -> Alcotest.failf "no transformation %s" name)
            [ "breakup"; "bottom-out"; "pullup-nest"; "pullup-unnest"; "absorb-join" ]
        in
        Alcotest.check Alcotest.bool "the untangler the pipeline runs" true
          (steps = Coko.Programs.hidden_join_steps);
        let o, applied =
          Coko.Block.run_pipeline ~lookup:(Coko.Syntax.lookup_of p) steps Paper.kg1
        in
        Alcotest.check Alcotest.bool "all five steps applied" true
          (List.for_all snd applied);
        Alcotest.check query "kg2" Paper.kg2 o.Coko.Block.query;
        let o = Coko.Syntax.run_source src ~transformation:"breakup" Paper.kg1 in
        Alcotest.check query "kg1a" Paper.kg1a o.Coko.Block.query);
    case "unknown rule names are reported" (fun () ->
        match
          Coko.Syntax.run_source "TRANSFORMATION t BEGIN USE nosuch END"
            ~transformation:"t" Paper.kg1
        with
        | exception Coko.Syntax.Error _ -> ()
        | _ -> Alcotest.fail "expected an error");
    case "missing transformation is reported" (fun () ->
        match
          Coko.Syntax.run_source "RULE r: id o ?f --> ?f" ~transformation:"zz"
            Paper.kg1
        with
        | exception Coko.Syntax.Error _ -> ()
        | _ -> Alcotest.fail "expected an error");
    case "flipped references (-1) work from text" (fun () ->
        let src = "TRANSFORMATION t BEGIN USE r12-1 END" in
        let o = Coko.Syntax.run_source src ~transformation:"t" Paper.t2k_mid in
        Alcotest.check query "t2k target" Paper.t2k_target o.Coko.Block.query);
    case "CHOICE picks the first applicable branch" (fun () ->
        let src = "TRANSFORMATION t BEGIN CHOICE { USE r15 / USE r11 } END" in
        let o = Coko.Syntax.run_source src ~transformation:"t" Paper.t1k_source in
        Alcotest.check Alcotest.bool "applied" true o.Coko.Block.applied;
        match o.Coko.Block.trace with
        | [ s ] -> Alcotest.check Alcotest.string "r11" "r11" s.Rewrite.Engine.rule_name
        | _ -> Alcotest.fail "expected one firing");
    case "rule names resolve once the whole file is parsed" (fun () ->
        (* a rule defined after the transformation that uses it *)
        let src = "TRANSFORMATION t BEGIN USE later END\nRULE later: ?f o id --> ?f" in
        let q = Term.query (Term.Compose (Term.Prim "age", Term.Id)) (Value.Named "P") in
        let o = Coko.Syntax.run_source src ~transformation:"t" q in
        Alcotest.check query "fired" (Term.query (Term.Prim "age") (Value.Named "P"))
          o.Coko.Block.query;
        (* a misspelled name in a branch no query reaches *)
        match
          Coko.Syntax.parse_program
            "TRANSFORMATION t\nBEGIN\n  CHOICE { USE r11 / USE no-such-rule }\nEND"
        with
        | exception Coko.Syntax.Error msg ->
          Alcotest.check Alcotest.string "positioned" "line 3: unknown rule no-such-rule" msg
        | _ -> Alcotest.fail "expected an unknown-rule error");
  ]
