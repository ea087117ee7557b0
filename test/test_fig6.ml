(* Figure 6 / Section 3.2 (experiment E-F6): code motion fires on K4 and is
   structurally blocked on K3 — the paper's headline example of a decision
   that needs environmental analysis over AQUA but plain matching over
   KOLA. *)

open Kola
open Util

let fired (o : Coko.Block.outcome) =
  List.map (fun s -> s.Rewrite.Engine.rule_name) o.Coko.Block.trace

let tests =
  [
    case "K4 rewrites to the con form of Figure 6" (fun () ->
        let o = Coko.Block.run Coko.Programs.code_motion Paper.k4 in
        Alcotest.check query "optimized" Paper.k4_optimized o.Coko.Block.query);
    case "K4's derivation follows the paper: 13, 14, 15, 16, then cleanup"
      (fun () ->
        let o = Coko.Block.run Coko.Programs.code_motion Paper.k4 in
        match fired o with
        | "r13" :: "r14" :: "r15" :: "r16" :: _ -> ()
        | other -> Alcotest.failf "unexpected derivation %a" Fmt.(Dump.list string) other);
    case "K4 transformation preserves semantics" (fun () ->
        check_sem_equal "k4" Paper.k4 Paper.k4_optimized;
        check_sem_equal ~db:gen_db "k4 on generated store" Paper.k4
          Paper.k4_optimized);
    case "code motion does not apply to K3" (fun () ->
        let o = Coko.Block.run Coko.Programs.code_motion Paper.k3 in
        Alcotest.check Alcotest.bool "blocked" false o.Coko.Block.applied);
    case "K3 and K4 differ only by a projection" (fun () ->
        (* the paper: "the KOLA queries are structurally similar to one
           another, but not identical" — sizes agree, terms differ *)
        Alcotest.check Alcotest.int "same size"
          (Term.size_func Paper.k3.Term.body)
          (Term.size_func Paper.k4.Term.body);
        Alcotest.check Alcotest.bool "not equal" false
          (Term.equal_func Paper.k3.Term.body Paper.k4.Term.body));
    case "K3 still gets partially simplified (rules 13/14 fire)" (fun () ->
        (* "rules simplify the query to a point where it was possible to
           determine if code motion ... applicable" (Section 4.2) *)
        let b = Coko.Block.block "partial" Coko.Block.(Try (Repeat (Use [ "r13"; "r14" ]))) in
        let o = Coko.Block.run b Paper.k3 in
        Alcotest.check Alcotest.bool "some firings" true
          (List.length (fired o) >= 2);
        check_sem_equal "k3 partial" Paper.k3 o.Coko.Block.query);
    case "K3 after rule 14 has p ⊕ π2 where rule 15 needs p ⊕ π1" (fun () ->
        let b = Coko.Block.block "partial" Coko.Block.(Try (Repeat (Use [ "r13"; "r14" ]))) in
        let o = Coko.Block.run b Paper.k3 in
        let r15 = Rules.Catalog.find_exn "r15" in
        let applied_somewhere =
          Rewrite.Engine.step_once [ r15 ] (Term.Hc.of_query o.Coko.Block.query)
        in
        Alcotest.check Alcotest.bool "rule 15 cannot fire" true
          (Option.is_none applied_somewhere));
    case "K3 and K4 denote different results (Figure 2's point)" (fun () ->
        Alcotest.check Alcotest.bool "differ" false
          (Value.equal (eval_tiny Paper.k3) (eval_tiny Paper.k4)));
  ]
