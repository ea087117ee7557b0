(* Figures 7 and 8 (experiment E-F8): hidden joins of arbitrary nesting
   depth are untangled by the five-step strategy, preserving semantics; and
   the strategy degrades gracefully (partial simplification) when the query
   is not a hidden join. *)

open Kola
open Util

let untangle q = Coko.Programs.hidden_join q

(* A row of the E-F8 table (EXPERIMENTS.md): per depth, the translated
   query's size, the untangled query's size and the number of rule
   firings. *)
let depth_case (depth, size_in, size_out, firings) =
  case (Fmt.str "depth-%d hidden join untangles and agrees" depth) (fun () ->
      let e = Aqua.Examples.hidden_join_depth depth in
      let q = Translate.Compile.query e in
      let o, blocks = untangle q in
      Alcotest.check Alcotest.bool "all blocks applied" true
        (List.for_all snd blocks);
      Alcotest.(check int) "size in" size_in (Term.size_func q.Term.body);
      Alcotest.(check int) "size out" size_out
        (Term.size_func o.Coko.Block.query.Term.body);
      Alcotest.(check int) "firings" firings (List.length o.Coko.Block.trace);
      Alcotest.check value "semantics preserved"
        (resolved tiny_db (Aqua.Eval.eval_closed ~db:tiny_db e))
        (resolved tiny_db (eval_tiny o.Coko.Block.query)))

(* New cases are appended, never inserted, so the index Alcotest prints for
   each existing case stays stable. *)
let tests =
  List.map depth_case
    [
      (1, 18, 13, 13);
      (2, 24, 13, 24);
      (3, 36, 19, 37);
      (4, 42, 19, 48);
      (5, 54, 25, 63);
      (6, 60, 25, 74);
      (7, 72, 31, 91);
    ]
  @ [
      case "untangled form ends in a nest over a join" (fun () ->
          let e = Aqua.Examples.hidden_join_depth 3 in
          let q = Translate.Compile.query e in
          let o, _ = untangle q in
          match Term.unchain o.Coko.Block.query.Term.body with
          | Term.Nest (Term.Pi1, Term.Pi2) :: rest ->
            let has_join =
              List.exists
                (function
                  | Term.Pairf (Term.Join _, Term.Pi1) -> true
                  | _ -> false)
                rest
            in
            Alcotest.check Alcotest.bool "join at the bottom" true has_join
          | _ -> Alcotest.fail "nest not at the top");
      case "untangling shrinks the query" (fun () ->
          let e = Aqua.Examples.hidden_join_depth 5 in
          let q = Translate.Compile.query e in
          let o, _ = untangle q in
          Alcotest.check Alcotest.bool "smaller" true
            (Term.size_func o.Coko.Block.query.Term.body
            < Term.size_func q.Term.body));
      case "a non-hidden-join query is simplified but not bottomed-out"
        (fun () ->
          (* inner query over p.child (derived from the outer variable, not a
             named set B) — the paper's example of where Step 2 is quickly
             recognised as inapplicable *)
          let e =
            Aqua.Ast.(
              App
                ( lam "p"
                    (Pair
                       ( Var "p",
                         Sel
                           ( lam "c" (Bin (Gt, Path (Var "c", "age"), Const (int 1))),
                             Path (Var "p", "child") ) )),
                  Extent "P" ))
          in
          let q = Translate.Compile.query e in
          let o, blocks = untangle q in
          Alcotest.check Alcotest.bool "breakup applied" true
            (List.assoc "breakup" blocks);
          Alcotest.check Alcotest.bool "bottom-out refused" false
            (List.assoc "bottom-out" blocks);
          Alcotest.check value "still semantics-preserving"
            (resolved tiny_db (Aqua.Eval.eval_closed ~db:tiny_db e))
            (resolved tiny_db (eval_tiny o.Coko.Block.query)));
      case "rule 19 moves the constant set into the argument" (fun () ->
          let r19 = Rules.Catalog.find_exn "r19" in
          let q =
            Term.query
              (Term.Iterate (Term.Kp true, Term.Pairf (Term.Id, Term.Kf (Value.Named "P"))))
              (Value.Named "V")
          in
          match fire_query r19 q with
          | Some q' ->
            Alcotest.check value "argument becomes [V, P]"
              (Value.Pair (Value.Named "V", Value.Named "P"))
              q'.Term.arg
          | None -> Alcotest.fail "rule 19 should fire");
      case "rule 19 does not fire when the inner set is not constant"
        (fun () ->
          let r19 = Rules.Catalog.find_exn "r19" in
          let q =
            Term.query
              (Term.Iterate (Term.Kp true, Term.Pairf (Term.Id, Term.Prim "child")))
              (Value.Named "P")
          in
          Alcotest.check Alcotest.bool "refused" true
            (Option.is_none (fire_query r19 q)));
      case "figure-7 shape: translated hidden joins have the iter chain"
        (fun () ->
          let e = Aqua.Examples.hidden_join_depth 4 in
          let q = Translate.Compile.query e in
          (* body is iterate(Kp T, ⟨id, ... ⟨id, Kf(P)⟩ ...⟩) *)
          match q.Term.body with
          | Term.Iterate (Term.Kp true, Term.Pairf (Term.Id, _)) -> ()
          | f -> Alcotest.failf "unexpected shape %a" Pretty.pp_func f);
      depth_case (8, 78, 31, 102);
    ]
