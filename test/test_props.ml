(* Precondition properties (Section 4.2): inference rules over annotations,
   no code. *)

open Kola
open Kola.Term
module P = Rewrite.Props
open Util

let inj = P.injective Schema.paper

let tests =
  [
    case "id is injective" (fun () -> Alcotest.check Alcotest.bool "id" true (inj Id));
    case "annotated primitives are injective (name is a key)" (fun () ->
        Alcotest.check Alcotest.bool "name" true (inj (Prim "name"));
        Alcotest.check Alcotest.bool "age" false (inj (Prim "age")));
    case "injective(f) ∧ injective(g) ⟹ injective(f ∘ g) — the paper's rule"
      (fun () ->
        Alcotest.check Alcotest.bool "name ∘ id" true
          (inj (Compose (Prim "name", Id)));
        Alcotest.check Alcotest.bool "age ∘ name" false
          (inj (Compose (Prim "age", Prim "name"))));
    case "pairing is injective if either side is" (fun () ->
        Alcotest.check Alcotest.bool "⟨age, name⟩" true
          (inj (Pairf (Prim "age", Prim "name")));
        Alcotest.check Alcotest.bool "⟨age, age⟩" false
          (inj (Pairf (Prim "age", Prim "age"))));
    case "constants are never injective" (fun () ->
        Alcotest.check Alcotest.bool "Kf" false (inj (Kf (int 1))));
    case "projections are not injective" (fun () ->
        Alcotest.check Alcotest.bool "π1" false (inj Pi1));
    case "totality: Max/Min are partial, Count/Sum total" (fun () ->
        Alcotest.check Alcotest.bool "max" false (P.total Schema.paper (Agg Max));
        Alcotest.check Alcotest.bool "count" true (P.total Schema.paper (Agg Count)));
    case "constant detection" (fun () ->
        Alcotest.check Alcotest.bool "Kf ∘ f" true
          (P.constant (Compose (Kf (int 1), Prim "age")));
        Alcotest.check Alcotest.bool "age" false (P.constant (Prim "age")));
    case "the injective intersection rule fires only with the precondition"
      (fun () ->
        let rule = Rules.Catalog.find_exn "inj-inter" in
        let lhs_with f =
          Compose (Setop Inter, Times (Iterate (Kp true, f), Iterate (Kp true, f)))
        in
        (* name is injective: fires *)
        Alcotest.check Alcotest.bool "injective case" true
          (Option.is_some (fire_func rule (lhs_with (Prim "name"))));
        (* age is not: blocked *)
        Alcotest.check Alcotest.bool "non-injective case" false
          (Option.is_some (fire_func rule (lhs_with (Prim "age")))));
    case "the unguarded union rule fires for any f" (fun () ->
        let rule = Rules.Catalog.find_exn "map-union" in
        let lhs =
          Compose
            ( Setop Union,
              Times (Iterate (Kp true, Prim "age"), Iterate (Kp true, Prim "age")) )
        in
        Alcotest.check Alcotest.bool "fires" true
          (Option.is_some (fire_func rule lhs)));
    case "the injective rule is semantically valid where it fires" (fun () ->
        (* intersection of name-images = image of intersection, on stores *)
        let f = Prim "name" in
        let lhs, rhs = Paper.injective_example f in
        let args =
          Value.Pair (Value.Named "P", Value.Named "P")
        in
        Alcotest.check value "example"
          (resolved gen_db (Eval.eval_query ~db:gen_db (Term.query lhs args)))
          (resolved gen_db (Eval.eval_query ~db:gen_db (Term.query rhs args))));
  ]
