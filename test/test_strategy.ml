(* The traversal underlying the engine: rules at the root, and the
   leftmost-outermost position search over interned terms. *)

open Kola
open Kola.Term
module S = Rewrite.Strategy
open Util

(* A strategy rewriting Prim "age" to Prim "name". *)
let age_to_name : S.t = function
  | S.F f when f == Hc.prim "age" -> Some (S.F (Hc.prim "name"))
  | _ -> None

let apply s f = Option.map Hc.to_func (S.apply_func s (Hc.of_func f))

let tests =
  [
    case "of_rule applies at the root only" (fun () ->
        let s = S.of_rule (Rules.Catalog.find_exn "r2") in
        Alcotest.check (Alcotest.option func) "root"
          (Some (Prim "age"))
          (apply s (Compose (Id, Prim "age")));
        (* nested occurrence: root application fails *)
        Alcotest.check (Alcotest.option func) "nested" None
          (apply s (Pairf (Compose (Id, Prim "age"), Id))));
    case "once_topdown reaches nested positions" (fun () ->
        let t = Pairf (Iterate (Kp true, Prim "age"), Id) in
        Alcotest.check (Alcotest.option func) "nested"
          (Some (Pairf (Iterate (Kp true, Prim "name"), Id)))
          (apply (S.once_topdown age_to_name) t));
    case "once_topdown rewrites the leftmost-outermost occurrence" (fun () ->
        let t = Pairf (Prim "age", Prim "age") in
        Alcotest.check (Alcotest.option func) "left one"
          (Some (Pairf (Prim "name", Prim "age")))
          (apply (S.once_topdown age_to_name) t));
    case "strategies descend into predicate positions" (fun () ->
        let t = Iterate (Oplus (Gt, Pairf (Prim "age", Kf (int 1))), Id) in
        Alcotest.check (Alcotest.option func) "inside ⊕"
          (Some (Iterate (Oplus (Gt, Pairf (Prim "name", Kf (int 1))), Id)))
          (apply (S.once_topdown age_to_name) t));
    case "predicates descend into function positions and back" (fun () ->
        let p = Andp (Kp true, Oplus (Eq, Pairf (Prim "age", Prim "age"))) in
        match S.once_topdown age_to_name (S.P (Hc.of_pred p)) with
        | Some (S.P p') -> (
          match Hc.to_pred p' with
          | Andp (Kp true, Oplus (Eq, Pairf (Prim "name", Prim "age"))) -> ()
          | other -> Alcotest.failf "unexpected %a" Pretty.pp_pred other)
        | _ -> Alcotest.fail "expected a rewritten predicate");
  ]
