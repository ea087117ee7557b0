(* Experiment E-C4: the "count bug" of Kim [24], cited by the paper as the
   canonical example of how hard correct nested-query transformation is.

   Query: for each person, the number of their children older than 25.
   The buggy classical unnesting computes the counts over a *join* of P with
   children — losing persons with no qualifying children instead of
   reporting 0 for them.  KOLA's nest(...)  relative to the outer set (rule
   19/20 machinery) keeps those persons with the empty group, so the
   rule-derived plan is immune. *)

open Kola
open Kola.Term
open Util

(* The correct query, nested form:
   iterate(Kp T, ⟨id, cnt ∘ iter(gt ⊕ ⟨age ∘ π2, Kf 0⟩ ... ⟩) over child. *)
let counts_query threshold =
  Term.query
    (Iterate
       ( Kp true,
         Pairf
           ( Id,
             Compose
               ( Agg Count,
                 Compose
                   ( Iter
                       ( Oplus
                           (Gt, Pairf (Compose (Prim "age", Pi2), Kf (int threshold))),
                         Pi2 ),
                     Pairf (Id, Prim "child") ) ) ) ))
    (Value.Named "P")

(* The buggy unnesting: join persons with their children, filter, group by
   person, count — persons with no qualifying children disappear. *)
let buggy_unnested threshold db =
  let persons = List.assoc "P" db in
  let pairs =
    Eval.eval_func ~db (Unnest (Id, Prim "child")) persons
  in
  let filtered =
    Eval.eval_func ~db
      (Iterate (Oplus (Gt, Pairf (Compose (Prim "age", Pi2), Kf (int threshold))), Id))
      pairs
  in
  (* group only over keys that survived the join: the bug *)
  let keys = Eval.eval_func ~db (Iterate (Kp true, Pi1)) filtered in
  Eval.eval_func ~db
    (Compose
       ( Iterate (Kp true, Pairf (Pi1, Compose (Agg Count, Pi2))),
         Nest (Pi1, Pi2) ))
    (Value.Pair (filtered, keys))

(* The rule-derived repair: nest *relative to P* (the second argument of
   nest), exactly what rule 19/20's shapes produce. *)
let nest_based threshold db =
  let persons = List.assoc "P" db in
  let pairs = Eval.eval_func ~db (Unnest (Id, Prim "child")) persons in
  let filtered =
    Eval.eval_func ~db
      (Iterate (Oplus (Gt, Pairf (Compose (Prim "age", Pi2), Kf (int threshold))), Id))
      pairs
  in
  Eval.eval_func ~db
    (Compose
       ( Iterate (Kp true, Pairf (Pi1, Compose (Agg Count, Pi2))),
         Nest (Pi1, Pi2) ))
    (Value.Pair (filtered, persons))

let cardinality = function
  | Value.Set xs -> List.length xs
  | _ -> -1

let tests =
  [
    case "the buggy unnesting loses childless persons" (fun () ->
        let reference = eval_tiny (counts_query 25) in
        let buggy = buggy_unnested 25 tiny_db in
        Alcotest.check Alcotest.bool "cardinality dropped" true
          (cardinality buggy < cardinality reference);
        Alcotest.(check (pair int int)) "cardinalities (buggy, nested)" (1, 4)
          (cardinality buggy, cardinality reference);
        Alcotest.check Alcotest.bool "results differ" false
          (Value.equal (resolved tiny_db reference) (resolved tiny_db buggy)));
    case "nest relative to P reproduces the nested semantics" (fun () ->
        let reference = resolved tiny_db (eval_tiny (counts_query 25)) in
        Alcotest.check value "repaired" reference
          (resolved tiny_db (nest_based 25 tiny_db)));
    case "the repair also holds on a generated store and other thresholds"
      (fun () ->
        List.iter
          (fun threshold ->
            let reference =
              resolved gen_db (eval_gen (counts_query threshold))
            in
            Alcotest.check value
              (Fmt.str "threshold %d" threshold)
              reference
              (resolved gen_db (nest_based threshold gen_db)))
          [ 0; 25; 99 ]);
    case "KOLA's nest never produces NULLs: empty groups instead" (fun () ->
        (* every person appears, childless ones with count 0 *)
        match resolved tiny_db (eval_tiny (counts_query 25)) with
        | Value.Set entries ->
          Alcotest.check Alcotest.int "all four persons" 4 (List.length entries);
          let zero_counts =
            List.filter
              (function Value.Pair (_, Value.Int 0) -> true | _ -> false)
              entries
          in
          Alcotest.check Alcotest.bool "some zero-count persons" true
            (List.length zero_counts > 0)
        | v -> Alcotest.failf "unexpected %a" Value.pp v);
  ]
