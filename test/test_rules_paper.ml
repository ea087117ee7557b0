(* One concrete, hand-written instance per paper rule (Figures 5 and 8):
   the rule must fire on it, produce the expected shape, and preserve the
   denotation.  Complements the generic certification with cases whose
   expected outputs were derived by hand from the paper's equations. *)

open Kola
open Kola.Term
open Util

let fire name f =
  match fire_func (Rules.Catalog.find_exn name) f with
  | Some f' -> f'
  | None -> Alcotest.failf "%s did not fire" name

let firep name p =
  match fire_pred (Rules.Catalog.find_exn name) p with
  | Some p' -> p'
  | None -> Alcotest.failf "%s did not fire" name

let age = Prim "age"
let child = Prim "child"
let sem_f msg f f' input =
  Alcotest.check value msg
    (resolved tiny_db (Eval.eval_func ~db:tiny_db f input))
    (resolved tiny_db (Eval.eval_func ~db:tiny_db f' input))

let alice = List.hd (Datagen.Store.tiny ()).Datagen.Store.persons
let persons = Value.Named "P"

let figure5 =
  [
    case "r1 on age ∘ id" (fun () ->
        Alcotest.check func "shape" age (fire "r1" (Compose (age, Id))));
    case "r2 on id ∘ age" (fun () ->
        Alcotest.check func "shape" age (fire "r2" (Compose (Id, age))));
    case "r3 on ⟨π1, π2⟩" (fun () ->
        Alcotest.check func "shape" Id (fire "r3" (Pairf (Pi1, Pi2))));
    case "r4 on gt ⊕ id" (fun () ->
        Alcotest.check pred "shape" Gt (firep "r4" (Oplus (Gt, Id))));
    case "r5 on Kp(T) & gt" (fun () ->
        Alcotest.check pred "shape" Gt (firep "r5" (Andp (Kp true, Gt))));
    case "r6t on Kp(T) ⊕ age" (fun () ->
        Alcotest.check pred "shape" (Kp true) (firep "r6t" (Oplus (Kp true, age))));
    case "r7 on gt⁻¹ (the negation reading is exact)" (fun () ->
        Alcotest.check pred "shape" Leq (firep "r7" (Inv Gt));
        (* ¬(3 > 3) ⟺ 3 ≤ 3 *)
        Alcotest.check Alcotest.bool "boundary" true
          (Eval.eval_pred Leq (pair (int 3) (int 3))));
    case "r8 on Kf(7) ∘ age" (fun () ->
        Alcotest.check func "shape" (Kf (int 7)) (fire "r8" (Compose (Kf (int 7), age)));
        sem_f "sem" (Compose (Kf (int 7), age)) (Kf (int 7)) alice);
    case "r9/r10 on projections of ⟨age, child⟩" (fun () ->
        Alcotest.check func "r9" age (fire "r9" (Compose (Pi1, Pairf (age, child))));
        Alcotest.check func "r10" child (fire "r10" (Compose (Pi2, Pairf (age, child)))));
    case "r11 fuses iterate(gt25, name) ∘ iterate(KpT, id)" (fun () ->
        let p25 = Oplus (Gt, Pairf (age, Kf (int 25))) in
        let fused = fire "r11" (Compose (Iterate (p25, Prim "name"), Iterate (Kp true, Id))) in
        (match fused with
        | Iterate (Andp (Kp true, Oplus (p, Id)), Compose (Prim "name", Id)) ->
          Alcotest.check pred "inner pred" p25 p
        | f -> Alcotest.failf "unexpected %a" Pretty.pp_func f);
        sem_f "sem" (Compose (Iterate (p25, Prim "name"), Iterate (Kp true, Id))) fused persons);
    case "r12 on sel ∘ map" (fun () ->
        let out = fire "r12" (Compose (Iterate (Cp (Gt, int 40), Id), Iterate (Kp true, age))) in
        Alcotest.check func "shape"
          (Iterate (Oplus (Cp (Gt, int 40), age), age))
          out);
    case "r13 on gt ⊕ ⟨age, Kf(25)⟩ (and its boundary)" (fun () ->
        let out = firep "r13" (Oplus (Gt, Pairf (age, Kf (int 25)))) in
        Alcotest.check pred "shape" (Oplus (Cp (Conv Gt, int 25), age)) out;
        (* exact on the boundary age = 25 *)
        let boundary = Value.obj ~cls:"Person" ~oid:99 [ ("age", int 25) ] in
        Alcotest.check Alcotest.bool "boundary agrees" true
          (Eval.eval_pred (Oplus (Gt, Pairf (age, Kf (int 25)))) boundary
          = Eval.eval_pred out boundary));
    case "r14 on gt25 ⊕ (age ∘ π1)" (fun () ->
        let out = firep "r14" (Oplus (Gt, Compose (age, Pi1))) in
        Alcotest.check pred "shape" (Oplus (Oplus (Gt, age), Pi1)) out);
    case "r15 turns an environment-only iter into a conditional" (fun () ->
        let p = Oplus (Cp (Gt, int 18), age) in
        let out = fire "r15" (Iter (Oplus (p, Pi1), Pi2)) in
        Alcotest.check func "shape"
          (Con (Oplus (p, Pi1), Pi2, Kf (Value.set [])))
          out;
        sem_f "sem (kept)" (Iter (Oplus (p, Pi1), Pi2)) out
          (pair alice (set [ int 1; int 2 ]));
        let minor = Value.obj ~cls:"Person" ~oid:98 [ ("age", int 3) ] in
        sem_f "sem (dropped)" (Iter (Oplus (p, Pi1), Pi2)) out
          (pair minor (set [ int 1; int 2 ])));
    case "r16 distributes a conditional over ∘" (fun () ->
        let c = Con (Cp (Gt, int 0), Pi2, Kf (Value.set [])) in
        let out = fire "r16" (Compose (c, Pairf (age, child))) in
        match out with
        | Con (Oplus (Cp (Gt, _), _), Compose (Pi2, _), Compose (Kf _, _)) -> ()
        | f -> Alcotest.failf "unexpected %a" Pretty.pp_func f);
  ]

let figure8 =
  [
    case "r17 breaks the garage body up" (fun () ->
        (* the inner two-layer body of KG1, as a standalone iterate *)
        let out = fire "r17" Paper.kg1.body in
        Alcotest.check Alcotest.int "four-element chain" 4
          (List.length (unchain out)));
    case "r17b breaks up a body with no postprocessing" (fun () ->
        let body =
          Iterate
            ( Kp true,
              Pairf
                ( Id,
                  Compose
                    (Iter (Paper.kg1_inner_pred, Pi2), Pairf (Id, Kf persons)) ) )
        in
        let out = fire "r17b" body in
        Alcotest.check Alcotest.int "three-element chain" 3
          (List.length (unchain out)));
    case "r18 collapses iterate(Kp T, id)" (fun () ->
        Alcotest.check func "shape" Id (fire "r18" (Iterate (Kp true, Id))));
    case "r19 bottoms out (query level)" (fun () ->
        let q =
          Term.query (Iterate (Kp true, Pairf (Id, Kf persons))) (Value.Named "V")
        in
        match fire_query (Rules.Catalog.find_exn "r19") q with
        | Some q' ->
          Alcotest.check query "shape"
            (Term.query
               (chain [ Nest (Pi1, Pi2); Pairf (Join (Kp true, Id), Pi1) ])
               (Value.Pair (Value.Named "V", persons)))
            q';
          check_sem_equal "sem" q q'
        | None -> Alcotest.fail "r19 did not fire");
    case "r20 pulls nest above an iter step" (fun () ->
        (* an int-typed iter predicate: env > element *)
        let lhs =
          Compose
            ( Iterate (Kp true, Pairf (Pi1, Iter (Gt, Pi2))),
              Nest (Pi1, Pi2) )
        in
        let out = fire "r20" lhs in
        (match unchain out with
        | [ Nest (Pi1, Pi2); Times (Iterate _, Id) ] -> ()
        | _ -> Alcotest.failf "unexpected %a" Pretty.pp_func out);
        let pairs = set [ pair (int 15) (int 10); pair (int 2) (int 20) ] in
        let keys = set [ int 15; int 2; int 3 ] in
        sem_f "sem" lhs out (pair pairs keys));
    case "r21 pulls nest above a flatten step" (fun () ->
        let lhs =
          Compose
            ( Iterate (Kp true, Pairf (Pi1, Compose (Flat, Pi2))),
              Nest (Pi1, Pi2) )
        in
        let out = fire "r21" lhs in
        Alcotest.check func "shape"
          (Compose (Nest (Pi1, Pi2), Times (Unnest (Pi1, Pi2), Id)))
          out;
        let nested =
          set [ pair (int 1) (set [ int 10 ]); pair (int 1) (set [ int 11 ]) ]
        in
        sem_f "sem" lhs out (pair nested (set [ int 1; int 2 ])));
    case "r23 coalesces stacked unnests" (fun () ->
        let u = Times (Unnest (Pi1, Pi2), Id) in
        let out = fire "r23" (Compose (u, u)) in
        (match unchain out with
        | [ Times (Unnest _, Id); Times (Iterate (Kp true, Pairf (Pi1, Compose (Flat, Pi2))), Id) ] -> ()
        | _ -> Alcotest.failf "unexpected %a" Pretty.pp_func out);
        let deep =
          set [ pair (int 1) (set [ set [ int 10; int 11 ]; set [ int 12 ] ]) ]
        in
        sem_f "sem" (Compose (u, u)) out (pair deep (set [ int 0 ])));
    case "r24 absorbs an iterate into the join" (fun () ->
        let lhs =
          Compose
            ( Times (Iterate (Cp (Gt, int 1), Id), Id),
              Pairf (Join (Kp true, Id), Pi1) )
        in
        let out = fire "r24" lhs in
        (match out with
        | Pairf (Join (Andp (Kp true, Oplus (Cp (Gt, _), Id)), Compose (Id, Id)), Pi1) -> ()
        | f -> Alcotest.failf "unexpected %a" Pretty.pp_func f);
        sem_f "sem" lhs out (pair (set [ int 0; int 2 ]) (set [ int 5 ])));
  ]

let tests = figure5 @ figure8
