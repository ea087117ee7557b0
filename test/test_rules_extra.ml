(* The extended rule pool: targeted unit checks beyond the generic
   certification, including the Section 5 predicate-bin example (E-C3). *)

open Kola
open Kola.Term
open Util

let apply name f = fire_func (Rules.Catalog.find_exn name) f
let applyp name p = fire_pred (Rules.Catalog.find_exn name) p

let age_gt k = Oplus (Gt, Pairf (Prim "age", Kf (int k)))

let tests =
  [
    case "join-expand then sel-join-absorb round-trips a join" (fun () ->
        let j =
          Join
            ( Oplus (Gt, Pairf (Compose (Prim "age", Pi1), Compose (Prim "age", Pi2))),
              Pi1 )
        in
        match apply "x-join-expand" j with
        | Some expanded ->
          (* iterate(KpT, π1) ∘ iterate(p, id) ∘ join(KpT, id): absorb twice *)
          let q = Term.query expanded (Value.Pair (Value.Named "P", Value.Named "P")) in
          let o =
            Coko.Block.run
              (Coko.Block.block "absorb"
                 Coko.Block.(Try (Repeat (Use [ "x-sel-join-absorb"; "r5"; "r5c"; "r4"; "r1" ]))))
              q
          in
          check_sem_equal "round trip"
            (Term.query j (Value.Pair (Value.Named "P", Value.Named "P")))
            o.Coko.Block.query
        | None -> Alcotest.fail "x-join-expand should fire");
    case "join commutativity preserves semantics on extents" (fun () ->
        let j = Join (Oplus (In, Times (Id, Prim "cars")), Times (Id, Prim "grgs")) in
        match apply "x-join-commute" j with
        | Some j' ->
          check_sem_equal ~db:gen_db "commuted"
            (Term.query j (Value.Pair (Value.Named "V", Value.Named "P")))
            (Term.query j' (Value.Pair (Value.Named "V", Value.Named "P")))
        | None -> Alcotest.fail "x-join-commute should fire");
    case "select-past-join: a π1-shaped conjunct leaves the join" (fun () ->
        (* the Section 5 point: p ⊕ π1 examines only the first input, and
           the bin decision is pure matching, not a sorting routine *)
        let j = Join (Andp (Oplus (In, Times (Id, Prim "cars")), Oplus (age_gt 5, Pi1)), Id) in
        match apply "x-join-push-left" j with
        | Some (Compose (Join (q, Id), Times (Iterate (p, Id), Id))) ->
          Alcotest.check pred "residual" (Oplus (In, Times (Id, Prim "cars"))) q;
          Alcotest.check pred "pushed" (age_gt 5) p
        | Some f -> Alcotest.failf "unexpected %a" Pretty.pp_func f
        | None -> Alcotest.fail "x-join-push-left should fire");
    case "π2-shaped conjuncts are NOT pushed left (bin discipline)" (fun () ->
        let j = Join (Andp (Kp true, Oplus (age_gt 5, Pi2)), Id) in
        Alcotest.check Alcotest.bool "left rule refuses" true
          (Option.is_none (apply "x-join-push-left" j));
        Alcotest.check Alcotest.bool "right rule fires" true
          (Option.is_some (apply "x-join-push-right" j)));
    case "select-past-join preserves semantics" (fun () ->
        let pred_full =
          Andp (Oplus (In, Times (Id, Prim "cars")),
                Oplus (Oplus (Gt, Pairf (Prim "year", Kf (int 1995))), Pi1))
        in
        let j = Join (pred_full, Times (Id, Prim "name")) in
        match apply "x-join-push-left" j with
        | Some j' ->
          check_sem_equal ~db:gen_db "pushed"
            (Term.query j (Value.Pair (Value.Named "V", Value.Named "P")))
            (Term.query j' (Value.Pair (Value.Named "V", Value.Named "P")))
        | None -> Alcotest.fail "should fire");
    case "monad laws on concrete data" (fun () ->
        let nested = set [ set [ int 1; int 2 ]; set [ int 2; int 3 ] ] in
        Alcotest.check value "flat-flat"
          (Eval.eval_func (Compose (Flat, Flat)) (set [ nested ]))
          (Eval.eval_func (Compose (Flat, Iterate (ktrue, Flat))) (set [ nested ]));
        Alcotest.check value "flat-sng" (set [ int 1 ])
          (Eval.eval_func (Compose (Flat, Sng)) (set [ int 1 ]));
        Alcotest.check value "flat-map-sng" nested
          (Eval.eval_func (Compose (Flat, Iterate (ktrue, Sng))) nested));
    case "sng translation: singleton and multi-element set literals" (fun () ->
        check_translation "singleton"
          Aqua.Ast.(App (lam "p" (SetLit [ Path (Var "p", "age") ]), Extent "P"));
        check_translation "two elements"
          Aqua.Ast.(
            App
              ( lam "p" (SetLit [ Path (Var "p", "age"); Const (int 0) ]),
                Extent "P" )));
    case "iterate-con-split preserves semantics" (fun () ->
        let body =
          Iterate
            ( age_gt 10,
              Con (age_gt 30, Prim "name", Kf (Value.Str "minor")) )
        in
        match apply "x-iterate-con-split" body with
        | Some body' ->
          check_sem_equal ~db:gen_db "split"
            (Term.query body (Value.Named "P"))
            (Term.query body' (Value.Named "P"))
        | None -> Alcotest.fail "should fire");
    case "cp-push and cf-push fire on curried composites" (fun () ->
        Alcotest.check Alcotest.bool "cp" true
          (Option.is_some
             (applyp "x-cp-push" (Cp (Oplus (Gt, Times (Id, Prim "age")), int 30))));
        Alcotest.check Alcotest.bool "cf" true
          (Option.is_some
             (apply "x-cf-push" (Cf (Compose (Arith Add, Times (Id, Prim "age")), int 1)))));
    case "conv laws rewrite and agree" (fun () ->
        let p0 = Conv (Oplus (In, Times (Id, Prim "cars"))) in
        match applyp "x-conv-oplus-times" p0 with
        | Some p1 ->
          let alice = List.hd (Datagen.Store.tiny ()).Datagen.Store.persons in
          let v = List.hd (Datagen.Store.tiny ()).Datagen.Store.vehicles in
          let input = pair alice v in
          Alcotest.check Alcotest.bool "agree" true
            (Eval.eval_pred ~db:tiny_db p0 input = Eval.eval_pred ~db:tiny_db p1 input)
        | None -> Alcotest.fail "should fire");
  ]
