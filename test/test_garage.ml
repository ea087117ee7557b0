(* Figure 3 (experiment E-F3): the Garage Query in both forms, the
   intermediate forms of the Section 4.1 walkthrough, and the backend
   behaviour that motivates untangling. *)

open Kola
open Util

let stores =
  [
    ("tiny", tiny_db);
    ("generated-40", gen_db);
    ( "generated-100",
      Datagen.Store.db
        (Datagen.Store.generate
           { Datagen.Store.default_params with people = 100; vehicles = 60; seed = 5 }) );
  ]

let tests =
  List.concat_map
    (fun (name, db) ->
      [
        case (Fmt.str "KG1 = KG2 on %s" name) (fun () ->
            check_sem_equal ~db "kg1 = kg2" Paper.kg1 Paper.kg2);
        case (Fmt.str "all walkthrough forms agree on %s" name) (fun () ->
            check_sem_equal ~db "kg1a" Paper.kg1 Paper.kg1a;
            check_sem_equal ~db "kg1b" Paper.kg1 Paper.kg1b;
            check_sem_equal ~db "kg1c" Paper.kg1 Paper.kg1c);
      ])
    stores
  @ [
      case "hashed KG2 agrees with naive KG2" (fun () ->
          Alcotest.check value "hashed"
            (resolved gen_db (eval_gen ~backend:Eval.Naive Paper.kg2))
            (resolved gen_db (eval_gen ~backend:Eval.Hashed Paper.kg2)));
      case "untangling exposes hash-joinable structure" (fun () ->
          (* KG2's join predicate in ⊕ (id × cars) is recognisable *)
          match Paper.kg2_join with
          | Term.Join (p, _) ->
            Alcotest.check Alcotest.bool "recognised" true
              (Option.is_some (Eval.hash_joinable p))
          | _ -> Alcotest.fail "kg2_join is a join");
      case "hashed KG2 touches asymptotically fewer tuples than naive KG1"
        (fun () ->
          let measure db backend q =
            let ctx = Eval.ctx ~db ~backend () in
            ignore (Eval.run ctx q);
            ctx.Eval.counters.Eval.tuples
          in
          let db =
            Datagen.Store.db
              (Datagen.Store.generate
                 { Datagen.Store.default_params with people = 120; vehicles = 80; seed = 11 })
          in
          let kg1_naive = measure db Eval.Naive Paper.kg1 in
          let kg2_hashed = measure db Eval.Hashed Paper.kg2 in
          Alcotest.check Alcotest.bool
            (Fmt.str "kg2 hashed (%d) at least 4x below kg1 (%d)" kg2_hashed kg1_naive)
            true
            (kg2_hashed * 4 < kg1_naive);
          (* The E-F3 table (EXPERIMENTS.md): tuples touched by KG1 naive,
             KG2 naive and KG2 hashed on stores of n people, 2n/3
             vehicles, max 5 (n/2) addresses, seed 100 + n. *)
          List.iter
            (fun (n, kg1_naive, kg2_naive, kg2_hashed) ->
              let db =
                Datagen.Store.db
                  (Datagen.Store.generate
                     {
                       Datagen.Store.default_params with
                       people = n;
                       vehicles = n * 2 / 3;
                       addresses = max 5 (n / 2);
                       seed = 100 + n;
                     })
              in
              let row = Fmt.str "n = %d: " n in
              Alcotest.(check int) (row ^ "KG1 naive") kg1_naive
                (measure db Eval.Naive Paper.kg1);
              Alcotest.(check int) (row ^ "KG2 naive") kg2_naive
                (measure db Eval.Naive Paper.kg2);
              Alcotest.(check int) (row ^ "KG2 hashed") kg2_hashed
                (measure db Eval.Hashed Paper.kg2))
            [
              (30, 1_388, 2_048, 205);
              (60, 4_454, 6_951, 360);
              (120, 20_249, 31_622, 812);
              (240, 76_447, 111_473, 1_445);
              (480, 311_349, 461_409, 3_006);
            ]);
      case "the five-step strategy rewrites KG1 into KG2 exactly" (fun () ->
          let o, blocks = Coko.Programs.hidden_join Paper.kg1 in
          Alcotest.check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.bool))
            "all five steps applied"
            [
              ("breakup", true); ("bottom-out", true); ("pullup-nest", true);
              ("pullup-unnest", true); ("absorb-join", true);
            ]
            blocks;
          Alcotest.check query "kg2" Paper.kg2 o.Coko.Block.query);
      case "step 1 produces KG1a" (fun () ->
          let o = Coko.Block.run Coko.Programs.breakup Paper.kg1 in
          Alcotest.check query "kg1a" Paper.kg1a o.Coko.Block.query);
      case "step 2 produces KG1b" (fun () ->
          let o = Coko.Block.run Coko.Programs.bottom_out Paper.kg1a in
          Alcotest.check query "kg1b" Paper.kg1b o.Coko.Block.query);
      case "step 3 produces KG1c" (fun () ->
          let o = Coko.Block.run Coko.Programs.pullup_nest Paper.kg1b in
          Alcotest.check query "kg1c" Paper.kg1c o.Coko.Block.query);
      case "step 4 is a no-op on KG1c (single unnest already on top)" (fun () ->
          let o = Coko.Block.run Coko.Programs.pullup_unnest Paper.kg1c in
          Alcotest.check query "unchanged" Paper.kg1c o.Coko.Block.query);
      case "step 5 produces KG2" (fun () ->
          let o = Coko.Block.run Coko.Programs.absorb_join Paper.kg1c in
          Alcotest.check query "kg2" Paper.kg2 o.Coko.Block.query);
    ]
