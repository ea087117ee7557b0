(* The AQUA → KOLA translator (experiments E-F3 source side and E-C1):
   paper-form outputs, semantic correctness on random queries, and the
   Section 4.2 size claims. *)

open Kola
open Util

let tests =
  [
    case "the Garage Query translates to KG1 verbatim" (fun () ->
        Alcotest.check query "kg1" Paper.kg1
          (Translate.Compile.query Aqua.Examples.garage));
    case "A3 translates to K3 and A4 to K4" (fun () ->
        Alcotest.check query "k3" Paper.k3 (Translate.Compile.query Aqua.Examples.a3);
        Alcotest.check query "k4" Paper.k4 (Translate.Compile.query Aqua.Examples.a4));
    case "T1/T2 sources translate to the Figure 4 sources" (fun () ->
        Alcotest.check query "t1k" Paper.t1k_source
          (Translate.Compile.query Aqua.Examples.t1_source);
        Alcotest.check query "t2k" Paper.t2k_source
          (Translate.Compile.query Aqua.Examples.t2_source));
    case "variable access compiles to π-chains" (fun () ->
        Alcotest.check func "x1 of 3" (Term.Compose (Term.Pi1, Term.Pi1))
          (Translate.Compile.access 3 1);
        Alcotest.check func "x2 of 3" (Term.Compose (Term.Pi2, Term.Pi1))
          (Translate.Compile.access 3 2);
        Alcotest.check func "x3 of 3" Term.Pi2 (Translate.Compile.access 3 3);
        Alcotest.check func "x1 of 1" Term.Id (Translate.Compile.access 1 1));
    case "shadowing: the innermost binder wins" (fun () ->
        let e =
          Aqua.Ast.(
            App
              ( lam "p" (Pair (Var "p", Path (Var "p", "age"))),
                App (lam "p" (Var "p"), Extent "P") ))
        in
        check_translation "shadowed" e);
    case "closed join translates to the join combinator" (fun () ->
        let e =
          Aqua.Ast.(
            Join
              ( lam2 "a" "b" (Bin (In, Var "a", Path (Var "b", "cars"))),
                lam2 "a" "b" (Pair (Var "a", Var "b")),
                Extent "V", Extent "P" ))
        in
        let q = Translate.Compile.query e in
        (match q.Term.body with
        | Term.Join _ -> ()
        | f -> Alcotest.failf "expected a join, got %a" Pretty.pp_func f);
        check_translation "join" e);
    case "nested join desugars to app/sel" (fun () ->
        let inner =
          Aqua.Ast.(
            Join
              ( lam2 "a" "b" (Bin (Gt, Path (Var "a", "age"), Path (Var "b", "age"))),
                lam2 "a" "b" (Var "b"),
                Path (Var "p", "child"), Extent "P" ))
        in
        let e = Aqua.Ast.(App (lam "p" (Pair (Var "p", inner)), Extent "P")) in
        check_translation "nested join" e);
    case "if/then/else becomes con" (fun () ->
        check_translation "con" Aqua.Examples.a4_optimized);
    case "aggregates and arithmetic translate" (fun () ->
        let e =
          Aqua.Ast.(
            App
              ( lam "p"
                  (Bin
                     ( Add,
                       Agg (Term.Count, Path (Var "p", "child")),
                       Path (Var "p", "age") )),
                Extent "P" ))
        in
        check_translation "agg" e);
    case "booleans in value position become conditionals" (fun () ->
        let e =
          Aqua.Ast.(
            App (lam "p" (Bin (Gt, Path (Var "p", "age"), Const (int 21))), Extent "P"))
        in
        check_translation "bool value" e);
    case "open expressions are rejected" (fun () ->
        match Translate.Compile.query (Aqua.Ast.Var "loose") with
        | exception Translate.Compile.Untranslatable _ -> ()
        | _ -> Alcotest.fail "expected Untranslatable");
    case "lt and geq compile via the converse former" (fun () ->
        let e =
          Aqua.Ast.(
            Sel (lam "p" (Bin (Lt, Path (Var "p", "age"), Const (int 30))), Extent "P"))
        in
        check_translation "lt" e;
        let e =
          Aqua.Ast.(
            Sel (lam "p" (Bin (Geq, Path (Var "p", "age"), Const (int 30))), Extent "P"))
        in
        check_translation "geq" e);
  ]

(* The randomized translator-correctness property (our stand-in for the
   paper's "designed, implemented and verified translators" claim). *)
let correctness_props =
  let mk ~depth ~seed =
    QCheck.Test.make
      ~name:(Fmt.str "AQUA and translated KOLA agree (depth %d)" depth)
      ~count:120
      (QCheck.make
         ~print:(fun i -> Aqua.Pretty.to_string (Datagen.Queries.query ~seed:(seed + i) ~depth))
         QCheck.Gen.(int_bound 100_000))
      (fun i ->
        let e = Datagen.Queries.query ~seed:(seed + i) ~depth in
        let q = Translate.Compile.query e in
        let va = resolved tiny_db (Aqua.Eval.eval_closed ~db:tiny_db e) in
        let vk = resolved tiny_db (Eval.eval_query ~db:tiny_db q) in
        Value.equal va vk)
  in
  [ mk ~depth:2 ~seed:100; mk ~depth:3 ~seed:4_000; mk ~depth:5 ~seed:9_000 ]

(* Section 4.2 size claims (E-C1). *)
let size_claims =
  [
    case "translated queries stay under 2x the source (paper's observation)"
      (fun () ->
        let queries = Datagen.Queries.suite ~count:60 ~seed:31 ~depth:4 in
        let ratios =
          List.map (fun e -> (Translate.Compile.measure e).Translate.Compile.ratio) queries
        in
        let avg = List.fold_left ( +. ) 0. ratios /. float_of_int (List.length ratios) in
        Alcotest.check Alcotest.bool (Fmt.str "average ratio %.2f < 2" avg) true
          (avg < 2.0);
        (* The E-C1 table (EXPERIMENTS.md): 50 generated queries per
           depth, seed 1000 + depth.  Per depth, the summed source and
           KOLA sizes and the largest ratio, as the kola/n pair of a
           query that attains it. *)
        List.iter
          (fun (depth, sum_n, sum_kola, (max_kola, max_n)) ->
            let ms =
              List.map Translate.Compile.measure
                (Datagen.Queries.suite ~count:50 ~seed:(1000 + depth) ~depth)
            in
            let sum f = List.fold_left (fun a m -> a + f m) 0 ms in
            let max_ratio =
              List.fold_left
                (fun a m -> Float.max a m.Translate.Compile.ratio)
                0. ms
            in
            let row = Fmt.str "depth %d: " depth in
            Alcotest.(check int) (row ^ "sum n") sum_n
              (sum (fun m -> m.Translate.Compile.aqua_size));
            Alcotest.(check int) (row ^ "sum kola") sum_kola
              (sum (fun m -> m.Translate.Compile.kola_size));
            Alcotest.(check (float 0.)) (row ^ "max ratio")
              (float_of_int max_kola /. float_of_int max_n)
              max_ratio;
            Alcotest.check Alcotest.bool (row ^ "max ratio < 2") true
              (max_ratio < 2.0))
          [
            (1, 625, 778, (35, 20));
            (2, 802, 987, (38, 26));
            (3, 758, 989, (27, 15));
            (4, 840, 1_111, (22, 12));
            (5, 1_011, 1_451, (37, 19));
            (6, 890, 1_210, (69, 38));
          ]);
    case "size grows O(mn): ratio bounded by c*m across depths" (fun () ->
        List.iter
          (fun depth ->
            let queries = Datagen.Queries.suite ~count:30 ~seed:77 ~depth in
            List.iter
              (fun e ->
                let m = Translate.Compile.measure e in
                let bound =
                  3 * (max 1 m.Translate.Compile.nesting) * m.Translate.Compile.aqua_size
                in
                Alcotest.check Alcotest.bool
                  (Fmt.str "kola=%d <= 3*m*n=%d" m.Translate.Compile.kola_size bound)
                  true
                  (m.Translate.Compile.kola_size <= bound))
              queries)
          [ 1; 3; 5 ]);
    case "the garage query measures m=2, ratio < 2" (fun () ->
        let m = Translate.Compile.measure Aqua.Examples.garage in
        Alcotest.check Alcotest.int "m" 2 m.Translate.Compile.nesting;
        Alcotest.check Alcotest.int "n" 17 m.Translate.Compile.aqua_size;
        Alcotest.check Alcotest.int "kola size" 29 m.Translate.Compile.kola_size;
        Alcotest.check Alcotest.bool "ratio" true (m.Translate.Compile.ratio < 2.0));
    case "two company queries translate past 2x (a deviation from Sec 4.2)"
      (fun () ->
        (* payroll and mentor_elite select under an aggregate or a set
           operation, so each extent becomes a constant Kf(E) and every
           stage threads the empty environment, iter(p, f ∘ π2) ∘
           ⟨id, Kf(E)⟩ (DESIGN.md, "Known deviations from the paper") *)
        List.iter
          (fun (name, src, n, m, kola) ->
            let s =
              Translate.Compile.measure (Oql.Parser.parse ~extents:[ "E"; "D" ] src)
            in
            Alcotest.(check (triple int int int))
              (name ^ ": (n, m, kola size)")
              (n, m, kola)
              (s.Translate.Compile.aqua_size, s.Translate.Compile.nesting,
               s.Translate.Compile.kola_size))
          [
            ("dept_roster", Datagen.Company.dept_roster_oql, 18, 2, 31);
            ("mentor_pool", Datagen.Company.mentor_pool_oql, 17, 2, 29);
            ("city_salaries", Datagen.Company.city_salaries_oql, 12, 1, 15);
            ("payroll", Datagen.Company.payroll_oql, 12, 1, 26);
            ("rich_mentors", Datagen.Company.rich_mentors_oql, 17, 2, 26);
            ("local_staff", Datagen.Company.local_staff_oql, 20, 2, 32);
            ("mentor_elite", Datagen.Company.mentor_elite_oql, 22, 2, 47);
          ]);
  ]

let tests =
  tests
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) correctness_props
  @ size_claims
