(* The compiled execution backend (lib/exec) against its oracle, the
   interpreter.

   Pinned equivalence: for every supported ground plan, compiled/Eager ≡
   Eval.run under both backends with Eager dedup, modulo set ordering
   ({!Exec.agree}).  The compiler runs Eager only: a compiled run under
   Deferred dedup falls back to the Hashed interpreter, and so do
   unsupported plans (pattern holes) — explicitly, counted, never
   wrong. *)

open Kola
open Util
module Exec = Kola_exec.Exec
module Ir = Kola_exec.Ir

let check_agree ~db msg a b =
  Alcotest.check Alcotest.bool msg true (Exec.agree ~db a b)

(* The differential harness: compiled against the oracle on one query,
   and the Deferred run's fallback. *)
let differential ?(db = tiny_db) name q =
  List.iter
    (function
      | Eval.Eager ->
        let compiled, stats = Exec.run ~backend:Exec.Compiled ~db q in
        Alcotest.check Alcotest.bool (name ^ ": no fallback") false
          stats.Exec.fell_back;
        List.iter
          (fun backend ->
            let interp = Eval.eval_query ~db ~backend q in
            check_agree ~db
              (Fmt.str "%s: compiled ≡ interp (%s, eager)" name
                 (match backend with Eval.Naive -> "naive" | Eval.Hashed -> "hashed"))
              compiled interp)
          [ Eval.Naive; Eval.Hashed ]
      | Eval.Deferred -> check_deferred_fallback ~db name q)
    [ Eval.Eager; Eval.Deferred ]

let compile_ir q = Exec.ir (Exec.compile q)

(* --- unit tests per IR stage --- *)

let p_scan = Value.Named "P"

let stage_tests =
  [
    case "filter+map fuse into one stage" (fun () ->
        let q =
          Term.query
            (Term.Iterate
               (Paper.age_gt_25, Term.Compose (Paper.city, Paper.addr)))
            p_scan
        in
        differential "sel-proj" q;
        let ir = compile_ir q in
        Alcotest.check Alcotest.int "one fused stage" 1 (Ir.stages ir);
        Alcotest.check Alcotest.int "no scalar fallbacks" 0
          (Ir.scalar_nodes ir));
    case "flatten streams inner sets" (fun () ->
        let q =
          Term.query
            (Term.Compose (Term.Flat, Term.proj Paper.child))
            p_scan
        in
        differential "flatten" q;
        Alcotest.check Alcotest.int "two stages" 2
          (Ir.stages (compile_ir q)));
    case "unnest emits key/inner pairs" (fun () ->
        let q = Term.query (Term.Unnest (Term.Id, Paper.cars)) p_scan in
        differential "unnest" q);
    case "equi-join compiles to a hash join" (fun () ->
        (* join(eq ⊕ (addr × id), π1) ! [P, A] *)
        let p = Term.Oplus (Term.Eq, Term.Times (Paper.addr, Term.Id)) in
        let q =
          Term.query
            (Term.Join (p, Term.Pi1))
            (Value.Pair (Value.Named "P", Value.Named "A"))
        in
        differential "equi-join" q;
        match compile_ir q with
        | Ir.HashJoin { kind = Ir.Eq; _ } -> ()
        | ir -> Alcotest.failf "expected a hash join, got %a" Ir.pp ir);
    case "membership join compiles to a hash join over set elements"
      (fun () ->
        (* join(in ⊕ (id × cars), π2) ! [V, P] *)
        let p = Term.Oplus (Term.In, Term.Times (Term.Id, Paper.cars)) in
        let q =
          Term.query
            (Term.Join (p, Term.Pi2))
            (Value.Pair (Value.Named "V", Value.Named "P"))
        in
        differential "membership-join" q;
        match compile_ir q with
        | Ir.HashJoin { kind = Ir.Membership; _ } -> ()
        | ir -> Alcotest.failf "expected a membership hash join, got %a" Ir.pp ir);
    case "non-decomposable predicate falls back to a loop join" (fun () ->
        (* leq ⊕ (age × age) is order, not equality: no hash index *)
        let p = Term.Oplus (Term.Leq, Term.Times (Paper.age, Paper.age)) in
        let q =
          Term.query
            (Term.Join (p, Term.Pairf (Term.Pi1, Term.Pi2)))
            (Value.Pair (Value.Named "P", Value.Named "P"))
        in
        differential "loop-join" q;
        match compile_ir q with
        | Ir.LoopJoin _ -> ()
        | ir -> Alcotest.failf "expected a loop join, got %a" Ir.pp ir);
    case "nest compiles to a hash group" (fun () ->
        let q =
          Term.query
            (Term.Nest (Paper.addr, Term.Id))
            (Value.Pair (Value.Named "P", Value.Named "A"))
        in
        differential "nest" q;
        match compile_ir q with
        | Ir.HashGroup _ -> ()
        | ir -> Alcotest.failf "expected a hash group, got %a" Ir.pp ir);
    case "set operations: union, inter, diff" (fun () ->
        List.iter
          (fun op ->
            let q =
              Term.query
                (Term.Compose
                   ( Term.Setop op,
                     Term.Times
                       ( Term.proj Paper.city,
                         Term.proj (Term.Compose (Paper.city, Paper.addr)) ) ))
                (Value.Pair (Value.Named "A", Value.Named "P"))
            in
            differential (Pretty.setop_name op) q)
          [ Term.Union; Term.Inter; Term.Diff ]);
    case "aggregates agree, including the eager dedup barrier" (fun () ->
        (* city ∘ addr over P has duplicates in the stream; eager count
           must count distinct cities like the interpreter's set does *)
        List.iter
          (fun op ->
            let q =
              Term.query
                (Term.Compose
                   ( Term.Agg op,
                     Term.proj (Term.Compose (Paper.city, Paper.addr)) ))
                p_scan
            in
            differential ("agg-" ^ Pretty.agg_name op) q)
          [ Term.Count; Term.Max; Term.Min ]);
    case "sum of ages agrees under both dedup modes" (fun () ->
        let q =
          Term.query (Term.Compose (Term.Agg Term.Sum, Term.proj Paper.age))
            p_scan
        in
        differential "sum-ages" q);
    case "max of an empty set raises the interpreter's error" (fun () ->
        let q =
          Term.query (Term.Compose (Term.Agg Term.Max, Term.Kf (Value.set [])))
            Value.Unit
        in
        match Exec.run ~db:tiny_db q with
        | _ -> Alcotest.fail "expected Eval.Error"
        | exception Eval.Error msg ->
          Alcotest.check Alcotest.bool "message" true
            (contains msg "max of empty set"));
    case "sng, con, cf and pairf sharing" (fun () ->
        let expensive = Term.proj (Term.Compose (Paper.city, Paper.addr)) in
        let q =
          Term.query
            (Term.Compose
               ( Term.Setop Term.Inter,
                 Term.Pairf (Term.Id, Term.Id) ))
            (Value.Named "A")
        in
        differential "pairf-share" q;
        (* the shared pipeline input must appear as a Shared slot *)
        let rec has_shared = function
          | Ir.Shared _ -> true
          | Ir.Scan _ | Ir.Leaf _ -> false
          | Ir.Filter (_, s) | Ir.Map (_, s) | Ir.Flatten s
          | Ir.UnnestStage (_, _, s) | Ir.AggStage (_, s) | Ir.SngStage s
          | Ir.Scalar (_, s) ->
            has_shared s
          | Ir.IterEnv (_, _, a, b)
          | Ir.LoopJoin (_, _, a, b)
          | Ir.HashGroup { src = a; groups = b; _ }
          | Ir.Union (a, b)
          | Ir.Inter (a, b)
          | Ir.Diff (a, b)
          | Ir.PairNode (a, b) ->
            has_shared a || has_shared b
          | Ir.HashJoin { probe; build; _ } ->
            has_shared probe || has_shared build
          | Ir.Branch (_, i, a, b) ->
            has_shared i || has_shared a || has_shared b
        in
        ignore (has_shared (compile_ir q));
        (* ⟨id, id⟩ over the projection pipe: the pipe must materialize
           into a Shared slot, not re-run for each pair component *)
        let q2 =
          Term.query
            (Term.Compose
               ( Term.Agg Term.Count,
                 Term.Compose
                   ( Term.Setop Term.Union,
                     Term.Compose
                       (Term.Pairf (Term.Id, Term.Id), expensive) ) ))
            p_scan
        in
        differential "pairf-share-union" q2;
        Alcotest.check Alcotest.bool "shared slot in IR" true
          (has_shared (compile_ir q2));
        let q3 =
          Term.query
            (Term.Con (Paper.kp_t, Term.Sng, Term.Kf (Value.set [])))
            (Value.Int 7)
        in
        differential "con-sng" q3;
        let q4 =
          Term.query
            (Term.Cf (Term.Arith Term.Add, Value.Int 5))
            (Value.Int 37)
        in
        differential "cf-arith" q4);
    case "iter threads the environment through the loop" (fun () ->
        (* iter(gt ⊕ ⟨π1, age ∘ π2⟩, π2) ! [25, P]: persons younger than
           the environment constant *)
        let p =
          Term.Oplus
            ( Term.Gt,
              Term.Pairf (Term.Pi1, Term.Compose (Paper.age, Term.Pi2)) )
        in
        let q =
          Term.query
            (Term.Iter (p, Term.Pi2))
            (Value.Pair (Value.Int 25, Value.Named "P"))
        in
        differential "iter-env" q;
        match compile_ir q with
        | Ir.IterEnv _ -> ()
        | ir -> Alcotest.failf "expected an iter stage, got %a" Ir.pp ir);
  ]

(* --- every collection operator in the nested position --- *)

(* An operator inside a per-element function compiles to a closure over
   the element's set, not to a pipeline stage.  It must run the same row
   kernel as on the spine: the same result as the interpreter, and the
   spine's tuples/probes/builds plus one tuple for the enclosing loop. *)
let nested_tests =
  let ints xs = Value.set (List.map Value.int xs) in
  let xs = ints [ 1; 2; 3; 4 ] and ys = ints [ 2; 3; 5 ] in
  let two = Value.Pair (xs, ys) in
  let on_ids q = Term.Oplus (q, Term.Times (Term.Id, Term.Id)) in
  let above_two =
    Term.Oplus (Term.Gt, Term.Pairf (Term.Id, Term.Kf (Value.int 2)))
  in
  List.map
    (fun (name, op, arg) ->
      case ("nested " ^ name ^ " runs the spine kernel") (fun () ->
          let spine = Term.query op arg in
          let nested =
            Term.query (Term.Iterate (Term.Kp true, op)) (Value.set [ arg ])
          in
          differential ~db:[] name spine;
          differential ~db:[] ("nested " ^ name) nested;
          List.iter
            (function
              | Eval.Eager ->
                let counts q =
                  let _, (st : Exec.stats) = Exec.run ~db:[] q in
                  (st.tuples, st.probes, st.builds)
                in
                let tuples, probes, builds = counts spine in
                Alcotest.(check (triple int int int))
                  (Fmt.str "%s: tuples/probes/builds, nested = spine + 1 tuple"
                     name)
                  (tuples + 1, probes, builds)
                  (counts nested)
              | Eval.Deferred ->
                check_deferred_fallback ~db:[] name spine;
                check_deferred_fallback ~db:[] ("nested " ^ name) nested)
            [ Eval.Eager; Eval.Deferred ]))
    [
      ("hash join", Term.Join (on_ids Term.Eq, Term.Pi1), two);
      ( "loop join",
        Term.Join (on_ids Term.Leq, Term.Pairf (Term.Pi1, Term.Pi2)),
        two );
      ("nest", Term.Nest (Term.Id, Term.Id), two);
      ("union", Term.Setop Term.Union, two);
      ("inter", Term.Setop Term.Inter, two);
      ("diff", Term.Setop Term.Diff, two);
      ("iterate", Term.Iterate (above_two, Term.Sng), xs);
      ( "iter",
        Term.Iter
          (Term.Oplus (Term.Gt, Term.Pairf (Term.Pi2, Term.Pi1)), Term.Pi2),
        Value.Pair (Value.int 2, xs) );
      ("unnest", Term.Unnest (Term.Id, Term.Kf ys), xs);
      ("flat", Term.Flat, Value.set [ xs; ys ]);
      ("cnt", Term.Agg Term.Count, xs);
      ("sum", Term.Agg Term.Sum, xs);
      ("max", Term.Agg Term.Max, xs);
      ("min", Term.Agg Term.Min, xs);
    ]

(* --- every paper query, both stores --- *)

let paper_tests =
  [
    case "differential: every paper query on the tiny store" (fun () ->
        List.iter
          (fun (name, q) -> differential ~db:tiny_db name q)
          [
            ("t1k-source", Paper.t1k_source);
            ("t1k-target", Paper.t1k_target);
            ("t2k-source", Paper.t2k_source);
            ("t2k-mid", Paper.t2k_mid);
            ("t2k-target", Paper.t2k_target);
            ("k3", Paper.k3);
            ("k4", Paper.k4);
            ("k4-optimized", Paper.k4_optimized);
            ("kg1", Paper.kg1);
            ("kg1a", Paper.kg1a);
            ("kg1b", Paper.kg1b);
            ("kg1c", Paper.kg1c);
            ("kg2", Paper.kg2);
          ]);
    case "differential: every paper query on the generated store" (fun () ->
        List.iter
          (fun (name, q) -> differential ~db:gen_db name q)
          [
            ("t1k-source", Paper.t1k_source);
            ("t1k-target", Paper.t1k_target);
            ("t2k-source", Paper.t2k_source);
            ("t2k-target", Paper.t2k_target);
            ("k4", Paper.k4);
            ("kg1", Paper.kg1);
            ("kg2", Paper.kg2);
          ]);
    case "kg2 pipelines pairs of collections" (fun () ->
        (* the KG2 spine flows a pair of collections through
           nest ∘ (unnest × id) ∘ ⟨join, π1⟩ — the pair-aware lowering *)
        let _, stats = Exec.run ~db:gen_db Paper.kg2 in
        Alcotest.check Alcotest.bool "compiled" true
          (stats.Exec.backend = Exec.Compiled);
        Alcotest.check Alcotest.bool "has pipeline stages" true
          (stats.Exec.stages >= 3));
  ]

(* --- membership probes against a large loop-invariant set --- *)

let membership_tests =
  [
    case "membership against a large invariant set probes a hash table"
      (fun () ->
        (* 100 elements filtered against a 40-element constant set: above
           the linear-scan cutoff, so the compiled predicate must build
           one member table and probe it once per element. *)
        let db =
          [
            ("T", Value.set (List.init 100 Value.int));
            ("S", Value.set (List.init 40 (fun i -> Value.int (2 * i))));
          ]
        in
        let q =
          Term.query
            (Term.Iterate
               ( Term.Oplus
                   (Term.In, Term.Pairf (Term.Id, Term.Kf (Value.Named "S"))),
                 Term.Id ))
            (Value.Named "T")
        in
        differential ~db "membership filter" q;
        let v, stats = Exec.run ~backend:Exec.Compiled ~db q in
        Alcotest.check Alcotest.int "one probe per element" 100
          stats.Exec.probes;
        Alcotest.check Alcotest.int "one table build, not one per element" 40
          stats.Exec.builds;
        match Eval.finalize v with
        | Value.Set xs -> Alcotest.check Alcotest.int "evens below 80" 40 (List.length xs)
        | v -> Alcotest.failf "expected a set, got %a" Value.pp v);
  ]

(* --- the company workload through the whole pipeline --- *)

let company = Datagen.Company.generate Datagen.Company.default_params
let cdb = Datagen.Company.db company

let company_tests =
  [
    case "differential: optimized company plans, compiled vs Pipeline.run"
      (fun () ->
        List.iter
          (fun src ->
            let r =
              Optimizer.Pipeline.optimize_oql ~extents:[ "E"; "D" ] ~db:cdb
                src
            in
            let interp = Optimizer.Pipeline.run ~db:cdb r in
            let chosen = r.Optimizer.Pipeline.chosen in
            let compiled, stats =
              Exec.run ~dedup:chosen.Optimizer.Pipeline.dedup ~db:cdb
                chosen.Optimizer.Pipeline.query
            in
            Alcotest.check Alcotest.bool "no fallback" false
              stats.Exec.fell_back;
            check_agree ~db:cdb src compiled interp)
          [
            Datagen.Company.dept_roster_oql;
            Datagen.Company.rich_mentors_oql;
            Datagen.Company.mentor_pool_oql;
            Datagen.Company.city_salaries_oql;
            Datagen.Company.local_staff_oql;
            Datagen.Company.mentor_elite_oql;
            "select [d, sum(select e.salary from e in E where e.dept = d)] \
             from d in D";
          ]);
    case "closed membership subquery is hoisted, not re-run per element"
      (fun () ->
        (* [local_staff] filters |E| employees against a subquery over D
           that never mentions the employee.  The interpreter re-evaluates
           it per employee (>= |E| * |D| tuples); the compiled closures
           must evaluate it once, so the tuple count stays linear. *)
        let r =
          Optimizer.Pipeline.optimize_oql ~extents:[ "E"; "D" ] ~db:cdb
            Datagen.Company.local_staff_oql
        in
        let chosen = r.Optimizer.Pipeline.chosen in
        let compiled, stats =
          Exec.run ~backend:Exec.Compiled
            ~dedup:chosen.Optimizer.Pipeline.dedup ~db:cdb
            chosen.Optimizer.Pipeline.query
        in
        Alcotest.check Alcotest.bool "no fallback" false stats.Exec.fell_back;
        let employees = List.length company.Datagen.Company.employees
        and departments = List.length company.Datagen.Company.departments in
        Alcotest.check Alcotest.bool
          (Fmt.str "tuples %d stays below |E|*|D| = %d" stats.Exec.tuples
             (employees * departments))
          true
          (stats.Exec.tuples < employees * departments);
        check_agree ~db:cdb "hoisted ≡ interpreted" compiled
          (Optimizer.Pipeline.run ~db:cdb r));
    case "the untangled roster compiles to a hash join pipeline" (fun () ->
        let r =
          Optimizer.Pipeline.optimize_oql ~extents:[ "E"; "D" ] ~db:cdb
            Datagen.Company.dept_roster_oql
        in
        let untangled = Option.get r.Optimizer.Pipeline.untangled in
        let rec has_hash_join = function
          | Ir.HashJoin _ -> true
          | Ir.Scan _ | Ir.Leaf _ -> false
          | Ir.Filter (_, s) | Ir.Map (_, s) | Ir.Flatten s
          | Ir.UnnestStage (_, _, s) | Ir.AggStage (_, s) | Ir.SngStage s
          | Ir.Scalar (_, s) | Ir.Shared (_, s) ->
            has_hash_join s
          | Ir.IterEnv (_, _, a, b)
          | Ir.LoopJoin (_, _, a, b)
          | Ir.HashGroup { src = a; groups = b; _ }
          | Ir.Union (a, b)
          | Ir.Inter (a, b)
          | Ir.Diff (a, b)
          | Ir.PairNode (a, b) ->
            has_hash_join a || has_hash_join b
          | Ir.Branch (_, i, a, b) ->
            has_hash_join i || has_hash_join a || has_hash_join b
        in
        Alcotest.check Alcotest.bool "hash join in IR" true
          (has_hash_join (compile_ir untangled)));
  ]

(* --- fallback policy --- *)

let fallback_tests =
  [
    case "plans with holes fall back to the interpreter, counted" (fun () ->
        let q =
          Term.query
            (Term.Compose (Term.proj Paper.age, Term.Fhole "f"))
            p_scan
        in
        (match Exec.compile_opt q with
        | Error reason ->
          Alcotest.check Alcotest.bool "reason names the hole" true
            (contains reason "?f")
        | Ok _ -> Alcotest.fail "expected Unsupported");
        let before = Exec.fallback_count () in
        (* body that *runs* despite the unsupported spine: iterate whose
           predicate carries a hole never fires it on the empty set *)
        let q2 =
          Term.query
            (Term.Iterate (Term.Phole "p", Term.Id))
            (Value.set [])
        in
        let v, stats = Exec.run ~db:tiny_db q2 in
        Alcotest.check Alcotest.bool "fell back" true stats.Exec.fell_back;
        Alcotest.check Alcotest.bool "interp backend ran" true
          (stats.Exec.backend = Exec.Interp Eval.Hashed);
        Alcotest.check value "still correct (the oracle ran)"
          (Eval.eval_query ~db:tiny_db q2) v;
        Alcotest.check Alcotest.bool "fallback counted" true
          (Exec.fallback_count () > before));
    case "backend names round-trip" (fun () ->
        List.iter
          (fun b ->
            match Exec.backend_of_string (Exec.backend_name b) with
            | Ok b' ->
              Alcotest.check Alcotest.bool "round-trip" true (b = b')
            | Error e -> Alcotest.fail e)
          [ Exec.Compiled; Exec.Interp Eval.Hashed; Exec.Interp Eval.Naive ];
        match Exec.backend_of_string "vectorized" with
        | Error msg ->
          Alcotest.check Alcotest.bool "names the input" true
            (contains msg "vectorized")
        | Ok _ -> Alcotest.fail "expected an error");
  ]

(* --- qcheck: random plans and search-frontier plans --- *)

let qcheck_props =
  let open QCheck in
  let random_plan =
    Test.make ~name:"random well-typed plans: compiled ≡ interpreted"
      ~count:120
      (QCheck.make
         ~print:(fun i ->
           Aqua.Pretty.to_string (Datagen.Queries.query ~seed:i ~depth:3))
         QCheck.Gen.(int_bound 1_000_000))
      (fun i ->
        let e = Datagen.Queries.query ~seed:i ~depth:3 in
        let q = Translate.Compile.query e in
        let ok_eager =
          let compiled, _ = Exec.run ~dedup:Eval.Eager ~db:tiny_db q in
          List.for_all
            (fun backend ->
              Exec.agree ~db:tiny_db compiled
                (Eval.eval_query ~db:tiny_db ~backend ~dedup:Eval.Eager q))
            [ Eval.Naive; Eval.Hashed ]
        in
        (* a Deferred run falls back, says why, is counted, and returns
           the interpreter's result *)
        let ok_deferred =
          let before = Exec.fallback_count () in
          let compiled, st = Exec.run ~dedup:Eval.Deferred ~db:tiny_db q in
          st.Exec.fell_back
          && Option.fold ~none:false
               ~some:(fun r -> contains r "deferred")
               st.Exec.fallback_reason
          && Exec.fallback_count () > before
          && Exec.agree ~db:tiny_db compiled
               (Eval.eval_query ~db:tiny_db ~backend:Eval.Hashed
                  ~dedup:Eval.Deferred q)
        in
        ok_eager && ok_deferred)
  in
  let frontier_plan =
    (* walk a random path through the rewrite search space of a paper
       workload and execute the frontier plan reached: exactly the plans
       the optimizer would hand to the execution backend *)
    let roots =
      [| Paper.t1k_source; Paper.t2k_source; Paper.k4; Paper.kg1; Paper.kg2 |]
    in
    Test.make ~name:"search-frontier plans: compiled ≡ interpreted" ~count:80
      (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
      (fun seed ->
        let r = Datagen.Store.rng seed in
        let q = ref roots.(Datagen.Store.int r (Array.length roots)) in
        let steps = 1 + Datagen.Store.int r 4 in
        for _ = 1 to steps do
          match Optimizer.Search.successors Rules.Catalog.all !q with
          | [] -> ()
          | succs -> q := snd (List.nth succs (Datagen.Store.int r (List.length succs)))
        done;
        let q = !q in
        let compiled, _ = Exec.run ~dedup:Eval.Eager ~db:tiny_db q in
        List.for_all
          (fun backend ->
            Exec.agree ~db:tiny_db compiled
              (Eval.eval_query ~db:tiny_db ~backend ~dedup:Eval.Eager q))
          [ Eval.Naive; Eval.Hashed ])
  in
  [ random_plan; frontier_plan ]

(* [Exec.agree] is the oracle equivalence every differential above
   relies on. *)
let agree_tests =
  [
    case "agree rejects a stale copy that Value.equal accepts" (fun () ->
        let person name =
          Value.obj ~cls:"Person" ~oid:1 [ ("name", Value.str name) ]
        in
        let row = Value.set [ Value.pair (person "p1") (Value.int 3) ]
        and stale = Value.set [ Value.pair (person "stale") (Value.int 3) ] in
        Alcotest.(check bool) "Value.equal sees one identity" true
          (Value.equal row stale);
        Alcotest.(check bool) "agree compares the fields" false
          (Exec.agree ~db:tiny_db row stale);
        Alcotest.(check bool) "agree accepts the same copy" true
          (Exec.agree ~db:tiny_db row
             (Value.set [ Value.pair (person "p1") (Value.int 3) ])))
  ]

let tests =
  stage_tests @ nested_tests @ paper_tests @ membership_tests @ company_tests
  @ fallback_tests
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_props
  @ agree_tests
