(* The columnar execution layer (lib/core/colstore + the column kernels
   in lib/exec) against its oracles.

   Pinned equivalences:
   - colstore materialization: typed columns mirror the boxed rows
     field-for-field, rows stay in canonical set order, ref columns
     dictionary-encode into their target extent (-1 only for values
     outside the extent);
   - columnar compiled ≡ row compiled ≡ interpreter on the whole company
     and garage workloads, under the dedup the optimizer chose;
   - morsel determinism: the columnar result is BIT-identical (not just
     agree-modulo-ordering) at jobs 1, 2 and 4 — morsel boundaries and
     merge order never depend on the pool size;
   - below one morsel, asking for jobs > 1 spawns no pool. *)

open Kola
open Util
module Exec = Kola_exec.Exec
module C = Colstore
module Pool = Kola_parallel.Pool

let check_agree ~db msg a b =
  Alcotest.check Alcotest.bool msg true (Exec.agree ~db a b)

(* --- fixtures: the company store at a size with multi-element groups --- *)

let company = Datagen.Company.scaled ~seed:77 500
let company_db = Datagen.Company.db company
let company_coldb = Datagen.Company.columnar company

(* the 10^3 store of `make bench-exec`'s smallest size, whose plans are
   also chosen on it *)
let company_1k = Datagen.Company.scaled ~seed:77 1_000
let company_1k_db = Datagen.Company.db company_1k
let company_1k_coldb = Datagen.Company.columnar company_1k

let store_coldb = Datagen.Store.columnar gen_store

let company_queries =
  [
    ("dept_roster", Datagen.Company.dept_roster_oql);
    ("mentor_pool", Datagen.Company.mentor_pool_oql);
    ("city_salaries", Datagen.Company.city_salaries_oql);
    ("payroll", Datagen.Company.payroll_oql);
    ("rich_mentors", Datagen.Company.rich_mentors_oql);
    ("local_staff", Datagen.Company.local_staff_oql);
    ("mentor_elite", Datagen.Company.mentor_elite_oql);
  ]

(* Whether a plan observes intermediate multiplicities: deferred dedup is
   only sound for aggregate-free plans. *)
let rec contains_agg (f : Term.func) =
  match f with
  | Term.Agg _ -> true
  | Term.Compose (a, b) | Term.Pairf (a, b) | Term.Times (a, b)
  | Term.Nest (a, b) | Term.Unnest (a, b) ->
    contains_agg a || contains_agg b
  | Term.Cf (a, _) -> contains_agg a
  | Term.Con (p, a, b) ->
    pred_contains_agg p || contains_agg a || contains_agg b
  | Term.Iterate (p, a) | Term.Iter (p, a) | Term.Join (p, a) ->
    pred_contains_agg p || contains_agg a
  | _ -> false

and pred_contains_agg (p : Term.pred) =
  match p with
  | Term.Oplus (q, f) -> pred_contains_agg q || contains_agg f
  | Term.Andp (q, r) | Term.Orp (q, r) ->
    pred_contains_agg q || pred_contains_agg r
  | Term.Inv q | Term.Conv q | Term.Cp (q, _) -> pred_contains_agg q
  | _ -> false

let plan_of ~db src =
  let report =
    Optimizer.Pipeline.optimize_oql ~extents:[ "E"; "D" ] ~db src
  in
  let chosen = report.Optimizer.Pipeline.chosen in
  (chosen.Optimizer.Pipeline.query, chosen.Optimizer.Pipeline.dedup)

(* --- colstore materialization --- *)

let field ~context row name =
  match row with
  | Value.Obj { fields; _ } -> List.assoc name fields
  | _ -> Alcotest.fail (context ^ ": row is not an object")

let colstore_tests =
  [
    case "columns mirror the boxed rows field-for-field" (fun () ->
        List.iter
          (fun ((name : string), (rel : C.relation)) ->
            Alcotest.check Alcotest.string "relation name" name rel.C.name;
            List.iter
              (fun (attr, col) ->
                Alcotest.check Alcotest.int
                  (name ^ "." ^ attr ^ ": column length")
                  (Array.length rel.C.rows)
                  (C.Column.length col);
                Array.iteri
                  (fun i row ->
                    let boxed = field ~context:name row attr in
                    match col with
                    | C.Column.Ints a ->
                      Alcotest.check value "int cell" boxed (Value.Int a.(i))
                    | C.Column.Strs a ->
                      Alcotest.check value "str cell" boxed (Value.Str a.(i))
                    | C.Column.Bools a ->
                      Alcotest.check value "bool cell" boxed
                        (Value.Bool a.(i))
                    | C.Column.Boxed a ->
                      Alcotest.check value "boxed cell" boxed a.(i)
                    | C.Column.Refs { target; idx; _ } -> (
                      match C.relation company_coldb target with
                      | None -> Alcotest.fail "ref target missing"
                      | Some trel ->
                        if idx.(i) >= 0 then
                          (* dictionary decode = the embedded value,
                             resolved: same oid and class *)
                          match (boxed, trel.C.rows.(idx.(i))) with
                          | ( Value.Obj { cls = c1; oid = o1; _ },
                              Value.Obj { cls = c2; oid = o2; _ } ) ->
                            Alcotest.check Alcotest.string "ref class" c1 c2;
                            Alcotest.check Alcotest.int "ref oid" o1 o2
                          | _ -> Alcotest.fail "ref cell is not an object"))
                  rel.C.rows)
              rel.C.cols)
          (C.relations company_coldb));
    case "rows are in canonical set order" (fun () ->
        List.iter
          (fun ((name : string), (rel : C.relation)) ->
            Array.iteri
              (fun i row ->
                if i > 0 then
                  Alcotest.check Alcotest.bool
                    (name ^ ": strictly increasing")
                    true
                    (Value.compare rel.C.rows.(i - 1) row < 0))
              rel.C.rows)
          (C.relations company_coldb));
    case "company schema: salary unboxed, dept dictionary-encoded" (fun () ->
        match C.relation company_coldb "E" with
        | None -> Alcotest.fail "extent E not materialized"
        | Some e -> (
          (match C.column e "salary" with
          | Some (C.Column.Ints _) -> ()
          | Some c ->
            Alcotest.failf "salary is %s, expected ints" (C.Column.kind_name c)
          | None -> Alcotest.fail "salary column missing");
          match C.column e "dept" with
          | Some (C.Column.Refs { target; total; exact; idx }) ->
            Alcotest.check Alcotest.string "dept targets D" "D" target;
            Alcotest.check Alcotest.bool "dept refs total" true total;
            Alcotest.check Alcotest.bool "dept refs exact" true exact;
            Array.iter
              (fun i ->
                Alcotest.check Alcotest.bool "in range" true
                  (i >= 0
                  &&
                  match C.relation company_coldb "D" with
                  | Some d -> i < Array.length d.C.rows
                  | None -> false))
              idx
          | Some c ->
            Alcotest.failf "dept is %s, expected refs" (C.Column.kind_name c)
          | None -> Alcotest.fail "dept column missing"));
    case "out-of-extent refs encode as -1 and drop totality" (fun () ->
        (* an extent of objects whose ref field points at an object that
           is NOT in the target extent: the encoder must keep the column
           sound by marking the miss, not by inventing an index *)
        let dept i =
          Value.obj ~cls:"Dept" ~oid:i [ ("dn", Value.str (Fmt.str "d%d" i)) ]
        in
        let emp i d =
          Value.obj ~cls:"Emp" ~oid:i [ ("dept", d); ("s", Value.int (100 * i)) ]
        in
        let db =
          [
            ("D", Value.set [ dept 0 ]);
            ("E", Value.set [ emp 0 (dept 0); emp 1 (dept 7) ]);
          ]
        in
        let coldb = C.of_db db in
        match C.relation coldb "E" with
        | None -> Alcotest.fail "E not materialized"
        | Some e -> (
          match C.column e "dept" with
          | Some (C.Column.Refs { total; idx; _ }) ->
            Alcotest.check Alcotest.bool "not total" false total;
            Alcotest.check Alcotest.bool "exactly one miss" true
              (Array.to_list idx |> List.filter (fun i -> i = -1)
             |> List.length = 1)
          | Some c ->
            Alcotest.failf "dept is %s, expected refs" (C.Column.kind_name c)
          | None -> Alcotest.fail "dept column missing"));
    case "source returns the boxed database" (fun () ->
        Alcotest.check Alcotest.bool "physically the same db" true
          (C.source company_coldb == company_db));
    case "stats count relations and typed columns" (fun () ->
        let s = C.stats company_coldb in
        Alcotest.check Alcotest.int "relations" 2 s.C.relations;
        Alcotest.check Alcotest.bool "typed columns dominate" true
          (s.C.typed_cols >= 5);
        ignore (Fmt.str "%a" C.pp_stats s));
  ]

(* --- differential: columnar ≡ row ≡ interpreter --- *)

let columnar_differential ?(jobs = [ 1 ]) ~db ~coldb name q dedup =
  let vi = Eval.eval_query ~db ~backend:Eval.Hashed ~dedup q in
  let vr, sr = Exec.run ~backend:Exec.Compiled ~dedup ~db q in
  Alcotest.check Alcotest.bool (name ^ ": row no fallback") false
    sr.Exec.fell_back;
  check_agree ~db (name ^ ": row ≡ interp") vr vi;
  List.iter
    (fun j ->
      let vc, sc =
        Exec.run ~backend:Exec.Compiled ~dedup ~layout:Exec.Columnar ~jobs:j
          ~coldb ~db q
      in
      let name = Fmt.str "%s (columnar, jobs %d)" name j in
      Alcotest.check Alcotest.bool (name ^ ": no fallback") false
        sc.Exec.fell_back;
      check_agree ~db (name ^ ": ≡ interp") vc vi;
      check_agree ~db (name ^ ": ≡ row") vc vr)
    jobs

let differential_tests =
  [
    case "company workload: columnar ≡ row ≡ interp, chosen dedup" (fun () ->
        List.iter
          (fun (db, coldb) ->
            List.iter
              (fun (name, src) ->
                let q, dedup = plan_of ~db src in
                columnar_differential ~jobs:[ 1; 2 ] ~db ~coldb name q dedup)
              company_queries)
          [ (company_db, company_coldb); (company_1k_db, company_1k_coldb) ]);
    case "company workload under both dedups" (fun () ->
        List.iter
          (fun (name, src) ->
            let q, _ = plan_of ~db:company_db src in
            List.iter
              (fun dedup ->
                (* aggregates only run under eager dedup (the optimizer
                   never offers deferred for them) *)
                if
                  not
                    (dedup = Eval.Deferred
                    && contains_agg q.Term.body)
                then
                  columnar_differential ~db:company_db ~coldb:company_coldb
                    name q dedup)
              [ Eval.Eager; Eval.Deferred ])
          company_queries);
    case "garage store: columnar view executes the paper queries" (fun () ->
        List.iter
          (fun (name, q) ->
            columnar_differential ~db:gen_db ~coldb:store_coldb name q
              Eval.Eager)
          [ ("KG1", Paper.kg1); ("KG2", Paper.kg2); ("K4", Paper.k4) ]);
    case "columnar plan rejects a different database" (fun () ->
        let q, dedup = plan_of ~db:company_db Datagen.Company.payroll_oql in
        let c = Exec.compile ~coldb:company_coldb q in
        let other = Datagen.Company.db (Datagen.Company.scaled ~seed:5 100) in
        (match Exec.execute ~dedup ~db:other c with
        | exception Eval.Error msg ->
          Alcotest.check Alcotest.bool "names the mismatch" true
            (contains msg "different database")
        | _ -> Alcotest.fail "expected Eval.Error on a foreign database");
        (* and the matching database still runs *)
        ignore (Exec.execute ~dedup ~db:company_db c));
    case "degrade reasons are reported, not silent" (fun () ->
        let q, dedup = plan_of ~db:company_db Datagen.Company.rich_mentors_oql in
        let _, st =
          Exec.run ~backend:Exec.Compiled ~dedup ~layout:Exec.Columnar
            ~coldb:company_coldb ~db:company_db q
        in
        Alcotest.check Alcotest.bool "rich_mentors partially degrades" true
          (st.Exec.col_degrades <> []);
        Alcotest.check Alcotest.bool "but still lowers a kernel" true
          (st.Exec.col_kernels > 0));
    case
      "bare equi-joins of two extents run col_join on int, string and ref keys"
      (fun () ->
        let on a b = Term.Oplus (Term.Eq, Term.Times (Term.Prim a, b)) in
        let names a b =
          Term.Pairf
            ( Term.Compose (Term.Prim a, Term.Pi1),
              Term.Compose (Term.Prim b, Term.Pi2) )
        in
        List.iter
          (fun (name, p, emit, probe, build) ->
            let q =
              Term.query (Term.Join (p, emit))
                (Value.Pair (Value.Named probe, Value.Named build))
            in
            let vi =
              Eval.eval_query ~db:company_db ~backend:Eval.Hashed q
            in
            List.iter
              (fun jobs ->
                let vc, st =
                  Exec.run ~backend:Exec.Compiled ~layout:Exec.Columnar ~jobs
                    ~coldb:company_coldb ~db:company_db q
                in
                let what = Fmt.str "%s keys, jobs %d" name jobs in
                check_agree ~db:company_db
                  (what ^ ": columnar ≡ interp")
                  vc vi;
                Alcotest.(check int) (what ^ ": one column kernel") 1
                  st.Exec.col_kernels;
                Alcotest.(check (list string)) (what ^ ": no degrade") []
                  st.Exec.col_degrades)
              [ 1; 2 ])
          [
            ( "int",
              on "salary" (Term.Prim "salary"),
              names "ename" "ename",
              "E",
              "E" );
            ( "string",
              on "dcity" (Term.Prim "dcity"),
              names "dname" "dname",
              "D",
              "D" );
            ("ref", on "dept" Term.Id, names "ename" "dname", "E", "D");
          ]);
    case "count over a filtered extent runs the selected-row count kernel"
      (fun () ->
        let src = "count(select e from e in E where e.salary > 100000)" in
        let q, dedup = plan_of ~db:company_db src in
        let vi = Eval.eval_query ~db:company_db ~backend:Eval.Hashed ~dedup q in
        List.iter
          (fun jobs ->
            let vc, st =
              Exec.run ~backend:Exec.Compiled ~dedup ~layout:Exec.Columnar ~jobs
                ~coldb:company_coldb ~db:company_db q
            in
            check_agree ~db:company_db
              (Fmt.str "jobs %d: columnar ≡ interp" jobs)
              vc vi;
            (* both rebased iter scans, then the count itself: a count
               left on the row aggregate kernel would make this 2 *)
            Alcotest.(check int) (Fmt.str "jobs %d: three column kernels" jobs)
              3 st.Exec.col_kernels)
          [ 1; 2 ]);
    case "layout names round-trip" (fun () ->
        List.iter
          (fun l ->
            match Exec.layout_of_string (Exec.layout_name l) with
            | Ok l' -> Alcotest.check Alcotest.bool "round-trip" true (l = l')
            | Error e -> Alcotest.fail e)
          [ Exec.Row; Exec.Columnar ];
        match Exec.layout_of_string "paxish" with
        | Error msg ->
          Alcotest.check Alcotest.bool "names the input" true
            (contains msg "paxish")
        | Ok _ -> Alcotest.fail "expected an error");
  ]

(* --- morsel determinism: bit-identical across jobs --- *)

let bitid_tests =
  [
    case "results are bit-identical at jobs 1, 2 and 4" (fun () ->
        List.iter
          (fun (name, src) ->
            let q, dedup = plan_of ~db:company_db src in
            let run jobs =
              fst
                (Exec.run ~backend:Exec.Compiled ~dedup ~layout:Exec.Columnar
                   ~jobs ~coldb:company_coldb ~db:company_db q)
            in
            let v1 = run 1 and v2 = run 2 and v4 = run 4 in
            Alcotest.check Alcotest.bool (name ^ ": jobs 1 = jobs 2") true
              (Value.compare v1 v2 = 0);
            Alcotest.check Alcotest.bool (name ^ ": jobs 1 = jobs 4") true
              (Value.compare v1 v4 = 0))
          company_queries);
    case "below one morsel, jobs 2 dispatches exactly like jobs 1" (fun () ->
        (* no relation spans more than one morsel, so no kernel can fan
           out: [Exec.run] must not spawn a transient pool at all *)
        List.iter
          (fun (_, (r : C.relation)) ->
            Alcotest.check Alcotest.bool
              (r.C.name ^ " fits in one morsel")
              true
              (Array.length r.C.rows <= 65_536))
          (C.relations company_1k_coldb);
        List.iter
          (fun (name, src) ->
            let q, dedup = plan_of ~db:company_1k_db src in
            let stats jobs =
              snd
                (Exec.run ~backend:Exec.Compiled ~dedup ~layout:Exec.Columnar
                   ~jobs ~coldb:company_1k_coldb ~db:company_1k_db q)
            in
            let s1 = stats 1 and s2 = stats 2 in
            Alcotest.(check int) (name ^ ": jobs 2 runs without a pool") 1
              s2.Exec.jobs;
            Alcotest.(check int) (name ^ ": same morsels as jobs 1")
              s1.Exec.morsels s2.Exec.morsels)
          company_queries);
    case "a shared pool gives the same bits as transient pools" (fun () ->
        Pool.with_pool ~jobs:3 (fun pool ->
            List.iter
              (fun (name, src) ->
                let q, dedup = plan_of ~db:company_db src in
                let v1 =
                  fst
                    (Exec.run ~backend:Exec.Compiled ~dedup
                       ~layout:Exec.Columnar ~coldb:company_coldb
                       ~db:company_db q)
                in
                let vp =
                  fst
                    (Exec.run ~backend:Exec.Compiled ~dedup
                       ~layout:Exec.Columnar ~pool ~coldb:company_coldb
                       ~db:company_db q)
                in
                Alcotest.check Alcotest.bool (name ^ ": pool = sequential")
                  true
                  (Value.compare v1 vp = 0))
              company_queries));
  ]

(* --- qcheck: random plans, columnar against row and the interpreter --- *)

let qcheck_props =
  let open QCheck in
  let tiny_coldb = Colstore.of_db tiny_db in
  let random_plan =
    Test.make
      ~name:"random well-typed plans: columnar ≡ row ≡ interp (jobs 1/2)"
      ~count:120
      (QCheck.make
         ~print:(fun i ->
           Aqua.Pretty.to_string (Datagen.Queries.query ~seed:i ~depth:3))
         QCheck.Gen.(int_bound 1_000_000))
      (fun i ->
        let e = Datagen.Queries.query ~seed:i ~depth:3 in
        let q = Translate.Compile.query e in
        List.for_all
          (fun dedup ->
            let interp =
              Eval.eval_query ~db:tiny_db ~backend:Eval.Hashed ~dedup q
            in
            let row, _ = Exec.run ~backend:Exec.Compiled ~dedup ~db:tiny_db q in
            let col1, _ =
              Exec.run ~backend:Exec.Compiled ~dedup ~layout:Exec.Columnar
                ~coldb:tiny_coldb ~db:tiny_db q
            in
            let col2, _ =
              Exec.run ~backend:Exec.Compiled ~dedup ~layout:Exec.Columnar
                ~jobs:2 ~coldb:tiny_coldb ~db:tiny_db q
            in
            Exec.agree ~db:tiny_db col1 interp
            && Exec.agree ~db:tiny_db col1 row
            && Value.compare col1 col2 = 0)
          [ Eval.Eager; Eval.Deferred ])
  in
  [ random_plan ]

let tests =
  colstore_tests @ differential_tests @ bitid_tests
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_props
