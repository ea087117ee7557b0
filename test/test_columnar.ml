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
   - below one morsel, asking for jobs > 1 spawns no pool;
   - set-valued attributes: the membership group-join and the nested
     select emit exactly the objects the row path emits, field by field,
     including stale embedded copies and elements outside every extent. *)

open Kola
open Util
module Exec = Kola_exec.Exec
module C = Colstore
module Pool = Kola_parallel.Pool

(* [Exec.agree] compares field by field, so it sees an emitted object
   that is the wrong copy: a column kernel that read the extent row where
   the row path reads an embedded copy. *)
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

let plan_of ?(extents = [ "E"; "D" ]) ~db src =
  let report = Optimizer.Pipeline.optimize_oql ~extents ~db src in
  let chosen = report.Optimizer.Pipeline.chosen in
  (chosen.Optimizer.Pipeline.query, chosen.Optimizer.Pipeline.dedup)

(* --- colstore materialization --- *)

let field ~context row name =
  match row with
  | Value.Obj { fields; _ } -> List.assoc name fields
  | _ -> Alcotest.fail (context ^ ": row is not an object")

(* A dictionary code decodes to the embedded value: same class and oid. *)
let check_decodes ~coldb what target code boxed =
  match C.relation coldb target with
  | None -> Alcotest.fail (what ^ ": target missing")
  | Some trel -> (
    match (boxed, trel.C.rows.(code)) with
    | Value.Obj { cls = c1; oid = o1; _ }, Value.Obj { cls = c2; oid = o2; _ }
      ->
      Alcotest.check Alcotest.string (what ^ ": class") c1 c2;
      Alcotest.check Alcotest.int (what ^ ": oid") o1 o2
    | _ -> Alcotest.fail (what ^ ": cell is not an object"))

(* One column mirrors the boxed rows' [attr] field: typed cells equal the
   field, ref codes decode to the embedded object, and a set column holds
   the boxed set itself with one code per element, in the set's order
   ([-1] exactly for elements outside the target extent). *)
let check_column ~coldb what (rows : Value.t array) attr col =
  Alcotest.check Alcotest.int (what ^ ": column length") (Array.length rows)
    (C.Column.length col);
  Array.iteri
    (fun i row ->
      let boxed = field ~context:what row attr in
      match col with
      | C.Column.Ints a ->
        Alcotest.check value "int cell" boxed (Value.Int a.(i))
      | C.Column.Strs a ->
        Alcotest.check value "str cell" boxed (Value.Str a.(i))
      | C.Column.Bools a ->
        Alcotest.check value "bool cell" boxed (Value.Bool a.(i))
      | C.Column.Boxed a -> Alcotest.check value "boxed cell" boxed a.(i)
      | C.Column.Refs { target; idx; _ } ->
        if idx.(i) >= 0 then
          check_decodes ~coldb (what ^ " ref") target idx.(i) boxed
      | C.Column.Sets { target; off; idx; total; sets } -> (
        Alcotest.check Alcotest.bool (what ^ ": the boxed set") true
          (sets.(i) == boxed);
        match boxed with
        | Value.Set elems ->
          Alcotest.check Alcotest.int (what ^ ": one code per element")
            (List.length elems)
            (off.(i + 1) - off.(i));
          List.iteri
            (fun k e ->
              let code = idx.(off.(i) + k) in
              if code >= 0 then
                check_decodes ~coldb (what ^ " element") target code e
              else begin
                Alcotest.check Alcotest.bool (what ^ ": -1 clears total")
                  false total;
                match (e, C.relation coldb target) with
                | Value.Obj o, Some trel ->
                  Alcotest.check Alcotest.bool
                    (what ^ ": -1 only outside the extent") false
                    (Array.exists
                       (function
                         | Value.Obj r -> r.Value.oid = o.Value.oid
                         | _ -> false)
                       trel.C.rows)
                | _ -> Alcotest.fail (what ^ ": element is not an object")
              end)
            elems
        | _ -> Alcotest.fail (what ^ ": cell is not a set")))
    rows

(* The field names any object in [rows] carries, in first-seen order. *)
let field_names rows =
  Array.fold_left
    (fun acc row ->
      match row with
      | Value.Obj { fields; _ } ->
        List.fold_left
          (fun acc (k, _) -> if List.mem k acc then acc else acc @ [ k ])
          acc fields
      | _ -> acc)
    [] rows

(* Every column of every relation mirrors the boxed rows, and so does the
   element relation of every [Sets] column: its rows are the elements of
   the boxed sets themselves, in CSR order, with their codes and owners,
   and each of its columns — every one is forced here — mirrors the
   elements' own fields.  A field some element lacks has no column. *)
let check_mirrors coldb =
  List.iter
    (fun ((name : string), (rel : C.relation)) ->
      Alcotest.check Alcotest.string "relation name" name rel.C.name;
      List.iter
        (fun (attr, col) ->
          let what = name ^ "." ^ attr in
          check_column ~coldb what rel.C.rows attr col;
          match (col, C.elements coldb rel attr) with
          | C.Column.Sets { off; idx; sets; _ }, Some erel -> (
            match erel.C.of_set with
            | None -> Alcotest.fail (what ^ ": element relation without codes")
            | Some o ->
              let n = Array.length erel.C.rows in
              Alcotest.check Alcotest.int (what ^ ": one row per element")
                off.(Array.length sets) n;
              Alcotest.check Alcotest.bool (what ^ ": the Sets codes") true
                (o.C.codes == idx);
              Array.iteri
                (fun i s ->
                  match s with
                  | Value.Set xs ->
                    List.iteri
                      (fun k x ->
                        let e = off.(i) + k in
                        Alcotest.check Alcotest.bool
                          (what ^ ": the embedded element itself") true
                          (erel.C.rows.(e) == x);
                        Alcotest.check Alcotest.int (what ^ ": owner") i
                          o.C.owner.(e))
                      xs
                  | _ -> Alcotest.fail (what ^ ": cell is not a set"))
                sets;
              List.iter
                (fun f ->
                  let fwhat = what ^ " element ." ^ f in
                  let everywhere =
                    Array.for_all
                      (fun r -> Option.is_some (Value.field f r))
                      erel.C.rows
                  in
                  match C.column erel f with
                  | Some ecol ->
                    Alcotest.check Alcotest.bool (fwhat ^ ": in every element")
                      true everywhere;
                    check_column ~coldb fwhat erel.C.rows f ecol
                  | None ->
                    Alcotest.check Alcotest.bool
                      (fwhat ^ ": no column only where some element lacks it")
                      false everywhere)
                (field_names erel.C.rows))
          | C.Column.Sets _, None ->
            Alcotest.fail (what ^ ": Sets column without an element relation")
          | _, Some _ -> Alcotest.fail (what ^ ": element relation of a non-set")
          | _, None -> ())
        rel.C.cols)
    (C.relations coldb)

let colstore_tests =
  [
    case "columns mirror the boxed rows field-for-field" (fun () ->
        check_mirrors company_coldb;
        check_mirrors store_coldb);
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

(* Columnar results at every [jobs] are the same bits as at the first. *)
let check_bits name = function
  | [] -> ()
  | (j1, v1) :: rest ->
    List.iter
      (fun (j, v) ->
        Alcotest.check Alcotest.bool
          (Fmt.str "%s: jobs %d = jobs %d, bit for bit" name j1 j)
          true
          (Value.compare v1 v = 0))
      rest

(* Under [Deferred] the compiled backend falls back to the interpreter, on
   either layout. *)
let deferred_falls_back ~db ~coldb name q =
  check_deferred_fallback ~db name q;
  check_deferred_fallback ~layout:Exec.Columnar ~coldb ~db (name ^ " (columnar)") q

let columnar_differential ?(jobs = [ 1; 2; 4 ]) ~db ~coldb name q dedup =
  if dedup = Eval.Deferred then deferred_falls_back ~db ~coldb name q
  else
  let vi = Eval.eval_query ~db ~backend:Eval.Hashed ~dedup q in
  let vr, sr = Exec.run ~backend:Exec.Compiled ~dedup ~db q in
  Alcotest.check Alcotest.bool (name ^ ": row no fallback") false
    sr.Exec.fell_back;
  check_agree ~db (name ^ ": row ≡ interp") vr vi;
  check_bits name
    (List.map
       (fun j ->
         let vc, sc =
           Exec.run ~backend:Exec.Compiled ~dedup ~layout:Exec.Columnar ~jobs:j
             ~coldb ~db q
         in
         let name = Fmt.str "%s (columnar, jobs %d)" name j in
         Alcotest.check Alcotest.bool (name ^ ": no fallback") false
           sc.Exec.fell_back;
         check_agree ~db (name ^ ": ≡ interp") vc vi;
         check_agree ~db (name ^ ": ≡ row") vc vr;
         (j, vc))
       jobs)

let differential_tests =
  [
    case "company workload: columnar ≡ row ≡ interp, chosen dedup" (fun () ->
        List.iter
          (fun (db, coldb) ->
            List.iter
              (fun (name, src) ->
                let q, dedup = plan_of ~db src in
                columnar_differential ~db ~coldb name q dedup)
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
        let q, _ = plan_of ~db:company_db Datagen.Company.payroll_oql in
        let c = Exec.compile ~coldb:company_coldb q in
        let other = Datagen.Company.db (Datagen.Company.scaled ~seed:5 100) in
        (match Exec.execute ~db:other c with
        | exception Eval.Error msg ->
          Alcotest.check Alcotest.bool "names the mismatch" true
            (contains msg "different database")
        | _ -> Alcotest.fail "expected Eval.Error on a foreign database");
        (* and the matching database still runs *)
        ignore (Exec.execute ~db:company_db c));
    case "degrade reasons are reported, not silent" (fun () ->
        let q, dedup = plan_of ~db:company_db Datagen.Company.local_staff_oql in
        let _, st =
          Exec.run ~backend:Exec.Compiled ~dedup ~layout:Exec.Columnar
            ~coldb:company_coldb ~db:company_db q
        in
        Alcotest.(check (list string))
          "local_staff's membership filter degrades"
          [ "filter over E not columnar" ] st.Exec.col_degrades;
        Alcotest.check Alcotest.bool "and runs compiled" false st.Exec.fell_back);
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
            check_bits (name ^ " keys")
              (List.map
                 (fun jobs ->
                   let vc, st =
                     Exec.run ~backend:Exec.Compiled ~layout:Exec.Columnar
                       ~jobs ~coldb:company_coldb ~db:company_db q
                   in
                   let what = Fmt.str "%s keys, jobs %d" name jobs in
                   check_agree ~db:company_db
                     (what ^ ": columnar ≡ interp")
                     vc vi;
                   Alcotest.(check int) (what ^ ": one column kernel") 1
                     st.Exec.col_kernels;
                   Alcotest.(check (list string)) (what ^ ": no degrade") []
                     st.Exec.col_degrades;
                   (jobs, vc))
                 [ 1; 2; 4 ]))
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
        check_bits "count"
          (List.map
             (fun jobs ->
               let vc, st =
                 Exec.run ~backend:Exec.Compiled ~dedup ~layout:Exec.Columnar
                   ~jobs ~coldb:company_coldb ~db:company_db q
               in
               check_agree ~db:company_db
                 (Fmt.str "jobs %d: columnar ≡ interp" jobs)
                 vc vi;
               (* both rebased iter scans, then the count itself: a count
                  left on the row aggregate kernel would make this 2 *)
               Alcotest.(check int)
                 (Fmt.str "jobs %d: three column kernels" jobs)
                 3 st.Exec.col_kernels;
               (jobs, vc))
             [ 1; 2; 4 ]));
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

(* --- set-valued attributes: Sets columns and the kernels over them --- *)

let paper_1k = Datagen.Store.scaled ~seed:77 1_000
let paper_1k_db = Datagen.Store.db paper_1k
let paper_1k_coldb = Datagen.Store.columnar paper_1k

let garage_oql =
  "select [v, flatten(select p.grgs from p in P where v in p.cars)] from v in V"

let a4_oql =
  "select [p, (select c from c in p.child where p.age > 25)] from p in P"

(* The four plans that read a set-valued attribute, chosen as the ledger
   chooses them: [garage] untangles to the membership group-join, [a4]
   and [rich_mentors] map a nested select, [mentor_elite] iterates one. *)
let set_plans =
  lazy
    [
      ("garage", plan_of ~extents:[ "P"; "V"; "A" ] ~db:paper_1k_db garage_oql);
      ("a4", plan_of ~extents:[ "P"; "V"; "A" ] ~db:paper_1k_db a4_oql);
      ( "rich_mentors",
        plan_of ~db:company_db Datagen.Company.rich_mentors_oql );
      ( "mentor_elite",
        plan_of ~db:company_db Datagen.Company.mentor_elite_oql );
    ]

let is_paper name = name = "garage" || name = "a4"

(* A nested select comparing each element with its parent row. *)
let self_mentor_oql =
  "select [e, (select m from m in e.mentors where m = e)] from e in E"

(* More persons than one morsel, so jobs > 1 fans kernels out. *)
let big_paper = lazy (Datagen.Store.scaled ~seed:77 70_000)

(* columnar at jobs 1, 2 and 4 ≡ row ≡ interp, compared field by field,
   the same bits at every jobs, with every columnar input kept on a
   column kernel unless [degrades] names the reasons expected *)
let deep_differential ?(degrades = []) ?kernels ~db ~coldb name q dedup =
  if dedup = Eval.Deferred then deferred_falls_back ~db ~coldb name q
  else
  let vi = Eval.eval_query ~db ~backend:Eval.Hashed ~dedup q in
  let vr, sr = Exec.run ~backend:Exec.Compiled ~dedup ~db q in
  Alcotest.check Alcotest.bool (name ^ ": row no fallback") false
    sr.Exec.fell_back;
  check_agree ~db (name ^ ": row ≡ interp") vr vi;
  check_bits name
    (List.map
       (fun jobs ->
         let vc, sc =
           Exec.run ~backend:Exec.Compiled ~dedup ~layout:Exec.Columnar ~jobs
             ~coldb ~db q
         in
         let name = Fmt.str "%s (columnar, jobs %d)" name jobs in
         Alcotest.(check (list string)) (name ^ ": degrades") degrades
           sc.Exec.col_degrades;
         Option.iter
           (fun k ->
             Alcotest.(check int) (name ^ ": column kernels") k
               sc.Exec.col_kernels)
           kernels;
         check_agree ~db (name ^ ": ≡ interp") vc vi;
         check_agree ~db (name ^ ": ≡ row") vc vr;
         (jobs, vc))
       [ 1; 2; 4 ])

let sets_column coldb rel attr =
  match Option.bind (C.relation coldb rel) (fun r -> C.column r attr) with
  | Some (C.Column.Sets { target; total; _ }) -> (target, total)
  | Some c -> Alcotest.failf "%s.%s is %s, expected sets" rel attr (C.Column.kind_name c)
  | None -> Alcotest.failf "%s.%s: no column" rel attr

let set_tests =
  [
    case "set-of-object attributes are Sets columns into their extents"
      (fun () ->
        List.iter
          (fun (coldb, rel, attr, target) ->
            let t, total = sets_column coldb rel attr in
            Alcotest.check Alcotest.string (rel ^ "." ^ attr ^ " target") target t;
            Alcotest.check Alcotest.bool (rel ^ "." ^ attr ^ " total") true total)
          [
            (store_coldb, "P", "cars", "V");
            (store_coldb, "P", "grgs", "A");
            (store_coldb, "P", "child", "P");
            (company_coldb, "E", "mentors", "E");
          ]);
    case "out-of-extent elements encode as -1 and clear total; empty sets"
      (fun () ->
        let pdb = stale_paper_db () and cdb = stale_company_db () in
        let pcol = C.of_db pdb and ccol = C.of_db cdb in
        (* [check_mirrors] checks every code, -1s included *)
        check_mirrors pcol;
        check_mirrors ccol;
        Alcotest.(check bool) "P.cars: ghost car clears total" false
          (snd (sets_column pcol "P" "cars"));
        Alcotest.(check bool) "P.grgs: stale copies resolve" true
          (snd (sets_column pcol "P" "grgs"));
        Alcotest.(check bool) "E.mentors: ghost mentor clears total" false
          (snd (sets_column ccol "E" "mentors"));
        match Option.bind (C.relation pcol "P") (fun r -> C.column r "child") with
        | Some (C.Column.Sets { off; _ }) ->
          (* persons 2 and 4 have no children *)
          Alcotest.(check int) "empty set: empty range" off.(2) off.(3);
          Alcotest.(check int) "empty last set" off.(4) off.(5)
        | _ -> Alcotest.fail "P.child is not a Sets column");
    case "a stale embedded object makes its ref column inexact" (fun () ->
        (* X#0.r is a copy of Y#0 whose name is "stale"; the extent row
           says "real".  Reading name through the ref must read the copy,
           as the interpreter and the row backend do. *)
        let y name = Value.obj ~cls:"Y" ~oid:0 [ ("name", Value.str name) ] in
        let db =
          [
            ("X", Value.set [ Value.obj ~cls:"X" ~oid:0 [ ("r", y "stale") ] ]);
            ("Y", Value.set [ y "real" ]);
          ]
        in
        let coldb = C.of_db db in
        (match Option.bind (C.relation coldb "X") (fun r -> C.column r "r") with
        | Some (C.Column.Refs { exact; total; _ }) ->
          Alcotest.(check bool) "resolves" true total;
          Alcotest.(check bool) "inexact" false exact
        | _ -> Alcotest.fail "X.r is not a ref column");
        let q =
          Term.query
            (Term.Iterate
               (Term.Kp true, Term.Compose (Term.Prim "name", Term.Prim "r")))
            (Value.Named "X")
        in
        let expect = Value.set [ Value.str "stale" ] in
        let vi = Eval.eval_query ~db ~backend:Eval.Hashed q in
        let vr, _ = Exec.run ~backend:Exec.Compiled ~db q in
        let vc, _ =
          Exec.run ~backend:Exec.Compiled ~layout:Exec.Columnar ~coldb ~db q
        in
        Alcotest.check value "interp" expect vi;
        Alcotest.check value "row" expect vr;
        Alcotest.check value "columnar" expect vc);
    case "set plans: columnar ≡ row ≡ interp field by field, both dedups"
      (fun () ->
        List.iter
          (fun (name, (q, _)) ->
            let stores =
              if is_paper name then [ (paper_1k_db, paper_1k_coldb) ]
              else
                [ (company_db, company_coldb); (company_1k_db, company_1k_coldb) ]
            in
            List.iter
              (fun (db, coldb) ->
                List.iter
                  (fun dedup -> deep_differential ~db ~coldb name q dedup)
                  [ Eval.Eager; Eval.Deferred ])
              stores)
          (Lazy.force set_plans));
    case "set plans on stale copies and out-of-extent elements" (fun () ->
        let pdb = stale_paper_db () and cdb = stale_company_db () in
        let pcol = C.of_db pdb and ccol = C.of_db cdb in
        List.iter
          (fun (name, (q, _)) ->
            let db, coldb = if is_paper name then (pdb, pcol) else (cdb, ccol) in
            List.iter
              (fun dedup -> deep_differential ~db ~coldb name q dedup)
              [ Eval.Eager; Eval.Deferred ])
          (Lazy.force set_plans));
    case "nested selects compile either leg, and refuse the whole pair"
      (fun () ->
        let nested p h =
          Parse.query
            (Fmt.str "iterate(Kp(T), <id, iter(%s, %s) o <id, mentors>>) ! E" p
               h)
        in
        (* column kernels on the generated and on the stale store: the
           Kp(T) scan lowers one even where the map degrades (a degrade
           leaves the rest columnar), and a nested select whose [p] and
           [h] both compile on the element relation is a second *)
        let plans =
          [
            ( "mixed and row-only conjuncts",
              nested
                "(gt (+) <salary o pi2, salary o pi1>) & (leq (+) <salary o \
                 pi1, Kf(150000)>)"
                "pi2",
              [],
              (2, 2) );
            ( "object equality or a negated element test",
              nested
                "(eq (+) <dept o pi2, dept o pi1>) | ((gt (+) <salary o pi2, \
                 Kf(100000)>)^-1)"
                "pi2",
              [],
              (* the ghost mentor's dept is (): a Boxed element column, so
                 the predicate runs the closures *)
              (2, 1) );
            ( "membership against a row column",
              nested "in (+) <pi2, mentors o pi1>" "pi2",
              [],
              (1, 1) );
            ( "a head over both legs",
              nested "Kp(T)" "<ename o pi1, ename o pi2>",
              [],
              (2, 2) );
            ( "a row-only filter under another head",
              nested "gt (+) <salary o pi1, Kf(100000)>" "salary o pi2",
              [],
              (2, 2) );
            ("the pair's legs compared", nested "eq" "pi2", [], (2, 2));
            (* the element path boxes the pair and compares it on the row
               semantics: no typed nested select, but no degrade either *)
            ( "the whole pair",
              nested "eq (+) <id, id>" "pi2",
              [],
              (1, 1) );
          ]
        in
        let cdb = stale_company_db () in
        List.iter
          (fun (db, coldb, kernels) ->
            List.iter
              (fun (name, q, degrades, ks) ->
                List.iter
                  (fun dedup ->
                    deep_differential ~degrades ~kernels:(kernels ks) ~db
                      ~coldb name q dedup)
                  [ Eval.Eager; Eval.Deferred ])
              plans)
          [ (company_db, company_coldb, fst); (cdb, C.of_db cdb, snd) ];
        (* a set of ints stays a Boxed column, and the loop still runs *)
        let x i ks =
          Value.obj ~cls:"X" ~oid:i
            [ ("k", Value.int i); ("ks", Value.set (List.map Value.int ks)) ]
        in
        let db = [ ("X", Value.set [ x 0 [ 1; 2 ]; x 1 []; x 2 [ 1; 3; 5 ] ]) ] in
        let coldb = C.of_db db in
        (match Option.bind (C.relation coldb "X") (fun r -> C.column r "ks") with
        | Some (C.Column.Boxed _) -> ()
        | _ -> Alcotest.fail "X.ks is not a Boxed column");
        let q =
          Parse.query
            "iterate(Kp(T), <id, iter(gt (+) <pi2, k o pi1>, pi2) o <id, ks>>) ! X"
        in
        List.iter
          (fun dedup -> deep_differential ~db ~coldb "boxed ints" q dedup)
          [ Eval.Eager; Eval.Deferred ]);
    case "the garage plan lowers to the membership group-join" (fun () ->
        let q, _ = List.assoc "garage" (Lazy.force set_plans) in
        let c = Exec.compile ~coldb:paper_1k_coldb q in
        (match Exec.ir c with
        | Kola_exec.Ir.HashGroup
            {
              src =
                Kola_exec.Ir.UnnestStage
                  (_, _, Kola_exec.Ir.HashJoin { kind = Kola_exec.Ir.Membership; _ });
              _;
            } ->
          ()
        | ir -> Alcotest.failf "not a membership group-join: %a" Kola_exec.Ir.pp ir);
        Alcotest.(check int) "one column kernel" 1 (Exec.col_kernels c);
        (* drop vehicle 1 from V: every car set naming it now holds a -1,
           a guaranteed miss against the total probe side V *)
        let pdb = stale_paper_db () in
        let pdb =
          List.map
            (fun (n, v) ->
              if n = "V" then
                ( n,
                  match v with
                  | Value.Set vs -> Value.set (List.filteri (fun i _ -> i <> 1) vs)
                  | v -> v )
              else (n, v))
            pdb
        in
        let vi = Eval.eval_query ~db:pdb ~backend:Eval.Hashed q in
        let vc, st =
          Exec.run ~backend:Exec.Compiled ~layout:Exec.Columnar
            ~coldb:(C.of_db pdb) ~db:pdb q
        in
        check_agree ~db:pdb "fewer vehicles: columnar ≡ interp" vc vi;
        Alcotest.(check int) "still the group-join" 1 st.Exec.col_kernels;
        Alcotest.(check (list string)) "no degrade" [] st.Exec.col_degrades);
    case "the membership build is bit-identical across morsels" (fun () ->
        let big = Lazy.force big_paper in
        let db = Datagen.Store.db big and coldb = Datagen.Store.columnar big in
        let q, _ = List.assoc "garage" (Lazy.force set_plans) in
        List.iter
          (function
            | Eval.Eager ->
              let run jobs =
                Exec.run ~backend:Exec.Compiled ~layout:Exec.Columnar ~jobs
                  ~coldb ~db q
              in
              let v1, s1 = run 1 and v2, s2 = run 2 and v4, _ = run 4 in
              Alcotest.(check int) "jobs 1: no morsel dispatched" 0 s1.Exec.morsels;
              Alcotest.(check bool) "jobs 2: the build fans out" true
                (s2.Exec.morsels > 1);
              check_bits "garage" [ (1, v1); (2, v2); (4, v4) ];
              check_agree ~db "deep: jobs 1 = jobs 2" v1 v2;
              let vr, _ = Exec.run ~backend:Exec.Compiled ~db q in
              check_agree ~db "columnar ≡ row" v1 vr
            | Eval.Deferred ->
              check_deferred_fallback ~layout:Exec.Columnar ~jobs:2 ~coldb ~db
                "garage" q)
          [ Eval.Eager; Eval.Deferred ]);
  ]

(* --- element relations: the typed element path --- *)

(* rich_mentors, mentor_elite and the element-vs-parent comparison, with
   the column kernels each lowers: the element path adds one per nested
   select, which a fallback to boxed reads would not *)
let element_plans =
  lazy
    (List.map
       (fun (name, kernels) ->
         (name, List.assoc name (Lazy.force set_plans), kernels))
       [ ("rich_mentors", 2); ("mentor_elite", 4) ]
    @ [ ("self_mentor", plan_of ~db:company_db self_mentor_oql, 2) ])

let element_tests =
  [
    case "element columns are the elements' own fields, stale or not"
      (fun () ->
        let cdb = stale_company_db () in
        let ccol = C.of_db cdb in
        let e = Option.get (C.relation ccol "E") in
        match C.elements ccol e "mentors" with
        | None -> Alcotest.fail "E.mentors has no element relation"
        | Some erel ->
          let kind f =
            Option.fold ~none:"none" ~some:C.Column.kind_name (C.column erel f)
          in
          Alcotest.(check string) "salary: the copies' own ints" "int"
            (kind "salary");
          Alcotest.(check string) "ename" "str" (kind "ename");
          (* the ghost mentor's dept is (), so dept is not uniform *)
          Alcotest.(check string) "dept: not uniform, no typed column" "boxed"
            (kind "dept");
          Alcotest.(check string) "a field no element has" "none" (kind "age");
          Alcotest.(check int) "four columns built" 4
            (C.stats ccol).C.element_cols;
          ignore (C.column erel "salary");
          Alcotest.(check int) "memoized" 4 (C.stats ccol).C.element_cols;
          Alcotest.(check bool) "an extent is not an element relation" true
            (Option.is_none e.C.of_set
            && Option.is_none (C.elements ccol erel "mentors")));
    case "the typed element path runs on stale copies, both dedups" (fun () ->
        let cdb = stale_company_db () in
        let ccol = C.of_db cdb in
        let self = List.assoc "self_mentor" (List.map (fun (n, p, _) -> (n, p)) (Lazy.force element_plans)) in
        (* some employees mentor themselves, through a stale copy *)
        let vi =
          Eval.eval_query ~db:cdb ~backend:Eval.Hashed ~dedup:(snd self)
            (fst self)
        in
        Alcotest.(check bool) "m = e holds somewhere" true
          (match vi with
          | Value.Set rows ->
            List.exists
              (function Value.Pair (_, Value.Set (_ :: _)) -> true | _ -> false)
              rows
          | _ -> false);
        List.iter
          (fun (name, (q, _), kernels) ->
            List.iter
              (fun dedup ->
                deep_differential ~kernels ~db:cdb ~coldb:ccol name q dedup)
              [ Eval.Eager; Eval.Deferred ])
          (Lazy.force element_plans));
    case "two domains share one fresh store: same bits, each column built once"
      (fun () ->
        (* large enough that a first use takes milliseconds, so two
           domains reaching it together would both build it unless the
           store serializes them *)
        let cdb = stale_company_db ~employees:20_000 () in
        (* forced here: a [Lazy.t] must not be forced from two domains *)
        let plans = Lazy.force element_plans in
        let run coldb =
          List.map
            (fun (_, (q, dedup), _) ->
              fst
                (Exec.run ~backend:Exec.Compiled ~dedup ~layout:Exec.Columnar
                   ~coldb ~db:cdb q))
            plans
        in
        let shared = C.of_db cdb in
        let waiting = Atomic.make 2 in
        let domain () =
          Domain.spawn (fun () ->
              (* start compiling together, so first uses can collide *)
              Atomic.decr waiting;
              while Atomic.get waiting > 0 do
                Domain.cpu_relax ()
              done;
              run shared)
        in
        let d1 = domain () and d2 = domain () in
        let r1 = Domain.join d1 and r2 = Domain.join d2 in
        let alone = run (C.of_db cdb) in
        List.iteri
          (fun k ((name, _, _), a) ->
            Alcotest.(check bool) (name ^ ": both domains, same bits") true
              (Value.compare a (List.nth r2 k) = 0);
            Alcotest.(check bool) (name ^ ": as on a store of its own") true
              (Value.compare a (List.nth alone k) = 0))
          (List.combine plans r1);
        (* salary for rich_mentors, ename for mentor_elite; m = e compares
           codes and reads no element column *)
        Alcotest.(check int) "two element columns, each built once" 2
          (C.stats shared).C.element_cols);
    case "map chains and typed roots: fused, unboxed, the unfused counts"
      (fun () ->
        let big = Lazy.force big_paper in
        let pdb = Datagen.Store.db big and pcol = Datagen.Store.columnar big in
        let n = 70_000 in
        (* R rows with an int, a string, a bool and a ref into S *)
        let s_rows =
          Array.init 500 (fun i ->
              Value.obj ~cls:"S" ~oid:i
                [
                  ("name", Value.str (Fmt.str "s%d" (i mod 97)));
                  ("ok", Value.bool (i mod 3 = 0));
                ])
        in
        let rdb =
          [
            ( "R",
              Value.set
                (List.init n (fun i ->
                     Value.obj ~cls:"R" ~oid:i
                       [
                         ("k", Value.int (i mod 1000));
                         ("tag", Value.str (Fmt.str "t%d" (i mod 250)));
                         ("s", s_rows.(i mod 500));
                       ])) );
            ("S", Value.set (Array.to_list s_rows));
          ]
        in
        let rcol = C.of_db rdb in
        let paper src = plan_of ~extents:[ "P"; "V"; "A" ] ~db:paper_1k_db src in
        (* name, plan, store, column kernels, and the tuples the unfused
           pipeline charged: one per map stage and row, except that an
           int projection straight off the scan charges none at the
           root *)
        let over_500 = n / 1000 * 499 in
        let cases =
          [
            ( "t1: city o addr",
              fst (paper "select a.city from a in (select p.addr from p in P)"),
              (pdb, pcol),
              2,
              2 * n );
            ( "t2: ints after a filter",
              fst (paper "select x.age from x in P where x.age > 25"),
              (pdb, pcol),
              2,
              0 );
            ( "a Bools root: ok o s",
              Parse.query "iterate(Kp(T), ok) o iterate(Kp(T), s) ! R",
              (rdb, rcol),
              2,
              2 * n );
            ( "a Strs root after a filter",
              Parse.query
                "iterate(Kp(T), tag) o iterate(gt (+) <k, Kf(500)>, id) ! R",
              (rdb, rcol),
              2,
              over_500 );
            (* two map stages and the aggregate's own *)
            ( "max over a fused chain",
              Parse.query "max o iterate(Kp(T), zip) o iterate(Kp(T), addr) ! P",
              (pdb, pcol),
              3,
              3 * n );
          ]
        in
        List.iter
          (fun (name, q, (db, coldb), kernels, tuples) ->
            List.iter
              (fun dedup ->
                if dedup = Eval.Deferred then deferred_falls_back ~db ~coldb name q
                else
                let vi = Eval.eval_query ~db ~backend:Eval.Hashed ~dedup q in
                let vr, _ = Exec.run ~backend:Exec.Compiled ~dedup ~db q in
                check_agree ~db (name ^ ": row ≡ interp") vr vi;
                check_bits name
                  (List.map
                     (fun jobs ->
                       let v, st =
                         Exec.run ~backend:Exec.Compiled ~dedup
                           ~layout:Exec.Columnar ~jobs ~coldb ~db q
                       in
                       let what = Fmt.str "%s, jobs %d" name jobs in
                       (* the interpreter's canonical set, bit for bit *)
                       Alcotest.(check bool) (what ^ ": = interp") true
                         (Value.compare v vi = 0);
                       check_agree ~db (what ^ ": ≡ row") v vr;
                       Alcotest.(check int) (what ^ ": column kernels")
                         kernels st.Exec.col_kernels;
                       Alcotest.(check (list int))
                         (what ^ ": tuples, probes, builds")
                         [ tuples; 0; 0 ]
                         [ st.Exec.tuples; st.Exec.probes; st.Exec.builds ];
                       if jobs > 1 then
                         Alcotest.(check bool) (what ^ ": fans out") true
                           (st.Exec.morsels > 1);
                       (jobs, v))
                     [ 1; 2; 4 ]))
              [ Eval.Eager; Eval.Deferred ])
          cases);
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

(* --- the typed group build of the fused group-join --- *)

(* The untangled hidden join of [D] and [E] on [dept], with [payload] the
   members each employee adds to its department's group. *)
let group_join payload =
  Parse.query
    (Fmt.str
       "nest(π1, π2) ∘ (unnest(π1, π2) × id) ∘ ⟨join((eq ⊕ ⟨dept ∘ π2, π1⟩), \
        (id × %s)), π1⟩ ! [D, E]"
       payload)

(* Department 2 has no employee and employee 2 no mentor; names,
   salaries, bosses and mentors repeat across the employees of one
   department.  [mentor_copy m e] is the copy of mentor [m] that
   employee [e]'s set holds, and [ghost] puts an employee outside [E]
   into one mentor set. *)
let group_db ?(mentor_copy = fun m _ -> m) ?(ghost = false) () =
  let dept i =
    Value.obj ~cls:"Department" ~oid:i
      [ ("dname", Value.str (Fmt.str "d%d" i)); ("budget", Value.int (10 * i)) ]
  in
  let shallow i name salary =
    Value.obj ~cls:"Employee" ~oid:i
      [ ("ename", Value.str name); ("salary", Value.int salary) ]
  in
  let people = [| ("ann", 100, 0); ("bob", 100, 0); ("ann", 200, 1); ("cy", 300, 1); ("bob", 200, 0) |] in
  let flat = Array.mapi (fun i (n, s, _) -> shallow i n s) people in
  let bosses = [| 1; 1; 0; 0; 3 |] in
  let mentors = [| [ 1; 2 ]; [ 2 ]; []; [ 0; 2 ]; [ 1 ] |] in
  let employee i (name, salary, d) =
    let ms = List.map (fun m -> mentor_copy flat.(m) i) mentors.(i) in
    let ms = if ghost && i = 3 then shallow 99 "ghost" 0 :: ms else ms in
    Value.obj ~cls:"Employee" ~oid:i
      [
        ("ename", Value.str name);
        ("salary", Value.int salary);
        ("flag", Value.bool (salary > 150));
        ("dept", dept d);
        ("boss", flat.(bosses.(i)));
        ("mentors", Value.set ms);
      ]
  in
  [
    ("D", Value.set (List.init 3 dept));
    ("E", Value.set (Array.to_list (Array.mapi employee people)));
  ]

(* columnar ≡ hashed interpreter ≡ row, one column kernel, no degrade *)
let check_group ~db name q =
  let coldb = C.of_db db in
  let vi = Eval.eval_query ~db ~backend:Eval.Hashed q in
  let vr, _ = Exec.run ~backend:Exec.Compiled ~db q in
  let vc, st =
    Exec.run ~backend:Exec.Compiled ~layout:Exec.Columnar ~coldb ~db q
  in
  Alcotest.(check int) (name ^ ": the fused group-join") 1 st.Exec.col_kernels;
  Alcotest.(check (list string)) (name ^ ": no degrade") [] st.Exec.col_degrades;
  check_agree ~db (name ^ ": columnar ≡ interp") vc vi;
  check_agree ~db (name ^ ": columnar ≡ row") vc vr;
  vc

(* the group of department [d] in a group-join result *)
let group_of v d =
  match v with
  | Value.Set rows -> (
    match
      List.find_map
        (function
          | Value.Pair (Value.Obj o, Value.Set g) when o.Value.oid = d -> Some g
          | _ -> None)
        rows
    with
    | Some g -> g
    | None -> Alcotest.failf "no group for department %d" d)
  | v -> Alcotest.failf "not a set: %a" Value.pp v

let group_tests =
  [
    case "typed group build: every payload kind ≡ interp" (fun () ->
        let db = group_db () in
        let coldb = C.of_db db in
        let e = Option.get (C.relation coldb "E") in
        List.iter
          (fun (attr, kind) ->
            Alcotest.(check string) ("E." ^ attr) kind
              (Option.fold ~none:"none" ~some:C.Column.kind_name
                 (C.column e attr)))
          [
            ("ename", "str"); ("salary", "int"); ("flag", "bool");
            ("boss", "ref"); ("mentors", "sets");
          ];
        List.iter
          (fun (payload, d0) ->
            let v = check_group ~db payload (group_join payload) in
            Alcotest.(check (list value)) (payload ^ ": department 0, deduplicated") d0
              (group_of v 0);
            Alcotest.(check (list value)) (payload ^ ": department 2 is empty") []
              (group_of v 2))
          [
            ("(sng ∘ ename)", [ Value.str "ann"; Value.str "bob" ]);
            ("(sng ∘ salary)", [ Value.int 100; Value.int 200 ]);
            ( "(sng ∘ boss)",
              [ Value.obj ~cls:"Employee" ~oid:1 []; Value.obj ~cls:"Employee" ~oid:3 [] ] );
            ( "mentors",
              [ Value.obj ~cls:"Employee" ~oid:1 []; Value.obj ~cls:"Employee" ~oid:2 [] ] );
            (* bools have no typed members: the boxed payload *)
            ("(sng ∘ flag)", [ Value.bool false; Value.bool true ]);
            (* no column holds a pair: the boxed payload *)
            ( "(sng ∘ ⟨ename, salary⟩)",
              [
                Value.pair (Value.str "ann") (Value.int 100);
                Value.pair (Value.str "bob") (Value.int 100);
                Value.pair (Value.str "bob") (Value.int 200);
              ] );
          ]);
    case "typed group build: -1 codes stay on the boxed payload" (fun () ->
        let db = group_db ~ghost:true () in
        (match C.column (Option.get (C.relation (C.of_db db) "E")) "mentors" with
        | Some (C.Column.Sets { total; _ }) ->
          Alcotest.(check bool) "the ghost clears total" false total
        | _ -> Alcotest.fail "E.mentors is not a Sets column");
        let v = check_group ~db "mentors with a ghost" (group_join "mentors") in
        Alcotest.(check int) "department 1 holds the ghost" 3
          (List.length (group_of v 1)));
    case "typed group build: of several copies, the lowest build row's"
      (fun () ->
        (* every mentor set holds its own copies, named after the holder:
           department 0's employees 0 and 1 both hold mentor 2, and 0
           and 4 mentor 1.  The kernel keeps employee 0's copy of each;
           the interpreters and the row path keep what their [Value.set]
           keeps (DESIGN.md), so only the kernel's choice is pinned. *)
        let mentor_copy m e =
          match m with
          | Value.Obj o ->
            Value.obj ~cls:"Employee" ~oid:o.Value.oid
              [ ("ename", Value.str (Fmt.str "e%d's copy" e)) ]
          | m -> m
        in
        let db = group_db ~mentor_copy () in
        let vc, _ =
          Exec.run ~backend:Exec.Compiled ~layout:Exec.Columnar
            ~coldb:(C.of_db db) ~db (group_join "mentors")
        in
        let copies d =
          List.map
            (function
              | Value.Obj o ->
                (o.Value.oid, Option.get (Value.field "ename" (Value.Obj o)))
              | v -> Alcotest.failf "not an object: %a" Value.pp v)
            (group_of vc d)
        in
        Alcotest.(check (list (pair int value))) "department 0"
          [ (1, Value.str "e0's copy"); (2, Value.str "e0's copy") ]
          (copies 0);
        Alcotest.(check (list (pair int value))) "department 1"
          [ (0, Value.str "e3's copy"); (2, Value.str "e3's copy") ]
          (copies 1));
    case "typed group build past one morsel: the same bits at jobs 1, 2, 4"
      (fun () ->
        let big = Datagen.Company.scaled ~seed:77 70_000 in
        let db = Datagen.Company.db big and coldb = Datagen.Company.columnar big in
        List.iter
          (fun payload ->
            let q = group_join payload in
            let run jobs =
              Exec.run ~backend:Exec.Compiled ~layout:Exec.Columnar ~jobs
                ~coldb ~db q
            in
            let v1, s1 = run 1 and v2, s2 = run 2 and v4, _ = run 4 in
            Alcotest.(check int) (payload ^ ": jobs 1 dispatches no morsel") 0
              s1.Exec.morsels;
            Alcotest.(check bool) (payload ^ ": jobs 2 fans the build out") true
              (s2.Exec.morsels > 1);
            check_bits payload [ (1, v1); (2, v2); (4, v4) ];
            let vi = Eval.eval_query ~db ~backend:Eval.Hashed q in
            check_agree ~db (payload ^ ": ≡ interp") v1 vi)
          [ "(sng ∘ ename)"; "(sng ∘ salary)"; "(sng ∘ dept)"; "mentors" ]);
  ]

let tests =
  colstore_tests @ differential_tests @ bitid_tests
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_props
  @ set_tests @ element_tests @ group_tests
