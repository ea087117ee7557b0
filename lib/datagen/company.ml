(* A second schema and workload — a company database — demonstrating that
   the algebra, translator, rules and optimizer are schema-generic (only
   precondition inference consults annotations).

   Employee(ename*, salary, dept, mentors: {Employee})
   Department(dname*, budget, city)
   extents E : {Employee}, D : {Department}
   (attributes marked with * are injective/key) *)

open Kola

let schema =
  let t = Schema.empty in
  let t =
    Schema.add_class t ~name:"Department"
      ~attrs:
        [
          ("dname", Ty.Str, [ Schema.Injective; Schema.Total ]);
          ("budget", Ty.Int, [ Schema.Total ]);
          ("dcity", Ty.Str, [ Schema.Total ]);
        ]
  in
  let t =
    Schema.add_class t ~name:"Employee"
      ~attrs:
        [
          ("ename", Ty.Str, [ Schema.Injective; Schema.Total ]);
          ("salary", Ty.Int, [ Schema.Total ]);
          ("dept", Ty.Obj "Department", [ Schema.Total ]);
          ("mentors", Ty.Set (Ty.Obj "Employee"), [ Schema.Total ]);
        ]
  in
  let t = Schema.add_extent t ~name:"E" ~ty:(Ty.Set (Ty.Obj "Employee")) in
  let t = Schema.add_extent t ~name:"D" ~ty:(Ty.Set (Ty.Obj "Department")) in
  t

type params = { employees : int; departments : int; max_mentors : int; seed : int }

let default_params = { employees = 50; departments = 8; max_mentors = 3; seed = 77 }

type t = {
  employees : Value.t list;
  departments : Value.t list;
  db : (string * Value.t) list;
}

let generate (p : params) : t =
  let r = Store.rng p.seed in
  let departments =
    List.init p.departments (fun i ->
        Value.obj ~cls:"Department" ~oid:i
          [
            ("dname", Value.str (Fmt.str "dept-%d" i));
            ("budget", Value.int (10_000 + Store.int r 90_000));
            ("dcity", Value.str (Store.pick r Store.cities));
          ])
  in
  let shallow =
    List.init p.employees (fun i ->
        Value.obj ~cls:"Employee" ~oid:i
          [
            ("ename", Value.str (Fmt.str "emp-%d" i));
            ("salary", Value.int (30_000 + Store.int r 120_000));
            ("dept", Store.pick r departments);
            ("mentors", Value.set []);
          ])
  in
  let employees =
    List.mapi
      (fun i e ->
        let n = Store.int r (p.max_mentors + 1) in
        let mentors = Value.set (List.init n (fun _ -> Store.pick r shallow)) in
        Value.obj ~cls:"Employee" ~oid:i
          (List.map
             (fun (k, v) -> if k = "mentors" then (k, mentors) else (k, v))
             (Store.obj_fields
                ~context:"Datagen.Company.generate: employee row" e)))
      shallow
  in
  {
    employees;
    departments;
    db = [ ("E", Value.set employees); ("D", Value.set departments) ];
  }

let db t = t.db

(* The columnar view: E with unboxed [salary] ints, [ename] strings,
   [dept] dictionary-encoded into D and [mentors] a [Sets] column into E,
   whose element relation holds the embedded mentor copies. *)
let columnar t = Kola.Colstore.of_db t.db

(* Benchmark-scale company store: array-backed O(1) sampling (the
   list-based [generate] picks mentors with [List.nth], which is quadratic
   in the employee count), tabulated in index order so the data is
   deterministic in the seed alone.  Departments scale as employees/250,
   min 8, so group sizes stay realistic as the extent grows. *)
let scaled ?(seed = 77) (employees : int) : t =
  let fn = "Datagen.Company.scaled" in
  if employees = 0 then invalid_arg (Fmt.str "%s: size must be positive" fn);
  (if employees < 0 || employees > Store.max_scaled_size then
     invalid_arg
       (Fmt.str
          "%s: size is %d, outside the supported range 1..%d — refusing to \
           truncate the store silently"
          fn employees Store.max_scaled_size));
  let n_departments = max 8 (employees / 250) in
  let cities_a = Array.of_list Store.cities in
  let r = Store.rng seed in
  let departments =
    Store.tabulate n_departments (fun i ->
        Value.obj ~cls:"Department" ~oid:i
          [
            ("dname", Value.str (Fmt.str "dept-%d" i));
            ("budget", Value.int (10_000 + Store.int r 90_000));
            ("dcity", Value.str (Store.pick_arr r cities_a));
          ])
  in
  let shallow =
    Store.tabulate employees (fun i ->
        Value.obj ~cls:"Employee" ~oid:i
          [
            ("ename", Value.str (Fmt.str "emp-%d" i));
            ("salary", Value.int (30_000 + Store.int r 120_000));
            ("dept", Store.pick_arr r departments);
            ("mentors", Value.set []);
          ])
  in
  let rebuilt =
    Store.tabulate employees (fun i ->
        let n = Store.int r (default_params.max_mentors + 1) in
        let mentors =
          Value.set (List.init n (fun _ -> Store.pick_arr r shallow))
        in
        Value.obj ~cls:"Employee" ~oid:i
          (List.map
             (fun (k, v) -> if k = "mentors" then (k, mentors) else (k, v))
             (Store.obj_fields ~context:"Datagen.Company.scaled: employee row"
                shallow.(i))))
  in
  let employees = Array.to_list rebuilt in
  let departments = Array.to_list departments in
  {
    employees;
    departments;
    db = [ ("E", Value.set employees); ("D", Value.set departments) ];
  }

(* A hidden join over this schema: each department paired with the names of
   employees working in it — the Garage Query's shape with different
   vocabulary. *)
let dept_roster_oql =
  "select [d, flatten(select {e.ename} from e in E where e.dept = d)] from d in D"

(* A non-join nested query: employees paired with their higher-paid
   mentors. *)
let rich_mentors_oql =
  "select [e, (select m from m in e.mentors where m.salary > e.salary)] from e in E"

(* A second hidden join, same shape as the roster but flattening the
   mentor sets of each department's employees — untangles to a hash join
   feeding an unnest. *)
let mentor_pool_oql =
  "select [d, flatten(select e.mentors from e in E where e.dept = d)] from d in D"

(* A selective scan-filter-map chain (no join): the cities of the
   departments employing anyone over 90k. *)
let city_salaries_oql = "select e.dept.dcity from e in E where e.salary > 90000"

(* A membership filter against a closed subquery: the subquery never
   mentions [e], so a per-element evaluator recomputes it once per
   employee — O(|E| * |D|) — while compiled execution hoists it out of
   the loop and hashes the membership probe. *)
let local_staff_oql =
  "select e.ename from e in E \
   where e.dept in (select d from d in D where d.dcity = \"Boston\")"

(* An intersection of two derived name sets (mentor names and top-earner
   names).  Nested-loop set intersection is O(n * m); hashing the smaller
   side makes it linear. *)
let mentor_elite_oql =
  "(select m.ename from e in E, m in e.mentors) inter \
   (select h.ename from h in E where h.salary > 145000)"

(* A filter + aggregate over one unboxed column: selective scan on
   salary, then sum.  (Aggregates run under eager dedup, so this sums
   the *distinct* salaries over the threshold — the columnar backend
   must reproduce exactly that.) *)
let payroll_oql = "sum(select e.salary from e in E where e.salary > 120000)"
