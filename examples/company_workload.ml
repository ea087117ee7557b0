(* A second schema end-to-end: the optimizer is schema-generic.

   The company database (Employee/Department) is queried with a roster
   hidden-join (untangles to a hash equi-join), a data-dependent nested
   query (correctly not untangled), and an aggregate.

     dune exec examples/company_workload.exe *)

open Kola
module C = Datagen.Company

let () =
  let store = C.generate { C.default_params with employees = 200; departments = 12 } in
  let db = C.db store in
  let extents = [ "E"; "D" ] in

  let show src =
    Fmt.pr "==========================================================@.";
    let r = Optimizer.Pipeline.optimize_oql ~extents ~db src in
    Optimizer.Pipeline.pp_report Fmt.stdout r;
    let result = Optimizer.Pipeline.run ~db r in
    let direct = Aqua.Eval.eval_closed ~db r.Optimizer.Pipeline.aqua in
    let ctx = Eval.ctx ~db () in
    Fmt.pr "result agrees with direct evaluation: %b@.@."
      (Value.equal (Eval.deep_resolve ctx result) (Eval.deep_resolve ctx direct))
  in
  show C.dept_roster_oql;
  show C.rich_mentors_oql;
  show "select [d, sum(select e.salary from e in E where e.dept = d)] from d in D";
  show "select e.ename from e in E where e.salary > 100000 and e.dept.dcity = \"Boston\""
