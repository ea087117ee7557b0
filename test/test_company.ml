(* The company schema: everything — typing, translation, rules,
   untangling, plan choice, preconditions — works on a second schema,
   showing nothing is hard-wired to the paper's Person/Vehicle world. *)

open Kola
module C = Datagen.Company
open Util

let company = C.generate C.default_params
let cdb = C.db company
let extents = [ "E"; "D" ]

let optimize src = Optimizer.Pipeline.optimize_oql ~extents ~db:cdb src

let tests =
  [
    case "typing works against the company schema" (fun () ->
        let q = Parse.query "iterate(Kp(T), dname ∘ dept) ! E" in
        Alcotest.check ty "result" (Ty.Set Ty.Str)
          (Typing.query_ty C.schema q));
    case "the paper schema's attributes are unknown here" (fun () ->
        match Typing.func_ty C.schema (Term.Prim "age") with
        | exception Schema.Schema_error _ -> ()
        | _ -> Alcotest.fail "expected a schema error");
    case "the dept-roster hidden join untangles" (fun () ->
        let r = optimize C.dept_roster_oql in
        Alcotest.check Alcotest.bool "untangled" true
          (Option.is_some r.Optimizer.Pipeline.untangled);
        Alcotest.check value "result correct"
          (resolved cdb (Aqua.Eval.eval_closed ~db:cdb r.Optimizer.Pipeline.aqua))
          (resolved cdb (Optimizer.Pipeline.run ~db:cdb r)));
    case "the untangled roster exposes an equi-join the hash backend accepts"
      (fun () ->
        let r = optimize C.dept_roster_oql in
        let untangled = Option.get r.Optimizer.Pipeline.untangled in
        let join_pred =
          List.find_map
            (function
              | Term.Pairf (Term.Join (p, _), _) -> Some p
              | _ -> None)
            (Term.unchain untangled.Term.body)
        in
        match join_pred with
        | Some p ->
          Alcotest.check Alcotest.bool "hash-joinable" true
            (Option.is_some (Eval.hash_joinable p))
        | None -> Alcotest.fail "no join found");
    case "rich-mentors (data-dependent nesting) does not bottom out"
      (fun () ->
        let r = optimize C.rich_mentors_oql in
        Alcotest.check Alcotest.bool "no untangled plan" true
          (Option.is_none r.Optimizer.Pipeline.untangled);
        Alcotest.check value "still correct"
          (resolved cdb (Aqua.Eval.eval_closed ~db:cdb r.Optimizer.Pipeline.aqua))
          (resolved cdb (Optimizer.Pipeline.run ~db:cdb r)));
    case "preconditions use this schema's annotations" (fun () ->
        (* ename is a key here; salary is not *)
        Alcotest.check Alcotest.bool "ename injective" true
          (Rewrite.Props.injective C.schema (Term.Prim "ename"));
        Alcotest.check Alcotest.bool "salary not" false
          (Rewrite.Props.injective C.schema (Term.Prim "salary"));
        let rule = Rules.Catalog.find_exn "inj-inter" in
        let lhs f =
          Term.Compose
            ( Term.Setop Term.Inter,
              Term.Times (Term.Iterate (Term.Kp true, f), Term.Iterate (Term.Kp true, f)) )
        in
        Alcotest.check Alcotest.bool "fires on ename" true
          (Option.is_some
             (fire_func ~schema:C.schema rule (lhs (Term.Prim "ename"))));
        Alcotest.check Alcotest.bool "blocked on salary" true
          (Option.is_none
             (fire_func ~schema:C.schema rule (lhs (Term.Prim "salary")))));
    case "aggregate workload: total salary per department" (fun () ->
        let src =
          "select [d, sum(select e.salary from e in E where e.dept = d)] from d in D"
        in
        let r = optimize src in
        let out = resolved cdb (Optimizer.Pipeline.run ~db:cdb r) in
        (* aggregates disable the deferred-dedup dimension *)
        List.iter
          (fun (c : Optimizer.Pipeline.plan) ->
            Alcotest.check Alcotest.bool "eager only" true
              (c.dedup = Eval.Eager))
          r.Optimizer.Pipeline.candidates;
        match out with
        | Value.Set rows ->
          Alcotest.check Alcotest.int "one row per department"
            C.default_params.C.departments (List.length rows)
        | v -> Alcotest.failf "unexpected %a" Value.pp v);
    case "generation is deterministic and sized" (fun () ->
        let a = C.generate C.default_params in
        let b = C.generate C.default_params in
        Alcotest.check value "same E"
          (List.assoc "E" (C.db a))
          (List.assoc "E" (C.db b));
        Alcotest.check Alcotest.int "employees"
          C.default_params.C.employees
          (List.length a.C.employees));
    case "scaled company store is deterministic, sized, and optimizer-ready"
      (fun () ->
        let a = C.scaled ~seed:9 2_000 in
        let b = C.scaled ~seed:9 2_000 in
        Alcotest.check value "same E"
          (List.assoc "E" (C.db a))
          (List.assoc "E" (C.db b));
        Alcotest.check Alcotest.int "employees" 2_000 (List.length a.C.employees);
        Alcotest.check Alcotest.int "departments scale as n/250" 8
          (List.length a.C.departments);
        (* the scaled store feeds the optimizer like the small one does *)
        let r =
          Optimizer.Pipeline.optimize_oql ~extents ~db:(C.db a)
            C.mentor_pool_oql
        in
        Alcotest.check Alcotest.bool "mentor pool untangles" true
          (Option.is_some r.Optimizer.Pipeline.untangled));
    case "scaled company store rejects bad sizes with descriptive errors"
      (fun () ->
        let expect size fragment =
          match C.scaled size with
          | _ -> Alcotest.failf "size %d: expected Invalid_argument" size
          | exception Invalid_argument msg ->
            Alcotest.check Alcotest.bool
              (Fmt.str "size %d names the problem (%s)" size msg)
              true (contains msg fragment)
        in
        expect 0 "positive";
        expect (-1) "outside the supported range";
        expect (Datagen.Store.max_scaled_size + 1) "refusing to truncate");
    case "a malformed employee row fails with a diagnosable message"
      (fun () ->
        (* the mentor-deepening pass goes through Store.obj_fields with the
           company context; a corrupted extent names itself instead of
           tripping assert false *)
        match
          Datagen.Store.obj_fields
            ~context:"Datagen.Company.generate: employee row"
            (Value.Str "not a row")
        with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument msg ->
          Alcotest.check Alcotest.bool "names the pass" true
            (contains msg "employee row");
          Alcotest.check Alcotest.bool "shows the value" true
            (contains msg "not a row"));
  ]
