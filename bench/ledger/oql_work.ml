(* The two OQL → result workloads.  Each query goes through the front end
   and the optimizer as a one-shot [kolaopt run] pays for it (a fresh
   plan cache per query), then the chosen plan runs compiled over
   columnar stores at jobs = 1.

   [oql_small] optimizes and executes on 10^3-row stores, where costing
   the candidate plans on the interpreter dominates.  [oql_large]
   optimizes against 200-row samples (the plan choice is the same as at
   10^3) and executes on 10^5-row stores, where execution dominates.
   Store contents come from a fixed data seed, so plans, costs and exec
   counts repeat exactly; the run seed orders the queries of each
   measured pass. *)

open Kola
module Pipeline = Optimizer.Pipeline
module Cost = Optimizer.Cost
module Exec = Kola_exec.Exec

type schema = Paper | Company

type query = { name : string; src : string; schema : schema }

let queries =
  let paper name src = { name; src; schema = Paper } in
  let company name src = { name; src; schema = Company } in
  [
    paper "t1" "select a.city from a in (select p.addr from p in P)";
    paper "t2" "select x.age from x in P where x.age > 25";
    paper "a4"
      "select [p, (select c from c in p.child where p.age > 25)] from p in P";
    paper "garage"
      "select [v, flatten(select p.grgs from p in P where v in p.cars)] from v in V";
    company "dept_roster" Datagen.Company.dept_roster_oql;
    company "mentor_pool" Datagen.Company.mentor_pool_oql;
    company "city_salaries" Datagen.Company.city_salaries_oql;
    company "payroll" Datagen.Company.payroll_oql;
    company "rich_mentors" Datagen.Company.rich_mentors_oql;
    company "local_staff" Datagen.Company.local_staff_oql;
    company "mentor_elite" Datagen.Company.mentor_elite_oql;
  ]

let extents = function Paper -> None | Company -> Some [ "E"; "D" ]

let data_seed = 77

type size = { exec_rows : int; opt_rows : int option; check_rows : int option }
(* [opt_rows = None]: optimize on the execution store itself;
   [check_rows = None]: check results on the execution store itself. *)

let small = { exec_rows = 1_000; opt_rows = None; check_rows = None }
let large = { exec_rows = 100_000; opt_rows = Some 200; check_rows = Some 10_000 }

type store = { db : (string * Value.t) list; coldb : Colstore.db }

let store schema rows =
  match schema with
  | Paper ->
    let s = Datagen.Store.scaled ~seed:data_seed rows in
    { db = Datagen.Store.db s; coldb = Datagen.Store.columnar s }
  | Company ->
    let s = Datagen.Company.scaled ~seed:data_seed rows in
    { db = Datagen.Company.db s; coldb = Datagen.Company.columnar s }

type stores = {
  exec : schema -> store;
  opt : schema -> (string * Value.t) list;
  check : schema -> store;
}

let make_stores size =
  let both rows =
    let p = store Paper rows and c = store Company rows in
    function Paper -> p | Company -> c
  in
  let exec = both size.exec_rows in
  let opt =
    match size.opt_rows with
    | None -> fun s -> (exec s).db
    | Some rows ->
      let o = both rows in
      fun s -> (o s).db
  in
  let check =
    match size.check_rows with None -> exec | Some rows -> both rows
  in
  { exec; opt; check }

(* One query, OQL text to result.  Under tracing the root span has the
   timed children oql.parse, optimizer.optimize and exec (itself split
   by the executor's own compile/run clocks), and after the root closes
   the optimizer's parts are re-run as attribution children. *)
let run_query stores ~req q =
  let opt_db = stores.opt q.schema and st = stores.exec q.schema in
  let opt_span = ref (-1) in
  let aqua, report, (value, stats) =
    Span.timed ~req "query" @@ fun _ ->
    let aqua =
      Span.timed ~req "oql.parse" (fun _ ->
          Oql.Parser.parse ?extents:(extents q.schema) q.src)
    in
    let report =
      Span.timed ~req "optimizer.optimize" (fun sid ->
          opt_span := sid;
          Pipeline.optimize ~source:q.src ~plan_cache:(Cost.plan_cache ())
            ~db:opt_db aqua)
    in
    let result =
      Span.timed ~req "exec" (fun sid ->
          let t0 = Common.now () in
          let v, s =
            Pipeline.execute ~backend:Exec.Compiled ~layout:Exec.Columnar
              ~jobs:1 ~coldb:st.coldb ~db:st.db report
          in
          let t1 = t0 +. (s.Exec.compile_us /. 1e6) in
          ignore (Span.record ~parent:sid ~req "exec.compile" t0 t1);
          ignore
            (Span.record ~parent:sid ~req "exec.execute" t1
               (t1 +. (s.Exec.run_us /. 1e6)));
          (v, s))
    in
    (aqua, report, result)
  in
  let parent = !opt_span in
  Span.attribute ~parent ~req "translate.compile" (fun () ->
      Translate.Compile.query aqua);
  Span.attribute ~parent ~req "coko.simplify" (fun () ->
      Coko.Block.run Coko.Programs.simplify report.Pipeline.translated);
  Span.attribute ~parent ~req "coko.hidden_join" (fun () ->
      Coko.Programs.hidden_join report.Pipeline.normalized);
  let cache = Cost.plan_cache () in
  List.iter
    (fun (c : Pipeline.plan) ->
      Span.attribute ~parent ~req "optimizer.cost" (fun () ->
          Cost.measure_memo cache ~backend:c.Pipeline.backend
            ~dedup:c.Pipeline.dedup ~db:opt_db c.Pipeline.query))
    report.Pipeline.candidates;
  (report, value, stats)

type answer = {
  q : query;
  report : Pipeline.report;
  value : Value.t;
  stats : Exec.stats;
}

(* One pass over the eleven queries in [order]; per-query OQL → result
   times go to [samples] when given. *)
let pass stores samples order =
  List.mapi
    (fun i q ->
      let t0 = Common.now () in
      let report, value, stats = run_query stores ~req:i q in
      Option.iter
        (fun s -> Common.Samples.add s q.name ((Common.now () -. t0) *. 1e3))
        samples;
      { q; report; value; stats })
    order

(* Correctness gate: the chosen plan's compiled-columnar result agrees
   with the hashed interpreter.  On the execution store itself the
   reference runs the translated source query, so the gate also covers
   normalization, untangling and plan choice; on a sample store the
   reference runs the chosen plan, as the executor bench does (the
   translated hidden joins are quadratic in the interpreter). *)
let gate size stores (a : answer) =
  let st = stores.check a.q.schema in
  let value =
    match size.check_rows with
    | None -> a.value
    | Some _ ->
      fst
        (Pipeline.execute ~backend:Exec.Compiled ~layout:Exec.Columnar ~jobs:1
           ~coldb:st.coldb ~db:st.db a.report)
  in
  let reference =
    match size.check_rows with
    | None ->
      fst
        (Exec.run ~backend:(Exec.Interp Eval.Hashed) ~dedup:Eval.Eager
           ~db:st.db a.report.Pipeline.translated)
    | Some _ ->
      fst (Pipeline.execute ~backend:(Exec.Interp Eval.Hashed) ~db:st.db a.report)
  in
  if Exec.agree ~db:st.db value reference then None
  else Some (Printf.sprintf "%s: compiled result disagrees with the interpreter" a.q.name)

let counts answers =
  let sum f = float_of_int (List.fold_left (fun acc a -> acc + f a) 0 answers) in
  [
    ("optimizer.candidates", sum (fun a -> List.length a.report.Pipeline.candidates));
    ("coko.rules_fired", sum (fun a -> List.length a.report.Pipeline.trace));
    ("exec.tuples", sum (fun a -> a.stats.Exec.tuples));
    ("exec.probes", sum (fun a -> a.stats.Exec.probes));
    ("exec.builds", sum (fun a -> a.stats.Exec.builds));
    ("exec.col_kernels", sum (fun a -> a.stats.Exec.col_kernels));
    ("exec.col_degrades", sum (fun a -> List.length a.stats.Exec.col_degrades));
    ("exec.fallbacks", sum (fun a -> if a.stats.Exec.fell_back then 1 else 0));
    ( "translate.size_ratio_max",
      List.fold_left
        (fun acc a ->
          Float.max acc (Translate.Compile.measure a.report.Pipeline.aqua).Translate.Compile.ratio)
        0. answers );
  ]

let run size ~seed ~seconds ~reps ~traced =
  Common.closed_loop ~rng:(Datagen.Store.rng seed) ~seconds ~reps ~traced
    ~row:(Printf.sprintf "q.%s.ms") ~items:queries
    ~prepare:(fun () -> make_stores size)
    ~pass
    ~gate:(gate size) ~counts
    ~cost:(fun a -> a.report.Pipeline.chosen.Pipeline.cost.Cost.weighted)
