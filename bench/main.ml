(* Benchmark harness: one group per experiment in DESIGN.md's index.

   The paper's evaluation is qualitative (worked derivations) plus the
   quantified claims of Section 4.2; for each table/figure we both measure
   wall time with Bechamel and print the claim-vs-measured series the
   corresponding experiment checks (sizes, cost counters, rule counts). *)

open Bechamel
open Toolkit
open Kola

let quota = ref 0.25
let fast = ref false
let smoke = ref false
let parallel_only = ref false
let hashcons_only = ref false
let egraph_only = ref false
let serve_only = ref false
let exec_only = ref false
let out_file = ref "BENCH_engine.json"
let out_file_given = ref false

(* ------------------------------------------------------------------ *)
(* Bechamel plumbing                                                   *)

let benchmark_group name tests =
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:300
      ~quota:(Time.second (if !fast then 0.05 else !quota))
      ~kde:None ()
  in
  let grouped = Test.make_grouped ~name tests in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun test_name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (t :: _) -> t
          | _ -> nan
        in
        (test_name, ns) :: acc)
      results []
  in
  Fmt.pr "@.## %s@." name;
  List.iter
    (fun (test_name, ns) ->
      let pretty =
        if ns > 1e9 then Fmt.str "%8.2f s " (ns /. 1e9)
        else if ns > 1e6 then Fmt.str "%8.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Fmt.str "%8.2f us" (ns /. 1e3)
        else Fmt.str "%8.1f ns" ns
      in
      Fmt.pr "  %-58s %s@." test_name pretty)
    (List.sort compare rows)

let t name f = Test.make ~name (Staged.stage f)

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)

let tiny_db = Datagen.Store.db (Datagen.Store.tiny ())

let store_of n seed =
  Datagen.Store.db
    (Datagen.Store.generate
       {
         Datagen.Store.default_params with
         people = n;
         vehicles = (n * 2 / 3);
         addresses = max 5 (n / 2);
         seed;
       })

let db_mid = store_of 60 21

let tuples_of ~db ~backend q =
  let ctx = Eval.ctx ~db ~backend () in
  ignore (Eval.run ctx q);
  ctx.Eval.counters.Eval.tuples

(* ------------------------------------------------------------------ *)
(* E-T1 / E-T2: Tables 1 and 2 micro-benchmarks                        *)

let alice = List.hd (Datagen.Store.tiny ()).Datagen.Store.persons
let pair_ints = Value.pair (Value.Int 1) (Value.Int 2)
let small_set = Value.set (List.init 32 (fun i -> Value.Int i))

let table1_tests =
  [
    t "id" (fun () -> Eval.eval_func Term.Id pair_ints);
    t "pi1" (fun () -> Eval.eval_func Term.Pi1 pair_ints);
    t "compose(city,addr)" (fun () ->
        Eval.eval_func (Term.Compose (Term.Prim "city", Term.Prim "addr")) alice);
    t "pairf(age,age)" (fun () ->
        Eval.eval_func (Term.Pairf (Term.Prim "age", Term.Prim "age")) alice);
    t "con" (fun () ->
        Eval.eval_func
          (Term.Con (Term.Kp true, Term.Kf (Value.Int 1), Term.Kf (Value.Int 2)))
          Value.Unit);
    t "oplus-gt" (fun () ->
        Eval.eval_pred
          (Term.Oplus (Term.Gt, Term.Pairf (Term.Prim "age", Term.Kf (Value.Int 25))))
          alice);
    t "in-of-32" (fun () ->
        Eval.eval_pred Term.In (Value.pair (Value.Int 31) small_set));
  ]

let table2_tests =
  let nested =
    Value.set (List.init 8 (fun i -> Value.set [ Value.Int i; Value.Int (i + 1) ]))
  in
  [
    t "flat(8x2)" (fun () -> Eval.eval_func Term.Flat nested);
    t "iterate-filter-map(32)" (fun () ->
        Eval.eval_func
          (Term.Iterate
             ( Term.Oplus (Term.Gt, Term.Pairf (Term.Id, Term.Kf (Value.Int 16))),
               Term.Id ))
          small_set);
    t "iter-env(32)" (fun () ->
        Eval.eval_func (Term.Iter (Term.Gt, Term.Pi2))
          (Value.pair (Value.Int 16) small_set));
    t "join-naive(32x32)" (fun () ->
        Eval.eval_func (Term.Join (Term.Gt, Term.Id))
          (Value.pair small_set small_set));
    t "nest(32 rel 32)" (fun () ->
        Eval.eval_func (Term.Nest (Term.Id, Term.Id))
          (Value.pair small_set small_set));
    t "unnest(8x2)" (fun () ->
        Eval.eval_func (Term.Unnest (Term.Pi1, Term.Pi2))
          (Value.set
             (List.init 8 (fun i ->
                  Value.pair (Value.Int i) (Value.set [ Value.Int i ])))));
  ]

(* ------------------------------------------------------------------ *)
(* E-F1: Figure 1 transformations — AQUA baseline vs KOLA rules        *)

let fig1_tests =
  [
    t "T1-aqua-baseline (head+body routines)" (fun () ->
        Baseline.Engine.run [ Baseline.Catalog.t1_compose_maps ]
          Aqua.Examples.t1_source);
    t "T1-kola-rules (declarative)" (fun () ->
        Coko.Block.run Coko.Programs.compose_iterates Paper.t1k_source);
    t "T2-aqua-baseline (alpha-compare head routine)" (fun () ->
        Baseline.Engine.run [ Baseline.Catalog.t2_decompose_predicate ]
          Aqua.Examples.t2_source);
    t "T2-kola-rules (rules 11,13,12-1)" (fun () ->
        let o = Coko.Block.run Coko.Programs.compose_iterates Paper.t2k_source in
        Coko.Block.run Coko.Programs.decompose_predicate o.Coko.Block.query);
  ]

(* ------------------------------------------------------------------ *)
(* E-F2 / E-F6: code motion applicability and transformation           *)

let fig6_tests =
  [
    t "K4-code-motion (applies, rules 13..16)" (fun () ->
        Coko.Block.run Coko.Programs.code_motion Paper.k4);
    t "K3-code-motion (structurally rejected)" (fun () ->
        Coko.Block.run Coko.Programs.code_motion Paper.k3);
    t "A4-aqua-code-motion (env analysis head routine)" (fun () ->
        Baseline.Engine.run [ Baseline.Catalog.code_motion ] Aqua.Examples.a4);
    t "A3-aqua-code-motion (env analysis rejects)" (fun () ->
        Baseline.Engine.run [ Baseline.Catalog.code_motion ] Aqua.Examples.a3);
  ]

(* ------------------------------------------------------------------ *)
(* E-F3: Figure 3 — evaluating KG1 vs untangled KG2, naive vs hashed   *)

let fig3_tests =
  List.concat_map
    (fun (label, db) ->
      [
        t (Fmt.str "KG1-naive %s" label) (fun () ->
            Eval.eval_query ~db Paper.kg1);
        t (Fmt.str "KG2-naive %s" label) (fun () ->
            Eval.eval_query ~db Paper.kg2);
        t (Fmt.str "KG2-hashed %s" label) (fun () ->
            Eval.eval_query ~db ~backend:Eval.Hashed Paper.kg2);
      ])
    [ ("n=30", store_of 30 1); ("n=60", db_mid) ]

(* The paper-shape series: who wins and by what factor, as data sizes
   grow.  Counters make this hardware-independent. *)
let fig3_cost_table () =
  Fmt.pr "@.## fig3_garage_cost (tuples touched; counters, not wall time)@.";
  Fmt.pr "  %8s %12s %12s %12s %9s@." "|V|,|P|" "KG1-naive" "KG2-naive"
    "KG2-hashed" "speedup";
  List.iter
    (fun n ->
      let db = store_of n (100 + n) in
      let kg1 = tuples_of ~db ~backend:Eval.Naive Paper.kg1 in
      let kg2n = tuples_of ~db ~backend:Eval.Naive Paper.kg2 in
      let kg2h = tuples_of ~db ~backend:Eval.Hashed Paper.kg2 in
      Fmt.pr "  %8s %12d %12d %12d %8.1fx@."
        (Fmt.str "%d,%d" (n * 2 / 3) n)
        kg1 kg2n kg2h
        (float_of_int kg1 /. float_of_int (max 1 kg2h)))
    (if !fast then [ 30; 60 ] else [ 30; 60; 120; 240; 480 ])

(* ------------------------------------------------------------------ *)
(* E-F4: Figure 4 rewrites                                             *)

let fig4_tests =
  [
    t "T1K-derivation (11,5,6)" (fun () ->
        Coko.Block.run Coko.Programs.compose_iterates Paper.t1k_source);
    t "T2K-derivation (11,..,13,12-1)" (fun () ->
        let o = Coko.Block.run Coko.Programs.compose_iterates Paper.t2k_source in
        Coko.Block.run Coko.Programs.decompose_predicate o.Coko.Block.query);
  ]

(* ------------------------------------------------------------------ *)
(* E-F8: the five-step untangler as nesting depth grows                *)

let untangle_depths = [ 1; 2; 3; 4; 6; 8 ]

let fig8_tests =
  List.map
    (fun depth ->
      let q = Translate.Compile.query (Aqua.Examples.hidden_join_depth depth) in
      t (Fmt.str "untangle depth=%d" depth) (fun () ->
          Coko.Programs.hidden_join q))
    untangle_depths

let fig8_table () =
  Fmt.pr "@.## fig8_untangle (gradual rules over growing nesting depth)@.";
  Fmt.pr "  %6s %10s %10s %10s %8s@." "depth" "size-in" "size-out" "firings"
    "applied";
  List.iter
    (fun depth ->
      let q = Translate.Compile.query (Aqua.Examples.hidden_join_depth depth) in
      let o, blocks = Coko.Programs.hidden_join q in
      Fmt.pr "  %6d %10d %10d %10d %8b@." depth
        (Term.size_func q.Term.body)
        (Term.size_func o.Coko.Block.query.Term.body)
        (List.length o.Coko.Block.trace)
        (List.for_all snd blocks))
    untangle_depths

(* ------------------------------------------------------------------ *)
(* E-C1: Section 4.2 — translated query size is O(mn), observed < 2x   *)

let sec42_table () =
  Fmt.pr "@.## sec42_translation_size (paper: O(mn), observed < 2x)@.";
  Fmt.pr "  %6s %8s %8s %8s %8s %10s@." "m" "queries" "avg n" "avg kola"
    "ratio" "max ratio";
  List.iter
    (fun depth ->
      let queries = Datagen.Queries.suite ~count:50 ~seed:(1000 + depth) ~depth in
      let ms = List.map Translate.Compile.measure queries in
      let n = List.length ms in
      let favg f = List.fold_left (fun a m -> a +. f m) 0. ms /. float_of_int n in
      let fmax f = List.fold_left (fun a m -> max a (f m)) 0. ms in
      Fmt.pr "  %6d %8d %8.1f %8.1f %8.2f %10.2f@." depth n
        (favg (fun m -> float_of_int m.Translate.Compile.aqua_size))
        (favg (fun m -> float_of_int m.Translate.Compile.kola_size))
        (favg (fun m -> m.Translate.Compile.ratio))
        (fmax (fun m -> m.Translate.Compile.ratio)))
    [ 1; 2; 3; 4; 5; 6 ];
  (* the paper's own example *)
  let g = Translate.Compile.measure Aqua.Examples.garage in
  Fmt.pr "  garage query: n=%d m=%d kola=%d ratio=%.2f@."
    g.Translate.Compile.aqua_size g.Translate.Compile.nesting
    g.Translate.Compile.kola_size g.Translate.Compile.ratio

let sec42_tests =
  [
    t "translate garage query" (fun () ->
        Translate.Compile.query Aqua.Examples.garage);
    t "translate depth-5 random query" (fun () ->
        Translate.Compile.query (Datagen.Queries.query ~seed:5 ~depth:5));
  ]

(* ------------------------------------------------------------------ *)
(* E-C2: rule certification throughput                                 *)

let cert_table () =
  Fmt.pr "@.## rule_certification (analogue of the paper's 500 LP proofs)@.";
  let results =
    Rules.Cert.certify_all
      ~samples:(if !fast then 5 else 25)
      ~inputs:8 Rules.Catalog.all
  in
  let total_instances =
    List.fold_left (fun a r -> a + r.Rules.Cert.instances) 0 results
  in
  let total_checks = List.fold_left (fun a r -> a + r.Rules.Cert.checks) 0 results in
  let certified = List.filter Rules.Cert.certified results in
  Fmt.pr "  rules: %d   certified: %d   instantiations: %d   checks: %d@."
    (List.length results) (List.length certified) total_instances total_checks;
  let refuted = Rules.Cert.certify ~samples:60 ~inputs:20 Rules.Basic.r13_paper in
  Fmt.pr "  r13 as printed in the paper: %s@."
    (match refuted.Rules.Cert.counterexample with
    | Some _ -> "REFUTED (boundary erratum, repaired with the converse former)"
    | None -> "unexpectedly certified")

let cert_tests =
  [
    t "certify rule 11 (10 instances)" (fun () ->
        Rules.Cert.certify ~samples:10 ~inputs:4 (Rules.Catalog.find_exn "r11"));
  ]

(* ------------------------------------------------------------------ *)
(* Matching throughput: the unification cost the paper's design keeps  *)
(* linear                                                              *)

let kg1_interned = Term.Hc.of_query Paper.kg1

let matching_tests =
  [
    t "match rule 11 against KG1 (fails everywhere)" (fun () ->
        Rewrite.Engine.step_once (Rules.Catalog.rules [ "r11" ]) kg1_interned);
    t "full catalog one step on KG1" (fun () ->
        Rewrite.Engine.step_once Rules.Catalog.all kg1_interned);
    t "aqua baseline one step on garage" (fun () ->
        Baseline.Engine.step_once Baseline.Catalog.all Aqua.Examples.garage);
  ]

(* ------------------------------------------------------------------ *)
(* Ablation: monolithic hidden-join rule vs the gradual five steps     *)

let ablation_tests =
  List.concat_map
    (fun depth ->
      let q = Translate.Compile.query (Aqua.Examples.hidden_join_depth depth) in
      [
        t (Fmt.str "monolithic depth=%d" depth) (fun () ->
            Baseline.Monolithic.transform q);
        t (Fmt.str "gradual depth=%d" depth) (fun () ->
            Coko.Programs.hidden_join q);
      ])
    [ 1; 2; 4 ]

let ablation_table () =
  Fmt.pr "@.## ablation_monolithic_vs_gradual (Sec 4.2 discussion)@.";
  Fmt.pr "  %6s %12s %12s %14s@." "depth" "monolithic" "gradual" "mono-head-cost";
  List.iter
    (fun depth ->
      let q = Translate.Compile.query (Aqua.Examples.hidden_join_depth depth) in
      let mono = Option.is_some (Baseline.Monolithic.transform q) in
      let _, blocks = Coko.Programs.hidden_join q in
      Fmt.pr "  %6d %12s %12b %14d@." depth
        (if mono then "applies" else "FAILS")
        (List.for_all snd blocks)
        (Baseline.Monolithic.match_cost q))
    [ 1; 2; 3; 4; 6; 8 ]

(* ------------------------------------------------------------------ *)
(* Search vs COKO strategies (the paper's Section 1.1 open dimension)  *)

let search_tests =
  [
    t "search discovers T1K" (fun () ->
        Optimizer.Search.reaches Paper.t1k_source Paper.t1k_target);
    t "coko derives T1K" (fun () ->
        Coko.Block.run Coko.Programs.compose_iterates Paper.t1k_source);
  ]

let search_table () =
  Fmt.pr "@.## search_vs_coko (uninformed search vs rule blocks)@.";
  let rules =
    Rules.Catalog.all
    @ List.map Rewrite.Rule.flip (Rules.Catalog.rules [ "r14"; "r12" ])
  in
  let attempt name src target ~max_depth ~max_states =
    let config = { Optimizer.Search.default_config with rules; max_depth; max_states } in
    let t0 = Kola_telemetry.Telemetry.now () in
    let reached = Option.is_some (Optimizer.Search.reaches ~config src target) in
    Fmt.pr "  %-22s %-12s (%.2fs, depth<=%d, states<=%d)@." name
      (if reached then "discovered" else "NOT FOUND")
      (Kola_telemetry.Telemetry.now () -. t0) max_depth max_states
  in
  attempt "T1K (3 firings)" Paper.t1k_source Paper.t1k_target ~max_depth:6
    ~max_states:2_000;
  attempt "T2K (6 firings)" Paper.t2k_source Paper.t2k_target ~max_depth:8
    ~max_states:4_000;
  if not !fast then
    attempt "K4 code motion (9)" Paper.k4 Paper.k4_optimized ~max_depth:12
      ~max_states:8_000;
  attempt "KG1->KG2 (25 firings)" Paper.kg1 Paper.kg2 ~max_depth:6
    ~max_states:1_000;
  Fmt.pr "  (COKO's five rule blocks derive KG1->KG2 in ~0.2 ms: strategies@.";
  Fmt.pr "   are what make the long derivation tractable, as the paper argues)@."

(* ------------------------------------------------------------------ *)
(* End-to-end: the optimizer pipeline                                  *)

let pipeline_tests =
  [
    t "optimize garage query end-to-end (tiny)" (fun () ->
        Optimizer.Pipeline.optimize ~db:tiny_db Aqua.Examples.garage);
    t "parse+optimize OQL (tiny)" (fun () ->
        Optimizer.Pipeline.optimize_oql ~db:tiny_db
          "select p.age from p in P where p.age > 25");
  ]

(* ------------------------------------------------------------------ *)
(* Engine internals: head-symbol dispatch, hashed dedup, memoized      *)
(* costing.  The table and BENCH_engine.json carry the same numbers:   *)
(* the table for humans, the JSON for regression tracking.             *)

let engine_queries =
  [ ("T1K", Paper.t1k_source); ("T2K", Paper.t2k_source);
    ("K4", Paper.k4); ("KG1", Paper.kg1) ]

let run_engine q = Rewrite.Engine.run ~fuel:40 Rules.Catalog.all q

let engine_tests =
  [
    t "step_once (KG1, full catalog)" (fun () ->
        Rewrite.Engine.step_once Rules.Catalog.all kg1_interned);
    t "run (T1K to fixpoint)" (fun () -> run_engine Paper.t1k_source);
  ]

let time_per ~repeats f =
  ignore (f ());  (* warm up *)
  let t0 = Kola_telemetry.Telemetry.now () in
  for _ = 1 to repeats do
    ignore (f ())
  done;
  (Kola_telemetry.Telemetry.now () -. t0) *. 1e9 /. float_of_int repeats

(* ------------------------------------------------------------------ *)
(* parallel_scaling: the same exploration at 1/2/4/8 domains.  Each    *)
(* timed run uses a fresh cold cost cache so the costing work — the    *)
(* part the pool fans out — is real, and includes pool spawn/shutdown, *)
(* so the speedup is what a caller actually observes.                  *)

type parallel_row = {
  pq : string;
  pjobs : int;
  pns : float;
  pspeedup : float;       (* vs the jobs = 1 run of the same workload *)
  pmatches : bool;        (* outcome identical to the jobs = 1 run *)
}

let parallel_workloads =
  (* the Figure 4 derivation sources and the Figure 6 code-motion source *)
  [ ("T1K", Paper.t1k_source, 4, 400);
    ("T2K", Paper.t2k_source, 4, 300);
    ("K4", Paper.k4, 3, 250) ]

let parallel_scaling_rows ~jobs_list ~repeats =
  List.concat_map
    (fun (name, q, max_depth, max_states) ->
      let explore jobs =
        Optimizer.Search.explore
          ~config:
            {
              Optimizer.Search.default_config with
              max_depth;
              max_states;
              jobs;
              cost_cache = Some (Optimizer.Cost.cache ());
            }
          q
      in
      let baseline = explore 1 in
      let base_ns = ref nan in
      List.map
        (fun jobs ->
          let o = explore jobs in
          let ns = time_per ~repeats (fun () -> explore jobs) in
          if jobs = 1 then base_ns := ns;
          let matches =
            Kola.Term.equal_query o.Optimizer.Search.best.Optimizer.Search.query
              baseline.Optimizer.Search.best.Optimizer.Search.query
            && o.Optimizer.Search.best.Optimizer.Search.path
               = baseline.Optimizer.Search.best.Optimizer.Search.path
            && o.Optimizer.Search.explored = baseline.Optimizer.Search.explored
            && o.Optimizer.Search.frontier_exhausted
               = baseline.Optimizer.Search.frontier_exhausted
          in
          { pq = name; pjobs = jobs; pns = ns; pspeedup = !base_ns /. ns;
            pmatches = matches })
        jobs_list)
    parallel_workloads

let parallel_table rows =
  Fmt.pr
    "@.## parallel_scaling (level-synchronous explore, cold cost cache)@.";
  Fmt.pr "  (host reports %d recommended domain(s))@."
    (Domain.recommended_domain_count ());
  Fmt.pr "  %-5s %6s %12s %9s %9s@." "query" "jobs" "wall" "speedup"
    "outcome";
  List.iter
    (fun r ->
      let pretty =
        if r.pns > 1e9 then Fmt.str "%8.2f s " (r.pns /. 1e9)
        else if r.pns > 1e6 then Fmt.str "%8.2f ms" (r.pns /. 1e6)
        else Fmt.str "%8.2f us" (r.pns /. 1e3)
      in
      Fmt.pr "  %-5s %6d %12s %8.2fx %9s@." r.pq r.pjobs pretty r.pspeedup
        (if r.pmatches then "identical" else "MISMATCH"))
    rows

let parallel_json rows =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Fmt.str "  \"parallel_scaling\": {\"recommended_domains\": %d, \"runs\": [\n"
       (Domain.recommended_domain_count ()));
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Fmt.str
           "    {\"query\": %S, \"jobs\": %d, \"ns\": %.0f, \
            \"speedup_vs_seq\": %.2f, \"outcome_identical\": %b}%s\n"
           r.pq r.pjobs r.pns r.pspeedup r.pmatches
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]}";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* hashcons: the interned term core.  Microbenches time O(1) equality  *)
(* and hash against their plain recursive counterparts on a deep term; *)
(* the exploration rows are [parallel_scaling_rows].                   *)

let deep_n = 200

(* Two calls build structurally equal but physically distinct plain
   terms, so plain equality really walks all [deep_n] stages. *)
let deep_body () =
  Term.chain
    (List.init deep_n (fun i ->
         Term.Iterate
           ( Term.Oplus
               ( Term.Gt,
                 Term.Pairf
                   (Term.Prim (Fmt.str "f%d" (i mod 7)), Term.Kf (Value.Int i))
               ),
             Term.Prim (Fmt.str "g%d" (i mod 5)) )))

type hc_micro = { hname : string; hplain_ns : float; hhc_ns : float }

let hashcons_micro ~repeats () =
  let a = deep_body () and b = deep_body () in
  let na = Term.Hc.of_func a and nb = Term.Hc.of_func b in
  (* the interned side is O(1) field reads; loop it more for resolution *)
  let fr = repeats * 50 in
  [
    {
      hname = "equality (deep term)";
      hplain_ns = time_per ~repeats (fun () -> Term.equal_func a b);
      hhc_ns = time_per ~repeats:fr (fun () -> Sys.opaque_identity (na == nb));
    };
    {
      hname = "hash (deep term)";
      hplain_ns = time_per ~repeats (fun () -> Term.hash_func a);
      hhc_ns =
        time_per ~repeats:fr (fun () -> Sys.opaque_identity na.Term.Hc.fhash);
    };
  ]

(* Minimum over [trials] mean timings: explorations are milliseconds,
   where a single GC major slice or scheduler preemption skews one mean
   badly; the min of a few is the stable signal on a shared host. *)
let min_time ~trials ~repeats f =
  let rec go best n =
    if n <= 0 then best else go (Float.min best (time_per ~repeats f)) (n - 1)
  in
  go (time_per ~repeats f) (trials - 1)

let hashcons_table micros rows =
  let pretty ns =
    if ns > 1e9 then Fmt.str "%9.2f s " (ns /. 1e9)
    else if ns > 1e6 then Fmt.str "%9.2f ms" (ns /. 1e6)
    else if ns > 1e3 then Fmt.str "%9.2f us" (ns /. 1e3)
    else Fmt.str "%9.1f ns" ns
  in
  Fmt.pr "@.## hashcons (interned term core, deep term = %d stages)@." deep_n;
  Fmt.pr "  %-28s %12s %12s %9s@." "micro" "plain" "interned" "ratio";
  List.iter
    (fun m ->
      Fmt.pr "  %-28s %12s %12s %8.0fx@." m.hname (pretty m.hplain_ns)
        (pretty m.hhc_ns)
        (m.hplain_ns /. m.hhc_ns))
    micros;
  Fmt.pr "  %-5s %6s %12s %9s@." "query" "jobs" "explore" "outcome";
  List.iter
    (fun r ->
      Fmt.pr "  %-5s %6d %12s %9s@." r.pq r.pjobs (pretty r.pns)
        (if r.pmatches then "identical" else "MISMATCH"))
    rows;
  let s = Term.Hc.intern_stats () in
  Fmt.pr
    "  intern tables: %d entries, %d hits / %d misses (%.3f sharing), max \
     bucket %d@."
    s.Hashcons.entries s.Hashcons.hits s.Hashcons.misses
    (let total = s.Hashcons.hits + s.Hashcons.misses in
     if total = 0 then 0.
     else float_of_int s.Hashcons.hits /. float_of_int total)
    s.Hashcons.max_bucket

(* The same numbers as a JSON fragment for BENCH_engine.json (or the
   stand-alone BENCH_hashcons.json). *)
let hashcons_json micros rows =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "  \"hashcons\": {\"micro\": [\n";
  List.iteri
    (fun i m ->
      Buffer.add_string buf
        (Fmt.str
           "    {\"name\": %S, \"plain_ns\": %.1f, \"interned_ns\": %.1f, \
            \"ratio\": %.1f}%s\n"
           m.hname m.hplain_ns m.hhc_ns
           (m.hplain_ns /. m.hhc_ns)
           (if i = List.length micros - 1 then "" else ",")))
    micros;
  Buffer.add_string buf "  ], \"search\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Fmt.str
           "    {\"query\": %S, \"jobs\": %d, \"ns\": %.0f, \
            \"outcome_identical\": %b}%s\n"
           r.pq r.pjobs r.pns r.pmatches
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]}";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* egraph_saturation: equality saturation vs bounded BFS on the        *)
(* E-F4/E-F6/E-F8 workloads.  Two comparisons per workload:            *)
(*   cost    — egraph extract-after-saturate vs BFS best at            *)
(*             default_config depth, same forward catalog;             *)
(*   wall    — egraph saturation vs BFS *full exploration* of the same *)
(*             equivalence closure: e-class unions are symmetric, so   *)
(*             the BFS analogue runs the catalog plus every flip at    *)
(*             depth 5 (where its frontier stops fitting any budget).  *)

module Saturate = Kola_egraph.Saturate

type egraph_row = {
  gq : string;
  gbfs_cost : float;       (* BFS best, default_config depth, forward rules *)
  geg_cost : float;        (* egraph best after extraction + re-measuring;
                              the source is always a candidate, so never
                              worse than doing nothing *)
  gbfs_full_ns : float;    (* symmetric closure at depth 5, state-capped *)
  gbfs_explored : int;
  gbfs_exhausted : bool;   (* whether capped BFS even covered depth 5 *)
  geg_ns : float;
  gspeedup : float;        (* gbfs_full_ns / geg_ns *)
  gjobs : int;             (* domains the match phase fanned out over *)
  gstats : Saturate.stats;
}

let symmetric_catalog =
  Rules.Catalog.all @ List.map Rewrite.Rule.flip Rules.Catalog.all

let egraph_rows () =
  let full = not (!fast || !smoke) in
  let cap = if full then 5_000 else 1_000 in
  let budgets =
    if full then Saturate.default_budgets
    else
      { Saturate.max_enodes = 4_000; max_iterations = 10; max_millis = 600. }
  in
  let wall f =
    let t0 = Kola_telemetry.Telemetry.now () in
    let r = f () in
    (r, (Kola_telemetry.Telemetry.now () -. t0) *. 1e9)
  in
  List.map
    (fun (name, q, states) ->
      let bfs =
        Optimizer.Search.explore
          ~config:
            {
              Optimizer.Search.default_config with
              cost_cache = Some (Optimizer.Cost.cache ());
            }
          q
      in
      let eg_config =
        {
          Optimizer.Search.default_config with
          engine = Optimizer.Search.Egraph;
          egraph_budgets = budgets;
          cost_cache = Some (Optimizer.Cost.cache ());
        }
      in
      let eg, eg_ns = wall (fun () -> Optimizer.Search.explore ~config:eg_config q) in
      let bfs_full, bfs_full_ns =
        wall (fun () ->
            Optimizer.Search.explore
              ~config:
                {
                  Optimizer.Search.default_config with
                  rules = symmetric_catalog;
                  max_depth = 5;
                  max_states = states;
                  cost_cache = Some (Optimizer.Cost.cache ());
                }
              q)
      in
      {
        gq = name;
        gbfs_cost = bfs.Optimizer.Search.best.Optimizer.Search.cost;
        geg_cost = eg.Optimizer.Search.best.Optimizer.Search.cost;
        gbfs_full_ns = bfs_full_ns;
        gbfs_explored = bfs_full.Optimizer.Search.explored;
        gbfs_exhausted = bfs_full.Optimizer.Search.frontier_exhausted;
        geg_ns = eg_ns;
        gspeedup = bfs_full_ns /. eg_ns;
        gjobs = Optimizer.Search.resolved_jobs eg_config;
        gstats = Option.get eg.Optimizer.Search.saturation;
      })
    [
      ("T1K (E-F4)", Paper.t1k_source, cap);
      ("T2K (E-F4)", Paper.t2k_source, cap);
      ("K4 (E-F6)", Paper.k4, cap);
      ("KG1 (E-F8)", Paper.kg1, max 200 (cap / 2));
    ]

let egraph_table rows =
  Fmt.pr "@.## egraph_saturation (extract-after-saturate vs bounded BFS)@.";
  Fmt.pr "  %-11s %9s %9s %12s %12s %9s %5s %8s %9s %s@." "query" "bfs-cost"
    "eg-cost" "bfs-d5-wall" "eg-wall" "speedup" "jobs" "skipped" "deferred"
    "saturation";
  List.iter
    (fun r ->
      let pretty ns =
        if ns > 1e9 then Fmt.str "%9.2f s " (ns /. 1e9)
        else if ns > 1e6 then Fmt.str "%9.2f ms" (ns /. 1e6)
        else Fmt.str "%9.2f us" (ns /. 1e3)
      in
      Fmt.pr "  %-11s %9.1f %9.1f %12s %12s %8.1fx %5d %8d %9d %s@." r.gq
        r.gbfs_cost r.geg_cost
        (pretty r.gbfs_full_ns)
        (pretty r.geg_ns) r.gspeedup r.gjobs r.gstats.Saturate.matches_skipped
        r.gstats.Saturate.rules_deferred
        (Fmt.str "%d nodes / %d classes / %d iters, stop: %s%s"
           r.gstats.Saturate.e_nodes r.gstats.Saturate.e_classes
           r.gstats.Saturate.iterations
           (Saturate.stop_reason_label r.gstats.Saturate.stop)
           (if r.gbfs_exhausted then "" else "; bfs frontier unfinished")))
    rows

let egraph_json rows =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "  \"egraph_saturation\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Fmt.str
           "    {\"query\": %S, \"bfs_default_cost\": %.2f, \
            \"egraph_cost\": %.2f, \"best_of_cost\": %.2f, \
            \"bfs_depth5_ns\": %.0f, \
            \"bfs_depth5_explored\": %d, \"bfs_depth5_exhausted\": %b, \
            \"egraph_ns\": %.0f, \"speedup_vs_bfs_depth5\": %.2f, \
            \"jobs\": %d, \"matches_skipped\": %d, \"rules_deferred\": %d, \
            \"e_nodes\": %d, \"e_classes\": %d, \"unions\": %d, \
            \"iterations\": %d, \"rebuild_ms\": %.3f, \"total_ms\": %.1f, \
            \"stop\": %S}%s\n"
           r.gq r.gbfs_cost r.geg_cost
           (Float.min r.gbfs_cost r.geg_cost)
           r.gbfs_full_ns r.gbfs_explored
           r.gbfs_exhausted r.geg_ns r.gspeedup r.gjobs
           r.gstats.Saturate.matches_skipped r.gstats.Saturate.rules_deferred
           r.gstats.Saturate.e_nodes
           r.gstats.Saturate.e_classes r.gstats.Saturate.unions
           r.gstats.Saturate.iterations r.gstats.Saturate.rebuild_ms
           r.gstats.Saturate.total_ms
           (Saturate.stop_reason_label r.gstats.Saturate.stop)
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]";
  Buffer.contents buf

let engine_report ?(parallel_rows = []) ?(hashcons_fragment = "")
    ?(egraph_fragment = "") () =
  let repeats = if !fast then 5 else 50 in
  Fmt.pr
    "@.## engine_internals (head-symbol index, hashed dedup, cost memo)@.";
  Fmt.pr "  %-5s %9s %8s %12s@." "query" "attempts" "firings" "ns/fire";
  let query_rows =
    List.map
      (fun (name, q) ->
        let o = run_engine q in
        let attempts = o.Rewrite.Engine.stats.Rewrite.Engine.attempts in
        let firings = o.Rewrite.Engine.stats.Rewrite.Engine.firings in
        let ns =
          time_per ~repeats (fun () -> run_engine q)
          /. float_of_int (max 1 firings)
        in
        Fmt.pr "  %-5s %9d %8d %12.0f@." name attempts firings ns;
        (name, attempts, firings, ns))
      engine_queries
  in
  (* exploration throughput, cold cache *)
  let explore_states = if !fast then 40 else 200 in
  let explore_cfg cache =
    {
      Optimizer.Search.default_config with
      max_depth = 3;
      max_states = explore_states;
      cost_cache = Some cache;
    }
  in
  let explore_o, ns_state =
    let config = explore_cfg (Optimizer.Cost.cache ()) in
    let t0 = Kola_telemetry.Telemetry.now () in
    let o = Optimizer.Search.explore ~config Paper.t1k_source in
    let ns = (Kola_telemetry.Telemetry.now () -. t0) *. 1e9 in
    (o, ns /. float_of_int (max 1 o.Optimizer.Search.explored))
  in
  (* cache behaviour: cold exploration then an identical warm one *)
  let cache = Optimizer.Cost.cache () in
  let warm_cfg = explore_cfg cache in
  let cold = Optimizer.Search.explore ~config:warm_cfg Paper.t1k_source in
  let warm = Optimizer.Search.explore ~config:warm_cfg Paper.t1k_source in
  Fmt.pr "  explore T1K: %d states, %.0f ns/state@."
    explore_o.Optimizer.Search.explored ns_state;
  Fmt.pr "  cost cache:  cold %d misses / %d hits, warm %d misses / %d hits@."
    cold.Optimizer.Search.cache_misses cold.Optimizer.Search.cache_hits
    warm.Optimizer.Search.cache_misses warm.Optimizer.Search.cache_hits;
  (* tracing overhead guard: the identical warm-cache exploration with
     the telemetry session off and then on.  The off row is the one the
     <3%-regression acceptance bound in EXPERIMENTS.md watches — with no
     session every record call must cost a single atomic read. *)
  let tracing_repeats = if !fast || !smoke then 20 else 100 in
  let tr_explore () =
    Optimizer.Search.explore ~config:warm_cfg Paper.t1k_source
  in
  let tracing_off_ns = min_time ~trials:3 ~repeats:tracing_repeats tr_explore in
  Kola_telemetry.Telemetry.start ();
  let tracing_on_ns = min_time ~trials:3 ~repeats:tracing_repeats tr_explore in
  ignore (Kola_telemetry.Telemetry.stop ());
  let tracing_overhead_pct =
    (tracing_on_ns -. tracing_off_ns) /. tracing_off_ns *. 100.
  in
  Fmt.pr
    "  tracing:     off %.0f ns/explore, on %.0f ns/explore (overhead \
     %+.1f%%)@."
    tracing_off_ns tracing_on_ns tracing_overhead_pct;
  (* the same numbers, machine-readable *)
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Fmt.str "  \"mode\": \"%s\",\n"
       (if !smoke then "smoke" else if !fast then "fast" else "full"));
  Buffer.add_string buf "  \"queries\": [\n";
  List.iteri
    (fun i (name, attempts, firings, ns) ->
      Buffer.add_string buf
        (Fmt.str
           "    {\"name\": %S, \"attempts\": %d, \"firings\": %d, \
            \"ns_per_firing\": %.0f}%s\n"
           name attempts firings ns
           (if i = List.length query_rows - 1 then "" else ",")))
    query_rows;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Fmt.str
       "  \"explore\": {\"query\": \"T1K\", \"states\": %d, \
        \"ns_per_state\": %.0f},\n"
       explore_o.Optimizer.Search.explored ns_state);
  Buffer.add_string buf
    (Fmt.str
       "  \"cost_cache\": {\"cold_misses\": %d, \"cold_hits\": %d, \
        \"warm_misses\": %d, \"warm_hits\": %d},\n"
       cold.Optimizer.Search.cache_misses cold.Optimizer.Search.cache_hits
       warm.Optimizer.Search.cache_misses warm.Optimizer.Search.cache_hits);
  Buffer.add_string buf
    (Fmt.str
       "  \"tracing\": {\"query\": \"T1K\", \"off_ns_per_explore\": %.0f, \
        \"on_ns_per_explore\": %.0f, \"overhead_pct\": %.2f},\n"
       tracing_off_ns tracing_on_ns tracing_overhead_pct);
  if hashcons_fragment <> "" then begin
    Buffer.add_string buf hashcons_fragment;
    Buffer.add_string buf ",\n"
  end;
  if egraph_fragment <> "" then begin
    Buffer.add_string buf egraph_fragment;
    Buffer.add_string buf ",\n"
  end;
  Buffer.add_string buf (parallel_json parallel_rows);
  Buffer.add_string buf "\n}\n";
  let oc = open_out !out_file in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Fmt.pr "  wrote %s@." !out_file

(* ------------------------------------------------------------------ *)
(* serve: throughput and latency of the kolaoptd serving path.  An      *)
(* in-process daemon (worker domains, shared caches, admission queue)   *)
(* is driven by client threads over its Unix-domain socket — the full   *)
(* wire path: connect, JSON request line, optimize, JSON response.      *)
(*                                                                      *)
(* Each (engine x concurrency) cell runs the same workload twice: a     *)
(* cold phase over distinct parameterized queries (every request        *)
(* translates and searches from scratch; caches were flushed) and a     *)
(* warm phase replaying the identical queries (answered from the        *)
(* shared outcome cache).  Clients open one connection per request, so  *)
(* latency includes accept, admission queuing and worker scheduling.    *)

module Serve_bench = struct
  module Json = Kola_server.Json
  module Daemon = Kola_server.Daemon

  let now () = Kola_telemetry.Telemetry.now ()

  type row = {
    engine : string;
    concurrency : int;
    phase : string;  (* "cold" | "warm" *)
    requests : int;
    wall_s : float;
    throughput_rps : float;
    p50_ms : float;
    p95_ms : float;
    p99_ms : float;
    rejected : int;
    errors : int;
  }

  let percentile sorted p =
    let n = Array.length sorted in
    if n = 0 then nan
    else
      let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1 in
      sorted.(max 0 (min (n - 1) rank))

  (* Distinct canonical queries: the varying constant defeats the
     outcome cache within the cold phase, so every cold request is a
     real optimization. *)
  let workload n =
    Array.init n (fun i ->
        Fmt.str "select p.age from p in P where p.age > %d" i)

  let status j = Option.bind (Json.mem "status" j) Json.str

  let run_phase ~socket ~engine ~clients ~(queries : string array) ~phase =
    let m = Array.length queries in
    let lat = Array.make m 0. in
    let rejected = Atomic.make 0 in
    let errors = Atomic.make 0 in
    let t0 = now () in
    let client c =
      let i = ref c in
      while !i < m do
        let req =
          Json.Obj
            [
              ("query", Json.Str queries.(!i)); ("engine", Json.Str engine);
            ]
        in
        let rec attempt tries =
          match
            let conn = Daemon.Client.connect socket in
            let r = Daemon.Client.request conn req in
            Daemon.Client.close conn;
            r
          with
          | r -> (
            match status r with
            | Some "ok" -> ()
            | Some "rejected" when tries < 1000 ->
              Atomic.incr rejected;
              Thread.delay 0.002;
              attempt (tries + 1)
            | _ -> Atomic.incr errors)
          | exception _ -> Atomic.incr errors
        in
        let s = now () in
        attempt 0;
        lat.(!i) <- (now () -. s) *. 1e3;
        i := !i + clients
      done
    in
    let threads = List.init clients (fun c -> Thread.create client c) in
    List.iter Thread.join threads;
    let wall = now () -. t0 in
    let sorted = Array.copy lat in
    Array.sort compare sorted;
    {
      engine;
      concurrency = clients;
      phase;
      requests = m;
      wall_s = wall;
      throughput_rps = float_of_int m /. wall;
      p50_ms = percentile sorted 50.;
      p95_ms = percentile sorted 95.;
      p99_ms = percentile sorted 99.;
      rejected = Atomic.get rejected;
      errors = Atomic.get errors;
    }

  let rows ~concurrency_list ~requests =
    let socket =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Fmt.str "kolaoptd-bench-%d.sock" (Unix.getpid ()))
    in
    (* Enough workers to overlap the higher concurrency levels (capped:
       past the core count extra domains only add scheduling noise) and
       an admission queue deep enough that the bench measures latency,
       not retry loops. *)
    let workers = min 16 (Domain.recommended_domain_count ()) in
    let params =
      { Daemon.default_params with Daemon.workers; queue = 128 }
    in
    let t = Daemon.create ~params () in
    let ready_lock = Mutex.create () in
    let ready_cond = Condition.create () in
    let ready_flag = ref false in
    let server =
      Domain.spawn (fun () ->
          Daemon.serve
            ~ready:(fun () ->
              Mutex.protect ready_lock (fun () ->
                  ready_flag := true;
                  Condition.signal ready_cond))
            ~socket t)
    in
    Mutex.protect ready_lock (fun () ->
        while not !ready_flag do
          Condition.wait ready_cond ready_lock
        done);
    let flush () =
      let c = Daemon.Client.connect socket in
      ignore (Daemon.Client.request c (Json.Obj [ ("cmd", Json.Str "flush") ]));
      Daemon.Client.close c
    in
    let queries = workload requests in
    let rows =
      List.concat_map
        (fun engine ->
          List.concat_map
            (fun clients ->
              flush ();
              let cold =
                run_phase ~socket ~engine ~clients ~queries ~phase:"cold"
              in
              let warm =
                run_phase ~socket ~engine ~clients ~queries ~phase:"warm"
              in
              [ cold; warm ])
            concurrency_list)
        [ "bfs"; "egraph" ]
    in
    let c = Daemon.Client.connect socket in
    ignore (Daemon.Client.request c (Json.Obj [ ("cmd", Json.Str "shutdown") ]));
    Daemon.Client.close c;
    Domain.join server;
    (rows, workers)

  let table rows =
    Fmt.pr "@.## serving (kolaoptd over a Unix-domain socket)@.";
    Fmt.pr
      "  %-7s %5s %-5s %5s %10s %9s %9s %9s %5s@."
      "engine" "conc" "phase" "reqs" "thru(r/s)" "p50(ms)" "p95(ms)"
      "p99(ms)" "rej";
    List.iter
      (fun r ->
        Fmt.pr "  %-7s %5d %-5s %5d %10.1f %9.3f %9.3f %9.3f %5d@." r.engine
          r.concurrency r.phase r.requests r.throughput_rps r.p50_ms r.p95_ms
          r.p99_ms r.rejected)
      rows

  let json ~workers ~queue rows =
    let row r =
      Fmt.str
        "    {\"engine\": \"%s\", \"concurrency\": %d, \"phase\": \"%s\", \
         \"requests\": %d, \"wall_s\": %.4f, \"throughput_rps\": %.1f, \
         \"p50_ms\": %.4f, \"p95_ms\": %.4f, \"p99_ms\": %.4f, \
         \"rejected\": %d, \"errors\": %d}"
        r.engine r.concurrency r.phase r.requests r.wall_s r.throughput_rps
        r.p50_ms r.p95_ms r.p99_ms r.rejected r.errors
    in
    Fmt.str
      "  \"host_cores\": %d,\n  \"workers\": %d,\n  \"queue_bound\": %d,\n\
      \  \"rows\": [\n%s\n  ]"
      (Domain.recommended_domain_count ())
      workers queue
      (String.concat ",\n" (List.map row rows))
end

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* exec: compiled plan execution vs the interpreter on the company      *)
(* workload.  Plans are chosen once against a small sample store (the   *)
(* optimizer's normal costing path); each chosen plan then executes on  *)
(* scaled stores through both backends.  Timings are best-of-N wall     *)
(* clock, and every cell checks compiled ≡ interpreted (modulo set      *)
(* ordering) before it is reported.                                     *)

module Exec_bench = struct
  module Exec = Kola_exec.Exec

  let now () = Kola_telemetry.Telemetry.now ()

  (* The third component marks queries whose interpreted run is
     structurally super-linear (a closed membership subquery re-evaluated
     per element, a nested-loop intersection): their interpreted
     measurement is skipped at 10^6 objects, where it would take minutes,
     and the row records the compiled time alone. *)
  let queries =
    [
      ("dept_roster", Datagen.Company.dept_roster_oql, false);
      ("mentor_pool", Datagen.Company.mentor_pool_oql, false);
      ("city_salaries", Datagen.Company.city_salaries_oql, false);
      ("payroll", Datagen.Company.payroll_oql, false);
      ("rich_mentors", Datagen.Company.rich_mentors_oql, false);
      ("local_staff", Datagen.Company.local_staff_oql, true);
      ("mentor_elite", Datagen.Company.mentor_elite_oql, true);
    ]

  type row = {
    query : string;
    size : int;  (* employees in the scaled store *)
    layout : string;  (* store layout the compiled cell ran under *)
    jobs : int;  (* domains columnar kernels could fan out to *)
    interp_ms : float option;
        (* interp-hashed, the chosen plan's dedup; None when the
           interpreted run was skipped as intractable at this size *)
    compiled_ms : float;  (* compile + run wall clock *)
    compile_us : float;
    speedup : float option;
    stages : int;
    col_kernels : int;  (* operators lowered to column kernels *)
    morsels : int;  (* chunks dispatched by columnar kernels *)
    degrades : int;  (* columnar inputs kept on row closures *)
    fell_back : bool;
    agrees : bool option;  (* None when there was no interpreted run *)
    agrees_sampled : bool option;
        (* when the full-size interpreted run was skipped, the same plan
           and backend checked against the interpreter on a deterministic
           10^4-employee sample — every reported cell is agree-checked *)
  }

  let time_best ~trials f =
    let best = ref infinity in
    let result = ref None in
    for _ = 1 to trials do
      let t0 = now () in
      let r = f () in
      let dt = now () -. t0 in
      if dt < !best then best := dt;
      result := Some r
    done;
    (Option.get !result, !best)

  (* The deterministic sample store backing [agrees_sampled]: small
     enough that even the structurally quadratic interpreted runs finish
     in milliseconds, large enough to exercise multi-element groups. *)
  let sample_size = 10_000

  (* [configs] is the (layout × jobs) grid each compiled cell runs
     under; the interpreted baseline is measured once per (query, size)
     and shared across the grid. *)
  let rows ~sizes ~configs =
    let extents = [ "E"; "D" ] in
    let sample = Datagen.Company.db (Datagen.Company.scaled ~seed:77 1_000) in
    let reports =
      List.map
        (fun (name, src, quadratic) ->
          (name, Optimizer.Pipeline.optimize_oql ~extents ~db:sample src, quadratic))
        queries
    in
    let check_store = Datagen.Company.scaled ~seed:77 sample_size in
    let check_db = Datagen.Company.db check_store in
    let check_coldb = lazy (Datagen.Company.columnar check_store) in
    List.concat_map
      (fun size ->
        let store = Datagen.Company.scaled ~seed:77 size in
        let db = Datagen.Company.db store in
        let coldb = lazy (Datagen.Company.columnar store) in
        let trials =
          if size <= 10_000 then 5 else if size <= 100_000 then 3 else 1
        in
        List.concat_map
          (fun (name, report, quadratic) ->
            let interp =
              if quadratic && size >= 1_000_000 then None
              else
                Some
                  (time_best ~trials (fun () ->
                       Optimizer.Pipeline.execute
                         ~backend:(Exec.Interp Eval.Hashed) ~db report))
            in
            List.map
              (fun (layout, jobs) ->
                let pick_coldb c =
                  match layout with
                  | Exec.Columnar -> Some (Lazy.force c)
                  | Exec.Row -> None
                in
                let (cv, st), compiled_s =
                  time_best ~trials (fun () ->
                      Optimizer.Pipeline.execute ~backend:Exec.Compiled ~layout
                        ~jobs ?coldb:(pick_coldb coldb) ~db report)
                in
                let agrees =
                  Option.map (fun ((iv, _), _) -> Exec.agree ~db cv iv) interp
                in
                let agrees_sampled =
                  match agrees with
                  | Some _ -> None
                  | None ->
                    (* the skipped-interp cell is still agree-checked:
                       same plan, same backend configuration, on the
                       deterministic sample store *)
                    let siv, _ =
                      Optimizer.Pipeline.execute
                        ~backend:(Exec.Interp Eval.Hashed) ~db:check_db report
                    in
                    let scv, _ =
                      Optimizer.Pipeline.execute ~backend:Exec.Compiled ~layout
                        ~jobs
                        ?coldb:(pick_coldb check_coldb)
                        ~db:check_db report
                    in
                    Some (Exec.agree ~db:check_db scv siv)
                in
                {
                  query = name;
                  size;
                  layout = Exec.layout_name layout;
                  (* the requested grid cell, not [st.Exec.jobs]: below
                     one morsel the executor now declines the pool, and
                     the tiny-input pin below must still find the cell *)
                  jobs;
                  interp_ms = Option.map (fun (_, s) -> s *. 1e3) interp;
                  compiled_ms = compiled_s *. 1e3;
                  compile_us = st.Exec.compile_us;
                  speedup = Option.map (fun (_, s) -> s /. compiled_s) interp;
                  stages = st.Exec.stages;
                  col_kernels = st.Exec.col_kernels;
                  morsels = st.Exec.morsels;
                  degrades = List.length st.Exec.col_degrades;
                  fell_back = st.Exec.fell_back;
                  agrees;
                  agrees_sampled;
                })
              configs)
          reports)
      sizes

  let table rows =
    Fmt.pr "@.## compiled_execution (interp-hashed vs fused loops)@.";
    Fmt.pr "  %-14s %9s %-8s %4s %12s %12s %9s %7s %7s  %s@." "query" "size"
      "layout" "jobs" "interp" "compiled" "speedup" "kernels" "morsels"
      "check";
    List.iter
      (fun r ->
        let interp =
          match r.interp_ms with
          | Some ms -> Fmt.str "%9.2f ms" ms
          | None -> Fmt.str "%12s" "(skipped)"
        in
        let speedup =
          match r.speedup with
          | Some s -> Fmt.str "%8.1fx" s
          | None -> Fmt.str "%9s" "-"
        in
        Fmt.pr "  %-14s %9d %-8s %4d %s %9.2f ms %s %7d %7d  %s@." r.query
          r.size r.layout r.jobs interp r.compiled_ms speedup r.col_kernels
          r.morsels
          (match (r.agrees, r.agrees_sampled) with
          | Some false, _ -> "MISMATCH"
          | _, Some false -> "MISMATCH-SAMPLED"
          | _ when r.fell_back -> "fell-back"
          | Some true, _ -> "ok"
          | None, Some true -> "ok-sampled"
          | None, None -> "UNCHECKED"))
      rows

  (* Hard pins over a finished row set.  [strict] additionally fails on
     any fallback (the smoke slice: every chosen company plan must stay
     compiled).  Always fails on a disagreement and on a cell nothing
     checked — a skipped interpreted run must leave a sampled check
     behind. *)
  let check_rows ~strict rows =
    List.iter
      (fun r ->
        let cell =
          Fmt.str "%s at %d (%s, jobs %d)" r.query r.size r.layout r.jobs
        in
        (match (r.agrees, r.agrees_sampled) with
        | Some false, _ -> Fmt.failwith "exec bench: %s disagrees with the interpreter" cell
        | _, Some false ->
          Fmt.failwith
            "exec bench: %s disagrees with the interpreter on the %d-employee sample"
            cell sample_size
        | None, None ->
          Fmt.failwith "exec bench: %s was reported without any agree check" cell
        | _ -> ());
        if strict && r.fell_back then
          Fmt.failwith "exec bench: %s unexpectedly fell back" cell)
      rows;
    (* The PR-9 regression pin: rich_mentors compiled must not run
       slower than the interpreter at benchmark scale (it regressed to
       0.84-0.91x before the dedup checks went geometric and the
       translator's dead env-threading got peepholed). *)
    List.iter
      (fun r ->
        if
          r.query = "rich_mentors" && r.layout = "row" && r.size >= 100_000
        then
          match r.speedup with
          | Some s when s < 1.0 ->
            Fmt.failwith
              "exec bench: rich_mentors compiled regressed below the \
               interpreter at %d (%.2fx)"
              r.size s
          | _ -> ())
      rows;
    (* The PR-10 regression pin: below one morsel (65 536 rows) nothing
       can fan out, so extra jobs must cost (almost) nothing.  The seed
       paid a transient domain-pool spawn/join per run and clocked
       0.15-0.21x at 10^3.  A small absolute slack keeps sub-0.1 ms
       cells from tripping on scheduler noise. *)
    let one_morsel = 65_536 in
    List.iter
      (fun r ->
        if r.layout = "columnar" && r.jobs > 1 && r.size <= one_morsel then
          match
            List.find_opt
              (fun b ->
                b.query = r.query && b.size = r.size && b.layout = r.layout
                && b.jobs = 1)
              rows
          with
          | Some base
            when r.compiled_ms > (2.0 *. base.compiled_ms) +. 0.05 ->
            Fmt.failwith
              "exec bench: %s at %d (%s) pays parallel dispatch below one \
               morsel: jobs=%d %.3f ms vs jobs=1 %.3f ms"
              r.query r.size r.layout r.jobs r.compiled_ms base.compiled_ms
          | _ -> ())
      rows

  let json ~mode rows =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\n";
    Buffer.add_string buf (Fmt.str "  \"mode\": %S,\n" mode);
    Buffer.add_string buf
      (Fmt.str "  \"host_cores\": %d,\n" (Domain.recommended_domain_count ()));
    Buffer.add_string buf "  \"rows\": [\n";
    let fopt fmt = function None -> "null" | Some v -> Fmt.str fmt v in
    let bopt = function None -> "null" | Some b -> Bool.to_string b in
    List.iteri
      (fun i r ->
        Buffer.add_string buf
          (Fmt.str
             "    {\"query\": %S, \"size\": %d, \"layout\": %S, \"jobs\": \
              %d, \"interp_ms\": %s, \"compiled_ms\": %.3f, \"compile_us\": \
              %.1f, \"speedup\": %s, \"stages\": %d, \"col_kernels\": %d, \
              \"morsels\": %d, \"degrades\": %d, \"fell_back\": %b, \
              \"agrees\": %s, \"agrees_sampled\": %s}%s\n"
             r.query r.size r.layout r.jobs
             (fopt "%.3f" r.interp_ms)
             r.compiled_ms r.compile_us
             (fopt "%.2f" r.speedup)
             r.stages r.col_kernels r.morsels r.degrades r.fell_back
             (bopt r.agrees) (bopt r.agrees_sampled)
             (if i = List.length rows - 1 then "" else ",")))
      rows;
    Buffer.add_string buf "  ]\n}\n";
    Buffer.contents buf
end

let () =
  let rec parse = function
    | [] -> ()
    | "--fast" :: rest ->
      fast := true;
      parse rest
    | "--smoke" :: rest ->
      smoke := true;
      parse rest
    | "--parallel" :: rest ->
      parallel_only := true;
      parse rest
    | "--hashcons" :: rest ->
      hashcons_only := true;
      parse rest
    | "--egraph" :: rest ->
      egraph_only := true;
      parse rest
    | "--serve" :: rest ->
      serve_only := true;
      parse rest
    | "--exec" :: rest ->
      exec_only := true;
      parse rest
    | "--out" :: file :: rest ->
      out_file := file;
      out_file_given := true;
      parse rest
    | _ :: rest -> parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !hashcons_only then begin
    (* the interned-core group alone: `make bench-hashcons` *)
    Fmt.pr "KOLA hash-consed core benchmark@.";
    Fmt.pr "===============================@.";
    let micros = hashcons_micro ~repeats:(if !fast then 200 else 2_000) () in
    let rows =
      parallel_scaling_rows ~jobs_list:[ 1; 2; 4 ]
        ~repeats:(if !fast then 2 else 5)
    in
    hashcons_table micros rows;
    if not !out_file_given then out_file := "BENCH_hashcons.json";
    let oc = open_out !out_file in
    output_string oc (Fmt.str "{\n%s\n}\n" (hashcons_json micros rows));
    close_out oc;
    Fmt.pr "  wrote %s@." !out_file;
    Fmt.pr "@.done.@."
  end
  else if !egraph_only then begin
    (* the saturation-vs-BFS group alone: `make bench-egraph` *)
    Fmt.pr "KOLA equality-saturation benchmark@.";
    Fmt.pr "==================================@.";
    let rows = egraph_rows () in
    egraph_table rows;
    if not !out_file_given then out_file := "BENCH_egraph.json";
    let oc = open_out !out_file in
    output_string oc (Fmt.str "{\n%s\n}\n" (egraph_json rows));
    close_out oc;
    Fmt.pr "  wrote %s@." !out_file;
    Fmt.pr "@.done.@."
  end
  else if !exec_only then begin
    (* compiled execution vs the interpreter: `make bench-exec` *)
    Fmt.pr "KOLA compiled-execution benchmark@.";
    Fmt.pr "=================================@.";
    let sizes =
      if !fast then [ 1_000; 100_000 ] else [ 1_000; 100_000; 1_000_000 ]
    in
    (* The layout × jobs grid: the row baseline, sequential columnar, and
       columnar fanned out over 4 domains (morsel boundaries and merge
       order are jobs-independent, so every cell must agree). *)
    let configs =
      [
        (Kola_exec.Exec.Row, 1);
        (Kola_exec.Exec.Columnar, 1);
        (Kola_exec.Exec.Columnar, 4);
      ]
    in
    let rows = Exec_bench.rows ~sizes ~configs in
    Exec_bench.table rows;
    Exec_bench.check_rows ~strict:false rows;
    if not !out_file_given then out_file := "BENCH_exec.json";
    let oc = open_out !out_file in
    output_string oc
      (Exec_bench.json ~mode:(if !fast then "fast" else "full") rows);
    close_out oc;
    Fmt.pr "  wrote %s@." !out_file;
    Fmt.pr "@.done.@."
  end
  else if !serve_only then begin
    (* the serving group alone: `make bench-serve` *)
    Fmt.pr "KOLA serving benchmark (kolaoptd)@.";
    Fmt.pr "=================================@.";
    let concurrency_list = if !fast then [ 1; 4 ] else [ 1; 4; 16; 64 ] in
    let requests = if !fast then 24 else 96 in
    let rows, workers = Serve_bench.rows ~concurrency_list ~requests in
    Serve_bench.table rows;
    if not !out_file_given then out_file := "BENCH_serve.json";
    let oc = open_out !out_file in
    output_string oc
      (Fmt.str "{\n%s\n}\n" (Serve_bench.json ~workers ~queue:128 rows));
    close_out oc;
    Fmt.pr "  wrote %s@." !out_file;
    Fmt.pr "@.done.@."
  end
  else if !parallel_only then begin
    (* the scaling curve alone: `make bench-parallel` *)
    Fmt.pr "KOLA parallel-exploration scaling benchmark@.";
    Fmt.pr "===========================================@.";
    let rows =
      parallel_scaling_rows ~jobs_list:[ 1; 2; 4; 8 ]
        ~repeats:(if !fast then 2 else 5)
    in
    parallel_table rows;
    if not !out_file_given then out_file := "BENCH_parallel.json";
    let oc = open_out !out_file in
    output_string oc (Fmt.str "{\n%s\n}\n" (parallel_json rows));
    close_out oc;
    Fmt.pr "  wrote %s@." !out_file;
    Fmt.pr "@.done.@."
  end
  else if !smoke then begin
    (* engine-internals only: the CI-sized smoke run behind @bench-smoke,
       plus a 2-domain sanity point of the scaling curve *)
    Fmt.pr "KOLA engine-internals smoke benchmark@.";
    Fmt.pr "=====================================@.";
    benchmark_group "engine_internals" engine_tests;
    (* compiled-exec sanity rows: chosen plans at 10^3 under both
       layouts and jobs 1/2, checked against the interpreter — a
       disagreement, an unchecked cell, or an unexpected fallback fails
       the smoke (and with it `make check`), not just the report *)
    let exec_rows =
      Exec_bench.rows ~sizes:[ 1_000 ]
        ~configs:
          [
            (Kola_exec.Exec.Row, 1);
            (Kola_exec.Exec.Columnar, 1);
            (Kola_exec.Exec.Columnar, 2);
          ]
    in
    Exec_bench.table exec_rows;
    Exec_bench.check_rows ~strict:true exec_rows;
    let rows = parallel_scaling_rows ~jobs_list:[ 1; 2 ] ~repeats:2 in
    parallel_table rows;
    (* sanity slice of the interned core: tiny repeats, 1 and 2 domains *)
    let micros = hashcons_micro ~repeats:100 () in
    let hc_rows = parallel_scaling_rows ~jobs_list:[ 1; 2; 4 ] ~repeats:2 in
    hashcons_table micros hc_rows;
    (* small-budget slice of the saturation group *)
    let eg_rows = egraph_rows () in
    egraph_table eg_rows;
    engine_report ~parallel_rows:rows
      ~hashcons_fragment:(hashcons_json micros hc_rows)
      ~egraph_fragment:(egraph_json eg_rows) ();
    Fmt.pr "@.done.@."
  end
  else begin
  Fmt.pr "KOLA reproduction benchmarks (one group per DESIGN.md experiment)@.";
  Fmt.pr "==================================================================@.";
  benchmark_group "table1_basic_combinators (E-T1)" table1_tests;
  benchmark_group "table2_query_combinators (E-T2)" table2_tests;
  benchmark_group "fig1_aqua_vs_kola_rules (E-F1)" fig1_tests;
  benchmark_group "fig6_code_motion (E-F2/E-F6)" fig6_tests;
  benchmark_group "fig3_garage_eval (E-F3)" fig3_tests;
  fig3_cost_table ();
  benchmark_group "fig4_kola_derivations (E-F4)" fig4_tests;
  benchmark_group "fig8_untangle (E-F8)" fig8_tests;
  fig8_table ();
  benchmark_group "sec42_translation (E-C1)" sec42_tests;
  sec42_table ();
  benchmark_group "rule_matching_throughput" matching_tests;
  benchmark_group "certification (E-C2)" cert_tests;
  cert_table ();
  benchmark_group "ablation_monolithic_vs_gradual" ablation_tests;
  ablation_table ();
  benchmark_group "search_vs_coko" search_tests;
  search_table ();
  benchmark_group "optimizer_pipeline" pipeline_tests;
  benchmark_group "engine_internals" engine_tests;
  let parallel_rows =
    parallel_scaling_rows
      ~jobs_list:(if !fast then [ 1; 2 ] else [ 1; 2; 4; 8 ])
      ~repeats:(if !fast then 2 else 5)
  in
  parallel_table parallel_rows;
  let micros = hashcons_micro ~repeats:(if !fast then 200 else 2_000) () in
  let hc_rows =
    parallel_scaling_rows
      ~jobs_list:(if !fast then [ 1; 2 ] else [ 1; 2; 4 ])
      ~repeats:(if !fast then 2 else 5)
  in
  hashcons_table micros hc_rows;
  let eg_rows = egraph_rows () in
  egraph_table eg_rows;
  engine_report ~parallel_rows
    ~hashcons_fragment:(hashcons_json micros hc_rows)
    ~egraph_fragment:(egraph_json eg_rows) ();
  Fmt.pr "@.done.@."
  end
