(* The telemetry layer and the search deadline.  Two contracts matter:
   recording must be invisible — a traced exploration returns the
   bit-identical outcome of an untraced one, at any jobs count, on both
   engines — and a deadline must degrade gracefully: the outcome says
   [Deadline] and still carries a best-so-far state whose derivation
   [validate_path] accepts. *)

open Kola
open Util
module Search = Optimizer.Search
module Cost = Optimizer.Cost
module Telemetry = Kola_telemetry.Telemetry
module Saturate = Kola_egraph.Saturate

(* ------------------------------------------------------------------ *)
(* The recorder itself                                                 *)

let trace_of f = snd (Telemetry.collecting f)

let tests =
  [
    case "recording is a no-op when no session is active" (fun () ->
        Alcotest.(check bool) "disabled" false (Telemetry.enabled ());
        (* these must neither raise nor leak into a later session *)
        Telemetry.count "orphan";
        Telemetry.observe "orphan.d" 1.0;
        Telemetry.instant "orphan.evt";
        ignore (Telemetry.span "orphan.span" (fun () -> 0));
        let t = trace_of (fun () -> ()) in
        Alcotest.(check int) "no spans" 0 (List.length t.Telemetry.spans);
        Alcotest.(check int) "no counters" 0 (List.length t.Telemetry.counters));
    case "collecting returns the result and the merged trace" (fun () ->
        let r, t =
          Telemetry.collecting (fun () ->
              Telemetry.span "work" (fun () ->
                  Telemetry.count ~n:2 "x";
                  Telemetry.count "x";
                  Telemetry.observe "d" 1.5;
                  Telemetry.observe "d" 0.5;
                  Telemetry.instant ~args:[ ("k", "v") ] "evt";
                  41 + 1))
        in
        Alcotest.(check int) "result flows through" 42 r;
        Alcotest.(check bool) "session closed" false (Telemetry.enabled ());
        Alcotest.(check int) "one span" 1 (List.length t.Telemetry.spans);
        Alcotest.(check string) "span name" "work"
          (List.hd t.Telemetry.spans).Telemetry.name;
        Alcotest.(check (list (pair string int))) "counter summed"
          [ ("x", 3) ] t.Telemetry.counters;
        let d = List.assoc "d" t.Telemetry.dists in
        Alcotest.(check int) "dist n" 2 d.Telemetry.n;
        Alcotest.(check (float 1e-9)) "dist min" 0.5 d.Telemetry.min_v;
        Alcotest.(check (float 1e-9)) "dist max" 1.5 d.Telemetry.max_v;
        let m = List.hd t.Telemetry.marks in
        Alcotest.(check string) "mark name" "evt" m.Telemetry.mname;
        Alcotest.(check (list (pair string string))) "mark args"
          [ ("k", "v") ] m.Telemetry.margs);
    case "spans survive a raising body and aggregate by name" (fun () ->
        let t =
          trace_of (fun () ->
              ignore (Telemetry.span "step" (fun () -> 1));
              try Telemetry.span "step" (fun () -> failwith "boom")
              with Failure _ -> ())
        in
        match Telemetry.span_totals t with
        | [ ("step", calls, total_us) ] ->
          Alcotest.(check int) "both calls recorded" 2 calls;
          Alcotest.(check bool) "time accumulated" true (total_us >= 0.)
        | other ->
          Alcotest.failf "unexpected totals (%d rows)" (List.length other));
    case "the chrome exporter emits the events and escapes names" (fun () ->
        let t =
          trace_of (fun () ->
              ignore (Telemetry.span {|we"ird\name|} (fun () -> ()));
              Telemetry.count "search.positions";
              Telemetry.instant ~args:[ ("rule", "r11") ] "trunc")
        in
        let json = Telemetry.to_chrome t in
        Alcotest.(check bool) "traceEvents" true (contains json "traceEvents");
        Alcotest.(check bool) "quote escaped" true (contains json {|we\"ird|});
        Alcotest.(check bool) "backslash escaped" true
          (contains json {|\\name|});
        Alcotest.(check bool) "counter present" true
          (contains json "search.positions");
        Alcotest.(check bool) "instant args" true (contains json "r11"));
    case "a traced exploration records the search's own events" (fun () ->
        let t =
          trace_of (fun () ->
              ignore
                (Search.explore
                   ~config:
                     {
                       Search.default_config with
                       max_depth = 2;
                       max_states = 50;
                       cost_cache = Some (Cost.cache ());
                     }
                   Paper.t1k_source))
        in
        Alcotest.(check bool) "explore span" true
          (List.exists
             (fun (s : Telemetry.span_ev) -> s.Telemetry.name = "search.explore")
             t.Telemetry.spans);
        Alcotest.(check bool) "positions counted" true
          (match List.assoc_opt "search.positions" t.Telemetry.counters with
          | Some n -> n > 0
          | None -> false);
        Alcotest.(check bool) "per-rule counters" true
          (List.exists
             (fun (name, _) ->
               contains name "rule.fire." || contains name "rule.miss.")
             t.Telemetry.counters);
        Alcotest.(check bool) "stop instant" true
          (List.exists
             (fun (m : Telemetry.mark) -> m.Telemetry.mname = "search.stop")
             t.Telemetry.marks));
  ]

(* ------------------------------------------------------------------ *)
(* Deadlines                                                           *)

(* Replay a derivation's rule names into the stepwise form
   [validate_path] checks: at each step, search the successors for a
   firing of the named rule that lets the rest of the path replay. *)
let rec replay rules q = function
  | [] -> Some []
  | name :: rest ->
    Search.successors rules q
    |> List.filter (fun (rn, _) -> rn = name)
    |> List.find_map (fun (rn, q') ->
           Option.map (fun steps -> (rn, q') :: steps) (replay rules q' rest))

let deadline_tests =
  [
    case "an expired deadline returns Deadline with a valid best-so-far"
      (fun () ->
        let o =
          Search.explore
            ~config:
              {
                Search.default_config with
                max_depth = 8;
                max_states = 1_000_000;
                deadline = Some 0.02;
              }
            Paper.kg1
        in
        Alcotest.(check string) "stop reason" "deadline"
          (Search.stop_reason_label o.Search.stop);
        Alcotest.(check bool) "frontier not exhausted" false
          o.Search.frontier_exhausted;
        (* the best-so-far derivation must replay and validate *)
        match replay Rules.Catalog.all Paper.kg1 o.Search.best.Search.path with
        | None -> Alcotest.fail "best path does not replay"
        | Some steps ->
          Alcotest.(check bool) "validate_path accepts" true
            (Search.validate_path Paper.kg1 steps);
          let final =
            match List.rev steps with [] -> Paper.kg1 | (_, q) :: _ -> q
          in
          Alcotest.check query "replay reaches the best state"
            o.Search.best.Search.query final);
    case "a generous deadline never interrupts" (fun () ->
        let o =
          Search.explore
            ~config:
              {
                Search.default_config with
                max_depth = 2;
                max_states = 10_000;
                deadline = Some 3600.;
              }
            Paper.t1k_source
        in
        Alcotest.(check string) "exhausted" "exhausted"
          (Search.stop_reason_label o.Search.stop);
        Alcotest.(check bool) "flag agrees" true o.Search.frontier_exhausted);
    case "a state budget reports Budget, not Deadline" (fun () ->
        let o =
          Search.explore
            ~config:
              { Search.default_config with max_depth = 8; max_states = 2 }
            Paper.kg1
        in
        Alcotest.(check string) "budget" "budget"
          (Search.stop_reason_label o.Search.stop));
    case "the egraph engine maps a tripped time budget to Deadline"
      (fun () ->
        let o =
          Search.explore
            ~config:
              {
                Search.default_config with
                engine = Search.Egraph;
                deadline = Some 0.02;
              }
            Paper.kg1
        in
        Alcotest.(check string) "deadline" "deadline"
          (Search.stop_reason_label o.Search.stop);
        match o.Search.saturation with
        | Some s ->
          Alcotest.(check string) "saturation stopped on time" "time-budget"
            (Saturate.stop_reason_label s.Saturate.stop)
        | None -> Alcotest.fail "no saturation stats under Egraph");
  ]

(* ------------------------------------------------------------------ *)
(* Tracing invariance: qcheck over random queries                      *)

let random_query i depth =
  Translate.Compile.query (Datagen.Queries.query ~seed:i ~depth)

(* Fresh caches per run: the traced and untraced runs must not feed each
   other through the shared cost cache. *)
let bfs_config jobs =
  {
    Search.default_config with
    max_depth = 2;
    max_states = 60;
    jobs;
    cost_cache = Some (Cost.cache ());
  }

(* A huge time budget and tight node/iteration budgets keep the
   saturation stop reason deterministic, so the signatures can include
   it. *)
let egraph_config () =
  {
    Search.default_config with
    engine = Search.Egraph;
    egraph_budgets =
      { Saturate.max_enodes = 2_000; max_iterations = 6; max_millis = 1e9 };
  }

(* Everything deterministic in the outcome; wall-clock fields and the
   globally-shared intern-table accounting are excluded. *)
let bfs_signature (o : Search.outcome) =
  ( Pretty.query_to_string o.Search.best.Search.query,
    o.Search.best.Search.path,
    o.Search.best.Search.cost,
    o.Search.explored,
    o.Search.seen_states,
    o.Search.frontier_exhausted,
    Search.stop_reason_label o.Search.stop )

let egraph_signature (o : Search.outcome) =
  let s =
    match o.Search.saturation with
    | Some s -> s
    | None -> failwith "no saturation stats"
  in
  ( Pretty.query_to_string o.Search.best.Search.query,
    o.Search.best.Search.path,
    o.Search.best.Search.cost,
    ( s.Saturate.iterations,
      s.Saturate.e_nodes,
      s.Saturate.e_classes,
      s.Saturate.unions,
      Saturate.stop_reason_label s.Saturate.stop ) )

let traced_equals_untraced signature mk_config q =
  let plain = Search.explore ~config:(mk_config ()) q in
  let traced, _trace =
    Telemetry.collecting (fun () -> Search.explore ~config:(mk_config ()) q)
  in
  signature plain = signature traced

let props =
  let open QCheck in
  let arb depth =
    QCheck.make
      ~print:(fun i -> Pretty.query_to_string (random_query i depth))
      QCheck.Gen.(int_bound 1_000_000)
  in
  [
    Test.make ~count:12
      ~name:"tracing never changes a BFS outcome (jobs 1 and 4)" (arb 2)
      (fun i ->
        let q = random_query i 2 in
        List.for_all
          (fun jobs ->
            traced_equals_untraced bfs_signature (fun () -> bfs_config jobs) q)
          [ 1; 4 ]);
    Test.make ~count:8
      ~name:"tracing never changes an egraph outcome" (arb 2)
      (fun i ->
        let q = random_query i 2 in
        traced_equals_untraced egraph_signature egraph_config q);
  ]

let tests =
  tests @ deadline_tests
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) props
