(* Ablation (Section 4.2's discussion): a monolithic hidden-join rule with
   deep-diving head routine and hard-coded body routine, against the
   gradual five-step strategy. *)

open Kola
open Util

let translated depth = Translate.Compile.query (Aqua.Examples.hidden_join_depth depth)

let expected depth =
  resolved tiny_db
    (Aqua.Eval.eval_closed ~db:tiny_db (Aqua.Examples.hidden_join_depth depth))

let tests =
  [
    case "monolithic handles its anticipated depths correctly" (fun () ->
        List.iter
          (fun depth ->
            match Baseline.Monolithic.transform (translated depth) with
            | Some q' ->
              Alcotest.check value
                (Fmt.str "depth %d" depth)
                (expected depth)
                (resolved tiny_db (eval_tiny q'))
            | None -> Alcotest.failf "depth %d should be handled" depth)
          [ 1; 2 ]);
    case "monolithic handles the garage query" (fun () ->
        let q = Translate.Compile.query Aqua.Examples.garage in
        match Baseline.Monolithic.transform q with
        | Some q' ->
          Alcotest.check value "garage"
            (resolved tiny_db (eval_tiny Paper.kg1))
            (resolved tiny_db (eval_tiny q'))
        | None -> Alcotest.fail "garage should be handled");
    case "monolithic fails beyond its anticipated depths (generality gap)"
      (fun () ->
        List.iter
          (fun depth ->
            Alcotest.check Alcotest.bool
              (Fmt.str "depth %d rejected" depth)
              true
              (Option.is_none (Baseline.Monolithic.transform (translated depth))))
          [ 3; 4; 5; 6; 8 ]);
    case "the gradual strategy handles every depth the monolithic cannot"
      (fun () ->
        List.iter
          (fun depth ->
            let o, blocks = Coko.Programs.hidden_join (translated depth) in
            Alcotest.check Alcotest.bool
              (Fmt.str "depth %d applied" depth)
              true
              (List.for_all snd blocks);
            Alcotest.check value
              (Fmt.str "depth %d correct" depth)
              (expected depth)
              (resolved tiny_db (eval_tiny o.Coko.Block.query)))
          [ 3; 4; 5; 6 ]);
    case "the failed monolithic match still paid a dive proportional to depth"
      (fun () ->
        let c3 = Baseline.Monolithic.match_cost (translated 3) in
        let c6 = Baseline.Monolithic.match_cost (translated 6) in
        Alcotest.check Alcotest.bool
          (Fmt.str "cost grows (%d < %d)" c3 c6)
          true (c3 < c6);
        (* the head-routine cost column of EXPERIMENTS.md's ablation
           table: 3 nodes per layer plus one *)
        List.iter
          (fun (depth, cost) ->
            Alcotest.(check int)
              (Fmt.str "depth %d head-routine cost" depth)
              cost
              (Baseline.Monolithic.match_cost (translated depth)))
          [ (1, 4); (2, 7); (3, 10); (4, 13); (6, 19); (8, 25) ]);
    case "a failed monolithic rule leaves the query unsimplified" (fun () ->
        let q = translated 4 in
        (* monolithic: no transformation at all *)
        Alcotest.check Alcotest.bool "unchanged" true
          (Option.is_none (Baseline.Monolithic.transform q));
        (* gradual: even when we cut the pipeline after step 1, the query is
           already smaller-grained (broken into an iterate chain) *)
        let o = Coko.Block.run Coko.Programs.breakup q in
        Alcotest.check Alcotest.bool "breakup applied" true o.Coko.Block.applied;
        Alcotest.check Alcotest.bool "chain lengthened" true
          (List.length (Term.unchain o.Coko.Block.query.Term.body)
          > List.length (Term.unchain q.Term.body)));
    case "head routine recognises the Figure 7 form structurally" (fun () ->
        match Baseline.Monolithic.recognize (translated 3) with
        | Some r ->
          Alcotest.check Alcotest.int "three layers" 3
            (List.length r.Baseline.Monolithic.layers)
        | None -> Alcotest.fail "should recognise");
    case "head routine rejects non-hidden-join queries" (fun () ->
        Alcotest.check Alcotest.bool "k4 rejected" true
          (Option.is_none (Baseline.Monolithic.recognize Paper.k4)));
  ]
