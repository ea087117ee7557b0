(* Golden search outcomes: the BFS results of the paper's KOLA queries at
   the kolaopt CLI defaults (depth 6, 2 000 states, sample store of 40
   people / 30 vehicles / seed 42), recorded once and checked at 1, 2 and
   4 domains: best plan, derivation, cost, explored and distinct state
   counts, stop reason, and the derivations [reaches] finds.  Any change
   to the engine must reproduce them bit for bit. *)

open Kola
open Util
module Search = Optimizer.Search
module Cost = Optimizer.Cost

let cli_db =
  Datagen.Store.db
    (Datagen.Store.generate
       { Datagen.Store.default_params with people = 40; vehicles = 30; seed = 42 })

(* A fresh cost cache per run, so the miss count is the number of
   distinct states costed, whatever ran before. *)
let cli_config jobs =
  {
    Search.default_config with
    max_depth = 6;
    max_states = 2_000;
    sample_db = cli_db;
    jobs;
    cost_cache = Some (Cost.cache ());
  }

type golden = {
  name : string;
  source : Term.query;
  best : string;  (** pretty-printed best plan *)
  path : string list;
  cost : float;
  explored : int;
  seen : int;
}

let goldens =
  [
    {
      name = "T1K";
      source = Paper.t1k_source;
      best = {|iterate(Kp(T), city ∘ addr) ! P|};
      path = [ "r11"; "r5"; "r6t" ];
      cost = 56.1;
      explored = 5;
      seen = 5;
    };
    {
      name = "T2K";
      source = Paper.t2k_source;
      best = {|iterate((gt ⊕ ⟨age, Kf(25)⟩), age) ! P|};
      path = [ "r11"; "r1"; "r4"; "r5c" ];
      cost = 63.4;
      explored = 20;
      seen = 21;
    };
    {
      name = "K4";
      source = Paper.k4;
      best =
        {|iterate(Kp(T),
        ⟨id,
           con(((Cp(gtᵒ, 25) ⊕ age) ⊕ π1), π2, Kf({})) ∘
           ⟨id, child⟩⟩)
! P|};
      path = [ "r13"; "r14"; "r15" ];
      cost = 104.1;
      explored = 284;
      seen = 892;
    };
    {
      name = "KG1";
      source = Paper.kg1;
      best =
        {|iterate(Kp(T),
        ⟨id,
           flat ∘
           iter(Kp(T), grgs ∘ π2) ∘
           ⟨id, iter((in ⊕ (id × cars)), π2) ∘ ⟨id, Kf(P)⟩⟩⟩)
! V|};
      path = [ "hk-times-l" ];
      cost = 3040.1;
      explored = 664;
      seen = 2865;
    };
  ]

let jobs_grid = [ 1; 2; 4 ]

let with_flips =
  Rules.Catalog.all
  @ List.map Rewrite.Rule.flip (Rules.Catalog.rules [ "r14"; "r12" ])

let tests =
  List.map
    (fun g ->
      case (Fmt.str "%s explore matches its golden outcome at jobs 1/2/4" g.name)
        (fun () ->
          List.iter
            (fun jobs ->
              let o = Search.explore ~config:(cli_config jobs) g.source in
              let at what = Fmt.str "%s @ jobs=%d: %s" g.name jobs what in
              Alcotest.(check string)
                (at "best plan") g.best
                (Pretty.query_to_string o.Search.best.Search.query);
              Alcotest.(check (list string))
                (at "derivation") g.path o.Search.best.Search.path;
              Alcotest.(check (float 0.)) (at "cost") g.cost
                o.Search.best.Search.cost;
              Alcotest.(check int) (at "explored") g.explored o.Search.explored;
              Alcotest.(check int) (at "distinct states") g.seen
                o.Search.seen_states;
              Alcotest.(check string)
                (at "stop") "exhausted"
                (Search.stop_reason_label o.Search.stop);
              Alcotest.(check int)
                (at "fresh cache costs every state once")
                g.seen o.Search.cache_misses;
              Alcotest.(check bool)
                (at "interning shares nodes") true
                (o.Search.intern_hits > 0))
            jobs_grid))
    goldens
  @ [
      case "reaches finds the golden derivations at jobs 1/2/4" (fun () ->
          List.iter
            (fun jobs ->
              let reach ?(config = cli_config jobs) q target =
                Search.reaches ~config:{ config with jobs } q target
              in
              let at what = Fmt.str "%s @ jobs=%d" what jobs in
              Alcotest.(check (option (list string)))
                (at "T1K -> t1k_target")
                (Some [ "r11"; "r5"; "r6t" ])
                (reach Paper.t1k_source Paper.t1k_target);
              (* T2K needs rule 12 right-to-left: out of reach of the
                 forward catalog, found once the flips are added *)
              Alcotest.(check (option (list string)))
                (at "T2K -> t2k_target, forward catalog")
                None
                (reach Paper.t2k_source Paper.t2k_target);
              Alcotest.(check (option (list string)))
                (at "T2K -> t2k_target, with flips")
                (Some [ "r11"; "r1"; "r4"; "r13"; "r5c"; "r12-1" ])
                (reach
                   ~config:
                     {
                       Search.default_config with
                       rules = with_flips;
                       max_depth = 8;
                       max_states = 4_000;
                     }
                   Paper.t2k_source Paper.t2k_target);
              Alcotest.(check (option (list string)))
                (at "KG1 -> KG2 stays out of reach")
                None
                (reach Paper.kg1 Paper.kg2))
            jobs_grid);
    ]
