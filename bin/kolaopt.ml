(* kolaopt: command-line driver for the KOLA optimizer pipeline.

     kolaopt explain "select p.age from p in P where p.age > 25"
     kolaopt run     "select p.addr.city from p in P" --people 100
     kolaopt run     "select e.ename from e in E" --schema company
     kolaopt rules --certify
     kolaopt untangle
*)

open Cmdliner

let people =
  Arg.(
    value & opt int 40
    & info [ "people" ]
        ~doc:"Number of persons in P (employees in E under $(b,--schema company)).")

let vehicles =
  Arg.(value & opt int 30 & info [ "vehicles" ] ~doc:"Number of vehicles in V.")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Generator seed.")

let paper_store people vehicles seed =
  Datagen.Store.generate
    { Datagen.Store.default_params with people; vehicles; seed }

(* A generated store of either schema, built when a command runs (inside
   [handle_errors]), with the extents its queries range over. *)
type schema_store = {
  db : (string * Kola.Value.t) list;
  columnar : unit -> Kola.Colstore.db;
  extents : string list option;  (** [None]: the parser's P, V, A *)
}

let schema_store_term =
  let schema =
    Arg.(
      value
      & opt (enum [ ("paper", `Paper); ("company", `Company) ]) `Paper
      & info [ "schema" ] ~docv:"SCHEMA"
          ~doc:
            "Schema of the generated store: $(b,paper) (extents P, V, A) or \
             $(b,company) (extents E and D, with $(b,--people) employees).")
  in
  let make schema people vehicles seed () =
    match schema with
    | `Paper ->
      let s = paper_store people vehicles seed in
      {
        db = Datagen.Store.db s;
        columnar = (fun () -> Datagen.Store.columnar s);
        extents = None;
      }
    | `Company ->
      let c = Datagen.Company.scaled ~seed people in
      {
        db = Datagen.Company.db c;
        columnar = (fun () -> Datagen.Company.columnar c);
        extents = Some [ "E"; "D" ];
      }
  in
  Term.(const make $ schema $ people $ vehicles $ seed)

let query_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"OQL"
        ~doc:"An OQL query over extents P, V, A (E, D under $(b,--schema company)).")

let handle_errors f =
  try f () with
  | Oql.Parser.Error msg | Oql.Lexer.Error msg | Kola.Parse.Error msg ->
    Fmt.epr "parse error: %s@." msg;
    exit 1
  | Translate.Compile.Untranslatable msg ->
    Fmt.epr "translation error: %s@." msg;
    exit 1
  | Kola.Eval.Error msg | Aqua.Eval.Error msg ->
    Fmt.epr "evaluation error: %s@." msg;
    exit 1
  | Coko.Syntax.Error msg ->
    Fmt.epr "coko error: %s@." msg;
    exit 1
  | Invalid_argument msg ->
    Fmt.epr "invalid argument: %s@." msg;
    exit 1

(* Load a .coko rule pack and gate it through the certifier (persisted
   cache at [cache_path] when given).  Admission is all-or-nothing: any
   refuted or vacuous rule prints every failing verdict and exits 3 —
   a bad rule is never silently dropped. *)
let admit_pack ?cache_path ?strategy path =
  let cache =
    match cache_path with
    | Some p -> Rules.Cert.Cache.load p
    | None -> Rules.Cert.Cache.in_memory ()
  in
  let outcome = Coko.Pack.admit ?strategy ~cache (Coko.Pack.load path) in
  Rules.Cert.Cache.save cache;
  match outcome with
  | Ok a -> (a, cache)
  | Error a ->
    Fmt.epr "%a@." Coko.Pack.pp_rejection a;
    exit 3

let explain_cmd =
  let run src store =
    handle_errors (fun () ->
        let { db; extents; _ } = store () in
        let report = Optimizer.Pipeline.optimize_oql ?extents ~db src in
        Optimizer.Pipeline.pp_report Fmt.stdout report)
  in
  Cmd.v
    (Cmd.info "explain" ~doc:"Show the full optimization report for a query.")
    Term.(const run $ query_arg $ schema_store_term)

let run_cmd =
  (* Validated at the cmdliner layer: an unknown backend is a usage error
     listing the accepted names — the same parser the daemon's "execute"
     request field uses. *)
  let backend_conv =
    let parse s =
      Result.map_error (fun m -> `Msg m) (Kola_exec.Exec.backend_of_string s)
    in
    let print ppf b = Fmt.string ppf (Kola_exec.Exec.backend_name b) in
    Arg.conv ~docv:"BACKEND" (parse, print)
  in
  let execute =
    Arg.(
      value
      & opt (some backend_conv) None
      & info [ "execute" ] ~docv:"BACKEND"
          ~doc:
            "Execution backend for the chosen plan: $(b,compiled) (fuse the \
             plan into loop closures; unsupported plans fall back to the \
             interpreter, reported in --stats), $(b,interp) (the hashed \
             interpreter), or $(b,interp-naive).  Default: the hashed \
             interpreter, the backend every candidate plan is costed on.")
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Run the chosen plan on both the compiled backend and the \
             interpreter and fail (exit 1) unless the results agree modulo \
             set ordering.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Print execution statistics (compile/run time, loop counters).")
  in
  let exec_stats =
    Arg.(
      value & flag
      & info [ "exec-stats" ]
          ~doc:
            "Print execution statistics including the columnar counters \
             (layout, jobs, column kernels, morsels, degrade reasons).  \
             Synonym of --stats; both print the same line.")
  in
  (* Validated at the cmdliner layer like --execute: an unknown layout is
     a usage error listing the accepted names — the same parser the
     daemon's "layout" request field uses. *)
  let layout_conv =
    let parse s =
      Result.map_error (fun m -> `Msg m) (Kola_exec.Exec.layout_of_string s)
    in
    let print ppf l = Fmt.string ppf (Kola_exec.Exec.layout_name l) in
    Arg.conv ~docv:"LAYOUT" (parse, print)
  in
  let layout =
    Arg.(
      value
      & opt (some layout_conv) None
      & info [ "layout" ] ~docv:"LAYOUT"
          ~doc:
            "Store layout for the $(b,compiled) backend: $(b,row) (the \
             default: boxed values, fused row closures) or $(b,columnar) \
             (typed column vectors; eligible operators run as vectorised \
             column kernels, the rest keep the row closures — counted in \
             the stats).  Results are identical across layouts.")
  in
  let jobs =
    (* Validated at the cmdliner layer: negative counts are a usage error
       rather than being silently resolved like 0 is.  Same validator as
       the daemon's "jobs" request field. *)
    let nonneg =
      let parse s =
        match Arg.conv_parser Arg.int s with
        | Ok n ->
          Result.map_error
            (fun m -> `Msg m)
            (Kola_server.Protocol.nonneg_int ~what:"--jobs" n)
        | Error _ as e -> e
      in
      Arg.conv ~docv:"JOBS" (parse, Arg.conv_printer Arg.int)
    in
    Arg.(
      value & opt nonneg 1
      & info [ "jobs" ] ~docv:"JOBS"
          ~doc:
            "Domains the columnar layout may fan pure kernels out to over \
             fixed-size morsels (1 = sequential; 0 = one per recommended \
             core).  Morsel boundaries and merge order never depend on the \
             setting, so results are bit-identical at every value.")
  in
  let run src store execute verify stats exec_stats layout jobs =
    handle_errors (fun () ->
        let { db; columnar; extents } = store () in
        let stats = stats || exec_stats in
        let coldb =
          match layout with
          | Some Kola_exec.Exec.Columnar -> Some (columnar ())
          | Some Kola_exec.Exec.Row | None -> None
        in
        let report = Optimizer.Pipeline.optimize_oql ?extents ~db src in
        let result, st =
          Optimizer.Pipeline.execute ?backend:execute ?layout ~jobs ?coldb ~db
            report
        in
        if stats then Fmt.pr "stats: %a@." Kola_exec.Exec.pp_stats st;
        if verify then begin
          let compiled, cst =
            Optimizer.Pipeline.execute ~backend:Kola_exec.Exec.Compiled ?layout
              ~jobs ?coldb ~db report
          in
          let interp = Optimizer.Pipeline.run ~db report in
          if stats then Fmt.pr "stats: %a@." Kola_exec.Exec.pp_stats cst;
          if not (Kola_exec.Exec.agree ~db compiled interp) then begin
            Fmt.epr "verify: compiled and interpreted results disagree@.";
            Fmt.epr "  compiled: %a@." Kola.Value.pp compiled;
            Fmt.epr "  interp:   %a@." Kola.Value.pp interp;
            exit 1
          end;
          Fmt.pr "verify: compiled ≡ interpreted@."
        end;
        Fmt.pr "%a@." Kola.Value.pp result)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Optimize and execute a query against a generated store.")
    Term.(
      const run $ query_arg $ schema_store_term $ execute $ verify $ stats
      $ exec_stats $ layout $ jobs)

let rules_cmd =
  let certify =
    Arg.(value & flag & info [ "certify" ] ~doc:"Certify every rule by randomized testing.")
  in
  let run certify =
    if certify then
      List.iter
        (fun r -> Fmt.pr "%a@." Rules.Cert.pp_result r)
        (Rules.Cert.certify_all Rules.Catalog.all)
    else
      List.iter (fun r -> Fmt.pr "%a@." Rewrite.Rule.pp r) Rules.Catalog.all
  in
  Cmd.v
    (Cmd.info "rules" ~doc:"List (or certify) the rule catalog.")
    Term.(const run $ certify)

let translate_cmd =
  let run src =
    handle_errors (fun () ->
        let aqua = Oql.Parser.parse src in
        let q = Translate.Compile.query aqua in
        let m = Translate.Compile.measure aqua in
        Fmt.pr "AQUA: %a@." Aqua.Pretty.pp aqua;
        Fmt.pr "KOLA: %a@." Kola.Pretty.pp_query q;
        Fmt.pr "size: n=%d m=%d kola=%d ratio=%.2f@."
          m.Translate.Compile.aqua_size m.Translate.Compile.nesting
          m.Translate.Compile.kola_size m.Translate.Compile.ratio)
  in
  Cmd.v
    (Cmd.info "translate"
       ~doc:"Show the AQUA and KOLA translations of an OQL query.")
    Term.(const run $ query_arg)

let coko_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"A COKO source file.")
  in
  let transformation_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "t"; "transformation" ] ~doc:"Transformation to run.")
  in
  let query_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "query" ]
          ~doc:"KOLA query text to transform (default: the Garage Query KG1).")
  in
  let run file transformation query_text =
    handle_errors (fun () ->
        let src =
          let ic = open_in file in
          let n = in_channel_length ic in
          let s = really_input_string ic n in
          close_in ic;
          s
        in
        let q =
          match query_text with
          | Some text -> Kola.Parse.query text
          | None -> Kola.Paper.kg1
        in
        let o = Coko.Syntax.run_source src ~transformation q in
        Fmt.pr "input:   %a@." Kola.Pretty.pp_query q;
        Fmt.pr "applied: %b@." o.Coko.Block.applied;
        Fmt.pr "rules:   %a@."
          Fmt.(list ~sep:comma string)
          (List.map (fun s -> s.Rewrite.Engine.rule_name) o.Coko.Block.trace);
        Fmt.pr "output:  %a@." Kola.Pretty.pp_query o.Coko.Block.query)
  in
  Cmd.v
    (Cmd.info "coko" ~doc:"Run a transformation from a COKO source file.")
    Term.(const run $ file_arg $ transformation_arg $ query_opt)

let untangle_cmd =
  let run () =
    Fmt.pr "KG1 (Figure 3):@.  %a@." Kola.Pretty.pp_query Kola.Paper.kg1;
    ignore
      (List.fold_left
         (fun q block ->
           let o = Coko.Block.run block q in
           Fmt.pr "@.-- %s -->@.  %a@." block.Coko.Block.block_name
             Kola.Pretty.pp_query o.Coko.Block.query;
           o.Coko.Block.query)
         Kola.Paper.kg1 Coko.Programs.hidden_join_steps);
    Fmt.pr "@.= KG2 (Figure 3).@."
  in
  Cmd.v
    (Cmd.info "untangle" ~doc:"Walk the Garage Query through the five-step strategy.")
    Term.(const run $ const ())

let search_cmd =
  let depth =
    Arg.(value & opt int 6 & info [ "depth" ] ~doc:"Maximum derivation length.")
  in
  let states =
    Arg.(value & opt int 2000 & info [ "states" ] ~doc:"State budget.")
  in
  let engine =
    (* Validated at the cmdliner layer: an unknown engine is a usage error
       listing the accepted names, not a silent default. *)
    let engine_conv =
      let parse s =
        match String.lowercase_ascii s with
        | "bfs" -> Ok Optimizer.Search.Bfs
        | "egraph" -> Ok Optimizer.Search.Egraph
        | other ->
          Error
            (`Msg
               (Fmt.str "unknown engine %S, accepted engines: bfs, egraph"
                  other))
      in
      let print ppf = function
        | Optimizer.Search.Bfs -> Fmt.string ppf "bfs"
        | Optimizer.Search.Egraph -> Fmt.string ppf "egraph"
      in
      Arg.conv ~docv:"ENGINE" (parse, print)
    in
    Arg.(
      value
      & opt engine_conv Optimizer.Search.Bfs
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "Search engine: $(b,bfs) (bounded breadth-first exploration) or \
             $(b,egraph) (equality saturation with cost extraction).")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Collect engine telemetry during the search and write a Chrome \
             trace_event JSON file loadable in chrome://tracing or Perfetto \
             (per-rule fire/miss counts, per-level frontier instants, \
             cost-cache and e-graph events).")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Collect engine telemetry and print the compact text summary \
             (span totals, counters, distributions) after the search.")
  in
  let deadline =
    (* Validated at the cmdliner layer: a non-positive deadline is a usage
       error, not an instantly-expired search.  Same validator as the
       daemon's "deadline" request field. *)
    let pos_float =
      let parse s =
        match Arg.conv_parser Arg.float s with
        | Ok d ->
          Result.map_error
            (fun m -> `Msg m)
            (Kola_server.Protocol.positive_float ~what:"--deadline" d)
        | Error _ as e -> e
      in
      Arg.conv ~docv:"SECONDS" (parse, Arg.conv_printer Arg.float)
    in
    Arg.(
      value
      & opt (some pos_float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget in seconds.  When it expires the search \
             stops gracefully and reports the best plan found so far with \
             stop reason $(b,deadline).")
  in
  (* E-graph budget overrides.  Validated at the cmdliner layer like
     --deadline: a non-positive budget is a usage error, not an instantly
     exhausted saturation.  Same validator as the daemon's
     "node_budget"/"iter_budget" request fields. *)
  let pos_int flag =
    let parse s =
      match Arg.conv_parser Arg.int s with
      | Ok n ->
        Result.map_error
          (fun m -> `Msg m)
          (Kola_server.Protocol.positive_int ~what:flag n)
      | Error _ as e -> e
    in
    Arg.conv ~docv:"N" (parse, Arg.conv_printer Arg.int)
  in
  let node_budget =
    Arg.(
      value
      & opt (some (pos_int "--node-budget")) None
      & info [ "node-budget" ] ~docv:"N"
          ~doc:
            "Maximum e-nodes the $(b,egraph) engine may create before \
             stopping with reason $(b,node-budget) (default 20000).")
  in
  let iter_budget =
    Arg.(
      value
      & opt (some (pos_int "--iter-budget")) None
      & info [ "iter-budget" ] ~docv:"N"
          ~doc:
            "Maximum saturation iterations for the $(b,egraph) engine \
             before stopping with reason $(b,iteration-budget) (default \
             12).")
  in
  let paper =
    (* Validated at the cmdliner layer like --engine: unknown names are a
       usage error listing the accepted queries. *)
    let paper_conv =
      let parse s =
        match String.lowercase_ascii s with
        | "t1k" -> Ok ("T1K", Kola.Paper.t1k_source)
        | "t2k" -> Ok ("T2K", Kola.Paper.t2k_source)
        | "k4" -> Ok ("K4", Kola.Paper.k4)
        | "kg1" -> Ok ("KG1", Kola.Paper.kg1)
        | other ->
          Error
            (`Msg
               (Fmt.str "unknown paper query %S, accepted: t1k, t2k, k4, kg1"
                  other))
      in
      let print ppf (name, _) = Fmt.string ppf name in
      Arg.conv ~docv:"QUERY" (parse, print)
    in
    Arg.(
      value
      & opt (some paper_conv) None
      & info [ "paper" ] ~docv:"QUERY"
          ~doc:
            "Search one of the paper's KOLA queries ($(b,t1k), $(b,t2k), \
             $(b,k4), $(b,kg1)) instead of translating a positional OQL \
             argument.")
  in
  (* --paper makes the positional OQL argument optional. *)
  let query_opt =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"OQL"
          ~doc:"An OQL query over extents P, V, A (E, D under $(b,--schema company)).")
  in
  let rules_pack =
    Arg.(
      value
      & opt (some string) None
      & info [ "rules" ] ~docv:"PACK.coko"
          ~doc:
            "Load a COKO rule pack and search with its rules shadowing \
             same-named catalog rules (new rules extend the catalog).  \
             Every pack rule must pass certification first; a refuted or \
             vacuous rule rejects the whole pack (exit 3) with its \
             counterexample.")
  in
  let cert_cache =
    Arg.(
      value
      & opt (some string) None
      & info [ "cert-cache" ] ~docv:"FILE"
          ~doc:
            "Persisted certificate cache for --rules: verdicts are keyed \
             by rule fingerprint and certifier version, so re-admitting an \
             unchanged pack is O(1).")
  in
  let run src store depth states engine trace stats deadline node_budget iter_budget paper rules_pack cert_cache =
    handle_errors (fun () ->
        let { db; extents; _ } = store () in
        let q =
          match (paper, src) with
          | Some (_, q), _ -> q
          | None, Some src ->
            Translate.Compile.query (Oql.Parser.parse ?extents src)
          | None, None ->
            Fmt.epr "search: expected an OQL query or --paper QUERY@.";
            exit 124
        in
        let egraph_budgets =
          let b = Optimizer.Search.default_config.egraph_budgets in
          {
            b with
            Kola_egraph.Saturate.max_enodes =
              Option.value ~default:b.Kola_egraph.Saturate.max_enodes
                node_budget;
            max_iterations =
              Option.value ~default:b.Kola_egraph.Saturate.max_iterations
                iter_budget;
          }
        in
        let pack =
          Option.map
            (fun path -> admit_pack ?cache_path:cert_cache path)
            rules_pack
        in
        let rules =
          match pack with
          | None -> Optimizer.Search.default_config.rules
          | Some (a, cache) ->
            List.iter
              (fun v -> Fmt.pr "pack: %a@." Rules.Cert.pp_verdict v)
              a.Coko.Pack.verdicts;
            Fmt.pr "pack: cert cache %d hits, %d misses@."
              (Rules.Cert.Cache.hits cache)
              (Rules.Cert.Cache.misses cache);
            Coko.Pack.shadow ~base:Rules.Catalog.all
              (Coko.Pack.rules a.Coko.Pack.pack)
        in
        let config =
          {
            Optimizer.Search.default_config with
            engine;
            rules;
            max_depth = depth;
            max_states = states;
            sample_db = db;
            deadline;
            egraph_budgets;
          }
        in
        let collect = trace <> None || stats in
        if collect then Kola_telemetry.Telemetry.start ();
        let o = Optimizer.Search.explore ~config q in
        let tr =
          if collect then Some (Kola_telemetry.Telemetry.stop ()) else None
        in
        (match o.Optimizer.Search.saturation with
        | Some s -> Fmt.pr "saturation: %a@." Kola_egraph.Saturate.pp_stats s
        | None -> ());
        Fmt.pr
          "explored %d states, stop: %s (cost cache: %d hits, %d misses, %d \
           evictions, %d cuts; sub-plan memo: %d hits, %d stored; rule \
           tries: %d, rule memo: %d hits)@."
          o.Optimizer.Search.explored
          (Optimizer.Search.stop_reason_label o.Optimizer.Search.stop)
          o.Optimizer.Search.cache_hits o.Optimizer.Search.cache_misses
          o.Optimizer.Search.cache_evictions o.Optimizer.Search.cache_cuts
          o.Optimizer.Search.memo_hits o.Optimizer.Search.memo_stored
          o.Optimizer.Search.rule_tries o.Optimizer.Search.rule_memo_hits;
        Fmt.pr "dedup: %d distinct states@." o.Optimizer.Search.seen_states;
        Fmt.pr "interning: %d hits, %d fresh nodes (sharing ratio %.3f)@."
          o.Optimizer.Search.intern_hits o.Optimizer.Search.intern_misses
          o.Optimizer.Search.sharing_ratio;
        Fmt.pr "derivation: %a@."
          Fmt.(list ~sep:comma string)
          o.Optimizer.Search.best.Optimizer.Search.path;
        (match pack with
        | None -> ()
        | Some (a, _) ->
          let path = o.Optimizer.Search.best.Optimizer.Search.path in
          List.iter
            (fun (r : Rewrite.Rule.t) ->
              let fired =
                List.length
                  (List.filter (String.equal r.Rewrite.Rule.name) path)
              in
              Fmt.pr "pack: rule %s fired %d time%s on the winning path@."
                r.Rewrite.Rule.name fired
                (if fired = 1 then "" else "s"))
            (Coko.Pack.rules a.Coko.Pack.pack));
        Fmt.pr "best plan (cost %.1f):@.  %a@."
          o.Optimizer.Search.best.Optimizer.Search.cost Kola.Pretty.pp_query
          o.Optimizer.Search.best.Optimizer.Search.query;
        match tr with
        | None -> ()
        | Some tr ->
          (match trace with
          | Some file ->
            Kola_telemetry.Telemetry.write_chrome file tr;
            Fmt.pr "trace: wrote %s (%d spans, %d marks) — load in \
                    chrome://tracing@."
              file
              (List.length tr.Kola_telemetry.Telemetry.spans)
              (List.length tr.Kola_telemetry.Telemetry.marks)
          | None -> ());
          if stats then
            Fmt.pr "%a" Kola_telemetry.Telemetry.pp_summary tr)
  in
  Cmd.v
    (Cmd.info "search"
       ~doc:"Optimize by bounded exploration of the rewrite space.")
    Term.(
      const run $ query_opt $ schema_store_term $ depth $ states $ engine
      $ trace $ stats $ deadline $ node_budget $ iter_budget $ paper
      $ rules_pack $ cert_cache)

(* [kolaopt certify PACK.coko ...] — the admission gate as a standalone
   command, used by [make certify-packs] to keep every committed pack
   certified from a cold cache. *)
let certify_cmd =
  let packs =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"PACK.coko" ~doc:"COKO rule packs to certify.")
  in
  let cache_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "cert-cache" ] ~docv:"FILE"
          ~doc:"Persisted certificate cache (omit for a cold run).")
  in
  let sampled =
    Arg.(
      value & flag
      & info [ "sampled" ]
          ~doc:
            "Use the randomized checker only, instead of exhaustive \
             small-scope certification with sampled fallback.")
  in
  let run packs cache_path sampled =
    handle_errors (fun () ->
        let strategy = if sampled then `Sampled else `Auto in
        (* [admit_pack] exits 3 itself on a rejected pack, so reaching the
           end of the loop means every pack certified. *)
        List.iter
          (fun path ->
            let a, cache = admit_pack ?cache_path ~strategy path in
            Fmt.pr "%s: %d rule%s admitted@."
              (Coko.Pack.name a.Coko.Pack.pack)
              (List.length a.Coko.Pack.verdicts)
              (if List.length a.Coko.Pack.verdicts = 1 then "" else "s");
            List.iter
              (fun v -> Fmt.pr "  %a@." Rules.Cert.pp_verdict v)
              a.Coko.Pack.verdicts;
            Fmt.pr "  cert cache: %d hits, %d misses@."
              (Rules.Cert.Cache.hits cache)
              (Rules.Cert.Cache.misses cache))
          packs)
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Certify COKO rule packs: exhaustive small-scope checking within \
          budget, randomized otherwise.  Exits 3 on the first rejected \
          pack, printing each failing rule's counterexample.")
    Term.(const run $ packs $ cache_path $ sampled)

let main =
  Cmd.group
    (Cmd.info "kolaopt" ~version:"1.0.0"
       ~doc:"Rule-based query optimization over the KOLA combinator algebra.")
    [
      explain_cmd; run_cmd; rules_cmd; untangle_cmd; translate_cmd; coko_cmd;
      search_cmd; certify_cmd;
    ]

let () = exit (Cmd.eval main)
