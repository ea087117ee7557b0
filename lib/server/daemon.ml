(* The optimizer-as-a-service state machine.  One [t] lives for the
   whole daemon process; every request handler runs on a worker domain
   of the service and shares:

   - the global hash-cons tables (striped, lock-free hits — see the
     audit note in lib/core/hashcons.ml);
   - one search cost cache and one plan cache (mutex-guarded tables,
     atomic counters — Cost.Memo);
   - the outcome cache below, memoizing whole optimize answers.

   Two things cannot be shared concurrently and serialize behind
   dedicated locks instead: the domain pool (single-submitter; only
   requests asking for intra-request parallelism take the lease) and
   the telemetry session (global; only traced requests take it). *)

module Pool = Kola_parallel.Pool
module Search = Optimizer.Search
module Cost = Optimizer.Cost
module Telemetry = Kola_telemetry.Telemetry

type params = {
  workers : int;
  queue : int;
  people : int;
  vehicles : int;
  seed : int;
  outcome_capacity : int;
  cert_cache : string option;
      (* persisted certificate cache for rule-pack admission; [None]
         keeps verdicts in memory for the daemon's lifetime only *)
}

(* Store shape defaults match kolaopt's CLI defaults, so a daemon and a
   CLI run cost plans against identical sample databases out of the
   box — the precondition for bit-identical outcomes. *)
let default_params =
  {
    workers = 0;
    queue = 64;
    people = 40;
    vehicles = 30;
    seed = 42;
    outcome_capacity = 4096;
    cert_cache = None;
  }

(* ------------------------------------------------------------------ *)
(* Outcome cache: response cores keyed by canonical query + every
   outcome-affecting knob.  Clear-on-full keeps it trivially bounded
   (entries are small; the interesting reuse is exact repeats, which
   re-warm in one miss each). *)

type ocache = {
  tbl : (string, (string * Json.t) list) Hashtbl.t;
  cap : int;
  olock : Mutex.t;
  ohits : int Atomic.t;
  omisses : int Atomic.t;
  oevictions : int Atomic.t;
}

let ocache_create cap =
  {
    tbl = Hashtbl.create 256;
    cap = max 1 cap;
    olock = Mutex.create ();
    ohits = Atomic.make 0;
    omisses = Atomic.make 0;
    oevictions = Atomic.make 0;
  }

let ocache_find oc key =
  let v = Mutex.protect oc.olock (fun () -> Hashtbl.find_opt oc.tbl key) in
  (match v with
  | Some _ ->
    Atomic.incr oc.ohits;
    Telemetry.count "serve.outcome_hit"
  | None ->
    Atomic.incr oc.omisses;
    Telemetry.count "serve.outcome_miss");
  v

let ocache_insert oc key v =
  Mutex.protect oc.olock @@ fun () ->
  if Hashtbl.length oc.tbl >= oc.cap then begin
    let n = Hashtbl.length oc.tbl in
    Hashtbl.reset oc.tbl;
    Atomic.fetch_and_add oc.oevictions n |> ignore
  end;
  Hashtbl.replace oc.tbl key v

let ocache_clear oc =
  Mutex.protect oc.olock @@ fun () ->
  Atomic.fetch_and_add oc.oevictions (Hashtbl.length oc.tbl) |> ignore;
  Hashtbl.reset oc.tbl

(* ------------------------------------------------------------------ *)

type t = {
  db : (string * Kola.Value.t) list;
  coldb : Kola.Colstore.db;
      (* the columnar view of [db], materialized once at startup and
         shared by every columnar execute request (rows shared with the
         boxed store, so a request can never see a different database) *)
  cache : Cost.cache;
  plan_cache : Cost.plan_cache;
  outcomes : ocache;
  service : Pool.Service.t;
  pool_lease : Mutex.t;
  telemetry_lock : Mutex.t;
  certs : Rules.Cert.Cache.t;
      (* shared certificate cache: pack admission certifies through it,
         so an unchanged rule re-admits in O(1) even across daemon
         restarts when [params.cert_cache] names a file *)
  packs : (string, (Coko.Pack.admission, Coko.Pack.admission) result) Hashtbl.t;
      (* admission outcomes keyed by pack source digest — re-sending the
         same pack costs one table probe, success or failure *)
  pack_lock : Mutex.t;
      (* guards [certs], [packs] and [pack_fires]: admissions are rare
         and serialize; searches touch none of these *)
  pack_fires : (string, int) Hashtbl.t;
      (* daemon-lifetime winning-path fire counts, per pack rule name *)
  pack_hits : int Atomic.t;
  pack_admitted : int Atomic.t;
  pack_rejected : int Atomic.t;
  stop : bool Atomic.t;
  served : int Atomic.t;
  errored : int Atomic.t;
  started : float;
}

let create ?(params = default_params) () =
  let store =
    Datagen.Store.generate
      {
        Datagen.Store.default_params with
        people = params.people;
        vehicles = params.vehicles;
        seed = params.seed;
      }
  in
  {
    db = Datagen.Store.db store;
    coldb = Datagen.Store.columnar store;
    cache = Cost.cache ();
    plan_cache = Cost.plan_cache ();
    outcomes = ocache_create params.outcome_capacity;
    service = Pool.Service.create ~workers:params.workers ~queue:params.queue ();
    pool_lease = Mutex.create ();
    telemetry_lock = Mutex.create ();
    certs =
      (match params.cert_cache with
      | Some path -> Rules.Cert.Cache.load path
      | None -> Rules.Cert.Cache.in_memory ());
    packs = Hashtbl.create 16;
    pack_lock = Mutex.create ();
    pack_fires = Hashtbl.create 16;
    pack_hits = Atomic.make 0;
    pack_admitted = Atomic.make 0;
    pack_rejected = Atomic.make 0;
    stop = Atomic.make false;
    served = Atomic.make 0;
    errored = Atomic.make 0;
    started = Telemetry.now ();
  }

let db t = t.db
let stopping t = Atomic.get t.stop
let request_stop t = Atomic.set t.stop true
let service_stats t = Pool.Service.stats t.service
let queue_depth t = Pool.Service.depth t.service

(* ------------------------------------------------------------------ *)
(* Response building. *)

let jnum f = Json.Num f
let jint n = Json.Num (float_of_int n)
let jstr s = Json.Str s

let cost_stats_json (s : Cost.stats) =
  Json.Obj
    [
      ("hits", jint s.Cost.hits);
      ("misses", jint s.Cost.misses);
      ("evictions", jint s.Cost.evictions);
      ("entries", jint s.Cost.entries);
      ("capacity", jint s.Cost.capacity);
    ]

(* The per-request span export: this worker domain's spans only (other
   workers record into the same global session; their events belong to
   their own requests), aggregated by name like the CLI's --stats
   summary.  Counters are merged across domains at stop time and cannot
   be attributed, so they are reported whole-trace. *)
let telemetry_json (tr : Telemetry.trace) =
  let me = (Domain.self () :> int) in
  let mine =
    {
      tr with
      Telemetry.spans =
        List.filter (fun s -> s.Telemetry.tid = me) tr.Telemetry.spans;
      marks =
        List.filter (fun m -> m.Telemetry.mtid = me) tr.Telemetry.marks;
    }
  in
  Json.Obj
    [
      ("duration_us", jnum tr.Telemetry.duration_us);
      ( "spans",
        Json.Arr
          (List.map
             (fun (name, calls, total_us) ->
               Json.Obj
                 [
                   ("name", jstr name);
                   ("calls", jint calls);
                   ("total_us", jnum total_us);
                 ])
             (Telemetry.span_totals mine)) );
      ( "counters",
        Json.Obj (List.map (fun (k, n) -> (k, jint n)) tr.Telemetry.counters) );
    ]

(* ------------------------------------------------------------------ *)
(* Rule-pack admission.  A pack arrives as inline COKO source; admission
   parses it, certifies every rule through the shared certificate cache,
   and memoizes the outcome by source digest.  A failing rule rejects the
   whole pack with a structured response — never a silent drop. *)

let verdict_json (v : Rules.Cert.verdict) =
  Json.Obj
    ([
       ("name", jstr v.Rules.Cert.name);
       ("ok", Json.Bool v.Rules.Cert.ok);
       ("mode", jstr (Rules.Cert.mode_name v.Rules.Cert.vmode));
       ("instances", jint v.Rules.Cert.vinstances);
       ("checks", jint v.Rules.Cert.vchecks);
       ("cached", Json.Bool v.Rules.Cert.from_cache);
     ]
    @ match v.Rules.Cert.reason with
      | None -> []
      | Some reason -> [ ("reason", jstr reason) ])

let pack_rejection_fields (a : Coko.Pack.admission) =
  let failed = Coko.Pack.rejected a in
  [
    ("status", jstr "rejected");
    ( "error",
      jstr
        (Printf.sprintf "rule pack rejected: %d of %d rule%s failed certification"
           (List.length failed)
           (List.length a.Coko.Pack.verdicts)
           (if List.length a.Coko.Pack.verdicts = 1 then "" else "s")) );
    ("pack_digest", jstr a.Coko.Pack.pack.Coko.Pack.digest);
    ("rules", Json.Arr (List.map verdict_json a.Coko.Pack.verdicts));
  ]

(* Parse + certify-or-recall.  Certification serializes behind
   [pack_lock] (it is rare and cheap at small scope); the digest probe
   makes re-sent packs O(1). *)
let admit_pack t source =
  match Coko.Pack.of_string source with
  | exception Coko.Syntax.Error msg -> Error (`Msg ("pack error: " ^ msg))
  | pack -> (
    let digest = pack.Coko.Pack.digest in
    let outcome =
      Mutex.protect t.pack_lock @@ fun () ->
      match Hashtbl.find_opt t.packs digest with
      | Some outcome ->
        Atomic.incr t.pack_hits;
        Telemetry.count "serve.pack_hit";
        outcome
      | None ->
        let outcome = Coko.Pack.admit ~cache:t.certs pack in
        Rules.Cert.Cache.save t.certs;
        Hashtbl.replace t.packs digest outcome;
        (match outcome with
        | Ok _ ->
          Atomic.incr t.pack_admitted;
          Telemetry.count "serve.pack_admit"
        | Error _ ->
          Atomic.incr t.pack_rejected;
          Telemetry.count "serve.pack_reject");
        outcome
    in
    match outcome with
    | Ok a -> Ok a
    | Error a -> Error (`Rejected (pack_rejection_fields a)))

let record_pack_fires t pack_rules path =
  Mutex.protect t.pack_lock @@ fun () ->
  List.iter
    (fun (r : Rewrite.Rule.t) ->
      let name = r.Rewrite.Rule.name in
      let fired = List.length (List.filter (String.equal name) path) in
      if fired > 0 then begin
        Telemetry.count ~n:fired ("serve.pack_fire." ^ name);
        Hashtbl.replace t.pack_fires name
          (fired + Option.value ~default:0 (Hashtbl.find_opt t.pack_fires name))
      end)
    pack_rules

(* ------------------------------------------------------------------ *)
(* The optimize path. *)

let ( let* ) = Result.bind

let query_of_source (src : Protocol.source) =
  match src with
  | Protocol.Paper name -> (
    match Protocol.paper_query name with
    | Ok q -> q
    | Error msg -> failwith msg (* unreachable: of_json resolved it *))
  | Protocol.Oql text -> Translate.Compile.query (Oql.Parser.parse text)

let config_of ?pack t (r : Protocol.optimize) =
  let egraph_budgets =
    let b = Search.default_config.Search.egraph_budgets in
    {
      b with
      Kola_egraph.Saturate.max_enodes =
        Option.value ~default:b.Kola_egraph.Saturate.max_enodes r.node_budget;
      max_iterations =
        Option.value ~default:b.Kola_egraph.Saturate.max_iterations
          r.iter_budget;
    }
  in
  let rules =
    match pack with
    | None -> Search.default_config.Search.rules
    | Some (a : Coko.Pack.admission) ->
      Coko.Pack.shadow ~base:Rules.Catalog.all
        (Coko.Pack.rules a.Coko.Pack.pack)
  in
  {
    Search.default_config with
    Search.engine = r.Protocol.engine;
    rules;
    egraph_budgets;
    max_depth = r.Protocol.depth;
    max_states = r.Protocol.states;
    sample_db = t.db;
    jobs = r.Protocol.jobs;
    deadline = r.Protocol.deadline;
    cost_cache = Some t.cache;
  }

(* Everything that makes the outcome, and nothing that doesn't: jobs is
   excluded (outcomes are bit-identical at every jobs count — PR 2/3/6
   invariants), and so is the deadline (a cached complete outcome is a
   valid answer for a deadlined request; deadline-truncated outcomes are
   never inserted). *)
let outcome_key ?pack ~config q =
  Printf.sprintf "%s|%s|%d|%d|%d|%d|%s"
    (Search.canonical q)
    (Protocol.engine_label config.Search.engine)
    config.Search.max_depth config.Search.max_states
    config.Search.egraph_budgets.Kola_egraph.Saturate.max_enodes
    config.Search.egraph_budgets.Kola_egraph.Saturate.max_iterations
    (* a pack changes which rules search with; its source digest keys
       the outcome (no pack = "-") *)
    (match pack with
    | None -> "-"
    | Some (a : Coko.Pack.admission) -> a.Coko.Pack.pack.Coko.Pack.digest)

let search_core ?pack t (r : Protocol.optimize) q :
    (string * Json.t) list * [ `Hit | `Miss ] =
  let config = config_of ?pack t r in
  let key = outcome_key ?pack ~config q in
  match ocache_find t.outcomes key with
  | Some core -> (core, `Hit)
  | None ->
    let explore () = Search.explore ~config q in
    let o =
      (* The domain pool is single-submitter, so intra-request
         parallelism serializes across requests behind the lease. *)
      if r.Protocol.jobs = 1 then explore ()
      else Mutex.protect t.pool_lease explore
    in
    let pack_fields =
      match pack with
      | None -> []
      | Some (a : Coko.Pack.admission) ->
        let pack_rules = Coko.Pack.rules a.Coko.Pack.pack in
        let path = o.Search.best.Search.path in
        (* Daemon-lifetime fire counters bump only here (a cached
           outcome means no new search, so no new firings). *)
        record_pack_fires t pack_rules path;
        [
          ("pack_digest", jstr a.Coko.Pack.pack.Coko.Pack.digest);
          ("pack_rules", Json.Arr (List.map verdict_json a.Coko.Pack.verdicts));
          ( "pack_fired",
            Json.Obj
              (List.map
                 (fun (ru : Rewrite.Rule.t) ->
                   let name = ru.Rewrite.Rule.name in
                   ( name,
                     jint
                       (List.length (List.filter (String.equal name) path)) ))
                 pack_rules) );
        ]
    in
    let core =
      [
        ("status", jstr "ok");
        ("engine", jstr (Protocol.engine_label r.Protocol.engine));
        ("cost", jnum o.Search.best.Search.cost);
        ("plan", jstr (Fmt.str "%a" Kola.Pretty.pp_query o.Search.best.Search.query));
        ("path", Json.Arr (List.map jstr o.Search.best.Search.path));
        ("explored", jint o.Search.explored);
        ("stop", jstr (Search.stop_reason_label o.Search.stop));
        ("seen_states", jint o.Search.seen_states);
        ( "cache",
          Json.Obj
            [
              ("hits", jint o.Search.cache_hits);
              ("misses", jint o.Search.cache_misses);
              ("evictions", jint o.Search.cache_evictions);
            ] );
        ("sharing_ratio", jnum o.Search.sharing_ratio);
      ]
      @ pack_fields
    in
    if o.Search.stop <> Search.Deadline then ocache_insert t.outcomes key core;
    (core, `Miss)

let explain_core t (r : Protocol.optimize) :
    ((string * Json.t) list * [ `Hit | `Miss ], string) result =
  match r.Protocol.source with
  | Protocol.Paper _ ->
    Error "explain requires an OQL \"query\" (the pipeline starts at OQL)"
  | Protocol.Oql text -> (
    (* The execute mode, layout and jobs are outcome-affecting (the
       response embeds which backend ran, its loop counters, and the
       morsel count — which depends on how many domains could fan out),
       so all three are part of the key. *)
    let key =
      Printf.sprintf "explain|%s|%s|%s|%d" text
        (match r.Protocol.execute with
        | None -> "-"
        | Some b -> Kola_exec.Exec.backend_name b)
        (match r.Protocol.layout with
        | None -> "-"
        | Some l -> Kola_exec.Exec.layout_name l)
        r.Protocol.jobs
    in
    match ocache_find t.outcomes key with
    | Some core -> Ok (core, `Hit)
    | None ->
      let report =
        Optimizer.Pipeline.optimize_oql ~plan_cache:t.plan_cache ~db:t.db text
      in
      let chosen = report.Optimizer.Pipeline.chosen in
      (* Deterministic execution facts only — which backend actually ran,
         whether it fell back, and the loop counters.  Wall-clock timings
         would go stale in the outcome cache; traced requests get the
         exec.compile/exec.run spans instead. *)
      let exec_fields =
        match r.Protocol.execute with
        | None -> []
        | Some backend ->
          let coldb =
            match r.Protocol.layout with
            | Some Kola_exec.Exec.Columnar -> Some t.coldb
            | Some Kola_exec.Exec.Row | None -> None
          in
          let execute () =
            Optimizer.Pipeline.execute ~backend ?layout:r.Protocol.layout
              ~jobs:r.Protocol.jobs ?coldb ~db:t.db report
          in
          let _, st =
            (* Like search: a request that fans out over domains takes
               the single-submitter pool lease, serializing against other
               parallel requests. *)
            if r.Protocol.jobs = 1 || coldb = None then execute ()
            else Mutex.protect t.pool_lease execute
          in
          [
            ("execute", jstr (Kola_exec.Exec.backend_name st.Kola_exec.Exec.backend));
            ("fell_back", Json.Bool st.Kola_exec.Exec.fell_back);
            ("layout", jstr (Kola_exec.Exec.layout_name st.Kola_exec.Exec.layout));
            ("exec_jobs", jint st.Kola_exec.Exec.jobs);
            ("exec_tuples", jint st.Kola_exec.Exec.tuples);
            ("exec_probes", jint st.Kola_exec.Exec.probes);
            ("exec_builds", jint st.Kola_exec.Exec.builds);
            ("exec_stages", jint st.Kola_exec.Exec.stages);
            ("col_kernels", jint st.Kola_exec.Exec.col_kernels);
            ("morsels", jint st.Kola_exec.Exec.morsels);
            ( "col_degrades",
              Json.Arr (List.map jstr st.Kola_exec.Exec.col_degrades) );
          ]
      in
      let core =
        [
          ("status", jstr "ok");
          ("mode", jstr "explain");
          ("label", jstr chosen.Optimizer.Pipeline.label);
          ( "backend",
            jstr
              (Optimizer.Pipeline.backend_name chosen.Optimizer.Pipeline.backend)
          );
          ( "dedup",
            jstr (Optimizer.Pipeline.dedup_name chosen.Optimizer.Pipeline.dedup)
          );
          ("cost", jnum chosen.Optimizer.Pipeline.cost.Cost.weighted);
          ( "plan",
            jstr
              (Fmt.str "%a" Kola.Pretty.pp_query chosen.Optimizer.Pipeline.query)
          );
          ( "rules_fired",
            jint (List.length report.Optimizer.Pipeline.trace) );
          ( "cache",
            Json.Obj
              [
                ("hits", jint report.Optimizer.Pipeline.cost_cache_hits);
                ("misses", jint report.Optimizer.Pipeline.cost_cache_misses);
              ] );
        ]
        @ exec_fields
      in
      ocache_insert t.outcomes key core;
      Ok (core, `Miss))

let optimize_core t (r : Protocol.optimize) :
    ( (string * Json.t) list * [ `Hit | `Miss ],
      [ `Msg of string | `Rejected of (string * Json.t) list ] )
    result =
  try
    if r.Protocol.sleep_ms > 0 then
      Unix.sleepf (float_of_int r.Protocol.sleep_ms /. 1000.);
    if r.Protocol.explain then
      Result.map_error (fun m -> `Msg m) (explain_core t r)
    else
      (* Pack admission gates the search: the request either runs with
         every pack rule certified or is rejected with each failing
         rule's verdict — nothing in between. *)
      let* pack =
        match r.Protocol.rules with
        | None -> Ok None
        | Some source -> Result.map Option.some (admit_pack t source)
      in
      Ok (search_core ?pack t r (query_of_source r.Protocol.source))
  with
  | Oql.Parser.Error m | Oql.Lexer.Error m | Kola.Parse.Error m ->
    Error (`Msg ("parse error: " ^ m))
  | Translate.Compile.Untranslatable m ->
    Error (`Msg ("translation error: " ^ m))
  | Kola.Eval.Error m | Aqua.Eval.Error m ->
    Error (`Msg ("evaluation error: " ^ m))
  | Failure m -> Error (`Msg m)
  | e -> Error (`Msg ("internal error: " ^ Printexc.to_string e))

let handle_optimize t (r : Protocol.optimize) =
  let t0 = Telemetry.now () in
  let result, telemetry =
    if r.Protocol.telemetry then
      (* The telemetry session is global: traced requests serialize, and
         the response embeds this worker's own spans (concurrent
         untraced requests keep running; their spans belong to them). *)
      Mutex.protect t.telemetry_lock (fun () ->
          Telemetry.start ();
          let result = optimize_core t r in
          let tr = Telemetry.stop () in
          (result, Some (telemetry_json tr)))
    else (optimize_core t r, None)
  in
  let micros = (Telemetry.now () -. t0) *. 1e6 in
  match result with
  | Error (`Msg msg) ->
    Atomic.incr t.errored;
    Telemetry.count "serve.error";
    Protocol.error_response ~id:r.Protocol.id ~queue_depth:(queue_depth t) msg
  | Error (`Rejected fields) ->
    (* Pack admission failure: structured per-rule verdicts, counted as
       an error (the request did not serve an outcome). *)
    Atomic.incr t.errored;
    Telemetry.count "serve.error";
    Json.Obj
      (("id", r.Protocol.id) :: fields
      @ [ ("queue_depth", jint (queue_depth t)); ("micros", jnum micros) ])
  | Ok (core, cached) ->
    Atomic.incr t.served;
    Json.Obj
      (("id", r.Protocol.id) :: core
      @ [
          ( "outcome_cache",
            jstr (match cached with `Hit -> "hit" | `Miss -> "miss") );
          ("queue_depth", jint (queue_depth t));
          ("micros", jnum micros);
        ]
      @ match telemetry with
        | Some tr -> [ ("telemetry", tr) ]
        | None -> [])

let handle_command t (c : Protocol.command) id =
  match c with
  | Protocol.Ping ->
    Json.Obj
      [
        ("id", id);
        ("status", jstr "ok");
        ("pong", Json.Bool true);
        ("uptime_s", jnum (Telemetry.now () -. t.started));
      ]
  | Protocol.Flush ->
    Cost.cache_clear t.cache;
    Cost.plan_cache_clear t.plan_cache;
    ocache_clear t.outcomes;
    Json.Obj [ ("id", id); ("status", jstr "ok"); ("flushed", Json.Bool true) ]
  | Protocol.Shutdown ->
    request_stop t;
    Json.Obj
      [ ("id", id); ("status", jstr "ok"); ("shutdown", Json.Bool true) ]
  | Protocol.Stats ->
    let s = service_stats t in
    let intern = Kola.Term.Hc.intern_counters () in
    Json.Obj
      [
        ("id", id);
        ("status", jstr "ok");
        ("uptime_s", jnum (Telemetry.now () -. t.started));
        ("host_cores", jint (Domain.recommended_domain_count ()));
        ("served", jint (Atomic.get t.served));
        ("errors", jint (Atomic.get t.errored));
        ( "service",
          Json.Obj
            [
              ("workers", jint s.Pool.Service.workers);
              ("queue_bound", jint s.Pool.Service.bound);
              ("queued", jint s.Pool.Service.queued);
              ("running", jint s.Pool.Service.running);
              ("submitted", jint s.Pool.Service.submitted);
              ("rejected", jint s.Pool.Service.rejected);
              ("task_errors", jint s.Pool.Service.errors);
            ] );
        ( "outcome_cache",
          Json.Obj
            [
              ("hits", jint (Atomic.get t.outcomes.ohits));
              ("misses", jint (Atomic.get t.outcomes.omisses));
              ("evictions", jint (Atomic.get t.outcomes.oevictions));
              ( "entries",
                jint
                  (Mutex.protect t.outcomes.olock (fun () ->
                       Hashtbl.length t.outcomes.tbl)) );
              ("capacity", jint t.outcomes.cap);
            ] );
        ( "packs",
          Mutex.protect t.pack_lock (fun () ->
              Json.Obj
                [
                  ("admitted", jint (Atomic.get t.pack_admitted));
                  ("rejected", jint (Atomic.get t.pack_rejected));
                  ("admission_hits", jint (Atomic.get t.pack_hits));
                  ( "cert_cache",
                    Json.Obj
                      [
                        ("hits", jint (Rules.Cert.Cache.hits t.certs));
                        ("misses", jint (Rules.Cert.Cache.misses t.certs));
                        ("entries", jint (Rules.Cert.Cache.size t.certs));
                      ] );
                  ( "fires",
                    Json.Obj
                      (List.sort compare
                         (Hashtbl.fold
                            (fun name n acc -> (name, jint n) :: acc)
                            t.pack_fires [])) );
                ]) );
        ("cost_cache", cost_stats_json (Cost.cache_stats t.cache));
        ("plan_cache", cost_stats_json (Cost.plan_cache_stats t.plan_cache));
        ( "intern",
          Json.Obj
            [
              ("entries", jint intern.Kola.Hashcons.entries);
              ("hits", jint intern.Kola.Hashcons.hits);
              ("misses", jint intern.Kola.Hashcons.misses);
            ] );
      ]

let handle t (req : Protocol.t) =
  match req with
  | Protocol.Optimize r -> handle_optimize t r
  | Protocol.Command (c, id) -> handle_command t c id

let handle_line t line =
  match Protocol.of_line line with
  | Ok req -> handle t req
  | Error msg ->
    Atomic.incr t.errored;
    Telemetry.count "serve.bad_request";
    Protocol.error_response ~queue_depth:(queue_depth t) msg

(* ------------------------------------------------------------------ *)
(* Wire layer: newline-delimited JSON over a Unix-domain socket. *)

let write_json fd json =
  let s = Json.to_string json ^ "\n" in
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  try go 0 with Unix.Unix_error _ -> () (* peer went away mid-response *)

(* One connection, served to EOF on a worker domain.  Reads poll in
   short slices so an idle connection notices a daemon shutdown instead
   of pinning its worker forever. *)
let conn_loop t fd =
  let pending = Buffer.create 512 in
  let chunk = Bytes.create 4096 in
  let take_line () =
    let s = Buffer.contents pending in
    match String.index_opt s '\n' with
    | Some i ->
      let line = String.sub s 0 i in
      Buffer.clear pending;
      Buffer.add_substring pending s (i + 1) (String.length s - i - 1);
      Some line
    | None -> None
  in
  let rec next_line () =
    match take_line () with
    | Some line -> `Line line
    | None ->
      if stopping t then `Stop
      else (
        match Unix.select [ fd ] [] [] 0.25 with
        | [], _, _ -> next_line ()
        | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> `Eof
          | n ->
            Buffer.add_subbytes pending chunk 0 n;
            next_line ()
          | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) ->
            next_line ()
          | exception Unix.Unix_error _ -> `Eof)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> next_line ())
  in
  let rec loop () =
    match next_line () with
    | `Stop | `Eof -> ()
    | `Line line ->
      if String.trim line = "" then loop ()
      else begin
        write_json fd (handle_line t line);
        loop ()
      end
  in
  Fun.protect loop ~finally:(fun () ->
      try Unix.close fd with Unix.Unix_error _ -> ())

let shutdown t = Pool.Service.shutdown t.service

let serve ?(ready = fun () -> ()) ~socket t =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX socket);
  Unix.listen listen_fd 128;
  ready ();
  let rec loop () =
    if stopping t then ()
    else begin
      (match Unix.select [ listen_fd ] [] [] 0.1 with
      | [], _, _ -> ()
      | _ -> (
        match Unix.accept listen_fd with
        | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ()
        | fd, _ -> (
          Telemetry.count "serve.accept";
          (* Admission control: hand the connection to a worker, or
             answer 429-style from the accept loop and close — the
             whole rejection path allocates one small response line. *)
          match Pool.Service.submit t.service (fun () -> conn_loop t fd) with
          | Ok _ -> ()
          | Error depth ->
            write_json fd (Protocol.rejected_response ~queue_depth:depth);
            (try Unix.close fd with Unix.Unix_error _ -> ())))
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  Fun.protect loop ~finally:(fun () ->
      shutdown t;
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      try Unix.unlink socket with Unix.Unix_error _ -> ())

(* ------------------------------------------------------------------ *)

module Client = struct
  type conn = {
    fd : Unix.file_descr;
    ic : in_channel;
    oc : out_channel;
    mutable closed : bool;
  }

  let connect path =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_UNIX path)
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    {
      fd;
      ic = Unix.in_channel_of_descr fd;
      oc = Unix.out_channel_of_descr fd;
      closed = false;
    }

  let send c json =
    output_string c.oc (Json.to_string json);
    output_char c.oc '\n';
    flush c.oc

  let recv c = Json.parse (input_line c.ic)
  let request c json = send c json; recv c

  let close c =
    if not c.closed then begin
      c.closed <- true;
      (* closing either channel closes the shared fd *)
      close_out_noerr c.oc
    end
end
