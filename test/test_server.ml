(* The serving layer (kolaoptd): JSON codec, wire protocol, and the
   daemon's shared-state request handling — including the acceptance
   gate that a daemon answer is bit-identical to `kolaopt search` for
   the same query, engine and knobs. *)

open Util
module Json = Kola_server.Json
module Protocol = Kola_server.Protocol
module Daemon = Kola_server.Daemon
module Search = Optimizer.Search
module Cost = Optimizer.Cost

(* One daemon for the whole suite (workers spawn real domains; the last
   test case joins them). *)
let daemon =
  lazy
    (Daemon.create
       ~params:{ Daemon.default_params with Daemon.workers = 1; queue = 4 }
       ())

let handle_json req = Daemon.handle_line (Lazy.force daemon) (Json.to_string req)
let handle_line line = Daemon.handle_line (Lazy.force daemon) line

let status j = Option.bind (Json.mem "status" j) Json.str
let str_field j name = Option.bind (Json.mem name j) Json.str
let num_field j name = Option.bind (Json.mem name j) Json.num

let check_ok name j =
  Alcotest.(check (option string)) (name ^ " status") (Some "ok") (status j)

let check_error name needle j =
  Alcotest.(check (option string)) (name ^ " status") (Some "error") (status j);
  match str_field j "error" with
  | Some msg when contains msg needle -> ()
  | Some msg -> Alcotest.failf "%s: error %S lacks %S" name msg needle
  | None -> Alcotest.failf "%s: no error field" name

(* ------------------------------------------------------------------ *)
(* JSON codec *)

let json_tests =
  [
    case "roundtrip through parse and to_string" (fun () ->
        let s = {|{"a":[1,2.5,"x\ny",true,null],"b":{},"c":-3}|} in
        Alcotest.(check string) "stable" s (Json.to_string (Json.parse s)));
    case "integral floats print as integers" (fun () ->
        Alcotest.(check string) "3" "3" (Json.to_string (Json.Num 3.));
        Alcotest.(check string)
          "nan is null" "null"
          (Json.to_string (Json.Num Float.nan)));
    case "unicode escapes decode to UTF-8" (fun () ->
        Alcotest.(check string) "bmp" "A" (Option.get (Json.str (Json.parse {|"A"|})));
        (* a surrogate pair is one astral scalar, 4 bytes of UTF-8 *)
        Alcotest.(check int) "astral"
          4
          (String.length (Option.get (Json.str (Json.parse {|"😀"|}))));
        (* a lone surrogate degrades to U+FFFD instead of raising *)
        Alcotest.(check int) "lone surrogate"
          3
          (String.length (Option.get (Json.str (Json.parse {|"\ud83d"|})))));
    case "malformed documents are parse errors, not exceptions" (fun () ->
        List.iter
          (fun s ->
            match Json.parse_result s with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "expected a parse error for %S" s)
          [ ""; "{"; "[1,"; "tru"; "1 2"; {|"\q"|}; "{\"a\" 1}"; "\"\x01\"" ]);
    case "accessors are type-checked" (fun () ->
        let j = Json.parse {|{"n": 1.5, "s": "x"}|} in
        Alcotest.(check (option int)) "non-integral int" None
          (Option.bind (Json.mem "n" j) Json.int);
        Alcotest.(check (option string)) "str" (Some "x")
          (Option.bind (Json.mem "s" j) Json.str);
        Alcotest.(check bool) "mem on non-object" true
          (Json.mem "s" (Json.Str "x") = None));
  ]

(* ------------------------------------------------------------------ *)
(* Protocol *)

let protocol_tests =
  [
    case "bare paper request gets the CLI defaults" (fun () ->
        match Protocol.of_line {|{"paper": "t1k"}|} with
        | Ok (Protocol.Optimize r) ->
          Alcotest.(check int) "depth" 6 r.Protocol.depth;
          Alcotest.(check int) "states" 2000 r.Protocol.states;
          Alcotest.(check int) "jobs" 1 r.Protocol.jobs;
          Alcotest.(check string) "engine" "bfs"
            (Protocol.engine_label r.Protocol.engine);
          Alcotest.(check bool) "no deadline" true (r.Protocol.deadline = None)
        | Ok _ -> Alcotest.fail "expected an optimize request"
        | Error e -> Alcotest.fail e);
    case "validation failures are result values" (fun () ->
        let expect_err needle line =
          match Protocol.of_line line with
          | Error msg when contains msg needle -> ()
          | Error msg -> Alcotest.failf "error %S lacks %S" msg needle
          | Ok _ -> Alcotest.failf "expected an error for %s" line
        in
        expect_err "accepted engines"
          {|{"paper": "t1k", "engine": "dfs"}|};
        expect_err "must be positive" {|{"paper": "t1k", "deadline": -1}|};
        expect_err "must be positive" {|{"paper": "t1k", "deadline": 0}|};
        expect_err "must be non-negative" {|{"paper": "t1k", "jobs": -2}|};
        expect_err "must be positive" {|{"paper": "t1k", "depth": 0}|};
        expect_err "must be an integer" {|{"paper": "t1k", "depth": "deep"}|};
        expect_err "unknown paper query" {|{"paper": "t9k"}|};
        expect_err "send one" {|{"paper": "t1k", "query": "count(P)"}|};
        expect_err "needs" {|{"depth": 3}|};
        expect_err "unknown command" {|{"cmd": "reboot"}|};
        expect_err "must be a JSON object" {|[1, 2]|};
        expect_err "parse error" "{nope");
    case "the validators shared with the CLI" (fun () ->
        Alcotest.(check (result int string)) "pos ok" (Ok 3)
          (Protocol.positive_int ~what:"--depth" 3);
        Alcotest.(check (result int string)) "pos err"
          (Error "--depth must be positive, got 0")
          (Protocol.positive_int ~what:"--depth" 0);
        Alcotest.(check (result int string)) "nonneg ok" (Ok 0)
          (Protocol.nonneg_int ~what:"--jobs" 0);
        Alcotest.(check bool) "float err" true
          (Result.is_error (Protocol.positive_float ~what:"--deadline" (-0.5))));
  ]

(* ------------------------------------------------------------------ *)
(* Daemon: error paths stay structured (and cost no worker its life) *)

let error_path_tests =
  [
    case "malformed JSON answers a structured error" (fun () ->
        check_error "garbage" "parse error" (handle_line "{this is not json"));
    case "OQL parse errors answer structured errors" (fun () ->
        check_error "truncated" "parse error"
          (handle_json (Json.Obj [ ("query", Json.Str "select from") ]));
        check_error "lexer" "parse error"
          (handle_json
             (Json.Obj [ ("query", Json.Str "select p.age from p in P where p.age > @") ])));
    case "the worker keeps answering after an error" (fun () ->
        check_error "bad" "parse error" (handle_line "{");
        check_ok "good afterwards"
          (handle_json (Json.Obj [ ("paper", Json.Str "t1k") ])));
    case "explain requires OQL" (fun () ->
        check_error "paper+explain" "OQL"
          (handle_json
             (Json.Obj
                [ ("paper", Json.Str "t1k"); ("explain", Json.Bool true) ])));
  ]

(* ------------------------------------------------------------------ *)
(* Daemon: outcomes bit-identical to a direct Search.explore *)

let papers =
  [
    ("t1k", Kola.Paper.t1k_source);
    ("t2k", Kola.Paper.t2k_source);
    ("k4", Kola.Paper.k4);
    ("kg1", Kola.Paper.kg1);
  ]

let direct_outcome t engine q =
  let config =
    {
      Search.default_config with
      Search.engine;
      sample_db = Daemon.db t;
      max_depth = 6;
      max_states = 2000;
    }
  in
  Search.explore ~config q

let check_matches_direct engine_name engine =
  List.map
    (fun (name, q) ->
      case (Fmt.str "%s under %s matches kolaopt search" name engine_name)
        (fun () ->
          let t = Lazy.force daemon in
          let o = direct_outcome t engine q in
          let resp =
            handle_json
              (Json.Obj
                 [ ("paper", Json.Str name); ("engine", Json.Str engine_name) ])
          in
          check_ok name resp;
          Alcotest.(check (option string))
            "plan"
            (Some (Fmt.str "%a" Kola.Pretty.pp_query o.Search.best.Search.query))
            (str_field resp "plan");
          Alcotest.(check (option string))
            "path"
            (Some (String.concat "," o.Search.best.Search.path))
            (Option.map
               (fun items ->
                 String.concat ","
                   (List.filter_map Json.str items))
               (Option.bind (Json.mem "path" resp) Json.arr));
          (match num_field resp "cost" with
          | Some c ->
            Alcotest.(check (float 1e-9)) "cost" o.Search.best.Search.cost c
          | None -> Alcotest.fail "no cost field");
          Alcotest.(check (option string))
            "stop"
            (Some (Search.stop_reason_label o.Search.stop))
            (str_field resp "stop")))
    papers

let identity_tests =
  check_matches_direct "bfs" Search.Bfs
  @ check_matches_direct "egraph" Search.Egraph

(* ------------------------------------------------------------------ *)
(* Daemon: shared caches, parallel requests, commands *)

let behaviour_tests =
  [
    case "repeat requests hit the outcome cache with the same answer" (fun () ->
        let req =
          Json.Obj [ ("paper", Json.Str "k4"); ("engine", Json.Str "bfs") ]
        in
        let a = handle_json req in
        let b = handle_json req in
        check_ok "first" a;
        check_ok "second" b;
        Alcotest.(check (option string)) "hit" (Some "hit")
          (str_field b "outcome_cache");
        Alcotest.(check (option string)) "same plan" (str_field a "plan")
          (str_field b "plan");
        Alcotest.(check (option (float 0.))) "same cost" (num_field a "cost")
          (num_field b "cost"));
    case "deadline-truncated outcomes are never cached" (fun () ->
        ignore (handle_json (Json.Obj [ ("cmd", Json.Str "flush") ]));
        let truncated =
          handle_json
            (Json.Obj [ ("paper", Json.Str "t2k"); ("deadline", Json.Num 1e-9) ])
        in
        check_ok "truncated" truncated;
        Alcotest.(check (option string)) "stopped by deadline"
          (Some "deadline") (str_field truncated "stop");
        let full = handle_json (Json.Obj [ ("paper", Json.Str "t2k") ]) in
        check_ok "full" full;
        Alcotest.(check (option string))
          "not answered from the truncated entry" (Some "miss")
          (str_field full "outcome_cache");
        Alcotest.(check bool) "full answer ran to completion" true
          (str_field full "stop" <> Some "deadline"));
    case "jobs > 1 answers identically through the pool lease" (fun () ->
        let serial = handle_json (Json.Obj [ ("paper", Json.Str "t1k") ]) in
        ignore (handle_json (Json.Obj [ ("cmd", Json.Str "flush") ]));
        let parallel =
          handle_json
            (Json.Obj [ ("paper", Json.Str "t1k"); ("jobs", Json.Num 2.) ])
        in
        check_ok "parallel" parallel;
        Alcotest.(check (option string)) "plan" (str_field serial "plan")
          (str_field parallel "plan");
        Alcotest.(check (option (float 0.))) "cost" (num_field serial "cost")
          (num_field parallel "cost"));
    case "explain runs the pipeline over the shared plan cache" (fun () ->
        let req =
          Json.Obj
            [
              ("query", Json.Str "select p.age from p in P where p.age > 25");
              ("explain", Json.Bool true);
            ]
        in
        let r = handle_json req in
        check_ok "explain" r;
        Alcotest.(check (option string)) "mode" (Some "explain")
          (str_field r "mode");
        Alcotest.(check bool) "has backend" true (str_field r "backend" <> None);
        let again = handle_json req in
        Alcotest.(check (option string)) "memoized" (Some "hit")
          (str_field again "outcome_cache"));
    case "explain + execute runs the chosen plan on the compiled backend"
      (fun () ->
        let req execute =
          Json.Obj
            [
              ("query", Json.Str "select p.addr.city from p in P where p.age > 25");
              ("explain", Json.Bool true);
              ("execute", Json.Str execute);
            ]
        in
        let r = handle_json (req "compiled") in
        check_ok "compiled" r;
        Alcotest.(check (option string)) "ran compiled" (Some "compiled")
          (str_field r "execute");
        (match Option.bind (Json.mem "fell_back" r) Json.bool with
        | Some false -> ()
        | other ->
          Alcotest.failf "fell_back = %s"
            (match other with
            | Some b -> string_of_bool b
            | None -> "missing"));
        Alcotest.(check bool) "counted tuples" true
          (match num_field r "exec_tuples" with
          | Some n -> n > 0.
          | None -> false);
        (* interp and compiled are distinct outcome-cache entries *)
        let r2 = handle_json (req "interp") in
        check_ok "interp" r2;
        Alcotest.(check (option string)) "distinct entry" (Some "miss")
          (str_field r2 "outcome_cache");
        Alcotest.(check (option string)) "ran interp" (Some "interp")
          (str_field r2 "execute");
        let r3 = handle_json (req "compiled") in
        Alcotest.(check (option string)) "compiled memoized" (Some "hit")
          (str_field r3 "outcome_cache"));
    case "execute validates its backend and requires explain" (fun () ->
        check_error "unknown backend" "unknown execution backend"
          (handle_json
             (Json.Obj
                [
                  ("query", Json.Str "count(P)");
                  ("explain", Json.Bool true);
                  ("execute", Json.Str "gpu");
                ]));
        check_error "execute without explain" "requires"
          (handle_json
             (Json.Obj
                [ ("query", Json.Str "count(P)"); ("execute", Json.Str "compiled") ])));
    case "telemetry on demand embeds this request's spans" (fun () ->
        let r =
          handle_json
            (Json.Obj
               [ ("paper", Json.Str "t1k"); ("telemetry", Json.Bool true) ])
        in
        check_ok "traced" r;
        match Json.mem "telemetry" r with
        | Some tr ->
          Alcotest.(check bool) "has spans" true (Json.mem "spans" tr <> None)
        | None -> Alcotest.fail "no telemetry field");
    case "concurrent requests agree with serial answers" (fun () ->
        let t = Lazy.force daemon in
        let reqs =
          [|
            Json.Obj [ ("paper", Json.Str "t1k") ];
            Json.Obj [ ("paper", Json.Str "t2k") ];
            Json.Obj [ ("paper", Json.Str "k4"); ("engine", Json.Str "egraph") ];
            Json.Obj [ ("paper", Json.Str "kg1") ];
          |]
        in
        let serial = Array.map (fun r -> Daemon.handle_line t (Json.to_string r)) reqs in
        ignore (Daemon.handle_line t {|{"cmd": "flush"}|});
        let domains =
          Array.map
            (fun r ->
              Domain.spawn (fun () ->
                  (* each domain replays its request a few times *)
                  Array.init 3 (fun _ ->
                      Daemon.handle_line t (Json.to_string r))))
            reqs
        in
        let results = Array.map Domain.join domains in
        Array.iteri
          (fun i replies ->
            Array.iter
              (fun r ->
                check_ok "concurrent" r;
                Alcotest.(check (option string))
                  "plan matches serial"
                  (str_field serial.(i) "plan")
                  (str_field r "plan"))
              replies)
          results);
    case "stats and ping answer" (fun () ->
        let p = handle_json (Json.Obj [ ("cmd", Json.Str "ping") ]) in
        check_ok "ping" p;
        let s = handle_json (Json.Obj [ ("cmd", Json.Str "stats") ]) in
        check_ok "stats" s;
        (match Json.mem "service" s with
        | Some svc ->
          Alcotest.(check bool) "workers reported" true
            (Option.bind (Json.mem "workers" svc) Json.int = Some 1)
        | None -> Alcotest.fail "no service stats");
        match Json.mem "cost_cache" s with
        | Some c ->
          let field n = Option.get (Option.bind (Json.mem n c) Json.int) in
          Alcotest.(check bool) "entries within capacity" true
            (field "entries" <= field "capacity")
          (* counters are atomic: never negative, even after the
             concurrent test above *)
          ;
          Alcotest.(check bool) "counts non-negative" true
            (field "hits" >= 0 && field "misses" >= 0 && field "evictions" >= 0)
        | None -> Alcotest.fail "no cache stats");
    case "stats cost_cache counts the misses of a fresh search" (fun () ->
        let misses () =
          let s = handle_json (Json.Obj [ ("cmd", Json.Str "stats") ]) in
          Option.get
            (Option.bind (Json.mem "cost_cache" s) (fun c ->
                 Option.bind (Json.mem "misses" c) Json.int))
        in
        ignore (handle_json (Json.Obj [ ("cmd", Json.Str "flush") ]));
        let before = misses () in
        check_ok "fresh search"
          (handle_json
             (Json.Obj
                [
                  ( "query",
                    Json.Str "select p.addr.city from p in P where p.age > 71" );
                ]));
        Alcotest.(check bool) "the search costed through the reported cache"
          true
          (misses () > before));
  ]

(* ------------------------------------------------------------------ *)
(* Admission control (Pool.Service) and atomic cache counters *)

module Service = Kola_parallel.Pool.Service

let infra_tests =
  [
    case "admission queue rejects beyond the bound" (fun () ->
        let svc = Service.create ~workers:1 ~queue:1 () in
        let gate = Mutex.create () in
        let cond = Condition.create () in
        let started = ref false in
        let release = ref false in
        (match
           Service.submit svc (fun () ->
               Mutex.protect gate (fun () ->
                   started := true;
                   Condition.signal cond;
                   while not !release do
                     Condition.wait cond gate
                   done))
         with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "first submit rejected");
        Mutex.protect gate (fun () ->
            while not !started do
              Condition.wait cond gate
            done);
        (* worker is pinned and the queue is empty: one more fits ... *)
        (match Service.submit svc (fun () -> ()) with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "queued submit rejected");
        (* ... the next is turned away with the current depth *)
        (match Service.submit svc (fun () -> ()) with
        | Ok _ -> Alcotest.fail "over-bound submit accepted"
        | Error depth -> Alcotest.(check int) "depth" 1 depth);
        Mutex.protect gate (fun () ->
            release := true;
            Condition.signal cond);
        Service.drain svc;
        let s = Service.stats svc in
        Alcotest.(check int) "submitted" 2 s.Service.submitted;
        Alcotest.(check int) "rejected" 1 s.Service.rejected;
        Alcotest.(check int) "queued after drain" 0 s.Service.queued;
        Service.shutdown svc);
    case "cost-cache counters stay consistent under domains" (fun () ->
        let cache = Cost.cache () in
        let queries =
          Array.init 16 (fun i ->
              Kola.Term.Hc.of_query
                (Translate.Compile.query
                   (Oql.Parser.parse
                      (Fmt.str "select p.age from p in P where p.age > %d" i))))
        in
        let lookups_per_domain = 64 in
        let domains =
          List.init 4 (fun d ->
              Domain.spawn (fun () ->
                  for i = 0 to lookups_per_domain - 1 do
                    ignore
                      (Cost.weighted_memo cache ~db:tiny_db
                         queries.((i + d) mod Array.length queries))
                  done))
        in
        List.iter Domain.join domains;
        let s = Cost.cache_stats cache in
        (* every lookup counts exactly once, atomically *)
        Alcotest.(check int) "hits + misses = lookups"
          (4 * lookups_per_domain)
          (s.Cost.hits + s.Cost.misses);
        Alcotest.(check bool) "entries bounded" true
          (s.Cost.entries <= s.Cost.capacity);
        Alcotest.(check int) "no evictions below capacity" 0 s.Cost.evictions);
    case "shutdown the suite daemon" (fun () ->
        Daemon.shutdown (Lazy.force daemon));
  ]

let tests =
  json_tests @ protocol_tests @ error_path_tests @ identity_tests
  @ behaviour_tests @ infra_tests
