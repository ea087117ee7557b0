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
        expect_err "\"jobs\" must be at most 32, got 200"
          {|{"query": "select p from p in P", "explain": true,
             "execute": "compiled", "jobs": 200}|};
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
        Alcotest.(check (result int string)) "domains at the bound"
          (Ok Protocol.max_domains)
          (Protocol.domains ~what:"--workers" Protocol.max_domains);
        Alcotest.(check (result int string)) "domains past the bound"
          (Error "--workers must be at most 32, got 33")
          (Protocol.domains ~what:"--workers" 33);
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
    case "an unterminated 2 MiB request line is answered, not buffered"
      (fun () ->
        (* over a real socket: the bound lives in the connection reader *)
        Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
        let t =
          Daemon.create
            ~params:{ Daemon.default_params with Daemon.workers = 1; queue = 1 }
            ()
        in
        let socket =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "kola-test-%d.sock" (Unix.getpid ()))
        in
        let ready = Atomic.make false in
        let server =
          Domain.spawn (fun () ->
              Daemon.serve ~ready:(fun () -> Atomic.set ready true) ~socket t)
        in
        while not (Atomic.get ready) do
          Unix.sleepf 0.01
        done;
        Fun.protect
          ~finally:(fun () ->
            Daemon.request_stop t;
            Domain.join server)
          (fun () ->
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_UNIX socket);
            let junk = Bytes.make (2 lsl 20) 'x' in
            (* the daemon stops reading after 1 MiB and closes, so the
               rest of the write may fail *)
            (try
               let rec go off =
                 if off < Bytes.length junk then
                   go (off + Unix.write fd junk off (Bytes.length junk - off))
               in
               go 0
             with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
            (try Unix.shutdown fd Unix.SHUTDOWN_SEND
             with Unix.Unix_error _ -> ());
            let ic = Unix.in_channel_of_descr fd in
            let answer = try Some (input_line ic) with End_of_file -> None in
            close_in_noerr ic;
            match answer with
            | None -> Alcotest.fail "no answer to an unterminated 2 MiB line"
            | Some line ->
              check_error "oversized line" "exceeds" (Json.parse line)));
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
    case "alpha-renamed OQL hits the outcome cache" (fun () ->
        (* Both spellings translate to the same KOLA query, so they share
           one outcome-cache entry. *)
        let req q = Json.Obj [ ("query", Json.Str q) ] in
        let a = handle_json (req "select x.age from x in P where x.age > 25") in
        let b =
          handle_json (req "select  y.age  from y in P where y.age > 25")
        in
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
    case "jobs without execute answers a structured error naming execute"
      (fun () ->
        (* a search runs on the worker's domain: jobs is only the columnar
           executor's morsel fan-out *)
        check_error "search with jobs" "\"execute\""
          (handle_json
             (Json.Obj [ ("paper", Json.Str "t1k"); ("jobs", Json.Num 2.) ]));
        check_error "explain with jobs" "\"execute\""
          (handle_json
             (Json.Obj
                [
                  ("query", Json.Str "select p.age from p in P");
                  ("explain", Json.Bool true);
                  ("jobs", Json.Num 1.);
                ])));
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
        let cost_cache field =
          let s = handle_json (Json.Obj [ ("cmd", Json.Str "stats") ]) in
          Option.get
            (Option.bind (Json.mem "cost_cache" s) (fun c ->
                 Option.bind (Json.mem field c) Json.int))
        in
        ignore (handle_json (Json.Obj [ ("cmd", Json.Str "flush") ]));
        let before = cost_cache "misses" and cuts_before = cost_cache "cuts" in
        let resp =
          handle_json
            (Json.Obj
               [
                 ( "query",
                   Json.Str "select p.addr.city from p in P where p.age > 71" );
               ])
        in
        check_ok "fresh search" resp;
        Alcotest.(check bool) "the search costed through the reported cache"
          true
          (cost_cache "misses" > before);
        (* the answer's own counts: its cuts are among its misses, and
           the cache-wide count grew by at least as many *)
        let own field =
          Option.get
            (Option.bind (Json.mem "cache" resp) (fun c ->
                 Option.bind (Json.mem field c) Json.int))
        in
        Alcotest.(check bool) "the answer reports cuts among its misses" true
          (own "cuts" >= 0 && own "cuts" <= own "misses");
        Alcotest.(check bool) "stats counts the answer's cuts" true
          (cost_cache "cuts" - cuts_before >= own "cuts"));
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

(* ------------------------------------------------------------------ *)
(* Protocol paths that need a daemon of their own: the columnar layout,
   inline rule packs, and the socket's accept loop under overload.  They
   follow the suite daemon's shutdown, so each creates its daemon. *)

let fresh_daemon ~workers ~queue =
  Daemon.create ~params:{ Daemon.default_params with Daemon.workers; queue } ()

let bool_field j name = Option.bind (Json.mem name j) Json.bool
let int_field j name = Option.bind (Json.mem name j) Json.int

(* Serve [t] on a fresh socket for [f], then ask it to shut down over
   the wire: the answer is ok and the socket file is gone once the
   accept loop returns. *)
let on_socket t f =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "kola-test-smoke-%d.sock" (Unix.getpid ()))
  in
  let ready = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        Daemon.serve ~ready:(fun () -> Atomic.set ready true) ~socket t)
  in
  while not (Atomic.get ready) do
    Unix.sleepf 0.01
  done;
  Fun.protect
    ~finally:(fun () ->
      Daemon.request_stop t;
      Domain.join server)
    (fun () ->
      f socket;
      let c = Daemon.Client.connect socket in
      check_ok "shutdown" (Daemon.Client.request c (Json.Obj [ ("cmd", Json.Str "shutdown") ]));
      Daemon.Client.close c);
  Alcotest.(check bool) "socket file removed on exit" false (Sys.file_exists socket)

let socket_tests =
  [
    case "layout: columnar execute at jobs 1 and 2, the row plan, and layout \
          without execute"
      (fun () ->
        let t = fresh_daemon ~workers:1 ~queue:4 in
        let exec_req layout jobs =
          Daemon.handle_line t
            (Json.to_string
               (Json.Obj
                  ([
                     ("query", Json.Str "select p.age from p in P where p.age > 25");
                     ("explain", Json.Bool true);
                     ("execute", Json.Str "compiled");
                     ("layout", Json.Str layout);
                   ]
                  @ if jobs = 1 then [] else [ ("jobs", Json.Num (float_of_int jobs)) ])))
        in
        let er = exec_req "row" 1 and ec = exec_req "columnar" 1 in
        let ec2 = exec_req "columnar" 2 in
        check_ok "columnar" ec;
        Alcotest.(check (option bool)) "no fallback" (Some false) (bool_field ec "fell_back");
        Alcotest.(check (option string)) "layout" (Some "columnar") (str_field ec "layout");
        Alcotest.(check bool) "a column kernel" true
          (match int_field ec "col_kernels" with Some k -> k > 0 | None -> false);
        check_ok "row" er;
        Alcotest.(check (option string)) "row and columnar report one plan"
          (str_field er "plan") (str_field ec "plan");
        check_ok "columnar, jobs 2" ec2;
        Alcotest.(check (option int)) "jobs 2: the same kernels"
          (int_field ec "col_kernels") (int_field ec2 "col_kernels");
        check_error "layout without execute" "layout"
          (Daemon.handle_line t
             (Json.to_string
                (Json.Obj
                   [
                     ("query", Json.Str "select p from p in P");
                     ("explain", Json.Bool true);
                     ("layout", Json.Str "columnar");
                   ])));
        Daemon.shutdown t);
    case "rules: a certified pack is admitted and cached, an unsound one \
          rejected, stats count both"
      (fun () ->
        let t = fresh_daemon ~workers:1 ~queue:4 in
        let pack_req pack =
          Daemon.handle_line t
            (Json.to_string
               (Json.Obj [ ("paper", Json.Str "t1k"); ("rules", Json.Str pack) ]))
        in
        let good =
          "GIVEN injective(?f)\n\
           RULE test-inter: inter o (iterate(Kp(T), ?f) x iterate(Kp(T), ?f)) \
           --> iterate(Kp(T), ?f) o inter\n"
        in
        let p1 = pack_req good in
        check_ok "certified pack" p1;
        Alcotest.(check bool) "per-rule verdicts" true
          (Json.mem "pack_rules" p1 <> None && Json.mem "pack_fired" p1 <> None);
        let p2 = pack_req good in
        check_ok "re-sent pack" p2;
        Alcotest.(check (option string)) "re-sent pack hits the outcome cache"
          (Some "hit") (str_field p2 "outcome_cache");
        let p3 = pack_req "RULE test-r13: ?p (+) <?f, Kf(?k)> --> Cp(?p^-1, ?k) (+) ?f\n" in
        Alcotest.(check (option string)) "unsound pack" (Some "rejected") (status p3);
        (match Json.mem "rules" p3 with
        | Some (Json.Arr [ v ]) ->
          Alcotest.(check (option bool)) "the rule failed" (Some false)
            (bool_field v "ok");
          Alcotest.(check bool) "with a counterexample" true
            (match str_field v "reason" with
            | Some reason -> contains reason "?f :="
            | None -> false)
        | _ -> Alcotest.fail "no per-rule verdict");
        let stats =
          Daemon.handle_line t (Json.to_string (Json.Obj [ ("cmd", Json.Str "stats") ]))
        in
        (match Json.mem "packs" stats with
        | Some packs ->
          Alcotest.(check (option int)) "admitted" (Some 1) (int_field packs "admitted");
          Alcotest.(check (option int)) "rejected" (Some 1) (int_field packs "rejected");
          Alcotest.(check (option int)) "two certifications"
            (Some 2)
            (Option.bind (Json.mem "cert_cache" packs) (fun c -> int_field c "misses"))
        | None -> Alcotest.fail "stats reports no packs");
        Daemon.shutdown t);
    case "a real socket: a malformed line and an oversized one cost no \
          worker"
      (fun () ->
        on_socket (fresh_daemon ~workers:2 ~queue:2) (fun socket ->
            let raw () =
              let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
              Unix.connect fd (Unix.ADDR_UNIX socket);
              (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
            in
            let fd, ic, oc = raw () in
            output_string oc "{this is not json\n";
            flush oc;
            check_error "malformed line" "parse error" (Json.parse (input_line ic));
            output_string oc "{\"paper\": \"k4\"}\n";
            flush oc;
            check_ok "same connection afterwards" (Json.parse (input_line ic));
            close_out_noerr oc;
            (try Unix.close fd with Unix.Unix_error _ -> ());
            let lfd, lic, _ = raw () in
            let junk = Bytes.make (2 lsl 20) 'x' in
            (try
               let rec go off =
                 if off < Bytes.length junk then
                   go (off + Unix.write lfd junk off (Bytes.length junk - off))
               in
               go 0
             with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
            (try Unix.shutdown lfd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
            (match input_line lic with
            | line -> check_error "oversized line" "exceeds" (Json.parse line)
            | exception End_of_file -> Alcotest.fail "no answer to an oversized line");
            close_in_noerr lic;
            let next = Daemon.Client.connect socket in
            check_ok "the next connection"
              (Daemon.Client.request next (Json.Obj [ ("paper", Json.Str "t1k") ]));
            Daemon.Client.close next));
    case "overload through the accept loop: rejected with the queue depth, \
          the sleepers still answer"
      (fun () ->
        on_socket (fresh_daemon ~workers:2 ~queue:2) (fun socket ->
            (* two sleepers hold both workers, two connections fill the
               admission queue, so the accept loop turns the next away *)
            let sleeper () =
              let conn = Daemon.Client.connect socket in
              Daemon.Client.send conn
                (Json.Obj [ ("paper", Json.Str "t1k"); ("sleep_ms", Json.Num 1500.) ]);
              conn
            in
            let s1 = sleeper () and s2 = sleeper () in
            Unix.sleepf 0.3;
            let queued = [ Daemon.Client.connect socket; Daemon.Client.connect socket ] in
            let rec reject attempts =
              let extra = Daemon.Client.connect socket in
              let r = try Some (Daemon.Client.recv extra) with End_of_file -> None in
              Daemon.Client.close extra;
              match r with
              | Some r when status r = Some "rejected" -> Some r
              | _ when attempts > 1 ->
                Unix.sleepf 0.02;
                reject (attempts - 1)
              | _ -> None
            in
            (match reject 50 with
            | Some r ->
              Alcotest.(check (option int)) "the queue depth" (Some 2)
                (int_field r "queue_depth")
            | None -> Alcotest.fail "no connection was rejected");
            check_ok "first sleeper" (Daemon.Client.recv s1);
            check_ok "second sleeper" (Daemon.Client.recv s2);
            List.iter Daemon.Client.close (s1 :: s2 :: queued);
            let c = Daemon.Client.connect socket in
            let stats = Daemon.Client.request c (Json.Obj [ ("cmd", Json.Str "stats") ]) in
            Daemon.Client.close c;
            Alcotest.(check bool) "stats reports the rejection" true
              (match Option.bind (Json.mem "service" stats) (fun s -> int_field s "rejected") with
              | Some n -> n >= 1
              | None -> false)));
  ]

let tests =
  json_tests @ protocol_tests @ error_path_tests @ identity_tests
  @ behaviour_tests @ infra_tests @ socket_tests
