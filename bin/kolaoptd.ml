(* kolaoptd: the optimizer as a long-lived service.

     kolaoptd serve --socket /tmp/kolaoptd.sock --workers 4 --queue 64
     kolaoptd request --paper t1k --engine egraph
     kolaoptd request "select p.age from p in P where p.age > 25"
     kolaoptd request --cmd stats
     kolaoptd smoke

   One daemon process shares the hash-cons tables, the cost caches and
   an outcome cache across every request; the wire protocol is
   newline-delimited JSON over a Unix-domain socket (see
   lib/server/protocol.mli). *)

open Cmdliner
module Json = Kola_server.Json
module Protocol = Kola_server.Protocol
module Daemon = Kola_server.Daemon

let default_socket = Filename.concat (Filename.get_temp_dir_name ()) "kolaoptd.sock"

let socket_arg =
  Arg.(
    value
    & opt string default_socket
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

(* Cmdliner conversions over the daemon's own validators
   (lib/server/protocol.ml), so the CLI and the wire protocol reject
   the same inputs with the same messages. *)
let validated ~docv base validate =
  let parse s =
    match Arg.conv_parser base s with
    | Ok v -> (
      match validate v with Ok v -> Ok v | Error msg -> Error (`Msg msg))
    | Error _ as e -> e
  in
  Arg.conv ~docv (parse, Arg.conv_printer base)

let pos_int what = validated ~docv:"N" Arg.int (Protocol.positive_int ~what)
let pos_float what =
  validated ~docv:"SECONDS" Arg.float (Protocol.positive_float ~what)
let nonneg_int what =
  validated ~docv:"N" Arg.int (Protocol.nonneg_int ~what)

(* ------------------------------------------------------------------ *)
(* serve *)

let serve_cmd =
  let workers =
    Arg.(
      value
      & opt (nonneg_int "--workers") 0
      & info [ "workers" ] ~docv:"N"
          ~doc:"Worker domains (0 = one per recommended core).")
  in
  let queue =
    Arg.(
      value
      & opt (pos_int "--queue") Daemon.default_params.Daemon.queue
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Admission bound: connections queued beyond the busy workers \
             before the daemon answers $(b,rejected) from the accept loop.")
  in
  let outcome_capacity =
    Arg.(
      value
      & opt (pos_int "--outcome-capacity")
          Daemon.default_params.Daemon.outcome_capacity
      & info [ "outcome-capacity" ] ~docv:"N"
          ~doc:"Resident entries in the whole-outcome cache.")
  in
  let people =
    Arg.(value & opt int 40 & info [ "people" ] ~doc:"Number of persons in P.")
  in
  let vehicles =
    Arg.(value & opt int 30 & info [ "vehicles" ] ~doc:"Number of vehicles in V.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Generator seed.") in
  let cert_cache =
    Arg.(
      value
      & opt (some string) None
      & info [ "cert-cache" ] ~docv:"FILE"
          ~doc:
            "Persisted certificate cache for rule-pack admission: verdicts \
             are keyed by rule fingerprint and certifier version, so a \
             known pack re-admits in O(1) even across daemon restarts.")
  in
  let run socket workers queue outcome_capacity people vehicles seed cert_cache
      =
    let params =
      {
        Daemon.workers;
        queue;
        people;
        vehicles;
        seed;
        outcome_capacity;
        cert_cache;
      }
    in
    let t = Daemon.create ~params () in
    let stop _ = Daemon.request_stop t in
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let ready () =
      let s = Daemon.service_stats t in
      Fmt.pr "kolaoptd: listening on %s (%d workers, queue %d)@." socket
        s.Kola_parallel.Pool.Service.workers
        s.Kola_parallel.Pool.Service.bound
    in
    Daemon.serve ~ready ~socket t;
    Fmt.pr "kolaoptd: stopped@."
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Run the optimizer daemon on a Unix-domain socket.")
    Term.(
      const run $ socket_arg $ workers $ queue $ outcome_capacity $ people
      $ vehicles $ seed $ cert_cache)

(* ------------------------------------------------------------------ *)
(* request *)

let request_cmd =
  let query_opt =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"OQL" ~doc:"An OQL query over extents P, V, A.")
  in
  let paper =
    Arg.(
      value
      & opt (some string) None
      & info [ "paper" ] ~docv:"QUERY"
          ~doc:"A paper query name (t1k, t2k, k4, kg1) instead of OQL.")
  in
  let cmd =
    Arg.(
      value
      & opt (some string) None
      & info [ "cmd" ] ~docv:"CMD"
          ~doc:"Send an admin command: ping, stats, flush or shutdown.")
  in
  let raw =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"LINE"
          ~doc:"Send this JSON request line verbatim (overrides other flags).")
  in
  let engine =
    Arg.(
      value
      & opt (some string) None
      & info [ "engine" ] ~docv:"ENGINE" ~doc:"bfs or egraph.")
  in
  let depth =
    Arg.(
      value
      & opt (some (pos_int "--depth")) None
      & info [ "depth" ] ~doc:"Maximum derivation length.")
  in
  let states =
    Arg.(
      value
      & opt (some (pos_int "--states")) None
      & info [ "states" ] ~doc:"State budget.")
  in
  let jobs =
    Arg.(
      value
      & opt (some (nonneg_int "--jobs")) None
      & info [ "jobs" ] ~docv:"JOBS"
          ~doc:"Domains for intra-request parallelism (serializes requests).")
  in
  let deadline =
    Arg.(
      value
      & opt (some (pos_float "--deadline")) None
      & info [ "deadline" ] ~docv:"SECONDS" ~doc:"Wall-clock budget.")
  in
  let node_budget =
    Arg.(
      value
      & opt (some (pos_int "--node-budget")) None
      & info [ "node-budget" ] ~docv:"N" ~doc:"E-graph e-node budget.")
  in
  let iter_budget =
    Arg.(
      value
      & opt (some (pos_int "--iter-budget")) None
      & info [ "iter-budget" ] ~docv:"N" ~doc:"E-graph iteration budget.")
  in
  let telemetry =
    Arg.(
      value & flag
      & info [ "telemetry" ]
          ~doc:"Ask the daemon to embed this request's telemetry spans.")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:"Run the full pipeline (plan choice) instead of search.")
  in
  let execute =
    Arg.(
      value
      & opt (some string) None
      & info [ "execute" ] ~docv:"BACKEND"
          ~doc:
            "With --explain: execute the chosen plan through this backend \
             (compiled, interp, interp-naive) and embed execution stats.")
  in
  let layout =
    Arg.(
      value
      & opt (some string) None
      & info [ "layout" ] ~docv:"LAYOUT"
          ~doc:
            "With --execute: store layout (row or columnar); columnar binds \
             the plan to the daemon's preloaded column store.")
  in
  let rules =
    Arg.(
      value
      & opt (some string) None
      & info [ "rules" ] ~docv:"PACK.coko"
          ~doc:
            "Read this COKO rule pack and send its source inline in the \
             request's $(b,rules) field — the daemon certifies the pack \
             before searching with it (rejections come back with each \
             failing rule's counterexample).")
  in
  let run socket query paper cmd raw engine depth states jobs deadline
      node_budget iter_budget telemetry explain execute layout rules =
    let rules_source =
      (* Read the pack here — the daemon never touches client files; the
         wire carries the source text itself. *)
      match rules with
      | None -> Ok None
      | Some path -> (
        match In_channel.with_open_bin path In_channel.input_all with
        | source -> Ok (Some source)
        | exception Sys_error msg ->
          Error (Fmt.str "--rules: cannot read %s: %s" path msg))
    in
    let request_json =
      match (raw, rules_source) with
      | _, Error msg -> Error msg
      | Some line, _ -> (
        match Json.parse_result line with
        | Ok j -> Ok j
        | Error msg -> Error (Fmt.str "--json is not valid JSON: %s" msg))
      | None, Ok rules_source -> (
        match cmd with
        | Some c -> Ok (Json.Obj [ ("cmd", Json.Str c) ])
        | None ->
          let source =
            match (paper, query) with
            | Some p, _ -> Ok ("paper", Json.Str p)
            | None, Some q -> Ok ("query", Json.Str q)
            | None, None ->
              Error "request: expected an OQL query, --paper, --cmd or --json"
          in
          Result.map
            (fun source ->
              let num_opt name v =
                Option.map (fun n -> (name, Json.Num (float_of_int n))) v
              in
              Json.Obj
                (List.filter_map Fun.id
                   [
                     Some source;
                     Option.map (fun e -> ("engine", Json.Str e)) engine;
                     num_opt "depth" depth;
                     num_opt "states" states;
                     num_opt "jobs" jobs;
                     Option.map (fun d -> ("deadline", Json.Num d)) deadline;
                     num_opt "node_budget" node_budget;
                     num_opt "iter_budget" iter_budget;
                     (if telemetry then Some ("telemetry", Json.Bool true)
                      else None);
                     (if explain then Some ("explain", Json.Bool true) else None);
                     Option.map (fun b -> ("execute", Json.Str b)) execute;
                     Option.map (fun l -> ("layout", Json.Str l)) layout;
                     Option.map (fun s -> ("rules", Json.Str s)) rules_source;
                   ]))
            source)
    in
    match request_json with
    | Error msg ->
      Fmt.epr "%s@." msg;
      exit 124
    | Ok j -> (
      match Daemon.Client.connect socket with
      | exception Unix.Unix_error (e, _, _) ->
        Fmt.epr "request: cannot connect to %s: %s (is kolaoptd serving?)@."
          socket (Unix.error_message e);
        exit 1
      | c ->
        let resp = Daemon.Client.request c j in
        Daemon.Client.close c;
        Fmt.pr "%s@." (Json.to_string resp);
        let failed =
          match Option.bind (Json.mem "status" resp) Json.str with
          | Some "ok" -> false
          | _ -> true
        in
        if failed then exit 1)
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:"Send one request to a running daemon and print the response.")
    Term.(
      const run $ socket_arg $ query_opt $ paper $ cmd $ raw $ engine $ depth
      $ states $ jobs $ deadline $ node_budget $ iter_budget $ telemetry
      $ explain $ execute $ layout $ rules)

(* ------------------------------------------------------------------ *)
(* smoke: an in-process end-to-end exercise of the serving path, small
   enough for the default verify loop.  Covers one request per engine, a
   malformed line that must not kill its worker, an unterminated line
   past the size bound, deterministic overload via the sleep_ms debug
   lever, telemetry-on-demand, and a clean shutdown. *)

let smoke_cmd =
  let run () =
    let socket =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "kolaoptd-smoke-%d.sock" (Unix.getpid ()))
    in
    let params =
      { Daemon.default_params with Daemon.workers = 2; queue = 2 }
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
    let failures = ref 0 in
    let check name cond =
      if cond then Fmt.pr "ok   %s@." name
      else begin
        incr failures;
        Fmt.pr "FAIL %s@." name
      end
    in
    let status j = Option.bind (Json.mem "status" j) Json.str in
    let field j name = Json.mem name j in
    (* Raw connection (bypasses the typed client) for malformed lines. *)
    let raw_connect () =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket);
      (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
    in
    let c = Daemon.Client.connect socket in
    let r1 =
      Daemon.Client.request c
        (Json.Obj [ ("id", Json.Num 1.); ("paper", Json.Str "t1k") ])
    in
    check "t1k under bfs answers ok" (status r1 = Some "ok");
    let r2 =
      Daemon.Client.request c
        (Json.Obj
           [
             ("id", Json.Num 2.);
             ("paper", Json.Str "t1k");
             ("engine", Json.Str "egraph");
           ])
    in
    check "t1k under egraph answers ok" (status r2 = Some "ok");
    let r3 =
      Daemon.Client.request c
        (Json.Obj [ ("id", Json.Num 3.); ("paper", Json.Str "t1k") ])
    in
    check "repeat request hits the outcome cache"
      (Option.bind (field r3 "outcome_cache") Json.str = Some "hit");
    (* Malformed input must produce a structured error — and the same
       connection (same worker) must keep answering afterwards. *)
    let fd, ic, oc = raw_connect () in
    output_string oc "{this is not json\n";
    flush oc;
    let bad = Json.parse (input_line ic) in
    check "malformed line answers a structured error"
      (status bad = Some "error");
    output_string oc "{\"id\": 4, \"paper\": \"k4\"}\n";
    flush oc;
    let after = Json.parse (input_line ic) in
    check "worker survives malformed input" (status after = Some "ok");
    let vr =
      Daemon.Client.request c
        (Json.Obj
           [
             ("id", Json.Num 5.);
             ("paper", Json.Str "t1k");
             ("deadline", Json.Num (-1.));
           ])
    in
    let contains hay needle =
      let n = String.length needle and h = String.length hay in
      let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
      go 0
    in
    check "non-positive deadline is rejected by validation"
      (status vr = Some "error"
      &&
      match Option.bind (field vr "error") Json.str with
      | Some m -> contains m "must be positive"
      | None -> false);
    (* Connections pin their worker for their whole lifetime, so close
       the idle ones before the overload phase or the sleepers would
       never be scheduled. *)
    Daemon.Client.close c;
    close_out_noerr oc;
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Unix.sleepf 0.5;
    (* A client streaming 2 MiB with no newline gets an error once the
       line passes the daemon's bound, and its worker is freed for the
       next connection.  The daemon closes mid-stream, so the rest of the
       write fails with EPIPE. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let lfd, lic, _ = raw_connect () in
    let junk = Bytes.make (2 lsl 20) 'x' in
    (try
       let rec go off =
         if off < Bytes.length junk then
           go (off + Unix.write lfd junk off (Bytes.length junk - off))
       in
       go 0
     with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
    (try Unix.shutdown lfd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
    let long =
      try Some (Json.parse (input_line lic)) with End_of_file -> None
    in
    close_in_noerr lic;
    check "unterminated 2 MiB line answers a structured error"
      (Option.bind long status = Some "error");
    let next = Daemon.Client.connect socket in
    let rn =
      Daemon.Client.request next
        (Json.Obj [ ("id", Json.Num 16.); ("paper", Json.Str "t1k") ])
    in
    Daemon.Client.close next;
    check "worker serves the next connection after an oversized line"
      (status rn = Some "ok");
    (* Overload: two sleepers occupy both workers, two more connections
       fill the admission queue, the next connection must be rejected
       from the accept loop. *)
    let sleeper id =
      let conn = Daemon.Client.connect socket in
      Daemon.Client.send conn
        (Json.Obj
           [
             ("id", Json.Num (float_of_int id));
             ("paper", Json.Str "t1k");
             ("sleep_ms", Json.Num 1500.);
           ]);
      conn
    in
    let s1 = sleeper 10 and s2 = sleeper 11 in
    Unix.sleepf 0.3;
    (* workers now hold s1/s2 *)
    let q1 = Daemon.Client.connect socket in
    let q2 = Daemon.Client.connect socket in
    let rejected = ref false in
    let attempts = ref 0 in
    while (not !rejected) && !attempts < 50 do
      incr attempts;
      let extra = Daemon.Client.connect socket in
      (match Daemon.Client.recv extra with
      | r -> if status r = Some "rejected" then rejected := true
      | exception End_of_file -> ());
      Daemon.Client.close extra;
      if not !rejected then Unix.sleepf 0.02
    done;
    check "overload answers rejected with the queue full" !rejected;
    let r10 = Daemon.Client.recv s1 and r11 = Daemon.Client.recv s2 in
    check "sleepers still answer ok after overload"
      (status r10 = Some "ok" && status r11 = Some "ok");
    Daemon.Client.close s1;
    Daemon.Client.close s2;
    Daemon.Client.close q1;
    Daemon.Client.close q2;
    let c = Daemon.Client.connect socket in
    let tr =
      Daemon.Client.request c
        (Json.Obj
           [
             ("id", Json.Num 6.);
             ("paper", Json.Str "t2k");
             ("telemetry", Json.Bool true);
           ])
    in
    check "telemetry on demand embeds spans"
      (status tr = Some "ok" && field tr "telemetry" <> None);
    (* Columnar execution over the daemon's preloaded column store: the
       compiled backend must not fall back, at least one operator must
       lower to a column kernel, and row/columnar runs of the same query
       must agree field-for-field on the deterministic counters. *)
    let exec_req id layout jobs =
      Daemon.Client.request c
        (Json.Obj
           ([
              ("id", Json.Num (float_of_int id));
              ( "query",
                Json.Str "select p.age from p in P where p.age > 25" );
              ("explain", Json.Bool true);
              ("execute", Json.Str "compiled");
              ("layout", Json.Str layout);
            ]
           @ if jobs = 1 then [] else [ ("jobs", Json.Num (float_of_int jobs)) ]
           ))
    in
    let er = exec_req 7 "row" 1 in
    let ec = exec_req 8 "columnar" 1 in
    let ec2 = exec_req 9 "columnar" 2 in
    check "columnar execute answers ok without falling back"
      (status ec = Some "ok"
      && Option.bind (field ec "fell_back") Json.bool = Some false
      && Option.bind (field ec "layout") Json.str = Some "columnar"
      &&
      match Option.bind (field ec "col_kernels") Json.int with
      | Some k -> k > 0
      | None -> false);
    check "row and columnar runs report the same plan"
      (status er = Some "ok"
      && Option.bind (field er "plan") Json.str
         = Option.bind (field ec "plan") Json.str);
    check "columnar execute at jobs 2 answers ok"
      (status ec2 = Some "ok"
      && Option.bind (field ec2 "col_kernels") Json.int
         = Option.bind (field ec "col_kernels") Json.int);
    let bad_layout =
      Daemon.Client.request c
        (Json.Obj
           [
             ("id", Json.Num 12.);
             ("query", Json.Str "select p from p in P");
             ("explain", Json.Bool true);
             ("layout", Json.Str "columnar");
           ])
    in
    check "layout without execute is rejected by validation"
      (status bad_layout = Some "error");
    (* Rule-pack admission: an inline COKO pack must certify, be served,
       and memoize by digest; an unsound pack must come back rejected
       with its counterexample — never silently dropped. *)
    let good_pack =
      "GIVEN injective(?f)\n\
       RULE smoke-inter: inter o (iterate(Kp(T), ?f) x iterate(Kp(T), ?f)) \
       --> iterate(Kp(T), ?f) o inter\n"
    in
    let pack_req id pack =
      Daemon.Client.request c
        (Json.Obj
           [
             ("id", Json.Num (float_of_int id));
             ("paper", Json.Str "t1k");
             ("rules", Json.Str pack);
           ])
    in
    let p1 = pack_req 13 good_pack in
    check "certified pack answers ok with per-rule verdicts"
      (status p1 = Some "ok"
      && field p1 "pack_rules" <> None
      && field p1 "pack_fired" <> None);
    let p2 = pack_req 14 good_pack in
    check "re-sent pack hits the outcome cache"
      (status p2 = Some "ok"
      && Option.bind (field p2 "outcome_cache") Json.str = Some "hit");
    let bad_pack =
      "RULE smoke-r13: ?p (+) <?f, Kf(?k)> --> Cp(?p^-1, ?k) (+) ?f\n"
    in
    let p3 = pack_req 15 bad_pack in
    check "unsound pack is rejected with a counterexample"
      (status p3 = Some "rejected"
      &&
      match field p3 "rules" with
      | Some (Json.Arr [ v ]) -> (
        Json.mem "ok" v = Some (Json.Bool false)
        &&
        match Option.bind (Json.mem "reason" v) Json.str with
        | Some reason -> contains reason "?f :="
        | None -> false)
      | _ -> false);
    let stats =
      Daemon.Client.request c (Json.Obj [ ("cmd", Json.Str "stats") ])
    in
    let rejected_count =
      Option.bind (field stats "service") (fun s ->
          Option.bind (Json.mem "rejected" s) Json.int)
    in
    check "stats reports the rejection"
      (status stats = Some "ok"
      && match rejected_count with Some n -> n >= 1 | None -> false);
    check "stats reports pack admissions and the rejection"
      (match field stats "packs" with
      | Some packs ->
        Option.bind (Json.mem "admitted" packs) Json.int = Some 1
        && Option.bind (Json.mem "rejected" packs) Json.int = Some 1
        &&
        (match Option.bind (Json.mem "cert_cache" packs) (Json.mem "misses") with
        | Some m -> Json.int m = Some 2
        | None -> false)
      | None -> false);
    let sd =
      Daemon.Client.request c (Json.Obj [ ("cmd", Json.Str "shutdown") ])
    in
    check "shutdown answers ok" (status sd = Some "ok");
    Daemon.Client.close c;
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Domain.join server;
    check "socket file removed on exit" (not (Sys.file_exists socket));
    if !failures = 0 then Fmt.pr "smoke: all checks passed@."
    else begin
      Fmt.epr "smoke: %d check(s) failed@." !failures;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "smoke"
       ~doc:
         "Start an in-process daemon and drive the serving path end to end \
          (engines, malformed and oversized input, overload, telemetry, \
          shutdown).")
    Term.(const run $ const ())

let main =
  Cmd.group
    (Cmd.info "kolaoptd" ~version:"1.0.0"
       ~doc:"Optimizer-as-a-service daemon for the KOLA rewrite engines.")
    [ serve_cmd; request_cmd; smoke_cmd ]

let () = exit (Cmd.eval main)
