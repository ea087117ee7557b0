(* kolaoptd: the optimizer as a long-lived service.

     kolaoptd serve --socket /tmp/kolaoptd.sock --workers 4 --queue 64
     kolaoptd request --paper t1k --engine egraph
     kolaoptd request "select p.age from p in P where p.age > 25"
     kolaoptd request --cmd stats

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
          ~doc:
            "With --execute: domains the columnar executor fans morsels \
             out over (such runs serialize behind a lease).")
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

let main =
  Cmd.group
    (Cmd.info "kolaoptd" ~version:"1.0.0"
       ~doc:"Optimizer-as-a-service daemon for the KOLA rewrite engines.")
    [ serve_cmd; request_cmd ]

let () = exit (Cmd.eval main)
