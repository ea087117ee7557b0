(* Request parsing and validation for the newline-delimited JSON
   protocol.  Everything is result-valued: untrusted input can only ever
   produce a structured error response, never an exception that would
   cost a worker. *)

(* ------------------------------------------------------------------ *)
(* Validators, shared with kolaopt's cmdliner conversions so the CLI and
   the daemon reject the same inputs with the same messages. *)

let positive_int ~what n =
  if n > 0 then Ok n else Error (Printf.sprintf "%s must be positive, got %d" what n)

let positive_float ~what g =
  if g > 0. then Ok g
  else Error (Printf.sprintf "%s must be positive, got %g" what g)

let nonneg_int ~what n =
  if n >= 0 then Ok n
  else Error (Printf.sprintf "%s must be non-negative, got %d" what n)

let max_domains = Kola_parallel.Pool.max_domains

let domains ~what n =
  if n > max_domains then
    Error (Printf.sprintf "%s must be at most %d, got %d" what max_domains n)
  else nonneg_int ~what n

(* ------------------------------------------------------------------ *)
(* Requests. *)

type source = Oql of string | Paper of string

let paper_query name =
  match String.lowercase_ascii name with
  | "t1k" -> Ok Kola.Paper.t1k_source
  | "t2k" -> Ok Kola.Paper.t2k_source
  | "k4" -> Ok Kola.Paper.k4
  | "kg1" -> Ok Kola.Paper.kg1
  | other ->
    Error
      (Printf.sprintf "unknown paper query %S, accepted: t1k, t2k, k4, kg1"
         other)

type optimize = {
  id : Json.t;
  source : source;
  engine : Optimizer.Search.engine;
  depth : int;
  states : int;
  jobs : int;
  deadline : float option;
  node_budget : int option;
  iter_budget : int option;
  telemetry : bool;
  explain : bool;
  execute : Kola_exec.Exec.backend option;
  layout : Kola_exec.Exec.layout option;
  rules : string option;
  sleep_ms : int;
}

type command = Ping | Stats | Flush | Shutdown

type t = Optimize of optimize | Command of command * Json.t

let engine_label = function
  | Optimizer.Search.Bfs -> "bfs"
  | Optimizer.Search.Egraph -> "egraph"

let ( let* ) = Result.bind

(* Typed field access: [None] (absent) falls back to the default;
   present-but-wrongly-typed is an error naming the field. *)
let opt_field json name access ty =
  match Json.mem name json with
  | None -> Ok None
  | Some v -> (
    match access v with
    | Some x -> Ok (Some x)
    | None -> Error (Printf.sprintf "field %S must be %s" name ty))

let int_field json name ~default validate =
  let* v = opt_field json name Json.int "an integer" in
  match v with
  | None -> Ok default
  | Some n -> validate n

let engine_of_json json =
  let* v = opt_field json "engine" Json.str "a string" in
  match v with
  | None -> Ok Optimizer.Search.Bfs
  | Some s -> (
    match String.lowercase_ascii s with
    | "bfs" -> Ok Optimizer.Search.Bfs
    | "egraph" -> Ok Optimizer.Search.Egraph
    | other ->
      Error (Printf.sprintf "unknown engine %S, accepted engines: bfs, egraph" other))

let source_of_json json =
  match (Json.mem "query" json, Json.mem "paper" json) with
  | Some _, Some _ -> Error "request has both \"query\" and \"paper\"; send one"
  | Some q, None -> (
    match Json.str q with
    | Some s -> Ok (Oql s)
    | None -> Error "field \"query\" must be a string")
  | None, Some p -> (
    match Json.str p with
    | Some s ->
      (* Resolve now so an unknown name fails at parse time, but carry
         the name — the worker re-resolves when answering. *)
      let* _ = paper_query s in
      Ok (Paper s)
    | None -> Error "field \"paper\" must be a string")
  | None, None -> Error "request needs \"query\" (OQL) or \"paper\" (t1k|t2k|k4|kg1)"

let bool_field json name =
  let* v = opt_field json name Json.bool "a boolean" in
  Ok (Option.value ~default:false v)

let optimize_of_json json =
  let id = Option.value ~default:Json.Null (Json.mem "id" json) in
  let* source = source_of_json json in
  let* engine = engine_of_json json in
  let* depth = int_field json "depth" ~default:6 (positive_int ~what:"\"depth\"") in
  let* states =
    int_field json "states" ~default:2000 (positive_int ~what:"\"states\"")
  in
  let* deadline =
    let* v = opt_field json "deadline" Json.num "a number" in
    match v with
    | None -> Ok None
    | Some d ->
      let* d = positive_float ~what:"\"deadline\"" d in
      Ok (Some d)
  in
  let budget name =
    let* v = opt_field json name Json.int "an integer" in
    match v with
    | None -> Ok None
    | Some n ->
      let* n = positive_int ~what:(Printf.sprintf "%S" name) n in
      Ok (Some n)
  in
  let* node_budget = budget "node_budget" in
  let* iter_budget = budget "iter_budget" in
  let* telemetry = bool_field json "telemetry" in
  let* explain = bool_field json "explain" in
  let* execute =
    let* v = opt_field json "execute" Json.str "a string" in
    match v with
    | None -> Ok None
    | Some s -> (
      (* Same parser as kolaopt's --execute, so CLI and wire requests
         reject the same names with the same message. *)
      match Kola_exec.Exec.backend_of_string s with
      | Ok b ->
        if not explain then
          Error "field \"execute\" requires \"explain\": true (execution runs the pipeline's chosen plan)"
        else Ok (Some b)
      | Error msg -> Error msg)
  in
  let* layout =
    let* v = opt_field json "layout" Json.str "a string" in
    match v with
    | None -> Ok None
    | Some s -> (
      (* Same parser as kolaopt's --layout, so CLI and wire requests
         reject the same names with the same message. *)
      match Kola_exec.Exec.layout_of_string s with
      | Ok l ->
        if execute = None then
          Error
            "field \"layout\" requires \"execute\" (the layout selects how \
             the chosen plan is executed)"
        else Ok (Some l)
      | Error msg -> Error msg)
  in
  let* jobs =
    let* v = opt_field json "jobs" Json.int "an integer" in
    match v with
    | None -> Ok 1
    | Some n ->
      let* n = domains ~what:"\"jobs\"" n in
      if execute = None then
        Error
          "field \"jobs\" requires \"execute\" (jobs is the columnar \
           executor's morsel fan-out; a search runs on one domain)"
      else Ok n
  in
  let* rules =
    let* v = opt_field json "rules" Json.str "a string" in
    match v with
    | None -> Ok None
    | Some s ->
      if explain then
        Error
          "field \"rules\" applies to rewrite-space search, not \"explain\" \
           (the pipeline runs fixed transformations)"
      else if String.trim s = "" then
        Error "field \"rules\" must be non-empty COKO source"
      else Ok (Some s)
  in
  let* sleep_ms =
    int_field json "sleep_ms" ~default:0 (nonneg_int ~what:"\"sleep_ms\"")
  in
  Ok
    (Optimize
       {
         id;
         source;
         engine;
         depth;
         states;
         jobs;
         deadline;
         node_budget;
         iter_budget;
         telemetry;
         explain;
         execute;
         layout;
         rules;
         sleep_ms;
       })

let of_json json =
  match json with
  | Json.Obj _ -> (
    let id = Option.value ~default:Json.Null (Json.mem "id" json) in
    match Json.mem "cmd" json with
    | Some cmd -> (
      match Json.str cmd with
      | Some "ping" -> Ok (Command (Ping, id))
      | Some "stats" -> Ok (Command (Stats, id))
      | Some "flush" -> Ok (Command (Flush, id))
      | Some "shutdown" -> Ok (Command (Shutdown, id))
      | Some other ->
        Error
          (Printf.sprintf
             "unknown command %S, accepted: ping, stats, flush, shutdown" other)
      | None -> Error "field \"cmd\" must be a string")
    | None -> optimize_of_json json)
  | _ -> Error "request must be a JSON object"

let of_line line =
  match Json.parse_result line with
  | Error msg -> Error (Printf.sprintf "parse error: %s" msg)
  | Ok json -> of_json json

(* ------------------------------------------------------------------ *)
(* Failure shells. *)

let error_response ?(id = Json.Null) ~queue_depth msg =
  Json.Obj
    (("id", id)
    :: [
         ("status", Json.Str "error");
         ("error", Json.Str msg);
         ("queue_depth", Json.Num (float_of_int queue_depth));
       ])

let rejected_response ~queue_depth =
  Json.Obj
    [
      ("status", Json.Str "rejected");
      ("error", Json.Str "server overloaded: admission queue full");
      ("queue_depth", Json.Num (float_of_int queue_depth));
    ]
