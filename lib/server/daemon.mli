(** kolaoptd's engine room: one long-lived optimizer state shared by
    every request, a worker service with admission control, and the
    Unix-domain-socket serve loop.

    {2 What is shared, and how it is safe}

    - the {e hash-cons tables} ({!Kola.Term.Hc}) are global and striped
      with lock-free hit paths — a subterm interned for one request is
      reused verbatim by every later request (see the audit note in
      [lib/core/hashcons.ml]);
    - one {!Optimizer.Cost.cache} (the search cache, reported as
      [cost_cache] by [stats]) and one {!Optimizer.Cost.plan_cache} are
      shared across workers; their tables are mutex-guarded and their
      counters atomic;
    - an {e outcome cache} memoizes whole optimize answers keyed by the
      canonical query plus every outcome-affecting knob (engine, depth,
      states, e-graph budgets — never [jobs], outcomes are
      jobs-independent by construction).  Deadline-truncated outcomes
      are never cached: they depend on timing, and a later request
      deserves the full answer.

    Requests run at [jobs = 1] concurrently; a request asking for
    intra-request parallelism ([jobs <> 1]) serializes behind a pool
    lease, because {!Kola_parallel.Pool} is single-submitter.  Traced
    requests ([telemetry: true]) serialize behind the global telemetry
    session and embed their own domain's spans in the response.

    {2 Rule packs}

    A search request may carry inline COKO source in its ["rules"] field.
    Admission certifies every pack rule through a shared
    {!Rules.Cert.Cache} (persisted when [params.cert_cache] names a
    file) and memoizes the outcome by source digest, so re-sending a
    pack costs one probe.  An admitted pack's rules shadow same-named
    catalog rules for that request only; its digest joins the outcome
    key.  A failing rule rejects the whole request with
    [{"status":"rejected"}] and per-rule verdicts (counterexamples
    included) — a pack rule is never silently dropped.  [stats] reports
    admissions, rejections, cert-cache hits/misses and per-pack-rule
    winning-path fire counts. *)

type t

type params = {
  workers : int;  (** worker domains; <= 0 means one per recommended core *)
  queue : int;  (** admission bound: pending connections beyond the
                    workers before rejections start *)
  people : int;
  vehicles : int;
  seed : int;  (** sample-store shape, defaults matching [kolaopt]'s *)
  outcome_capacity : int;  (** resident outcome-cache entries *)
  cert_cache : string option;
      (** persisted certificate cache file for rule-pack admission —
          verdicts survive restarts, so a known pack re-admits without
          re-certifying; [None] (default) keeps verdicts in memory *)
}

val default_params : params

val create : ?params:params -> unit -> t
(** Build the shared state and spawn the worker service.  The sample
    database is generated once and shared (cost-cache validity is
    per-database, so one database means the caches never flush). *)

val db : t -> (string * Kola.Value.t) list

val handle : t -> Protocol.t -> Json.t
(** Answer one parsed request.  Total: evaluation errors, parse errors
    in replayed sources, and unexpected exceptions all come back as
    [{"status":"error"}] responses.  [Command (Shutdown, _)] flips the
    stop flag the serve loop polls. *)

val handle_line : t -> string -> Json.t
(** {!Protocol.of_line} then {!handle}; malformed input becomes a
    structured error response. *)

val stopping : t -> bool

val request_stop : t -> unit
(** What [{"cmd":"shutdown"}] does; exposed for embedding. *)

val service_stats : t -> Kola_parallel.Pool.Service.stats

val serve : ?ready:(unit -> unit) -> socket:string -> t -> unit
(** Bind [socket] (unlinking any stale file), call [ready] once
    accepting, and serve until {!request_stop}: each accepted connection
    is submitted to the worker service — or answered with
    {!Protocol.rejected_response} and closed when the admission queue is
    full — and each connection's lines are answered in order until EOF.
    On return the service has drained, the listener is closed and the
    socket file removed. *)

val shutdown : t -> unit
(** Drain and join the worker service (for embedders that never called
    {!serve}, or after it returned). *)

(** Blocking newline-delimited JSON client — the other end of the wire,
    used by [kolaoptd request], the smoke test and the serving bench. *)
module Client : sig
  type conn

  val connect : string -> conn
  (** Connect to a daemon socket path.  @raise Unix.Unix_error *)

  val send : conn -> Json.t -> unit
  (** Write one request line (no response expected yet). *)

  val recv : conn -> Json.t
  (** Read one response line.  @raise End_of_file on a closed peer;
      @raise Json.Parse_error on garbage (a daemon never sends any). *)

  val request : conn -> Json.t -> Json.t
  (** {!send} then {!recv}. *)

  val close : conn -> unit
end
