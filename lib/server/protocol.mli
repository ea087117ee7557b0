(** The kolaoptd wire protocol: newline-delimited JSON, one request per
    line in, one response per line out.

    An optimize request selects a query (inline OQL or one of the
    paper's named KOLA queries), an engine, and the same knobs [kolaopt
    search] exposes; defaults match the CLI's, so a bare
    [{"query": "..."}] and a bare [kolaopt search "..."] answer with
    bit-identical outcomes.  Admin commands ([ping], [stats], [flush],
    [shutdown]) drive the daemon itself.

    Every parse or validation failure is a [(Error msg)] value — the
    daemon turns it into a [{"status":"error"}] response; nothing in
    this module raises on untrusted input. *)

(** {1 Field validators}

    Shared with the CLI (both [kolaopt]'s cmdliner conversions and the
    daemon's request parsing reject the same inputs with the same
    message shape). *)

val positive_int : what:string -> int -> (int, string) result
(** [Error "<what> must be positive, got <n>"] unless [n > 0]. *)

val positive_float : what:string -> float -> (float, string) result
(** [Error "<what> must be positive, got <g>"] unless [g > 0] (so a
    deadline can never be born expired). *)

val nonneg_int : what:string -> int -> (int, string) result
(** [Error "<what> must be non-negative, got <n>"] unless [n >= 0]. *)

val max_domains : int
(** {!Kola_parallel.Pool.max_domains} (32): the most domains a count of
    domains may ask for — a daemon's [--workers], or the [jobs] of one
    columnar run (a request's field, [kolaopt run --jobs]).  A count of
    0 resolves to at most this many too.  Workers and one run's domains
    at the bound, with the main domain, stay well under the OCaml
    runtime's limit of 128 domains per process. *)

val domains : what:string -> int -> (int, string) result
(** A count of domains: [Error] unless [0 <= n <= max_domains], naming
    the bound when [n] passes it.  0 means one domain per recommended
    core, at most [max_domains]. *)

(** {1 Requests} *)

type source =
  | Oql of string  (** inline OQL, translated per request *)
  | Paper of string  (** "t1k" | "t2k" | "k4" | "kg1" *)

val paper_query : string -> (Kola.Term.query, string) result
(** The named paper query, or an error listing the accepted names. *)

type optimize = {
  id : Json.t;  (** echoed verbatim in the response; [Null] if absent *)
  source : source;
  engine : Optimizer.Search.engine;
  depth : int;  (** default 6, positive *)
  states : int;  (** default 2000, positive *)
  jobs : int;
      (** with [execute]: domains the columnar executor fans morsels out
          over (default 1, non-negative; 0 = one per recommended core).
          Rejected without [execute]: a search runs on one domain *)
  deadline : float option;  (** seconds, strictly positive *)
  node_budget : int option;  (** e-graph, strictly positive *)
  iter_budget : int option;  (** e-graph, strictly positive *)
  telemetry : bool;
      (** collect this request's telemetry spans and embed them in the
          response *)
  explain : bool;
      (** run the full pipeline (normalize + untangle + plan choice over
          the shared plan cache) instead of rewrite-space search *)
  execute : Kola_exec.Exec.backend option;
      (** with [explain]: also execute the chosen plan through this
          backend and report execution stats; [compiled] falls back to
          the interpreter on unsupported plans (reported, never wrong) *)
  layout : Kola_exec.Exec.layout option;
      (** with [execute]: store layout for the run — ["columnar"] binds
          the plan to the daemon's preloaded column store (eligible
          operators run as column kernels, [jobs] domains fan pure
          kernels over morsels); results are identical across layouts
          and jobs counts *)
  rules : string option;
      (** inline COKO rule-pack source (the contents of a [.coko] file,
          not a path — the daemon never reads client filesystems).  The
          daemon admits the pack — certifying every rule, caching the
          admission by source digest — before searching with its rules
          shadowing same-named catalog rules; a failing rule rejects the
          request with each refuted rule's counterexample.  Search
          requests only; [explain] runs fixed transformations. *)
  sleep_ms : int;
      (** debug lever: hold the worker for this long before answering —
          lets tests and the smoke drive the admission gate
          deterministically *)
}

type command = Ping | Stats | Flush | Shutdown

type t =
  | Optimize of optimize
  | Command of command * Json.t  (** command, request id *)

val engine_label : Optimizer.Search.engine -> string

val of_json : Json.t -> (t, string) result
val of_line : string -> (t, string) result
(** [of_line] parses the JSON first; malformed JSON is an [Error] like
    any other bad field. *)

(** {1 Response shells}

    The daemon assembles successful responses itself (they embed outcome
    data); the failure shells live here so every layer — worker, accept
    loop, client — emits the same shape. *)

val error_response : ?id:Json.t -> queue_depth:int -> string -> Json.t
(** [{"id":…,"status":"error","error":msg,"queue_depth":n}] *)

val rejected_response : queue_depth:int -> Json.t
(** [{"status":"rejected","error":"server overloaded…","queue_depth":n}]
    — the 429-style admission-control answer, written by the accept
    loop without ever touching a worker. *)
