(** Zero-dependency engine telemetry: monotonic-clock spans, named
    counters and histograms, collected into per-domain buffers and merged
    at {!stop} time, with two exporters — Chrome [trace_event] JSON
    (loadable in [chrome://tracing] / Perfetto) and a compact text
    summary.

    The library is built for instrumentation that must be provably free
    when disabled: every recording entry point first reads one atomic
    word; when no collection session is active it returns immediately,
    allocating nothing.  Call sites that record one name per item
    (["rule.fire." ^ name]) should build it once, when the item is made,
    as rewrite rules and compiled e-matching rules do; a name that must
    be built per event should at least be guarded by {!enabled}, so the
    disabled path does not even allocate the string.

    Domain safety: each domain records into its own buffer (registered
    lazily through domain-local storage), so recording never contends on
    a lock.  {!start}/{!stop} follow the same single-submitter
    convention as {!Kola_parallel.Pool}: call them from the controlling
    domain while no parallel job is in flight. *)

val now : unit -> float
(** Monotonic clock, in seconds since an arbitrary epoch (boot time on
    Linux).  Safe against wall-clock jumps; use for spans, deadlines and
    budgets.  Works whether or not a session is active. *)

val enabled : unit -> bool
(** Is a collection session active?  One atomic read. *)

val start : unit -> unit
(** Begin a fresh collection session, discarding any active one.
    Events recorded by any domain from now on are collected. *)

(** {1 Recording}

    All recording functions are no-ops (one atomic read) when no session
    is active. *)

val span : ?cat:string -> string -> (unit -> 'a) -> 'a
(** [span ~cat name f] runs [f ()] and records a complete-span event
    around it (begin/end on the monotonic clock, attributed to the
    recording domain).  The span is recorded even when [f] raises; the
    exception is re-raised.  [cat] defaults to ["kola"]. *)

val count : ?n:int -> string -> unit
(** [count name] bumps the named counter by [n] (default 1) in the
    recording domain's buffer; totals are summed across domains at
    {!stop} time. *)

val observe : string -> float -> unit
(** [observe name v] feeds [v] into the named distribution
    (count/sum/min/max, merged across domains at {!stop} time). *)

val instant : ?cat:string -> ?args:(string * string) list -> string -> unit
(** Record a point event (Chrome ["i"] phase) with optional string
    arguments — e.g. a truncation with the rule that truncated, or a
    stop reason. *)

(** {1 Collection} *)

type span_ev = {
  tid : int;  (** recording domain id *)
  name : string;
  cat : string;
  ts_us : float;  (** start, microseconds since session start *)
  dur_us : float;
}

type mark = {
  mtid : int;
  mname : string;
  mcat : string;
  mts_us : float;
  margs : (string * string) list;
}

type dist = { n : int; sum : float; mean : float; min_v : float; max_v : float }

type trace = {
  duration_us : float;  (** session length at {!stop} *)
  spans : span_ev list;  (** chronological *)
  marks : mark list;  (** chronological *)
  counters : (string * int) list;  (** merged across domains, name-sorted *)
  dists : (string * dist) list;  (** merged across domains, name-sorted *)
}

val stop : unit -> trace
(** End the active session and merge every domain's buffer.  Returns the
    empty trace when no session was active. *)

val collecting : (unit -> 'a) -> 'a * trace
(** [collecting f] runs [f] between {!start} and {!stop} and returns its
    result with the collected trace.  If [f] raises, the session is
    stopped (discarding the trace) and the exception propagates. *)

(** {1 Exporters} *)

val to_chrome : trace -> string
(** Chrome [trace_event] JSON ({["{"traceEvents": [...]}"]}): thread
    metadata per recording domain, ["X"] complete events for spans,
    ["i"] instants for marks, ["C"] counter events carrying final
    totals.  Loadable in [chrome://tracing] and Perfetto. *)

val write_chrome : string -> trace -> unit
(** [write_chrome file t] writes {!to_chrome} to [file]. *)

val span_totals : trace -> (string * int * float) list
(** Spans aggregated by name: [(name, calls, total_us)], sorted by total
    time descending — the summary's top table. *)

val pp_summary : Format.formatter -> trace -> unit
(** Compact text block: traced duration, span totals, counters and
    distributions. *)
