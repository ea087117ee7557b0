(** A fixed-size pool of OCaml 5 domains with chunked fan-out/fan-in.

    Built directly on [Domain]/[Mutex]/[Condition] (no domainslib): the
    pool spawns [size - 1] helper domains once, keeps them parked on a
    condition variable between jobs, and the submitting domain always
    participates in the work, so a pool of size 1 spawns nothing and runs
    everything inline — the sequential baseline and the parallel engine
    share one code path at the call site.

    Work is distributed by chunk stealing: a job is split into contiguous
    chunks and every domain repeatedly grabs the next unclaimed chunk from
    an atomic counter until none are left.  Fan-in is order-preserving:
    {!map} writes each result into the slot of its input index, so the
    output never depends on which domain computed what, or in which order
    chunks were claimed.

    A pool is NOT reentrant: calling {!run} or {!map} from inside a task
    running on the same pool deadlocks.  Submitting from several domains
    concurrently is likewise unsupported — one submitter at a time. *)

type t

val max_domains : int
(** 32: the most domains a count of domains resolves to when it is left
    to the host ([<= 0] below), and the bound the command line and the
    daemon's protocol put on counts they are given.  A daemon's workers
    and one columnar run's domains at the bound, with the main domain,
    stay well under the OCaml runtime's limit of 128 domains per
    process. *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns a pool of [jobs] domains in total (including
    the caller's).  [jobs <= 0] (and the default) means
    [Domain.recommended_domain_count ()], at most {!max_domains}.
    [jobs = 1] spawns no helper domains at all.  If a spawn fails, the
    helpers already spawned are shut down and joined, and the exception
    is re-raised. *)

val size : t -> int
(** Total domains participating in each job, including the submitter. *)

val run : t -> chunks:int -> (int -> unit) -> unit
(** [run t ~chunks f] executes [f 0 .. f (chunks - 1)], each exactly once,
    across the pool's domains, and returns when all are done.  [f] must
    not raise (use {!map} for user-level work, which captures
    exceptions). *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** Order-preserving parallel map: [map t f xs] is observably
    [Array.map f xs] whenever [f] is pure.  Inputs are processed in
    contiguous chunks claimed dynamically by the pool's domains.  If any
    application raises, the domains start no further items, and one of
    the raised exceptions is re-raised in the submitting domain once the
    job completes. *)

val shutdown : t -> unit
(** Park, join, and release the helper domains.  Idempotent; using the
    pool after [shutdown] raises [Invalid_argument].  A pool that is never
    shut down leaks its domains until exit. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and shuts it down
    afterwards, whether [f] returns or raises. *)

(** Long-lived worker domains draining a bounded FIFO task queue — the
    serving daemon's execution substrate.  Where the pool fans one job
    out and joins it (single submitter, barrier semantics), a service
    accepts independent fire-and-forget tasks from any domain and
    applies admission control: a submission either enqueues or is
    rejected immediately once the backlog reaches the bound, so overload
    degrades into predictable queueing latency plus fast rejections
    instead of an unbounded backlog.  Tasks that raise are swallowed and
    counted — a task can never kill its worker. *)
module Service : sig
  type t

  type stats = {
    workers : int;
    bound : int;      (** queue capacity *)
    queued : int;     (** tasks waiting (instantaneous) *)
    running : int;    (** tasks executing (instantaneous) *)
    submitted : int;  (** accepted since [create] *)
    rejected : int;   (** refused at the admission gate since [create] *)
    errors : int;     (** tasks that raised (and were contained) *)
  }

  val create : ?workers:int -> ?queue:int -> unit -> t
  (** [create ~workers ~queue ()] spawns [workers] domains (default:
      [Domain.recommended_domain_count ()], at most {!max_domains};
      [<= 0] likewise) parked on a queue bounded at [queue] pending tasks
      (default 64). *)

  val submit : t -> (unit -> unit) -> (int, int) result
  (** [submit t task] enqueues [task] and returns [Ok depth] (the
      backlog including it), or [Error depth] without enqueueing when
      the backlog has already reached the bound — the fast-rejection
      path; [depth] is what a 429-style response should report.  Safe to
      call from any domain.  @raise Invalid_argument after {!shutdown}. *)

  val depth : t -> int
  (** Tasks queued and not yet started.  Instantaneous, may be stale by
      the time it returns. *)

  val drain : t -> unit
  (** Block until no task is queued or running. *)

  val stats : t -> stats

  val shutdown : t -> unit
  (** Stop accepting, let the workers drain everything already queued,
      and join them.  Idempotent. *)
end
