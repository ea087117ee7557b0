(** Compiled plan execution: lower a chosen {!Kola.Term.query} into fused
    producer/consumer loops and run it with no per-node dispatch and no
    intermediate collections.  {!Kola.Eval.run} remains the oracle: for
    every supported plan the compiled result equals the interpreted one
    modulo set ordering (see {!agree}); unsupported plans, and every run
    under [Deferred] dedup, fall back to the interpreter explicitly —
    counted, never wrong. *)

open Kola

exception Unsupported of string
(** Raised at compile time on plans the compiler cannot lower (pattern
    holes anywhere in the spine or argument). *)

type counters = {
  mutable tuples : int;  (** elements flowing through pipeline stages *)
  mutable probes : int;  (** hash-table lookups (joins, set ops, groups) *)
  mutable builds : int;  (** hash-table inserts (build sides, groups) *)
  mutable morsels : int;
      (** morsels dispatched to the pool: ⌈n / 65 536⌉ per fanned-out
          kernel, none for an inline run *)
}

(** {1 Store layout} *)

type layout = Row | Columnar

val layout_name : layout -> string
val layout_of_string : string -> (layout, string) result

(** {1 Compilation} *)

type compiled

val compile : ?coldb:Colstore.db -> Term.query -> compiled
(** Lower a query into closures + an {!Ir.node} description, for
    [Eager] dedup.  One scalar compiler turns every per-element function
    and predicate into closures over a leaf that says where the element
    lives: the boxed element on the row path; with [coldb], a scan's
    row, an [iter]'s ⟨environment, row⟩ or a nested select's ⟨parent
    row, element row⟩, read through typed columns.  A node whose
    operands are typed compiles typed; any other boxes its input and
    runs the row semantics, one leaf at a time.  Extent scans then bind
    to [coldb]'s relations, and eligible operators lower to column
    kernels (vectorised filters, typed projections with the maps after
    them composed in, unboxed aggregates, int-keyed joins, the fused
    equality and membership group-joins, nested selects over a set
    attribute, typed over its element relation).  A filter whose
    predicate needs the run context runs the same row kernel as under
    the row layout, counted in {!col_degrades}.  Compiling a nested
    select may build an element relation or column of [coldb] on first
    use ({!Kola.Colstore.elements}).
    @raise Unsupported on holes; never raises on ground plans. *)

val compile_opt : ?coldb:Colstore.db -> Term.query -> (compiled, string) result

val ir : compiled -> Ir.node
val compiled_query : compiled -> Term.query

val col_kernels : compiled -> int
(** Operators lowered to column kernels (0 on row-layout plans): each
    columnar filter/map, composed map, aggregate, join, group-join, and
    nested select whose predicate and head both compile typed on an
    element relation. *)

val col_degrades : compiled -> string list
(** Reasons columnar inputs stayed on row kernels, in lowering order. *)

val execute :
  ?pool:Kola_parallel.Pool.t ->
  db:(string * Value.t) list -> compiled -> Value.t * counters
(** Run a compiled plan under [Eager] dedup.  The final set is built by
    a streaming hash dedup (only distinct elements are sorted, and a
    stream that arrives in canonical order is not sorted at all).  A
    plan whose result is a typed projection of a columnar scan (ints,
    strings, bools or extent rows) is deduplicated on its unboxed
    values, and only the distinct values are boxed.
    With [pool], pure columnar kernels fan out over fixed-size morsels;
    morsel boundaries and merge order never depend on the pool size, so
    results are bit-identical at any [jobs].
    @raise Eval.Error with the interpreter's messages on ill-typed data,
    and when a columnar plan is executed against a database other than
    the one its column store was materialized from. *)

(** {1 Backend selection} *)

type backend = Interp of Eval.backend | Compiled

val backend_name : backend -> string
(** ["compiled"], ["interp"] (hashed) or ["interp-naive"]. *)

val backend_of_string : string -> (backend, string) result

type stats = {
  backend : backend;  (** the backend that actually ran *)
  fell_back : bool;
      (** the compiler did not take the run (a hole in the plan, or
          [Deferred] dedup); the interpreter ran instead *)
  fallback_reason : string option;
  compile_us : float;
  run_us : float;
  tuples : int;
  probes : int;
  builds : int;
  stages : int;        (** pipeline stages in the compiled IR *)
  scalar_nodes : int;  (** spine nodes compiled as scalar closures *)
  layout : layout;     (** store layout the plan was compiled for *)
  jobs : int;          (** pool size morsel kernels could fan out to *)
  morsels : int;
      (** morsels dispatched to the pool: ⌈n / 65 536⌉ per fanned-out
          kernel, none for an inline run *)
  col_kernels : int;   (** operators lowered to column kernels *)
  col_degrades : string list;
      (** columnar inputs kept on row kernels, with reasons *)
}

val run :
  ?backend:backend -> ?dedup:Eval.dedup -> ?layout:layout -> ?jobs:int ->
  ?pool:Kola_parallel.Pool.t -> ?coldb:Colstore.db ->
  db:(string * Value.t) list -> Term.query -> Value.t * stats
(** Execute a query under the chosen backend (default [Compiled]) and
    [dedup] (default [Eager]).  The interpreter backends run either
    dedup.  A compiled run under [Deferred], or one that raises
    {!Unsupported}, runs on the hashed interpreter instead, with
    [fell_back] set and a reason; the fallback is counted globally and
    in telemetry ([exec.fallback]).

    [layout = Columnar] compiles against [coldb] (materialized from [db]
    with {!Kola.Colstore.of_db} when not supplied).  [jobs > 1] lets pure
    columnar kernels fan out over a transient pool of that many domains;
    passing [pool] instead reuses a caller-owned pool (and [jobs] is
    ignored).  Results are identical across layouts and pool sizes. *)

val fallback_count : unit -> int
(** Process-wide count of compiled runs that fell back to the
    interpreter. *)

val agree : db:(string * Value.t) list -> Value.t -> Value.t -> bool
(** Result equality modulo set ordering, deferred bags, and [Named]
    indirection, then field by field ({!Kola.Value.deep_equal}): an
    emitted object that is a stale copy of the expected one (same class
    and oid, other fields) disagrees.  The oracle equivalence the
    differential tests and gates pin. *)

val pp_stats : stats Fmt.t
