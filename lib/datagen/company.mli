(** A second schema and workload (Employee/Department), demonstrating that
    the algebra, translator, rules and optimizer are schema-generic. *)

val schema : Kola.Schema.t
(** Employee(ename*, salary, dept, mentors), Department(dname*, budget,
    dcity); extents E and D.  Starred attributes are annotated injective. *)

type params = {
  employees : int;
  departments : int;
  max_mentors : int;
  seed : int;
}

val default_params : params

type t = {
  employees : Kola.Value.t list;
  departments : Kola.Value.t list;
  db : (string * Kola.Value.t) list;
}

val generate : params -> t

val scaled : ?seed:int -> int -> t
(** [scaled ~seed n] is a benchmark-scale store with [n] employees and
    [max 8 (n/250)] departments, generated in O(n) with array-backed
    sampling; deterministic in [seed] alone.
    @raise Invalid_argument if [n] is zero, negative, or above
    {!Store.max_scaled_size} (no silent truncation). *)

val db : t -> (string * Kola.Value.t) list

val columnar : t -> Kola.Colstore.db
(** The columnar view of {!db}: E with unboxed salary/ename columns,
    dept dictionary-encoded into D and mentors a [Sets] column into E;
    rows shared with the boxed store. *)

val dept_roster_oql : string
(** A hidden join over this schema (the Garage Query's shape). *)

val rich_mentors_oql : string
(** A data-dependent nested query that must not bottom out. *)

val mentor_pool_oql : string
(** A second hidden join: mentors pooled per department. *)

val city_salaries_oql : string
(** A selective scan-filter-map chain with no join. *)

val local_staff_oql : string
(** A membership filter against a closed (loop-invariant) subquery:
    per-element evaluation is O(|E| * |D|); hoisting plus a hashed probe
    is O(|E| + |D|). *)

val mentor_elite_oql : string
(** An intersection of two derived name sets: nested-loop intersection
    is O(n * m); hashing the smaller side is linear. *)

val payroll_oql : string
(** A filter + sum over one unboxed int column (salary); under eager
    dedup this sums the distinct over-threshold salaries. *)
