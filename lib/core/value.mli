(** Values of the KOLA / AQUA object model.

    Sets are canonical (sorted, duplicate-free), so structural equality is
    set equality.  Objects have identity-based equality ([cls] and [oid]
    only), as in the object-oriented data models the paper targets.
    [Named] refers to a top-level database collection (the paper's P and
    V); it is resolved at evaluation time against a database environment. *)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Str of string
  | Pair of t * t
  | Set of t list  (** canonical: sorted, deduplicated; use {!set} to build *)
  | Bag of t list  (** sorted, duplicates kept; use {!bag} to build *)
  | List of t list (** order- and duplicate-preserving *)
  | Obj of obj
  | Named of string  (** a named database extent *)
  | Hole of string   (** pattern metavariable; invalid in ground values *)

and obj = { cls : string; oid : int; fields : (string * t) list }

exception Not_ground of string

(** Total order on values; objects compare by class and oid only. *)
val compare : t -> t -> int

val equal : t -> t -> bool

val deep_equal : t -> t -> bool
(** Field-by-field equality: like {!equal}, but objects must also agree
    on every field, so a stale copy of an object (same class and oid,
    other fields) differs from its extent row.  Collections compare
    element by element in their stored order. *)

(** Hash consistent with {!equal}. *)
val hash : t -> int

val shallow_hash : int -> t -> int
(** [shallow_hash depth v]: a hash of [v]'s first [depth] levels, and of
    at most four elements of each collection, so its work is bounded
    however large [v] is.  Consistent with {!equal} (objects hash by
    oid); values that differ only deeper collide. *)

(** {1 Smart constructors} *)

val set : t list -> t
(** [set xs] sorts and deduplicates. *)

val bag : t list -> t
(** [bag xs] sorts (canonical bag) and keeps duplicates. *)

val list : t list -> t
val pair : t -> t -> t
val int : int -> t
val str : string -> t
val bool : bool -> t
val obj : cls:string -> oid:int -> (string * t) list -> t

(** {1 Observers} *)

val field : string -> t -> t option
(** [field name v] reads an object attribute. *)

val assoc : string -> (string * 'a) list -> 'a option
(** [List.assoc_opt] on string keys, comparing with [String.equal]. *)

val set_elements : t -> t list option

val is_ground : t -> bool
(** [false] iff the value contains a {!Hole} anywhere. *)

val size : t -> int
(** Parse-tree node count (sets and bags count as one node plus their
    elements; object internals are opaque). *)

val pp : t Fmt.t

val pp_brief : t Fmt.t
(** {!pp} showing at most 16 collection elements in all; each collection
    cut short ends with [... (n more)].  A value with at most 16
    collection elements prints exactly as {!pp} prints it.  Error
    messages use it, so a failure on a large set formats a short
    prefix. *)

val to_string : t -> string
