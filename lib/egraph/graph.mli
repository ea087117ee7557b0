(** The e-graph: e-classes over a union-find, hash-consed e-nodes keyed
    by (operator, canonical child classes), and a worklist-driven rebuild
    that restores congruence closure after unions.  Carries a
    Nieuwenhuis–Oliveras proof forest so every equality is explainable as
    a concrete rewrite derivation.

    A graph belongs to the domain that saturates it.  Between
    {!canonicalize} and the next mutation the classes do not change, and
    the matcher reads each class through its {!match_view}. *)

open Lang

(** Why two terms were united. *)
type just =
  | Jrule of string  (** catalog rule name as fired, lhs → rhs *)
  | Jassoc  (** internal ∘-reassociation; invisible modulo associativity *)
  | Jcong  (** same operator, child classes pairwise equal *)

(** A proof-forest node.  [pparent = Some (p, j, fwd)] asserts this
    node's term rewrites to [p]'s term by [j] ([fwd = false]: by [j]
    read right-to-left). *)
type pnode = {
  pterm : wterm;
  mutable pparent : (pnode * just * bool) option;
}

type enode = {
  op : op;
  children : int array;  (** class ids; canonicalized in place on rebuild *)
  witness : wterm;  (** the concrete term this e-node was created from *)
  wproof : pnode;
  mutable ecls : int;  (** class at insertion; resolve through [find] *)
}

type eclass = {
  mutable nodes : enode list;  (** every member, congruent copies included *)
  mutable parents : enode list;  (** e-nodes with this class as a child *)
  mutable cmask : int;  (** OR of member operators' head bits *)
  csort : sort;
  cwitness : wterm;  (** first member's witness; stable across merges *)
}

type t

val create : unit -> t

val find : t -> int -> int
(** Canonical class id. *)

val n_nodes : t -> int
val n_unions : t -> int
val n_classes : t -> int

val eclass : t -> int -> eclass
val nodes : t -> int -> enode list
val parents : t -> int -> enode list
val class_mask : t -> int -> int
val class_sort : t -> int -> sort
val witness : t -> int -> wterm
val iter_classes : t -> (int -> eclass -> unit) -> unit

val class_roots : t -> int list
(** Live roots in ascending id order — a stable iteration order for the
    match phase, independent of hash-table internals. *)

val take_touched : t -> int list
(** Roots (canonical) of every class changed — created or merged into —
    since the previous call; clears the accumulator.  Drives the
    saturation loop's freshness stamps. *)

val canonicalize : t -> unit
(** Build every class's {!match_view}, valid until the next mutation. *)

val match_view : t -> int -> enode list
(** The class's members with every later congruent copy dropped: the
    first member of each canonical (operator, child classes) key, in
    {!nodes} order.  A copy matches exactly like its first twin, so
    e-matching iterates this view while {!nodes} keeps every member and
    its witness.  Raises [Invalid_argument] once an e-node was added or
    two classes united since the last {!canonicalize}. *)

val add_term : t -> wterm -> int
(** Class of [w], inserting e-nodes for any unseen subterms.  Memoized
    per term: re-adding returns the current class without touching the
    graph. *)

val find_term : t -> wterm -> int option
(** Current class of a previously added term; [None] if never added. *)

val add_query : t -> Kola.Term.Hc.hquery -> int

val union : t -> ja:wterm -> jb:wterm -> just:just -> int -> int -> bool
(** Merge the classes of the two ids, justified by [just] rewriting [ja]
    (a term of the first class) into [jb] (a term of the second).  Both
    terms must already have been added.  [false] when the classes
    already coincided (nothing recorded). *)

val rebuild : t -> unit
(** Restore congruence closure after a batch of unions; iterates the
    dirty-parents worklist to a fixpoint. *)

exception Proof_too_large

type step = just * bool * wterm
(** one rewrite: justification, direction (false = right-to-left), and
    the term it produces *)

val explain : ?max_steps:int -> t -> wterm -> wterm -> step list
(** Derivation between two added, provably-equal terms, congruence edges
    flattened to child rewrites lifted through the parent operator.
    Raises {!Proof_too_large} past [max_steps] (default 200_000) and
    [Invalid_argument] if the terms are not equal. *)
