(** Head-symbol rule indexing.

    Variable-free patterns can only match a node whose root constructor
    equals the pattern's root constructor (composition chains are matched
    modulo associativity, but still only at [Compose] nodes).  Bucketing
    the catalog by that head once makes per-node dispatch constant in the
    catalog size instead of linear.  Candidate lists preserve catalog
    order, so an indexed engine fires exactly the rule the naive engine
    would — equivalence is pinned by the engine-index test suite. *)

(** One constructor per [Kola.Term.func] / [Kola.Term.pred] head. *)
type head =
  | HId
  | HPi1
  | HPi2
  | HPrim
  | HCompose
  | HPairf
  | HTimes
  | HKf
  | HCf
  | HCon
  | HArith
  | HAgg
  | HSetop
  | HSng
  | HFlat
  | HIterate
  | HIter
  | HJoin
  | HNest
  | HUnnest
  | HEq
  | HLeq
  | HGt
  | HIn
  | HPrimp
  | HOplus
  | HAndp
  | HOrp
  | HInv
  | HConv
  | HKp
  | HCp

val head_of_func : Kola.Term.func -> head option
(** [None] for holes (wildcard patterns). *)

val head_of_pred : Kola.Term.pred -> head option

type t

val build : Rule.t list -> t
(** One pass over the rules; bucket lists are materialized lazily per head
    and memoized, so building is cheap even for throwaway indexes. *)

val query_rules : t -> Rule.t list
(** Query rules, tried only at the query level. *)

val candidates_func : t -> Kola.Term.func -> Rule.t list
(** Function rules whose pattern head can match the given node, in catalog
    order (wildcards included). *)

val candidates_pred : t -> Kola.Term.pred -> Rule.t list

(** {1 Interned pruning}

    Hash-consed nodes carry the heads of their whole subtree as a
    precomputed bitmask, so presence pruning is a single [land]. *)

val head_bit : head -> int
(** Bit position of a head in [Kola.Term.Hc.fheads]/[pheads] masks; agrees
    with [Kola.Term.Hc.fshape_bit]/[pshape_bit]. *)

val rule_head_mask : Rule.t -> int
(** The head bit a subtree must contain for the rule to fire anywhere
    inside it — interned nodes carry the occurrence mask of their whole
    subtree ([fheads]/[pheads]), so this turns per-subtree reachability
    into one [land].  [0] when the pattern has no fixed head. *)

val mask_may_fire : int -> Rule.t -> bool
(** Can the rule fire anywhere in a term whose head bitmask (a state
    body's [fheads]) is the given mask?  Query rules and wildcard patterns
    always may; otherwise the pattern's head bit must be set. *)
