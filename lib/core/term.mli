(** KOLA terms — the combinator algebra of the paper's Tables 1 and 2.

    Functions ([func]) are invoked with [!], predicates ([pred]) with [?]
    (see {!Eval}).  [Fhole]/[Phole] are pattern metavariables: ground terms
    and rule patterns share one representation, so the rule language needs
    no separate pattern syntax.

    [Arith], [Agg] and [Setop] extend the paper's tables with arithmetic,
    aggregates and set operations — needed for the Section 4.2 precondition
    examples, the count-bug reproduction and realistic workloads. *)

type arith = Add | Sub | Mul
type agg = Count | Sum | Max | Min
type setop = Union | Inter | Diff

type func =
  | Id                        (** id!x = x *)
  | Pi1                       (** π1![x,y] = x *)
  | Pi2                       (** π2![x,y] = y *)
  | Prim of string            (** schema attribute function, e.g. [age] *)
  | Compose of func * func    (** (f ∘ g)!x = f!(g!x) *)
  | Pairf of func * func      (** ⟨f, g⟩!x = [f!x, g!x] *)
  | Times of func * func      (** (f × g)![x,y] = [f!x, g!y] *)
  | Kf of Value.t             (** Kf(c)!x = c *)
  | Cf of func * Value.t      (** Cf(f, c)!y = f![c, y] *)
  | Con of pred * func * func (** con(p,f,g)!x = if p?x then f!x else g!x *)
  | Arith of arith            (** binary, over pairs of ints *)
  | Agg of agg                (** over a set; Max/Min raise on ∅ *)
  | Setop of setop            (** binary, over pairs of sets *)
  | Sng                       (** sng!x = \{x\} *)
  | Flat                      (** flat!A = \{x | x ∈ B, B ∈ A\} *)
  | Iterate of pred * func    (** iterate(p,f)!A = \{f!x | x ∈ A, p?x\} *)
  | Iter of pred * func
      (** iter(p,f)![e,B] = \{f![e,y] | y ∈ B, p?[e,y]\} — the environment-
          passing loop used to translate nested queries *)
  | Join of pred * func
      (** join(p,f)![A,B] = \{f![x,y] | x ∈ A, y ∈ B, p?[x,y]\} *)
  | Nest of func * func
      (** nest(f,g)![A,B] = \{[y, \{g!x | x ∈ A, f!x = y\}] | y ∈ B\} —
          grouping relative to B; unmatched y get ∅, never NULL *)
  | Unnest of func * func
      (** unnest(f,g)!A = \{[f!x, y] | x ∈ A, y ∈ g!x\} *)
  | Fhole of string           (** pattern metavariable *)

and pred =
  | Eq                        (** eq?[x,y] ⟺ x = y *)
  | Leq
  | Gt
  | In                        (** in?[x,A] ⟺ x ∈ A *)
  | Primp of string           (** boolean schema attribute *)
  | Oplus of pred * func      (** (p ⊕ f)?x = p?(f!x) *)
  | Andp of pred * pred
  | Orp of pred * pred
  | Inv of pred               (** negation: rule 7's gt⁻¹ ≡ leq holds *)
  | Conv of pred              (** converse: pᵒ?[x,y] = p?[y,x]; repairs the
                                  paper's rule 13 boundary erratum *)
  | Kp of bool
  | Cp of pred * Value.t      (** Cp(p, c)?y = p?[c, y] *)
  | Phole of string

(** A query is a function applied to an argument, the paper's [f ! v]. *)
type query = { body : func; arg : Value.t }

val query : func -> Value.t -> query

(** {1 Abbreviations} *)

val ( ^>> ) : func -> func -> func
(** [g ^>> f] is [f ∘ g] (left-to-right reading). *)

val compose : func -> func -> func

val sel : pred -> func
(** The paper's footnote-3 [sel p = iterate(p, id)]. *)

val proj : func -> func
(** [proj f = iterate(Kp(T), f)]. *)

val ktrue : pred
val kfalse : pred

(** {1 Composition chains}

    The paper reads [f1 ∘ f2 ∘ ... ∘ fn] without parentheses; rules match
    chains modulo associativity (see {!Rewrite.Rule}). *)

val chain : func list -> func
(** Left-associated composition; [chain [] = Id]. *)

val unchain : func -> func list
(** Flatten nested compositions, any associativity. *)

val reassoc_func : func -> func
(** Left-associate every composition chain, recursively. *)

val reassoc_pred : pred -> pred

(** {1 Equality} *)

val equal_func : func -> func -> bool
val equal_pred : pred -> pred -> bool
val equal_query : query -> query -> bool

val equal_func_assoc : func -> func -> bool
(** Equality modulo associativity of ∘. *)

val equal_pred_assoc : pred -> pred -> bool
val equal_query_assoc : query -> query -> bool

(** {1 Measures and pattern support} *)

val size_func : func -> int
(** Parse-tree node count, the measure of the paper's Section 4.2. *)

val size_pred : pred -> int
val func_is_ground : func -> bool
val pred_is_ground : pred -> bool

val holes_func : func -> string list
(** Holes in a term, each tagged with its sort: ["f:name"], ["p:name"] or
    ["v:name"]. *)

(** {1 Hashing and canonical keys}

    Structural hashes consistent with {!equal_func}/{!equal_pred}: equal
    terms hash equal.  Linear in the term size. *)

val hash_func : func -> int
val hash_pred : pred -> int
val hash_query : query -> int

(** Canonical query keys for hashtable dedup of rewrite states: the query
    reassociated into left-nested composition form, with its hash computed
    once at construction.  Equality compares hashes first and falls back to
    full structural equality, so deduplicating a state costs one traversal
    instead of a pretty-printed string allocation. *)
module Canonical : sig
  type t

  val of_query : query -> t

  val to_query : t -> query
  (** The reassociated query the key was built from. *)

  val equal : t -> t -> bool
  (** Hash equality with structural equality as tiebreak; agrees with
      {!equal_query_assoc} on the original queries. *)

  val hash : t -> int
  (** Precomputed; O(1). *)

  module Table : Hashtbl.S with type key = t
end

(** Hash-consed (interned) terms: one canonical in-memory node per
    structurally distinct subterm, shared maximally.

    Structural equality of interned nodes is physical equality ([==], or
    id comparison); [fhash], [fsize] and [fhole_free] are O(1) field reads
    agreeing with {!hash_func}, {!size_func} and {!func_is_ground}; [fterm]
    is an always-valid plain view making {!Hc.to_func} O(1).  [fheads] is
    the bitmask of head constructors occurring in the subtree (see
    {!Hc.fshape_bit}) and [fcanon] memoizes reassociation, so canonical
    dedup keys cost O(1) amortized per unique subterm.

    Interning is modulo [Value.equal]: objects intern by identity
    ([cls]/[oid]), matching the optimizer's dedup equivalence.  All tables
    are process-global and safe to use from several domains (striped
    mutexes, see {!Hashcons}); node ids are scheduling-dependent under
    concurrency and must only be used as opaque identity keys. *)
module Hc : sig
  type fnode = private {
    fshape : fshape;
    fterm : func;
    fid : int;
    fhash : int;
    fsize : int;
    fheads : int;
    fhole_free : bool;
    mutable fcanon : fnode option;
  }

  and pnode = private {
    pshape : pshape;
    pterm : pred;
    pid : int;
    phash : int;
    psize : int;
    pheads : int;
    phole_free : bool;
    mutable pcanon : pnode option;
  }

  and vnode = private {
    vshape : vshape;
    vterm : Value.t;
    vid : int;
    vhash : int;
    vsize : int;
    vhole_free : bool;
  }

  and fshape = private
    | HId
    | HPi1
    | HPi2
    | HPrim of string
    | HCompose of fnode * fnode
    | HPairf of fnode * fnode
    | HTimes of fnode * fnode
    | HKf of vnode
    | HCf of fnode * vnode
    | HCon of pnode * fnode * fnode
    | HArith of arith
    | HAgg of agg
    | HSetop of setop
    | HSng
    | HFlat
    | HIterate of pnode * fnode
    | HIter of pnode * fnode
    | HJoin of pnode * fnode
    | HNest of fnode * fnode
    | HUnnest of fnode * fnode
    | HFhole of string

  and pshape = private
    | HEq
    | HLeq
    | HGt
    | HIn
    | HPrimp of string
    | HOplus of pnode * fnode
    | HAndp of pnode * pnode
    | HOrp of pnode * pnode
    | HInv of pnode
    | HConv of pnode
    | HKp of bool
    | HCp of pnode * vnode
    | HPhole of string

  and vshape = private
    | HVunit
    | HVbool of bool
    | HVint of int
    | HVstr of string
    | HVpair of vnode * vnode
    | HVset of vnode list
    | HVbag of vnode list
    | HVlist of vnode list
    | HVobj of Value.obj
    | HVnamed of string
    | HVhole of string

  (** {1 Head bitmasks}

      Func heads occupy bits 0-19 (declaration order), pred heads bits
      20-31.  Holes carry no bit; values contribute nothing (rewriting
      never descends into constants). *)

  val fshape_bit : fshape -> int
  val pshape_bit : pshape -> int

  val compose_mask : int
  (** The [Compose] head bit: a node with [fheads land compose_mask = 0]
      contains no composition anywhere, so matching against it degenerates
      to pure structural (= physical) comparison. *)

  (** {1 Smart constructors} *)

  val id : fnode
  val pi1 : fnode
  val pi2 : fnode
  val sng : fnode
  val flat : fnode
  val prim : string -> fnode
  val compose : fnode -> fnode -> fnode
  val pairf : fnode -> fnode -> fnode
  val times : fnode -> fnode -> fnode
  val kf : vnode -> fnode
  val cf : fnode -> vnode -> fnode
  val con : pnode -> fnode -> fnode -> fnode
  val arith : arith -> fnode
  val agg : agg -> fnode
  val setop : setop -> fnode
  val iterate : pnode -> fnode -> fnode
  val iter : pnode -> fnode -> fnode
  val join : pnode -> fnode -> fnode
  val nest : fnode -> fnode -> fnode
  val unnest : fnode -> fnode -> fnode
  val fhole : string -> fnode
  val eq : pnode
  val leq : pnode
  val gt : pnode

  val inp : pnode
  (** [In] ([in] is a keyword). *)

  val primp : string -> pnode
  val oplus : pnode -> fnode -> pnode
  val andp : pnode -> pnode -> pnode
  val orp : pnode -> pnode -> pnode
  val inv : pnode -> pnode
  val conv : pnode -> pnode
  val kp : bool -> pnode
  val cp : pnode -> vnode -> pnode
  val phole : string -> pnode

  val vpair : vnode -> vnode -> vnode
  (** Interned pair value; other value shapes go through {!of_value}. *)

  (** {1 Converters}

      [of_*] intern recursively (O(n), amortized O(1) per node already
      seen); [to_*] are O(1) field reads.  [to_func (of_func f)] is
      [equal_func]-equal to [f] for every term, holes included. *)

  val of_func : func -> fnode
  val of_pred : pred -> pnode
  val of_value : Value.t -> vnode
  val to_func : fnode -> func
  val to_pred : pnode -> pred
  val to_value : vnode -> Value.t

  (** {1 Chains and canonical forms} *)

  val unchain : fnode -> fnode list
  (** Flatten nested compositions, any associativity; mirrors {!unchain}. *)

  val chain : fnode list -> fnode
  (** Left-associated composition; [chain [] = id]. *)

  val canon : fnode -> fnode
  (** Left-associate every composition chain, recursively — the interned
      mirror of {!reassoc_func}, memoized per node ([fcanon]): each unique
      subterm is reassociated once ever, not once per successor. *)

  val canon_pred : pnode -> pnode

  (** {1 Interned queries} *)

  type hquery = { hbody : fnode; harg : vnode }

  val of_query : query -> hquery
  val to_query : hquery -> query

  val query_key : hquery -> int * int
  (** [((canon hbody).fid, harg.vid)] — two queries share a key iff they
      are {!Canonical.equal} (equal modulo ∘-associativity, [Value.equal]
      arguments), so id-pair dedup partitions states exactly like a
      {!Canonical} table, at O(1) amortized per state. *)

  module Qtable : Hashtbl.S with type key = int * int

  val intern_stats : unit -> Hashcons.stats
  (** Merged statistics of the func/pred/value intern tables. *)

  val intern_counters : unit -> Hashcons.stats
  (** Entry/hit/miss counters only ({!Hashcons.Make.counters}): cheap
      enough for the search layer to sample around every exploration. *)
end
