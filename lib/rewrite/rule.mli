(** Declarative rewrite rules over KOLA terms.

    A rule is a pair of patterns plus optional precondition properties on
    the functions its holes bind — never code, which is the paper's thesis.
    Three kinds exist: over functions, over predicates, and over whole
    queries (rule 19 moves a constant set into the query argument, so it
    cannot be a pure function rule).  Rules are declared on plain terms
    and fire on interned ones (see {!Kola.Term.Hc}). *)

type body =
  | Fun_rule of Kola.Term.func * Kola.Term.func
  | Pred_rule of Kola.Term.pred * Kola.Term.pred
  | Query_rule of
      (Kola.Term.func * Kola.Value.t) * (Kola.Term.func * Kola.Value.t)

(** The same patterns, interned; built lazily per rule via {!patterns}. *)
type patterns =
  | Fun_pats of Kola.Term.Hc.fnode * Kola.Term.Hc.fnode
  | Pred_pats of Kola.Term.Hc.pnode * Kola.Term.Hc.pnode
  | Query_pats of
      (Kola.Term.Hc.fnode * Kola.Term.Hc.vnode)
      * (Kola.Term.Hc.fnode * Kola.Term.Hc.vnode)

type precondition = { prop : Props.prop; hole : string }

type t = {
  name : string;
  body : body;
  preconditions : precondition list;
  mutable patterns_memo : patterns option;
      (** lazily interned [body]; managed by {!patterns}, reset by {!flip} *)
  fire_counter : string;
      (** ["rule.fire." ^ name]: the telemetry counter of its firings,
          built once by {!make} *)
  miss_counter : string;  (** ["rule.miss." ^ name], likewise *)
}

val make : ?preconditions:precondition list -> name:string -> body -> t

val fun_rule :
  ?preconditions:precondition list -> name:string ->
  Kola.Term.func -> Kola.Term.func -> t

val pred_rule :
  ?preconditions:precondition list -> name:string ->
  Kola.Term.pred -> Kola.Term.pred -> t

val query_rule :
  ?preconditions:precondition list -> name:string ->
  Kola.Term.func * Kola.Value.t -> Kola.Term.func * Kola.Value.t -> t

val flip : t -> t
(** The rule read right-to-left; its name gains a ["-1"] suffix, matching
    the paper's "rule i⁻¹" references. *)

val patterns : t -> patterns
(** The rule's patterns interned, memoized on first use (safe to race:
    every writer stores equivalent nodes). *)

(** {1 Head dispatch}

    A variable-free pattern can only match a node whose root constructor
    is the pattern's own (composition chains match modulo associativity,
    but still only at [Compose] nodes), and interned nodes carry the heads
    of their whole subtree as a bitmask ([fheads]/[pheads]). *)

val head_mask : t -> int
(** The head bit of the left pattern's root ({!Kola.Term.Hc.fshape_bit} /
    {!Kola.Term.Hc.pshape_bit}): the rule fires only at nodes with that
    head, so only inside subtrees whose mask contains it.  [0] for query
    rules and hole-rooted patterns, which may fire anywhere. *)

val mask_may_fire : int -> t -> bool
(** Can the rule fire anywhere in a term whose head bitmask (a state
    body's [fheads]) is the given mask? *)

(** {1 Application} *)

val check_preconditions : Kola.Schema.t -> t -> Subst.t -> bool

val apply_func :
  ?schema:Kola.Schema.t -> t -> Kola.Term.Hc.fnode -> Kola.Term.Hc.fnode option
(** Apply at the root.  Composition chains are matched modulo
    associativity: when both pattern and target are chains, the pattern is
    matched against every window of consecutive target elements and the
    instantiated right-hand side is spliced back in. *)

val apply_pred :
  ?schema:Kola.Schema.t -> t -> Kola.Term.Hc.pnode -> Kola.Term.Hc.pnode option

val apply_query :
  ?schema:Kola.Schema.t -> t -> Kola.Term.Hc.hquery -> Kola.Term.Hc.hquery option
(** Query rules match the tail of the query's composition chain (the
    operator adjacent to the argument) together with the argument itself. *)

val pp : t Fmt.t
