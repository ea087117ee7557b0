(** Strategy combinators for applying rules throughout a term.

    A strategy is a partial transformation on targets (functions or
    predicates); [None] means "did not apply".  Strategies descend through
    every syntactic position where a function or predicate occurs. *)

type target = F of Kola.Term.func | P of Kola.Term.pred
type t = target -> target option

val as_f : target -> Kola.Term.func option
val as_p : target -> Kola.Term.pred option
val of_fun_rewrite : (Kola.Term.func -> Kola.Term.func option) -> t
val of_pred_rewrite : (Kola.Term.pred -> Kola.Term.pred option) -> t

val of_rule : ?schema:Kola.Schema.t -> Rule.t -> t
(** The rule applied at the root of the target. *)

val fail : t
val id_strategy : t
val seq : t -> t -> t
val choice : t -> t -> t
val choice_all : t list -> t

val attempt : t -> t
(** Always succeeds; identity on failure. *)

val repeat : ?fuel:int -> t -> t
(** Apply while applicable; succeeds iff it applied at least once. *)

val one_child : t -> t
(** Apply to the first child position (left to right) where it succeeds. *)

val once_topdown : t -> t
(** Apply once, at the outermost (leftmost) matching position. *)

val once_bottomup : t -> t

val fixpoint : ?fuel:int -> t -> t
(** Exhaustively apply anywhere (leftmost-outermost) until no position
    matches. *)

val normalize : ?fuel:int -> t -> t
(** [attempt (fixpoint s)]. *)

val apply_func : t -> Kola.Term.func -> Kola.Term.func option
val apply_pred : t -> Kola.Term.pred -> Kola.Term.pred option

(** Strategies over hash-consed nodes, for the search's successor
    enumeration.  The traversal mirrors the plain one position-for-position
    (left to right, predicate before function children, no descent into
    constant values), so an interned [once_topdown] visits exactly the
    positions the plain one does, in the same order. *)
module H : sig
  type target = F of Kola.Term.Hc.fnode | P of Kola.Term.Hc.pnode
  type t = target -> target option

  val of_rule : ?schema:Kola.Schema.t -> Rule.t -> t
  (** The rule applied at the root of the target. *)

  val once_topdown_masked : mask:int -> t -> t
  (** Apply once, at the outermost (leftmost) matching position, skipping
      subtrees whose head bitmask ([fheads]/[pheads]) has no bit of
      [mask] — O(1) per skipped subtree instead of a walk.  With [mask] =
      {!Index.rule_head_mask} of the rule being applied, it visits the
      same matching positions in the same order as an unpruned traversal;
      [mask = 0] disables pruning. *)

  val apply_func : t -> Kola.Term.Hc.fnode -> Kola.Term.Hc.fnode option
end
